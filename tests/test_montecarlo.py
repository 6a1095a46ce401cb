import math

import numpy as np
import pytest

from icfsim import (
    ScanPattern,
    SourceModel,
    estimate_icf,
    estimate_scan,
    g3_point,
    icf_general,
    scan,
)
from icfsim.errors import BadBatching, CustomModelNotSamplable

COHERENT = SourceModel.coherent()
THERMAL = SourceModel.thermal()
GRID25 = np.linspace(0.0, 2.0 * np.pi, 25)


class TestEstimateIcf:
    def test_coherent_triple_at_zero_phases(self):
        est = estimate_icf(COHERENT, [0.0, 0.0, 0.0], 1_000_000, seed=101)
        assert abs(est.value - 2.5) < 5 * est.stderr
        assert est.n_samples == 1_000_000
        assert est.n_batches == 100

    def test_thermal_pair_at_zero_phase(self):
        est = estimate_icf(THERMAL, [0.0, 0.0], 1_000_000, seed=102)
        assert abs(est.value - 2.0) < 5 * est.stderr

    def test_single_detector_exactly_one(self):
        est = estimate_icf(COHERENT, [0.0], 10_000, seed=103)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_custom_model_not_samplable(self):
        with pytest.raises(CustomModelNotSamplable):
            estimate_icf(SourceModel.custom({2: 2.0}), [0.0, 0.0], 1000, seed=1)

    def test_batching_preconditions(self):
        with pytest.raises(BadBatching):
            estimate_icf(COHERENT, [0.0, 0.0], 1000, n_batches=5, seed=1)
        with pytest.raises(BadBatching):
            estimate_icf(COHERENT, [0.0, 0.0], 1001, n_batches=100, seed=1)
        # fewer samples than batches: no sample in a batch, or a negative count
        for n_samples in (0, -100, 50):
            with pytest.raises(BadBatching):
                estimate_icf(COHERENT, [0.0, 0.0], n_samples, n_batches=100, seed=1)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.linspace(0, 2 * np.pi, 3))
        with pytest.raises(ValueError, match="workers"):
            estimate_icf(COHERENT, [0.0, 0.0], 1000, n_batches=10, seed=1,
                         workers=workers)
        with pytest.raises(ValueError, match="workers"):
            estimate_scan(COHERENT, pattern, 1000, n_batches=10, seed=1,
                          workers=workers)

    @pytest.mark.parametrize("model,delta", [
        (THERMAL, [0.9, 0.0, -0.9]),
        (COHERENT, [0.8, 0.0, -0.8, -1.6]),
    ])
    def test_unbiased_within_five_stderr_on_repeated_runs(self, model, delta):
        # >= 99 of 100 independent runs must cover the oracle value at 5 se
        target = icf_general(model, delta)
        hits = 0
        for s in range(100):
            est = estimate_icf(model, delta, 100_000, seed=1000 + s)
            hits += abs(est.value - target) < 5 * est.stderr
        assert hits >= 99

    def test_envelope_model_agrees_with_oracle(self):
        model = SourceModel.thermal(coherence_width=2 * np.pi)
        delta = [1.0, 0.0, -1.0]
        est = estimate_icf(model, delta, 400_000, seed=44)
        assert abs(est.value - icf_general(model, delta)) < 5 * est.stderr


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        a = estimate_icf(THERMAL, [0.4, 0.0], 50_000, seed=7)
        b = estimate_icf(THERMAL, [0.4, 0.0], 50_000, seed=7)
        assert a == b

    def test_worker_count_does_not_change_values(self):
        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.linspace(0, 2 * np.pi, 7))
        serial = estimate_scan(THERMAL, pattern, 20_000, n_batches=20, seed=9)
        threaded = estimate_scan(THERMAL, pattern, 20_000, n_batches=20, seed=9,
                                 workers=4)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.stderrs, threaded.stderrs)

    def test_point_estimate_worker_count_independent(self):
        # 100 batches of 1000 samples make several tasks, the last one short
        delta = [0.5, 0.0, -0.5, 1.1]
        serial = estimate_icf(THERMAL, delta, 100_000, seed=12)
        threaded = estimate_icf(THERMAL, delta, 100_000, seed=12, workers=2)
        assert serial == threaded

    @pytest.mark.parametrize("model", [THERMAL, SourceModel.coherent(coherence_width=1.5)])
    def test_batch_sums_independent_of_task_split(self, model):
        from icfsim.montecarlo import _task_sums
        delta = np.array([0.9, 0.0, -0.9, 1.7])
        seeds = np.random.SeedSequence(61).spawn(21)
        split = {}
        for per_task in (1, 3, 7):
            parts = [_task_sums(model, delta, seeds[k:k + per_task], 999)
                     for k in range(0, len(seeds), per_task)]
            split[per_task] = (np.concatenate([p for p, _ in parts]),
                               np.concatenate([s for _, s in parts]))
        for per_task in (3, 7):
            assert np.array_equal(split[per_task][0], split[1][0])
            assert np.array_equal(split[per_task][1], split[1][1])

    def test_one_pool_per_scan_call(self, monkeypatch):
        import icfsim.montecarlo as mc
        created = []

        class SpyPool(mc.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers", args[0] if args else None))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", SpyPool)
        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.linspace(0, 2 * np.pi, 7))
        estimate_scan(THERMAL, pattern, 20_000, n_batches=20, seed=9)
        assert created == []
        estimate_scan(THERMAL, pattern, 20_000, n_batches=20, seed=9, workers=2)
        assert created == [2]

    def test_point_estimate_independent_of_grid(self):
        # substreams are keyed by grid index from the run seed, so a point
        # estimate depends only on its index
        g1 = np.linspace(0, 2 * np.pi, 5)
        g2 = g1[:3]
        p1 = estimate_scan(COHERENT, ScanPattern(order=3, scheme="symmetric_opposite", grid=g1),
                           10_000, n_batches=10, seed=21)
        p2 = estimate_scan(COHERENT, ScanPattern(order=3, scheme="symmetric_opposite", grid=g2),
                           10_000, n_batches=10, seed=21)
        assert np.array_equal(p1.values[:3], p2.values)

    def test_batch_mean_set_invariant_under_merge_order(self):
        from icfsim.montecarlo import _task_sums, _ratio
        delta = np.array([0.3, 0.0, -0.3])
        root = np.random.SeedSequence(55)
        seeds = root.spawn(20)
        ratios = [_ratio(*_task_sums(THERMAL, delta, [s], 1000), count=1000)[0]
                  for s in seeds]
        rng = np.random.default_rng(0)
        for _ in range(5):
            order = rng.permutation(20)
            shuffled = [_ratio(*_task_sums(THERMAL, delta, [seeds[i]], 1000), count=1000)[0]
                        for i in order]
            assert sorted(shuffled) == sorted(ratios)


class TestEstimateScan:
    def test_coherent_order3_visibility(self):
        pattern = ScanPattern(order=3, scheme="symmetric_opposite", grid=GRID25)
        est = estimate_scan(COHERENT, pattern, 100_000, seed=202)
        assert abs(est.visibility - 9 / 11) < 0.02
        assert est.stderrs is not None and np.all(est.stderrs >= 0)

    def test_thermal_order4_visibility(self):
        pattern = ScanPattern(order=4, scheme="four_point_double_speed", grid=GRID25)
        est = estimate_scan(THERMAL, pattern, 1_000_000, seed=203)
        assert abs(est.visibility - 7 / 9) < 0.03

    def test_single_point_pattern_has_zero_visibility(self):
        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.array([0.5]))
        est = estimate_scan(THERMAL, pattern, 10_000, n_batches=10, seed=204)
        assert est.visibility == 0.0

    def test_pointwise_agreement_with_analytic(self):
        pattern = ScanPattern(order=3, scheme="symmetric_opposite", grid=GRID25)
        est = estimate_scan(THERMAL, pattern, 100_000, seed=205)
        truth = scan(THERMAL, pattern)
        within = np.abs(est.values - truth.values) < 3 * est.stderrs
        assert within.mean() >= 0.95


class TestStderrScaling:
    def test_stderr_is_batch_std_over_sqrt_batches(self):
        from icfsim.montecarlo import _task_sums, _ratio
        delta = np.array([0.6, 0.0])
        est = estimate_icf(THERMAL, delta, 20_000, n_batches=20, seed=77)
        seeds = np.random.SeedSequence(77).spawn(20)
        ratios = np.array([_ratio(*_task_sums(THERMAL, delta, [s], 1000), count=1000)[0]
                           for s in seeds])
        assert est.stderr == pytest.approx(ratios.std(ddof=1) / math.sqrt(20),
                                           rel=1e-12)
        assert est.n_samples == 20 * 1000

    def test_quadrupling_samples_halves_stderr_within_factor_two(self):
        small = estimate_icf(THERMAL, [0.7, 0.0, -0.7], 100_000, seed=301)
        large = estimate_icf(THERMAL, [0.7, 0.0, -0.7], 400_000, seed=302)
        ratio = small.stderr / large.stderr
        assert 1.0 < ratio < 4.0  # ideal value 2, allow a factor-2 band


class TestEnvelopeScan:
    def test_two_period_width_visibility_bracketed(self):
        model = SourceModel.thermal(coherence_width=2 * np.pi)
        pattern = ScanPattern(order=3, scheme="symmetric_opposite", grid=GRID25)
        est = estimate_scan(model, pattern, 100_000, seed=401)
        assert 0.3 < est.visibility < 0.6

    def test_infinite_width_matches_plain_model(self):
        wide = SourceModel.thermal(coherence_width=1e15)
        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.linspace(0, 2 * np.pi, 7))
        a = estimate_scan(wide, pattern, 20_000, n_batches=10, seed=402)
        b = estimate_scan(THERMAL, pattern, 20_000, n_batches=10, seed=402)
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_tiny_width_off_center_kills_interference(self):
        model = SourceModel.coherent(coherence_width=1e-3)
        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.linspace(0.5, 2 * np.pi, 25))
        est = estimate_scan(model, pattern, 100_000, seed=403)
        assert est.visibility < 0.01
