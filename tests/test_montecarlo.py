import hashlib
import math
import sys
import threading
from functools import partial

import numpy as np
import pytest

from icfsim import (
    ScanPattern,
    SourceModel,
    cli,
    estimate_icf,
    estimate_scan,
    g3_point,
    icf_general,
    scan,
)
from icfsim.errors import BadBatching, CustomModelNotSamplable
from icfsim.sources import sample_batch, spawn_seeds

COHERENT = SourceModel.coherent()
THERMAL = SourceModel.thermal()
GRID25 = np.linspace(0.0, 2.0 * np.pi, 25)
# the smallest batch size that runs on more than one thread
THREADED = 32_768


def spawned_words(seed, n):
    """The batch seeds of a run, as numpy's own spawned children give them."""
    return np.stack([s.generate_state(4, np.uint64)
                     for s in np.random.SeedSequence(seed).spawn(n)])


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
        # fewer than two samples per batch: no sample in a batch, a negative
        # count, or one sample, whose batch ratio is exactly 1
        for n_samples in (0, -100, 50, 100):
            with pytest.raises(BadBatching):
                estimate_icf(COHERENT, [0.0, 0.0], n_samples, n_batches=100, seed=1)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.linspace(0, 2 * np.pi, 3))
        # small batches run inline, but the workers check still fires
        for batch_size in (100, THREADED):
            with pytest.raises(ValueError, match="workers"):
                estimate_icf(COHERENT, [0.0, 0.0], 10 * batch_size, n_batches=10, seed=1,
                             workers=workers)
            with pytest.raises(ValueError, match="workers"):
                estimate_scan(COHERENT, pattern, 10 * batch_size, n_batches=10, seed=1,
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
        # batches of 1000 samples run inline at any worker count; batches at
        # the threading size run one per task on a pool
        for batch_size in (1000, THREADED):
            serial = estimate_scan(THERMAL, pattern, 20 * batch_size, n_batches=20, seed=9)
            threaded = estimate_scan(THERMAL, pattern, 20 * batch_size, n_batches=20, seed=9,
                                     workers=4)
            assert np.array_equal(serial.values, threaded.values)
            assert np.array_equal(serial.stderrs, threaded.stderrs)

    def test_point_estimate_worker_count_independent(self):
        # 100 batches of 1000 samples make several tasks, the last one short;
        # 20 batches at the threading size make 20 tasks on a pool
        delta = [0.5, 0.0, -0.5, 1.1]
        for n_samples, n_batches in ((100_000, 100), (20 * THREADED, 20)):
            serial = estimate_icf(THERMAL, delta, n_samples, n_batches, seed=12)
            threaded = estimate_icf(THERMAL, delta, n_samples, n_batches, seed=12, workers=2)
            assert serial == threaded

    @pytest.mark.parametrize("model", [THERMAL, SourceModel.coherent(coherence_width=1.5)])
    def test_batch_sums_independent_of_task_split(self, model):
        from icfsim.montecarlo import _task_sums
        delta = np.array([0.9, 0.0, -0.9, 1.7])
        seeds = spawned_words(61, 21)
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
        # 20 batches at the threading size make 20 tasks
        estimate_scan(THERMAL, pattern, 20 * THREADED, n_batches=20, seed=9)
        assert created == []
        estimate_scan(THERMAL, pattern, 20 * THREADED, n_batches=20, seed=9, workers=2)
        estimate_icf(THERMAL, [0.4, 0.0], 20 * THREADED, n_batches=20, seed=9, workers=2)
        assert created == [2, 2]
        # smaller batches run inline: the icfsim mc defaults (100 batches of
        # 1000 samples, 7 tasks), batches just below the threading size,
        # and a one-task call
        estimate_scan(THERMAL, ScanPattern(order=3, scheme="symmetric_opposite", grid=GRID25),
                      100_000, n_batches=100, seed=9, workers=2)
        estimate_scan(THERMAL, pattern, 10 * (THREADED - 2), n_batches=10, seed=9, workers=2)
        estimate_icf(THERMAL, [0.4, 0.0], 2_000, n_batches=10, seed=9, workers=2)
        assert created == [2, 2]
        # workers is an upper bound: two tasks get a pool of two threads, not four
        assert mc.run_tasks(abs, [-1, -2], 4) == [1, 2]
        assert created == [2, 2, 2]

    @pytest.mark.parametrize("estimate", ["point", "scan"])
    def test_no_thread_outlives_a_failed_call(self, monkeypatch, estimate):
        import threading

        import icfsim.montecarlo as mc
        calls = []

        def failing_sample_batch(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("sampling failed")
            return sample_batch(*args, **kwargs)

        pattern = ScanPattern(order=3, scheme="symmetric_opposite",
                              grid=np.linspace(0, 2 * np.pi, 5))

        def run(n_samples, n_batches):
            if estimate == "point":
                return estimate_icf(THERMAL, [0.4, 0.0, -0.4], n_samples, n_batches,
                                    seed=3, workers=2)
            return estimate_scan(THERMAL, pattern, n_samples, n_batches, seed=3, workers=2)

        before = set(threading.enumerate())
        # batches of 2000 samples make 13 tasks of at most 8 batches, run
        # inline; batches at the threading size make one task each, run on
        # a pool
        for n_samples, n_batches in ((200_000, 100), (40 * THREADED, 40)):
            run(n_samples, n_batches)
            assert set(threading.enumerate()) == before
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(mc, "sample_batch", failing_sample_batch)
                with pytest.raises(RuntimeError, match="sampling failed"):
                    run(n_samples, n_batches)
            assert set(threading.enumerate()) == before
            # the failure cancels the tasks that have not started
            assert 3 <= len(calls) < n_batches // 2

    def test_point_estimate_independent_of_grid(self):
        # every point contracts the same per-batch draws, and every sum over
        # them runs in a fixed order, so a point's value and stderr do not
        # depend on the rest of the grid, not even on its length
        def estimate(model, grid):
            p = estimate_scan(model, ScanPattern(order=3, scheme="symmetric_opposite",
                                                 grid=grid), 10_000, n_batches=10, seed=21)
            return p.values.tolist(), p.stderrs.tolist()

        g = np.linspace(0, 2 * np.pi, 5)
        for model in (COHERENT, THERMAL):
            values, stderrs = estimate(model, g)
            assert estimate(model, g[:3]) == (values[:3], stderrs[:3])
            for i in range(len(g)):
                assert estimate(model, g[i:i + 1]) == ([values[i]], [stderrs[i]])

    def test_batch_mean_set_invariant_under_merge_order(self):
        from icfsim.montecarlo import _task_sums, ratio_of_means
        delta = np.array([0.3, 0.0, -0.3])
        seeds = spawned_words(55, 20)
        ratios = [ratio_of_means(*_task_sums(THERMAL, delta, seeds[k:k + 1], 1000), 1000, 1)[0]
                  for k in range(20)]
        rng = np.random.default_rng(0)
        for _ in range(5):
            order = rng.permutation(20)
            shuffled = [ratio_of_means(*_task_sums(THERMAL, delta, seeds[i:i + 1], 1000),
                                       1000, 1)[0]
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


GRID7 = np.linspace(0.0, 2.0 * np.pi, 7)
THERMAL_W = SourceModel.thermal(coherence_width=1.5)

# (model, phases (points, detectors)) for the monomial kernel; the thermal
# order-4 case with a finite width is where cancellation among the monomial
# sums would show, since E[(Ia + Ib)^4] = 120
MONOMIAL_CASES = {
    "order1": (THERMAL, np.linspace(-3.0, 3.0, 5)[:, None]),
    "order2": (COHERENT, ScanPattern(order=2, scheme="symmetric_opposite",
                                     grid=GRID7).delta_array()),
    "order3": (THERMAL, ScanPattern(order=3, scheme="symmetric_opposite",
                                    grid=GRID7).delta_array()),
    "order4": (COHERENT, ScanPattern(order=4, scheme="four_point_double_speed",
                                     grid=GRID7).delta_array()),
    # five detectors: more than ScanPattern accepts, but the kernel takes any order
    "custom-order5": (THERMAL, np.random.default_rng(8).uniform(-np.pi, np.pi, (6, 5))),
    "single-detector": (THERMAL, ScanPattern(order=3, scheme="single_detector", grid=GRID7,
                                             offset=0.7).delta_array()),
    "thermal-order4-width": (THERMAL_W, ScanPattern(order=4, scheme="four_point_double_speed",
                                                    grid=GRID7).delta_array()),
}

SCAN_CASES = {
    "coherent-order3": (COHERENT, ScanPattern(order=3, scheme="symmetric_opposite",
                                              grid=GRID7)),
    "thermal-order4-width": (THERMAL_W, ScanPattern(order=4, scheme="four_point_double_speed",
                                                    grid=GRID7)),
    "single-detector": (THERMAL, ScanPattern(order=3, scheme="single_detector", grid=GRID7,
                                             offset=0.7)),
    "custom-order2": (THERMAL, ScanPattern(order=2, scheme="custom", grid=np.arange(4.0),
                                           deltas=np.random.default_rng(9).uniform(
                                               -np.pi, np.pi, (4, 2)))),
}


class TestSharedSamples:
    """A scan draws once per batch and reduces the draws to monomial sums."""

    @pytest.mark.parametrize("case", list(MONOMIAL_CASES))
    def test_monomial_sums_match_direct_products(self, case):
        from icfsim.montecarlo import _power_sums, _scan_sums, _task_sums
        model, deltas = MONOMIAL_CASES[case]
        seeds = spawned_words(71, 5)
        prod, factors = _scan_sums(model, deltas,
                                   *_power_sums(model, deltas.shape[1], seeds, 2000))
        # the row kernel on the same draws, one point at a time
        direct = [_task_sums(model, delta, seeds, 2000) for delta in deltas]
        np.testing.assert_allclose(prod, np.stack([p for p, _ in direct], axis=1),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(factors, np.stack([s for _, s in direct], axis=1),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", [THERMAL, SourceModel.coherent(coherence_width=1.5)])
    def test_power_sums_independent_of_task_split(self, model):
        from icfsim.montecarlo import _power_sums
        seeds = spawned_words(61, 21)
        whole = _power_sums(model, 4, seeds, 999)
        for per_task in (3, 7):
            parts = [_power_sums(model, 4, seeds[k:k + per_task], 999)
                     for k in range(0, len(seeds), per_task)]
            for sums, split in zip(whole, zip(*parts)):
                assert np.array_equal(np.concatenate(split), sums)

    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_scan_points_equal_estimate_icf(self, case):
        model, pattern = SCAN_CASES[case]
        est = estimate_scan(model, pattern, 20_000, n_batches=20, seed=31)
        for p, delta in enumerate(pattern.delta_array()):
            point = estimate_icf(model, delta, 20_000, n_batches=20, seed=31)
            assert est.values[p] == pytest.approx(point.value, rel=1e-13, abs=0)
            assert est.stderrs[p] == pytest.approx(point.stderr, rel=1e-13, abs=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_draws_once_per_batch(self, monkeypatch, workers):
        import icfsim.montecarlo as mc
        sizes = []

        def spy(model, rng, size, **kwargs):
            sizes.append(size)
            return sample_batch(model, rng, size, **kwargs)

        monkeypatch.setattr(mc, "sample_batch", spy)
        estimate_scan(THERMAL, ScanPattern(order=3, scheme="symmetric_opposite", grid=GRID7),
                      20_000, n_batches=20, seed=9, workers=workers)
        assert sizes == [1000] * 20  # not once per (point, batch)

    @pytest.mark.parametrize("kind,order,samples", [
        ("coherent", 3, 10_000), ("thermal", 3, 100_000), ("thermal", 4, 100_000)])
    def test_mean_visibility_unbiased(self, kind, order, samples):
        # `mc` defaults but for kind, order and samples.  The mean over 40
        # seeds sat 0.77-0.88 median visibility stderrs from the exact grid
        # visibility while each point drew its own samples (the max/min
        # selection bias), and 0.02-0.09 with shared draws.
        model = SourceModel(kind)
        pattern = cli._scan_pattern(dict(vars(cli.build_parser().parse_args(["mc"])), order=order))
        runs = [estimate_scan(model, pattern, samples, 100, seed=seed, workers=2)
                for seed in range(40)]
        bias = abs(np.mean([r.visibility for r in runs]) - scan(model, pattern).visibility)
        assert bias < 0.3 * np.median([r.visibility_stderr() for r in runs])


class TestStderrScaling:
    def test_stderr_is_batch_std_over_sqrt_batches(self):
        from icfsim.montecarlo import _task_sums, ratio_of_means
        delta = np.array([0.6, 0.0])
        est = estimate_icf(THERMAL, delta, 20_000, n_batches=20, seed=77)
        seeds = spawned_words(77, 20)
        ratios = np.array([ratio_of_means(*_task_sums(THERMAL, delta, seeds[k:k + 1], 1000),
                                          1000, 1)[0]
                           for k in range(20)])
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


# estimate_scan at 4 grid points, 100 000 samples in 10 batches (one task per
# batch), seed 2718, as float.hex of (values, stderrs); made once the points
# of a scan shared their draws, and made again once cos and sin came from
# sources.cos_sin.  TestSharedSamples ties them to estimate_icf, and
# TestRepin to the values of numpy's cos and sin in PINNED_SCANS_LIBM.
PINNED_SCANS = {
    ("coherent", 3, "symmetric_opposite"): (
        ["0x1.3fe52bb459a1ap+1", "0x1.000fcde2c4dbcp-2", "0x1.000fcde2c4dbbp-2",
         "0x1.3fe52bb459a1ap+1"],
        ["0x1.884f68e43997ep-7", "0x1.4f11832b868fdp-11", "0x1.4f11832b868bfp-11",
         "0x1.884f68e43997ep-7"]),
    ("thermal", 4, "four_point_double_speed"): (
        ["0x1.83b4e91b73c3fp+4", "0x1.d6f5da429b2d5p+1", "0x1.da7b4e3e05c1ep+1",
         "0x1.83b4e91b73c3fp+4"],
        ["0x1.9c4076c6053f5p-2", "0x1.32f720c6e23f8p-4", "0x1.28f877d3c687dp-4",
         "0x1.9c4076c6053f5p-2"]),
    ("thermal", 3, "single_detector"): (
        ["0x1.024d8de97e9e4p+2", "0x1.a2f199e6f6c4bp+0", "0x1.b096bf2db2097p+1",
         "0x1.024d8de97e9e5p+2"],
        ["0x1.1caaeb9434379p-5", "0x1.248bb6b931bf5p-7", "0x1.35313dd6de079p-5",
         "0x1.1caaeb9434373p-5"]),
}

# estimate_scan at 4 grid points at the icfsim mc batching, 100 batches of
# 1000 samples (tasks of 16 batches, the last of 4), seed 2718, as float.hex
# of (values, stderrs); made while each batch's generator came from
# SeedSequence.spawn and default_rng.
PINNED_CLI_SCANS = {
    ("coherent", 3, "symmetric_opposite"): (
        ["0x1.3f9e152a73863p+1", "0x1.ff3ee5e87ba88p-3", "0x1.ff3ee5e87ba85p-3",
         "0x1.3f9e152a73863p+1"],
        ["0x1.2c49ac1d5d8bfp-7", "0x1.32850256ac01cp-11", "0x1.32850256ac01fp-11",
         "0x1.2c49ac1d5d8bfp-7"]),
    ("thermal", 4, "four_point_double_speed"): (
        ["0x1.79bd0c7720cd8p+4", "0x1.e0e556b7b4b50p+1", "0x1.e2d3fbb9dec8ep+1",
         "0x1.79bd0c7720cd8p+4"],
        ["0x1.ed3118a612ceep-2", "0x1.d0fc3143ac772p-5", "0x1.cc5176c15b082p-5",
         "0x1.ed3118a612cf0p-2"]),
}

# estimate_scan at 4 grid points, 100 000 samples in 10 batches (one task per
# batch), seed 2718, as float.hex of (values, stderrs); made once the points
# of a scan shared their draws, while cos and sin came from numpy.
PINNED_SCANS_LIBM = {
    ("coherent", 3, "symmetric_opposite"): (
        ["0x1.3fe52bb459a1ap+1", "0x1.000fcde2c4dbcp-2", "0x1.000fcde2c4dbbp-2",
         "0x1.3fe52bb459a1ap+1"],
        ["0x1.884f68e439978p-7", "0x1.4f11832b868fdp-11", "0x1.4f11832b868bfp-11",
         "0x1.884f68e439978p-7"]),
    ("thermal", 4, "four_point_double_speed"): (
        ["0x1.83b4e91b73c3fp+4", "0x1.d6f5da429b2d5p+1", "0x1.da7b4e3e05c1ep+1",
         "0x1.83b4e91b73c3fp+4"],
        ["0x1.9c4076c6053f5p-2", "0x1.32f720c6e23f8p-4", "0x1.28f877d3c687dp-4",
         "0x1.9c4076c6053f5p-2"]),
    ("thermal", 3, "single_detector"): (
        ["0x1.024d8de97e9e4p+2", "0x1.a2f199e6f6c4bp+0", "0x1.b096bf2db2097p+1",
         "0x1.024d8de97e9e5p+2"],
        ["0x1.1caaeb9434379p-5", "0x1.248bb6b931bf0p-7", "0x1.35313dd6de079p-5",
         "0x1.1caaeb9434374p-5"]),
}


# estimate_icf at seed 1618 as float.hex of (value, stderr), made before the
# kernels wrote into reused buffers and made again once cos and sin came
# from sources.cos_sin; 400 000 samples in 10 batches make one task per
# batch, 20 000 in 20 batches several batches per task.
PINNED_POINTS = {
    ("thermal-4-width", 400_000, 10): ("0x1.2b3878ef4e98bp+3", "0x1.3f1cb8be6a29ap-4"),
    ("thermal-4-width", 20_000, 20): ("0x1.337025d3418dap+3", "0x1.4669f0282f15cp-1"),
    ("coherent-3", 400_000, 10): ("0x1.225c689faa6c0p+1", "0x1.101be0eca4f21p-8"),
    ("coherent-3", 20_000, 20): ("0x1.1e9a9b27a512cp+1", "0x1.e7a81de7dc215p-7"),
    ("thermal-1", 400_000, 10): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("thermal-1", 20_000, 20): ("0x1.0000000000000p+0", "0x0.0p+0"),
}

# estimate_icf at seed 1618 as float.hex of (value, stderr), made before the
# kernels wrote into reused buffers, while cos and sin came from numpy.
PINNED_POINTS_LIBM = {
    ("thermal-4-width", 400_000, 10): ("0x1.2b3878ef4e98bp+3", "0x1.3f1cb8be6a29ap-4"),
    ("thermal-4-width", 20_000, 20): ("0x1.337025d3418dap+3", "0x1.4669f0282f15cp-1"),
    ("coherent-3", 400_000, 10): ("0x1.225c689faa6c0p+1", "0x1.101be0eca4f21p-8"),
    ("coherent-3", 20_000, 20): ("0x1.1e9a9b27a512cp+1", "0x1.e7a81de7dc218p-7"),
    ("thermal-1", 400_000, 10): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("thermal-1", 20_000, 20): ("0x1.0000000000000p+0", "0x0.0p+0"),
}
POINT_CASES = {
    "thermal-4-width": (THERMAL_W, [0.9, 0.0, -0.9, 1.7]),
    "coherent-3": (COHERENT, [0.4, 0.0, -0.4]),
    "thermal-1": (THERMAL, [0.7]),
}


def pinned_scan(case, n_batches, workers):
    kind, order, scheme = case
    pattern = ScanPattern(order=order, scheme=scheme, grid=np.linspace(0.0, 2 * np.pi, 4))
    est = estimate_scan(SourceModel(kind), pattern, 100_000, n_batches=n_batches, seed=2718,
                        workers=workers)
    return [v.hex() for v in est.values.tolist()], [v.hex() for v in est.stderrs.tolist()]


def pinned_point(case, n_samples, n_batches, workers):
    model, delta = POINT_CASES[case]
    est = estimate_icf(model, delta, n_samples, n_batches=n_batches, seed=1618,
                       workers=workers)
    return est.value.hex(), est.stderr.hex()


class TestWorkBuffers:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(PINNED_POINTS), ids=lambda c: "-".join(map(str, c)))
    def test_point_matches_pinned_bits(self, case, workers):
        assert pinned_point(*case, workers) == PINNED_POINTS[case]

    def test_small_then_large_batches_in_one_process(self):
        # the benchmark's prime (1000 samples in 10 batches), then batches of
        # its 40 000-sample jobs, then the prime again: no buffer may outlive
        # a call or pass between threads
        for _ in range(2):
            for model, n in ((THERMAL, 4), (COHERENT, 3)):
                for workers in (1, 2):
                    estimate_icf(model, np.zeros(n), 1000, n_batches=10, seed=1,
                                 workers=workers)
            for case in ("thermal-4-width", "coherent-3"):
                for workers in (1, 2):
                    assert (pinned_point(case, 400_000, 10, workers)
                            == PINNED_POINTS[(case, 400_000, 10)])

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page-fault counts are read on Linux")
    def test_single_thread_batches_do_not_page_fault(self):
        resource = pytest.importorskip("resource")

        # a small warm call, as the benchmark primes: the allocator then
        # hands back and faults in again any array allocated per batch
        estimate_icf(THERMAL, np.zeros(4), 1000, n_batches=10, seed=5)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate_icf(THERMAL, np.zeros(4), 2_000_000, n_batches=50, seed=5)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # a batch's array of 40 000 doubles spans 78 pages
        assert faults < 64 * 50


# The first 16 hex digits of the sha256 of the bytes that _task_sums (at
# TASK_DELTAS) and _power_sums (orders 3 and 4) return, at the batches of
# spawn_seeds(29, batches), as (task 4, task 3, power 3, power 4); made while
# sources.cos_sin allocated its own scratch of 8192 samples on every call.
# A row of 50 000 samples takes two and a half trig chunks, one of
# 16 x 1000 is shorter than a chunk and one of 3 x 7001 a chunk and a part.
PINNED_TASK_SUMS = {
    ("thermal-width", 1, 50000): ("ccb881b82c19bfdd", "3dadc8e9cf701ef0",
                                  "736f68c67e108848", "1d39a6af60e8438c"),
    ("thermal-width", 16, 1000): ("8d0aa49c5bb3dc9d", "965fc7406a56b7a8",
                                  "db4fd07a9443c771", "4d0151284da28c77"),
    ("thermal-width", 3, 7001): ("70d2de7d898afccf", "95d327bdb1ee29cd",
                                 "eaffe5ba37b363f8", "3493ae766b9b06ec"),
    ("coherent", 1, 50000): ("4a0ec68982057064", "6a7f3952cb6487af",
                             "5a795b9c0047ae8a", "593c3f66d38f9685"),
    ("coherent", 16, 1000): ("79417fe72455f5aa", "ba8cc0c23bd0e521",
                             "b0047a25ee1e77f9", "fdd62013250adcd7"),
    ("coherent", 3, 7001): ("d5a71de8bded58a4", "7981ec7ae09cb85c",
                            "1b1c1f6c2dc6b57d", "fce48b8afff4ce59"),
}
TASK_MODELS = {"thermal-width": THERMAL_W, "coherent": COHERENT}
TASK_DELTAS = (np.array([0.9, 0.0, -0.9, 1.7]), np.array([0.4, 0.0, -0.4]))


def sums_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class TestCarvedScratch:
    """The trig kernel's scratch is carved from task buffers that are idle
    while it runs; no view of them may alias an array still in use."""

    @pytest.mark.parametrize("case", list(PINNED_TASK_SUMS), ids=lambda c: "-".join(map(str, c)))
    def test_task_sums_match_pinned_bits(self, case):
        from icfsim.montecarlo import _power_sums, _task_sums
        name, batches, size = case
        model, seeds = TASK_MODELS[name], spawn_seeds(29, batches)
        kernels = [partial(_task_sums, model, delta) for delta in TASK_DELTAS]
        kernels += [partial(_power_sums, model, order) for order in (3, 4)]
        for kernel, pinned in zip(kernels, PINNED_TASK_SUMS[case], strict=True):
            work = threading.local()
            # new buffers, a thread's new buffers, then that thread's reused ones
            for w in (None, work, work):
                assert sums_digest(kernel(seeds, size, w)) == pinned

    def test_no_detectors(self):
        from icfsim.montecarlo import _task_sums
        prod, sums = _task_sums(THERMAL, np.empty(0), spawn_seeds(3, 2), 1000)
        assert prod.tolist() == [1000.0, 1000.0] and sums.shape == (2, 0)


class TestRepin:
    """The pins made with ``sources.cos_sin`` stay within rounding of those
    made with numpy's cos and sin."""

    @staticmethod
    def assert_close(new, old):
        for n, o in zip(new, old, strict=True):
            n, o = float.fromhex(n), float.fromhex(o)
            assert abs(n - o) <= 1e-13 * abs(o)

    @pytest.mark.parametrize("case", list(PINNED_SCANS), ids=lambda c: "-".join(map(str, c)))
    def test_scan_pins_within_rounding_of_libm(self, case):
        for new, old in zip(PINNED_SCANS[case], PINNED_SCANS_LIBM[case], strict=True):
            self.assert_close(new, old)

    @pytest.mark.parametrize("case", list(PINNED_POINTS), ids=lambda c: "-".join(map(str, c)))
    def test_point_pins_within_rounding_of_libm(self, case):
        self.assert_close(PINNED_POINTS[case], PINNED_POINTS_LIBM[case])

    def test_every_pin_has_a_libm_pin(self):
        assert PINNED_SCANS.keys() == PINNED_SCANS_LIBM.keys()
        assert PINNED_POINTS.keys() == PINNED_POINTS_LIBM.keys()


class TestRatioOfMeans:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(PINNED_SCANS), ids=lambda c: "-".join(map(str, c)))
    def test_scan_matches_pinned_bits(self, case, workers):
        assert pinned_scan(case, 10, workers) == PINNED_SCANS[case]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(PINNED_CLI_SCANS), ids=lambda c: "-".join(map(str, c)))
    def test_cli_batching_scan_matches_pinned_bits(self, case, workers):
        assert pinned_scan(case, 100, workers) == PINNED_CLI_SCANS[case]

    def test_leftover_rows_enter_the_value_only(self):
        from icfsim.montecarlo import ratio_of_means
        rng = np.random.default_rng(3)
        factors = rng.random((23, 5, 2)) + 0.5
        prod = factors.prod(axis=-1)
        value, stderr = ratio_of_means(prod, factors, 1, 4)
        assert np.allclose(value, prod.mean(axis=0) / factors.mean(axis=0).prod(axis=-1),
                           rtol=1e-14)
        # four groups of five rows; the last three rows join no group
        groups = [prod[k:k + 5].mean(axis=0) / factors[k:k + 5].mean(axis=0).prod(axis=-1)
                  for k in range(0, 20, 5)]
        assert np.allclose(stderr, np.std(groups, axis=0, ddof=1) / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("n_batches", [-3, 0, 1, 24])
    def test_no_stderr_without_two_filled_groups(self, n_batches):
        from icfsim.montecarlo import ratio_of_means
        factors = np.random.default_rng(4).random((23, 3, 2)) + 0.5
        value, stderr = ratio_of_means(factors.prod(axis=-1), factors, 1, n_batches)
        assert stderr is None and value.shape == (3,)

    # a group needs two draws: frames give rows of one, Monte Carlo rows of
    # a whole batch each
    @pytest.mark.parametrize("count, rows, formed", [
        (1, 10, False), (2, 10, True), (1000, 10, True)])
    def test_a_group_needs_two_draws(self, count, rows, formed):
        from icfsim.montecarlo import ratio_of_means
        factors = np.random.default_rng(5).random((rows, 3, 2)) + 0.5
        _, stderr = ratio_of_means(factors.prod(axis=-1), factors, count, 10)
        assert (stderr is not None) == formed
