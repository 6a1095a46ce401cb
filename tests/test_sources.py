import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, stats

from icfsim import (
    SourceModel,
    coherence_envelope,
    estimate_icf,
    g2_point,
    icf_general,
    moment,
    sample_batch,
)
from icfsim.errors import (
    CustomModelNotSamplable,
    IcfSimError,
    MissingMoment,
    MomentInequalityViolated,
    NonpositiveWidth,
)
from icfsim.constants import DEFAULT_SEED
from icfsim.montecarlo import detector_intensities
from icfsim.sources import rng_from_seed, spawn_seeds


def exponential_moment(k):
    # independent oracle for the thermal moments: integrate x^k e^-x
    value, _ = integrate.quad(lambda x: x ** k * math.exp(-x), 0, np.inf)
    return value


class TestValidation:
    def test_coherent_valid_with_unit_moments(self):
        model = SourceModel.coherent()
        assert {k: moment(model, k) for k in (2, 3, 4)} == {2: 1.0, 3: 1.0, 4: 1.0}

    def test_thermal_moments_match_exponential_integrals(self):
        model = SourceModel.thermal()
        for k in (2, 3, 4):
            assert moment(model, k) == pytest.approx(exponential_moment(k), rel=1e-10)
        assert {k: moment(model, k) for k in (2, 3, 4)} == {2: 2.0, 3: 6.0, 4: 24.0}

    def test_custom_g3_below_g2_squared_rejected(self):
        # Cauchy-Schwarz: <I^3><I> >= <I^2>^2, i.e. g3 >= g2^2 = 4
        with pytest.raises(MomentInequalityViolated) as err:
            SourceModel.custom({2: 2.0, 3: 3.0})
        assert err.value.order == 3

    def test_custom_g4_inequality(self):
        SourceModel.custom({2: 2.0, 3: 6.0, 4: 18.0})  # 18*2 >= 36 holds
        with pytest.raises(MomentInequalityViolated) as err:
            SourceModel.custom({2: 2.0, 3: 6.0, 4: 17.9})
        assert err.value.order == 4

    def test_g2_below_one_rejected(self):
        with pytest.raises(MomentInequalityViolated):
            SourceModel.custom({2: 0.99})

    def test_validation_is_monotone_at_the_bounds(self):
        # equality is classical (coherent saturates every bound); tightening
        # any moment just below its bound must flip acceptance
        g2 = 1.7
        g3 = g2 * g2
        g4 = g3 * g3 / g2
        SourceModel.custom({2: g2, 3: g3, 4: g4})
        for broken in ({2: g2, 3: g3 * (1 - 1e-9), 4: g4},
                       {2: g2, 3: g3, 4: g4 * (1 - 1e-9)},
                       {2: 1 - 1e-9}):
            with pytest.raises(MomentInequalityViolated):
                SourceModel.custom(broken)

    @pytest.mark.parametrize("build", [
        lambda: SourceModel.thermal(2.0),
        lambda: SourceModel.coherent(2.0),
        lambda: SourceModel.custom({2: 2.0}, 2.0),
        lambda: SourceModel.thermal(mean_intensity=2.0),
    ], ids=["thermal", "coherent", "custom", "keyword"])
    def test_a_mean_intensity_is_refused(self, build):
        # a positional mean would otherwise become the coherence width
        with pytest.raises(TypeError):
            build()

    def test_named_kinds_hold_no_table(self):
        assert SourceModel.coherent().moments == SourceModel.thermal().moments == {}

    @pytest.mark.parametrize("kind", ["coherent", "thermal"])
    def test_table_on_a_named_kind_rejected(self, kind):
        # the table was silently replaced by the kind's own moments
        with pytest.raises(IcfSimError, match=f"'moments' table is for custom models, not {kind}$"):
            SourceModel(kind, moments={2: 2.0, 3: 6.0})

    # an int past float range ended in OverflowError; NaN, inf, True, "2.0", the keys 1, "1", "-2", 2.0 and True and a key
    # given twice were accepted (converted, or kept and ignored); "x" and a
    # list ended in a ValueError or AttributeError
    @pytest.mark.parametrize("moments, message", [
        ({2: math.nan}, "moment g(2) must be a positive finite number, got nan"),
        ({2: 2.0, 3: math.inf}, "moment g(3) must be a positive finite number, got inf"),
        ({2: 10 ** 400},
         "moment g(2) must be a positive finite number, got an integer beyond float range"),
        ({2: True}, "moment g(2) must be a positive finite number, got True"),
        ({"2": "2.0"}, "moment g(2) must be a positive finite number, got '2.0'"),
        ({2: 0.0}, "moment g(2) must be a positive finite number, got 0.0"),
        ({1: 1.0}, "orders must be distinct integers >= 2, got 1"),
        ({"1": 1.0}, "orders must be distinct integers >= 2, got '1'"),
        ({"x": 2.0}, "orders must be distinct integers >= 2, got 'x'"),
        ({"-2": 2.0}, "orders must be distinct integers >= 2, got '-2'"),
        ({2.0: 2.0}, "orders must be distinct integers >= 2, got 2.0"),
        ({True: 2.0}, "orders must be distinct integers >= 2, got True"),
        ({2: 2.0, "2": 3.0}, "orders must be distinct integers >= 2, got '2'"),
        ([2.0, 6.0], "'moments' must be a table of order: g(order), got [2.0, 6.0]"),
        ({3: 9.0}, "model does not provide the normalized moment of order 2"),
        ({2: 2.0, 4: 20.0}, "model does not provide the normalized moment of order 3"),
    ], ids=["nan", "inf", "int-beyond-float", "bool", "str", "zero", "key-1", "key-str-1", "key-x",
            "key-minus-2", "key-float", "key-bool", "key-twice", "list", "no-g2", "no-g3"])
    def test_malformed_table_rejected(self, moments, message):
        with pytest.raises(IcfSimError, match=re.escape(message)):
            SourceModel.custom(moments)

    def test_table_of_numpy_scalars_accepted(self):
        model = SourceModel.custom({np.int64(2): np.float64(2.5), "3": np.float32(6.5),
                                    4: np.int64(17)})
        assert model.moments == {2: 2.5, 3: 6.5, 4: 17.0}
        assert all(type(k) is int and type(v) is float for k, v in model.moments.items())

    # 1e-200 was accepted, and its envelope divided 0 by 2 w^2 == 0 at delta = 0
    def test_nonpositive_coherence_width(self):
        for width in (0.0, -1.0, math.nan, 1e-200):
            with pytest.raises(NonpositiveWidth, match="must be positive with 2 w"):
                SourceModel.coherent(coherence_width=width)

    # an int past float range ended in OverflowError from 2.0 * w * w
    @pytest.mark.parametrize("width", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
    def test_width_beyond_float_range(self, width):
        with pytest.raises(NonpositiveWidth, match="got an integer beyond float range$"):
            SourceModel.thermal(coherence_width=width)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceModel("chaotic")


class TestMoment:
    def test_thermal_third_moment(self):
        assert moment(SourceModel.thermal(), 3) == 6.0

    def test_coherent_fourth_moment(self):
        assert moment(SourceModel.coherent(), 4) == 1.0

    def test_first_moment_is_one_for_all_kinds(self):
        for model in (SourceModel.coherent(), SourceModel.thermal(),
                      SourceModel.custom({2: 3.0})):
            assert moment(model, 1) == 1.0

    def test_auto_derivation_beyond_order_four(self):
        assert moment(SourceModel.thermal(), 6) == math.factorial(6)
        assert moment(SourceModel.coherent(), 8) == 1.0

    def test_custom_missing_moment(self):
        model = SourceModel.custom({2: 2.0, 3: 4.5})
        assert moment(model, 3) == 4.5
        with pytest.raises(MissingMoment) as err:
            moment(model, 4)
        assert err.value.order == 4

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            moment(SourceModel.coherent(), 0)


class TestSampling:
    def test_coherent_intensities_exact(self):
        rng = np.random.default_rng(0)
        ia, ib, theta = sample_batch(SourceModel.coherent(), rng, 100)
        assert np.all(ia == 1.0)
        assert np.all(ib == 1.0)
        assert np.all((0.0 <= theta) & (theta < 2 * np.pi))

    def test_custom_not_samplable(self):
        with pytest.raises(CustomModelNotSamplable):
            sample_batch(SourceModel.custom({2: 2.0}), np.random.default_rng(0), 1)

    def test_thermal_mean_and_g2(self):
        rng = np.random.default_rng(42)
        ia, ib, _ = sample_batch(SourceModel.thermal(), rng, 1_000_000)
        assert abs(ia.mean() - 1.0) < 0.01
        g2 = np.mean(ia ** 2) / ia.mean() ** 2
        assert abs(g2 - 2.0) < 0.04  # within 2% of 2.0
        assert ib.min() >= 0.0

    def test_theta_uniform_chi_square(self):
        rng = np.random.default_rng(7)
        _, _, theta = sample_batch(SourceModel.thermal(), rng, 1_000_000)
        counts, _ = np.histogram(theta, bins=64, range=(0, 2 * np.pi))
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_thermal_empirical_moments_within_five_stderr(self):
        # batch the draws to get a standard error for each empirical g(k)
        rng = np.random.default_rng(11)
        ia, _, _ = sample_batch(SourceModel.thermal(), rng, 1_000_000)
        batches = ia.reshape(100, -1)
        for k in (2, 3, 4):
            g = (batches ** k).mean(axis=1) / batches.mean(axis=1) ** k
            se = g.std(ddof=1) / 10.0
            assert abs((ia ** k).mean() / ia.mean() ** k - math.factorial(k)) < 5 * se

    def test_seed_determinism_bit_identical(self):
        a = sample_batch(SourceModel.thermal(), np.random.default_rng(123), 1000)
        b = sample_batch(SourceModel.thermal(), np.random.default_rng(123), 1000)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


    @pytest.mark.parametrize("size", [1, 999, 40_000])
    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    def test_draws_into_out_are_the_allocating_draws(self, kind, size):
        model = SourceModel(kind)
        fresh = sample_batch(model, np.random.default_rng(5), size)
        out = tuple(np.full(size, np.nan) for _ in range(3))
        got = sample_batch(model, np.random.default_rng(5), size, out=out)
        assert all(g is o for g, o in zip(got, out))
        for x, y in zip(fresh, got):
            assert x.tobytes() == y.tobytes()


def numpy_children(seed, n):
    return np.random.SeedSequence(seed).spawn(n)


class TestSpawnSeeds:
    """``spawn_seeds`` and ``rng_from_seed`` against numpy's own spawned
    children and ``default_rng``."""

    @pytest.mark.parametrize("n", [1, 2, 100, 4097])
    @pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED, 2**32 - 1, 2**32, 2**64, 2**200 + 3])
    def test_rows_are_spawned_state_words(self, seed, n):
        rows = spawn_seeds(seed, n)
        assert rows.dtype == np.uint64 and rows.shape == (n, 4) and rows.flags.c_contiguous
        expected = np.stack([c.generate_state(4, np.uint64) for c in numpy_children(seed, n)])
        assert np.array_equal(rows, expected)

    def test_none_means_the_default_seed(self):
        assert np.array_equal(spawn_seeds(None, 7), spawn_seeds(DEFAULT_SEED, 7))

    @pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**64])
    def test_draws_equal_default_rng_of_the_child(self, seed):
        # the calls that sampling and frame rendering make
        rows, children = spawn_seeds(seed, 5), numpy_children(seed, 5)
        for words, child in zip(rows, children):
            ours, theirs = rng_from_seed(words), np.random.default_rng(child)
            for draw in (lambda g: g.standard_exponential(50), lambda g: g.random(50),
                         lambda g: g.poisson(np.linspace(0.0, 4e4, 60).reshape(6, 10)),
                         lambda g: g.normal(0.0, 300.0, (3, 7))):
                assert draw(ours).tobytes() == draw(theirs).tobytes()

    def test_negative_seed_raises_numpy_error(self):
        with pytest.raises(ValueError) as theirs:
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError) as ours:
            spawn_seeds(-1, 3)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint64), (4, np.uint32),
                                                (8, np.uint32), (5, np.uint64)])
    def test_only_four_uint64_words_are_given(self, n_words, dtype):
        seed_seq = rng_from_seed(spawn_seeds(3, 1)[0]).bit_generator.seed_seq
        assert seed_seq.generate_state(4, np.uint64).tobytes() == \
            spawn_seeds(3, 1)[0].tobytes()
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed_seq.generate_state(n_words, dtype)

    @pytest.mark.parametrize("words", [np.arange(3), np.arange(8).reshape(2, 4)])
    def test_other_than_four_words_rejected(self, words):
        with pytest.raises(ValueError, match="4 uint64 words"):
            rng_from_seed(words)

    def test_estimators_and_frames_skip_per_child_seeding(self, monkeypatch):
        from icfsim import ScanPattern, estimate_icf, estimate_scan, synth_frames

        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("SeedSequence.spawn called")

        def no_default_rng(*args, **kwargs):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        monkeypatch.setattr(np.random, "default_rng", no_default_rng)
        with pytest.raises(AssertionError):
            np.random.SeedSequence(1).spawn(2)
        model = SourceModel.thermal()
        for workers in (1, 2):
            estimate_icf(model, [0.3, 0.0], 2000, n_batches=10, seed=4, workers=workers)
            estimate_icf(model, [0.3, 0.0], 20 * 32_768, n_batches=20, seed=4, workers=workers)
            estimate_scan(model, ScanPattern(order=3, scheme="symmetric_opposite",
                                             grid=np.linspace(0.0, 6.0, 3)),
                          2000, n_batches=10, seed=4, workers=workers)
            synth_frames(model, n=3, seed=4, workers=workers)


class TestEnvelope:
    def test_absent_width_gives_unity(self):
        env = coherence_envelope(SourceModel.thermal(), [0.0, 1.0, -3.0])
        assert np.array_equal(env, np.ones(3))

    def test_gaussian_shape(self):
        model = SourceModel.thermal(coherence_width=2.0)
        env = coherence_envelope(model, [0.0, 2.0])
        assert env[0] == 1.0
        assert env[1] == pytest.approx(math.exp(-0.5))

    def test_phase_past_float_range_when_squared_gives_zero(self):
        # each warned "overflow encountered in square", an error in this suite
        model = SourceModel.thermal(coherence_width=2.0)
        assert coherence_envelope(model, [1e200, -1e200]).tolist() == [0.0, 0.0]
        assert icf_general(model, [1e200, 0.0]) == 1.5  # (g(2) + 1) / 2: no interference
        assert g2_point(model, 1e200) == 1.5
        estimate = estimate_icf(model, [1e200, 0.0], 4000, n_batches=10, seed=4)
        assert abs(estimate.value - 1.5) < 4 * estimate.stderr


class TestDetectorIntensities:
    @pytest.mark.parametrize("width", [None, 1.5])
    def test_two_trig_form_matches_direct_formula(self, width):
        model = SourceModel.thermal(coherence_width=width)
        rng = np.random.default_rng(8)
        ia, ib, theta = sample_batch(model, rng, 100_000)
        delta = rng.uniform(-2 * np.pi, 2 * np.pi, 5)
        inputs = [x.copy() for x in (ia, ib, theta)]
        env = 1.0 if width is None else np.exp(-delta[:, None] ** 2 / (2 * width ** 2))
        direct = ia + ib + 2 * np.sqrt(ia * ib) * env * np.cos(theta + delta[:, None])
        got = detector_intensities(model, delta, ia, ib, theta)
        assert got.shape == direct.shape
        # I_j cancels towards 0 where Ia ~ Ib and theta + delta_j ~ pi, where
        # neither form keeps a small error relative to I_j itself; the error
        # is measured relative to the size of the terms, Ia + Ib.
        assert np.max(np.abs(got - direct) / (ia + ib)) < 1e-12
        for before, after in zip(inputs, (ia, ib, theta)):
            assert np.array_equal(before, after)


class TestSerialization:
    def test_from_dict_with_json_string_keys(self):
        cfg = json.loads('{"kind": "custom", '
                         '"moments": {"2": 3.0, "3": 9.5}, "coherence_width": null}')
        model = SourceModel.from_dict(cfg)
        assert model.moments == {2: 3.0, 3: 9.5}
        assert model.coherence_width is None

    def test_round_trip(self):
        for model in (SourceModel.coherent(),
                      SourceModel.thermal(coherence_width=6.0),
                      SourceModel.custom({2: 3.0, 3: 9.5}, coherence_width=1.5)):
            for data in (model.to_dict(), json.loads(json.dumps(model.to_dict()))):
                assert SourceModel.from_dict(data) == model

    def test_unknown_keys_rejected(self):
        # both keys were dropped, giving coherence_width=None
        with pytest.raises(IcfSimError, match=re.escape("['coherence-width', 'seed']")):
            SourceModel.from_dict({"kind": "thermal", "coherence-width": 2.0, "seed": 1})
