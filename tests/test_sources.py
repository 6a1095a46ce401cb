import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from icfsim import (
    Realization,
    SourceModel,
    coherence_envelope,
    moment,
    sample,
    sample_batch,
    validate,
)
from icfsim.errors import (
    CustomModelNotSamplable,
    MissingMoment,
    MomentInequalityViolated,
    NonpositiveMeanIntensity,
    NonpositiveWidth,
)
from icfsim.sources import detector_intensities


def exponential_moment(k):
    # independent oracle for the thermal moments: integrate x^k e^-x
    value, _ = integrate.quad(lambda x: x ** k * math.exp(-x), 0, np.inf)
    return value


class TestValidation:
    def test_coherent_valid_with_unit_moments(self):
        model = SourceModel.coherent()
        assert model.moments == {2: 1.0, 3: 1.0, 4: 1.0}

    def test_thermal_moments_match_exponential_integrals(self):
        model = SourceModel.thermal()
        for k in (2, 3, 4):
            assert model.moments[k] == pytest.approx(exponential_moment(k), rel=1e-10)
        assert model.moments == {2: 2.0, 3: 6.0, 4: 24.0}

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
        validate(SourceModel.custom({2: g2, 3: g3, 4: g4}))
        for broken in ({2: g2, 3: g3 * (1 - 1e-9), 4: g4},
                       {2: g2, 3: g3, 4: g4 * (1 - 1e-9)},
                       {2: 1 - 1e-9}):
            with pytest.raises(MomentInequalityViolated):
                SourceModel.custom(broken)

    def test_nonpositive_mean_intensity(self):
        with pytest.raises(NonpositiveMeanIntensity):
            SourceModel.coherent(mean_intensity=0.0)
        with pytest.raises(NonpositiveMeanIntensity):
            SourceModel.thermal(mean_intensity=-1.0)

    def test_nonpositive_coherence_width(self):
        with pytest.raises(NonpositiveWidth):
            SourceModel.coherent(coherence_width=0.0)

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
        for _ in range(100):
            r = sample(SourceModel.coherent(mean_intensity=1.0), rng)
            assert r.intensity_a == 1.0
            assert r.intensity_b == 1.0
            assert 0.0 <= r.theta < 2 * np.pi

    def test_custom_not_samplable(self):
        with pytest.raises(CustomModelNotSamplable):
            sample(SourceModel.custom({2: 2.0}), np.random.default_rng(0))

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

    def test_single_sample_matches_dataclass(self):
        r = sample(SourceModel.thermal(), np.random.default_rng(5))
        assert isinstance(r, Realization)
        assert r.intensity_a >= 0 and r.intensity_b >= 0


class TestEnvelope:
    def test_absent_width_gives_unity(self):
        env = coherence_envelope(SourceModel.thermal(), [0.0, 1.0, -3.0])
        assert np.array_equal(env, np.ones(3))

    def test_gaussian_shape(self):
        model = SourceModel.thermal(coherence_width=2.0)
        env = coherence_envelope(model, [0.0, 2.0])
        assert env[0] == 1.0
        assert env[1] == pytest.approx(math.exp(-0.5))


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
        cfg = json.loads('{"kind": "custom", "mean_intensity": 2.0, '
                         '"moments": {"2": 3.0, "3": 9.5}, "coherence_width": null}')
        model = SourceModel.from_dict(cfg)
        assert model.moments == {2: 3.0, 3: 9.5}
        assert model.mean_intensity == 2.0
        assert model.coherence_width is None

    def test_round_trip(self):
        model = SourceModel.thermal(mean_intensity=0.5, coherence_width=6.0)
        again = SourceModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert again == model
