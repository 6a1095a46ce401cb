import math

import numpy as np
import pytest

from icfsim import (
    InterferencePattern,
    PhaseConfig,
    ScanPattern,
    SourceModel,
    classical_limit,
    extremal_phases,
    g2_point,
    g3_point,
    g4_point,
    moment,
    scan,
    visibility,
)
from icfsim.analytic import scheme_deltas
from icfsim.errors import (
    AllZeroPattern,
    EmptyPattern,
    MissingMoment,
    NonfinitePhase,
    UnsupportedOrder,
)

COHERENT = SourceModel.coherent()
THERMAL = SourceModel.thermal()
DENSE = np.linspace(0.0, 2.0 * np.pi, 721)


def random_valid_model(rng):
    g2 = rng.uniform(1.0, 4.0)
    g3 = g2 * g2 * rng.uniform(1.0, 2.5)
    g4 = (g3 * g3 / g2) * rng.uniform(1.0, 2.5)
    return SourceModel.custom({2: g2, 3: g3, 4: g4})


class TestPointValues:
    def test_g2_coherent(self):
        assert g2_point(COHERENT, 0.0) == pytest.approx(1.5)
        assert g2_point(COHERENT, math.pi) == pytest.approx(0.5)
        assert g2_point(COHERENT, math.pi / 2) == pytest.approx(1.0)

    def test_g2_missing_moment(self):
        with pytest.raises(MissingMoment):
            g2_point(SourceModel.custom({}), 0.0)

    def test_g3_coherent_extremes(self):
        assert g3_point(COHERENT, PhaseConfig((0.0, 0.0, 0.0))) == pytest.approx(2.5)
        third = 2 * math.pi / 3
        assert g3_point(COHERENT, PhaseConfig((third, 0.0, -third))) == pytest.approx(0.25)

    def test_g3_thermal_extremes(self):
        assert g3_point(THERMAL, PhaseConfig((0.0, 0.0, 0.0))) == pytest.approx(6.0)
        third = 2 * math.pi / 3
        assert g3_point(THERMAL, PhaseConfig((third, 0.0, -third))) == pytest.approx(1.5)

    def test_g4_coherent_extremes(self):
        assert g4_point(COHERENT, PhaseConfig((0.0,) * 4)) == pytest.approx(35 / 8)
        cfg = PhaseConfig((math.pi / 2, 0.0, -math.pi / 2, -math.pi))
        assert g4_point(COHERENT, cfg) == pytest.approx(0.125)

    def test_g4_thermal_extremes(self):
        assert g4_point(THERMAL, PhaseConfig((0.0,) * 4)) == pytest.approx(24.0)
        cfg = PhaseConfig((math.pi / 2, 0.0, -math.pi / 2, -math.pi))
        assert g4_point(THERMAL, cfg) == pytest.approx(3.0)

    def test_g4_scan_form_matches_polynomial(self):
        # along (x, 0, -x, -2x) the coherent curve reduces to
        # c^4 + 2c^3 + 1.25c^2 + 0.125 and the thermal one to
        # 4c^4 + 10c^3 + 7c^2 + 3, with c = cos x
        for x in np.linspace(0, 2 * np.pi, 37):
            c = math.cos(x)
            cfg = PhaseConfig((x, 0.0, -x, -2 * x))
            assert g4_point(COHERENT, cfg) == pytest.approx(
                c ** 4 + 2 * c ** 3 + 1.25 * c ** 2 + 0.125, abs=1e-12)
            assert g4_point(THERMAL, cfg) == pytest.approx(
                4 * c ** 4 + 10 * c ** 3 + 7 * c ** 2 + 3, abs=1e-11)

    def test_wrong_order_config(self):
        with pytest.raises(UnsupportedOrder):
            g3_point(COHERENT, PhaseConfig((0.0, 0.0)))
        with pytest.raises(UnsupportedOrder):
            g4_point(COHERENT, PhaseConfig((0.0, 0.0, 0.0)))
        with pytest.raises(UnsupportedOrder):
            PhaseConfig((0.0,) * 5)

    def test_phase_config_phi(self):
        cfg = PhaseConfig((0.5, 0.1, -0.2))
        assert cfg.phi(1, 2) == pytest.approx(0.4)
        assert cfg.phi(1, 3) == pytest.approx(cfg.phi(1, 2) + cfg.phi(2, 3))


class TestVisibility:
    def test_known_extreme_pairs(self):
        assert visibility([2.5, 0.25]) == pytest.approx(9 / 11)
        assert visibility([4.375, 0.125]) == pytest.approx(17 / 18)

    def test_flat_pattern(self):
        assert visibility([3.0, 3.0, 3.0]) == 0.0

    def test_single_point_is_zero(self):
        assert visibility([1.7]) == 0.0

    def test_empty_pattern(self):
        with pytest.raises(EmptyPattern):
            visibility([])

    def test_all_zero_pattern(self):
        with pytest.raises(AllZeroPattern):
            visibility([0.0, 0.0])


class TestScan:
    @pytest.mark.parametrize("kind,order,scheme,expected", [
        ("coherent", 2, "symmetric_opposite", 1 / 2),
        ("coherent", 3, "symmetric_opposite", 9 / 11),
        ("coherent", 4, "four_point_double_speed", 17 / 18),
        ("thermal", 2, "symmetric_opposite", 1 / 3),
        ("thermal", 3, "symmetric_opposite", 3 / 5),
        ("thermal", 4, "four_point_double_speed", 7 / 9),
    ])
    def test_dense_scan_reaches_classical_limit(self, kind, order, scheme, expected):
        model = SourceModel(kind)
        pattern = scan(model, ScanPattern(order=order, scheme=scheme, grid=DENSE))
        assert abs(pattern.visibility - expected) < 1e-9
        assert abs(pattern.visibility - classical_limit(order, kind)) < 1e-9

    def test_single_detector_sqrt2_over_2(self):
        pattern = scan(COHERENT, ScanPattern(order=3, scheme="single_detector",
                                             grid=DENSE, offset=math.pi / 2))
        assert abs(pattern.visibility - math.sqrt(2) / 2) < 1e-9

    def test_single_detector_offset_maximized_at_pi_over_2(self):
        offsets = np.linspace(0.0, math.pi, 181)
        vis = [scan(COHERENT, ScanPattern(order=3, scheme="single_detector",
                                          grid=DENSE, offset=c)).visibility
               for c in offsets]
        assert offsets[int(np.argmax(vis))] == pytest.approx(math.pi / 2)

    def test_custom_scheme(self):
        grid = np.linspace(0, 2 * np.pi, 9)
        deltas = np.stack([grid, np.zeros_like(grid), -grid], axis=1)
        direct = scan(COHERENT, ScanPattern(order=3, scheme="custom",
                                            grid=grid, deltas=deltas))
        named = scan(COHERENT, ScanPattern(order=3, scheme="symmetric_opposite",
                                           grid=grid))
        assert np.allclose(direct.values, named.values, atol=1e-14)

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyPattern):
            ScanPattern(order=3, scheme="symmetric_opposite", grid=np.array([]))


class TestInvalidScans:
    """The exception type of each single-fault invalid scan input."""

    GRID = np.linspace(0.0, 1.0, 3)

    @pytest.mark.parametrize("order, scheme, grid, deltas, error", [
        (3, "bogus", GRID, None, ValueError),
        (4, "symmetric_opposite", GRID, None, UnsupportedOrder),
        (2, "single_detector", GRID, None, UnsupportedOrder),
        (3, "four_point_double_speed", GRID, None, UnsupportedOrder),
        (5, "custom", GRID, np.zeros((3, 5)), UnsupportedOrder),
        (3, "symmetric_opposite", np.array([]), None, EmptyPattern),
        (3, "custom", GRID, None, ValueError),
        (3, "custom", GRID, np.zeros((3, 2)), ValueError),
        (3, "custom", GRID, np.zeros((4, 3)), ValueError),
    ])
    def test_scan_pattern(self, order, scheme, grid, deltas, error):
        with pytest.raises(error):
            ScanPattern(order=order, scheme=scheme, grid=grid, deltas=deltas)

    # a non-finite offset or grid value gave nan values and RuntimeWarnings
    @pytest.mark.parametrize("scheme, grid, offset", [
        ("single_detector", GRID, math.nan),
        ("single_detector", GRID, math.inf),
        ("single_detector", GRID, -math.inf),
        ("symmetric_opposite", np.array([0.0, math.nan, 1.0]), None),
        ("single_detector", np.array([0.0, 1.0, math.inf]), 0.5),
    ])
    def test_non_finite_scan(self, scheme, grid, offset):
        with pytest.raises(NonfinitePhase):
            ScanPattern(order=3, scheme=scheme, grid=grid, offset=offset)

    # a custom pattern with a nan phase gave a nan point and no error
    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_custom_delta(self, phase):
        deltas = np.zeros((3, 3))
        deltas[1, 2] = phase
        with pytest.raises(NonfinitePhase):
            ScanPattern(order=3, scheme="custom", grid=self.GRID, deltas=deltas)

    @pytest.mark.parametrize("order, scheme, error", [
        (3, "bogus", ValueError), (3, "custom", ValueError),
        (4, "symmetric_opposite", UnsupportedOrder), (2, "single_detector", UnsupportedOrder),
        (2, "four_point_double_speed", UnsupportedOrder)])
    def test_scheme_deltas(self, order, scheme, error):
        with pytest.raises(error):
            scheme_deltas(order, scheme, self.GRID)

    # an order that another scheme serves read "unsupported correlation order"
    @pytest.mark.parametrize("order, scheme, orders", [
        (4, "single_detector", "3"), (3, "four_point_double_speed", "4"),
        (4, "symmetric_opposite", "2, 3"), (5, "custom", "2, 3, 4")])
    def test_order_mismatch_names_the_scheme(self, order, scheme, orders):
        message = f"^scheme '{scheme}' does not serve order {order}; its orders: {orders}$"
        with pytest.raises(UnsupportedOrder, match=message):
            ScanPattern(order=order, scheme=scheme, grid=self.GRID,
                        deltas=np.zeros((3, order)) if scheme == "custom" else None)
        if scheme != "custom":
            with pytest.raises(UnsupportedOrder, match=message):
                scheme_deltas(order, scheme, self.GRID)

    @pytest.mark.parametrize("order, scheme, error", [
        (3, "bogus", ValueError), (3, "custom", ValueError),
        (2, "symmetric_opposite", UnsupportedOrder), (4, "symmetric_opposite", UnsupportedOrder),
        (4, "single_detector", UnsupportedOrder), (3, "four_point_double_speed", UnsupportedOrder)])
    def test_extremal_phases(self, order, scheme, error):
        with pytest.raises(error):
            extremal_phases(COHERENT, order, scheme)


class TestClassicalLimits:
    def test_table(self):
        assert classical_limit(3, "coherent") == pytest.approx(9 / 11)
        assert classical_limit(4, "thermal") == pytest.approx(7 / 9)
        assert classical_limit(2, "coherent") == 0.5

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            classical_limit(5, "coherent")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            classical_limit(3, "custom")

    def test_coherent_ordering_grows_with_order(self):
        limits = [classical_limit(n, "coherent") for n in (2, 3, 4)]
        assert limits[0] < limits[1] < limits[2]


class TestExtremalPhases:
    def test_coherent_order3_minimum(self):
        x_max, x_min, vis = extremal_phases(COHERENT, 3, "symmetric_opposite")
        assert x_min == pytest.approx(2 * math.pi / 3, abs=1e-8)
        assert vis == pytest.approx(9 / 11, abs=1e-10)

    def test_coherent_order4_minimum(self):
        _, x_min, vis = extremal_phases(COHERENT, 4, "four_point_double_speed")
        assert x_min == pytest.approx(math.pi / 2, abs=1e-8)
        assert vis == pytest.approx(17 / 18, abs=1e-10)

    def test_thermal_order4_minimum(self):
        _, x_min, vis = extremal_phases(THERMAL, 4, "four_point_double_speed")
        assert x_min == pytest.approx(math.pi / 2, abs=1e-8)
        assert vis == pytest.approx(7 / 9, abs=1e-10)

    def test_gradient_below_tolerance_at_extrema(self):
        x_max, x_min, _ = extremal_phases(THERMAL, 3, "symmetric_opposite")
        h = 1e-30
        for x in (x_max, x_min):
            z = x + 1j * h  # complex steps pass through the closed form
            assert abs(g3_point(THERMAL, PhaseConfig((z, 0.0, -z))).imag / h) < 1e-10

    def test_single_detector_scheme(self):
        # with the pi/2 offset the curve is 1 + (sqrt(2)/2) cos(x + pi/4),
        # so the minimum sits at x = 3 pi / 4
        x_max, x_min, vis = extremal_phases(COHERENT, 3, "single_detector",
                                            offset=math.pi / 2)
        assert vis == pytest.approx(math.sqrt(2) / 2, abs=1e-10)
        assert x_min == pytest.approx(3 * math.pi / 4, abs=1e-8)

    def test_custom_moments_supported(self):
        model = SourceModel.custom({2: 1.5, 3: 2.6, 4: 6.0})
        x_max, x_min, vis = extremal_phases(model, 3, "symmetric_opposite")
        grid = np.linspace(0, 2 * np.pi, 20001)
        brute = scan(model, ScanPattern(order=3, scheme="symmetric_opposite",
                                        grid=grid))
        assert vis == pytest.approx(brute.visibility, abs=1e-6)


class TestProperties:
    def test_nonnegative_over_random_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(2500):
            model = random_valid_model(rng)
            d3 = tuple(rng.uniform(-10, 10, 3))
            d4 = tuple(rng.uniform(-10, 10, 4))
            assert g2_point(model, rng.uniform(-10, 10)) >= 0.0
            assert g3_point(model, PhaseConfig(d3)) >= 0.0
            assert g4_point(model, PhaseConfig(d4)) >= 0.0

    def test_gauge_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            model = random_valid_model(rng)
            d = rng.uniform(0, 2 * np.pi, 4)
            c = rng.uniform(-20, 20)
            v0 = g4_point(model, PhaseConfig(tuple(d)))
            v1 = g4_point(model, PhaseConfig(tuple(d + c)))
            assert abs(v0 - v1) < 1e-12 * max(1.0, abs(v0))
            w0 = g3_point(model, PhaseConfig(tuple(d[:3])))
            w1 = g3_point(model, PhaseConfig(tuple(d[:3] + c)))
            assert abs(w0 - w1) < 1e-12 * max(1.0, abs(w0))

    def test_periodicity_in_each_delta(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            model = random_valid_model(rng)
            d = rng.uniform(0, 2 * np.pi, 3)
            v0 = g3_point(model, PhaseConfig(tuple(d)))
            for j in range(3):
                shifted = d.copy()
                shifted[j] += 2 * np.pi
                v1 = g3_point(model, PhaseConfig(tuple(shifted)))
                assert abs(v0 - v1) < 1e-11 * max(1.0, abs(v0))

    def test_permutation_symmetry(self):
        from itertools import permutations
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_valid_model(rng)
            d3 = rng.uniform(0, 2 * np.pi, 3)
            base3 = g3_point(model, PhaseConfig(tuple(d3)))
            for p in permutations(d3):
                assert g3_point(model, PhaseConfig(p)) == pytest.approx(base3, abs=1e-12)
            d4 = rng.uniform(0, 2 * np.pi, 4)
            base4 = g4_point(model, PhaseConfig(tuple(d4)))
            for p in permutations(d4):
                assert g4_point(model, PhaseConfig(p)) == pytest.approx(
                    base4, abs=1e-12 * max(1.0, abs(base4)))

    def test_phase_averaged_baseline_order3(self):
        # the mean over independent uniform phi_12, phi_23 keeps only the
        # constant part g3/4 + (3/4) g2
        rng = np.random.default_rng(8)
        model = SourceModel.custom({2: 1.9, 3: 4.2})
        n = 40000
        p12 = rng.uniform(0, 2 * np.pi, n)
        p23 = rng.uniform(0, 2 * np.pi, n)
        values = np.array([
            g3_point(model, PhaseConfig((a, 0.0, -b))) for a, b in zip(p12, p23)])
        se = values.std(ddof=1) / math.sqrt(n)
        expected = 4.2 / 4 + 0.75 * 1.9
        assert abs(values.mean() - expected) < 5 * se

    def test_phase_averaged_baseline_order4(self):
        rng = np.random.default_rng(9)
        model = THERMAL
        n = 40000
        draws = rng.uniform(0, 2 * np.pi, (n, 3))
        values = np.array([
            g4_point(model, PhaseConfig((a, 0.0, -b, -c)))
            for a, b, c in draws])
        se = values.std(ddof=1) / math.sqrt(n)
        g2, g3, g4 = 2.0, 6.0, 24.0
        expected = g4 / 8 + g3 / 2 + 3 * g2 ** 2 / 8
        assert abs(values.mean() - expected) < 5 * se


class TestEnvelope:
    def test_infinite_width_equals_none(self):
        wide = SourceModel.thermal(coherence_width=1e12)
        plain = SourceModel.thermal()
        p1 = scan(wide, ScanPattern(order=3, scheme="symmetric_opposite", grid=DENSE))
        p2 = scan(plain, ScanPattern(order=3, scheme="symmetric_opposite", grid=DENSE))
        assert np.allclose(p1.values, p2.values, atol=1e-12)

    def test_visibility_decreases_monotonically_with_width(self):
        widths = [8 * np.pi, 4 * np.pi, 2 * np.pi, np.pi]
        vis = [scan(SourceModel.thermal(coherence_width=w),
                    ScanPattern(order=3, scheme="symmetric_opposite", grid=DENSE)).visibility
               for w in widths]
        assert all(a > b for a, b in zip(vis, vis[1:]))

    def test_two_period_width_brackets_observed_thermal_visibility(self):
        model = SourceModel.thermal(coherence_width=2 * np.pi)
        pattern = scan(model, ScanPattern(order=3, scheme="symmetric_opposite", grid=DENSE))
        assert 0.3 < pattern.visibility < 0.6

    def test_tiny_width_kills_interference_off_center(self):
        model = SourceModel.coherent(coherence_width=1e-3)
        grid = np.linspace(0.5, 2 * np.pi, 300)
        pattern = scan(model, ScanPattern(order=3, scheme="symmetric_opposite", grid=grid))
        assert pattern.visibility < 0.01


class TestPatternType:
    def test_pattern_fills_visibility(self):
        p = InterferencePattern(xs=np.array([0.0, 1.0]), values=np.array([2.0, 1.0]))
        assert p.visibility == pytest.approx(1 / 3)

    def test_visibility_is_not_an_argument(self):
        # the values alone define it
        with pytest.raises(TypeError):
            InterferencePattern(np.array([0.0, 1.0]), np.array([2.0, 1.0]), visibility=0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            InterferencePattern(xs=np.array([0.0]), values=np.array([1.0, 2.0]))

    def test_visibility_stderr_propagates_the_extreme_points(self):
        # V = (3 - 1)/(3 + 1); dV/dmax = 2 min/(max + min)^2, dV/dmin = -2 max/(...)^2
        p = InterferencePattern(xs=np.arange(3.0), values=np.array([2.0, 3.0, 1.0]),
                                stderrs=np.array([9.0, 0.4, 0.2]))
        assert p.visibility_stderr() == pytest.approx(math.hypot(2 * 0.4 / 16, 6 * 0.2 / 16),
                                                      rel=1e-15)

    def test_visibility_stderr_none_without_stderrs(self):
        p = InterferencePattern(xs=np.arange(2.0), values=np.array([2.0, 1.0]))
        assert p.visibility_stderr() is None


class TestClosedForm:
    """``closed_form`` is the one evaluator behind points, scans and curves."""

    MODELS = [COHERENT, THERMAL, SourceModel.custom({2: 1.7, 3: 3.4, 4: 8.1}),
              SourceModel.thermal(coherence_width=1.5)]

    @staticmethod
    def evaluate(model, delta):
        from icfsim.analytic import closed_form
        from icfsim.sources import coherence_envelope
        n = delta.shape[-1]
        return closed_form([moment(model, k) for k in range(2, n + 1)], delta,
                           coherence_envelope(model, delta))

    @pytest.mark.parametrize("model", MODELS, ids=["coherent", "thermal", "custom", "width"])
    def test_batch_matches_point_functions(self, model):
        rng = np.random.default_rng(41)
        for n, point in ((3, g3_point), (4, g4_point)):
            delta = rng.uniform(-4, 4, (50, n))
            batch = self.evaluate(model, delta)
            for d, value in zip(delta, batch):
                assert abs(point(model, PhaseConfig(tuple(d))) - value) <= 1e-15 * abs(value)
        phi = rng.uniform(-4, 4, 50)
        batch = self.evaluate(model, np.stack([phi, 0.0 * phi], axis=-1))
        for p, value in zip(phi, batch):
            assert abs(g2_point(model, p) - value) <= 1e-15 * abs(value)

    @pytest.mark.parametrize("model", MODELS, ids=["coherent", "thermal", "custom", "width"])
    @pytest.mark.parametrize("order,scheme", [
        (2, "symmetric_opposite"), (3, "symmetric_opposite"), (3, "single_detector"),
        (4, "four_point_double_speed"), (2, "custom"), (3, "custom"), (4, "custom")])
    def test_scan_matches(self, model, order, scheme):
        grid = np.linspace(0.0, 2.0 * np.pi, 37)
        deltas = (np.random.default_rng(order).uniform(-3, 3, (grid.size, order))
                  if scheme == "custom" else None)
        pattern = ScanPattern(order=order, scheme=scheme, grid=grid, offset=0.8,
                              deltas=deltas)
        expected = self.evaluate(model, pattern.delta_array())
        got = scan(model, pattern).values
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))

    def test_complex_phases_pass_through(self):
        from icfsim.analytic import closed_form
        value = closed_form((2.0, 6.0), np.array([0.3 + 1e-30j, 0.0, -0.3 - 1e-30j]))
        assert np.iscomplexobj(value) and value.imag != 0.0

    def test_wrong_order_rejected(self):
        from icfsim.analytic import closed_form
        for n in (1, 5):
            with pytest.raises(UnsupportedOrder):
                closed_form((2.0, 6.0, 24.0), np.zeros(n))

    @pytest.mark.parametrize("kind,width,order,scheme,offset,x_max,x_min,vis", [
        ("coherent", None, 3, "symmetric_opposite", None,
         0.0, 2.0943951023931873, 0.8181818181818182),
        ("thermal", None, 3, "symmetric_opposite", None,
         0.0, 2.0943951023931873, 0.6),
        ("thermal", None, 3, "single_detector", 1.0,
         5.783185307179503, 2.6415926535897096, 0.49576701991564825),
        ("coherent", None, 4, "four_point_double_speed", None,
         0.0, 1.5707963267948966, 0.9444444444444444),
        ("thermal", None, 4, "four_point_double_speed", None,
         0.0, 1.5707963267948966, 0.7777777777777778),
        ("thermal", 1.5, 3, "symmetric_opposite", None,
         0.0, 1.9897192143124394, 0.4039497760955022),
        ("coherent", 2.0, 4, "four_point_double_speed", None,
         0.0, 1.7474105361500638, 0.7608003644576229),
    ])
    def test_extremal_phases_unchanged(self, kind, width, order, scheme, offset,
                                       x_max, x_min, vis):
        # reference values from the per-order evaluators that closed_form replaced
        got = extremal_phases(SourceModel(kind, coherence_width=width), order, scheme,
                              offset=offset)
        assert got == pytest.approx((x_max, x_min, vis), abs=1e-12)
