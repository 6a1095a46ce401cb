import math
from itertools import permutations, product

import numpy as np
import pytest

from icfsim import (
    PhaseConfig,
    SourceModel,
    g2_point,
    g3_point,
    g4_point,
    icf_general,
    term_count,
    verify_closed_form,
)
from icfsim.errors import MissingMoment, OrderTooLarge, UnsupportedOrder
from icfsim.expansion import _grouped, _model_weights, _sums, _table, _weights

COHERENT = SourceModel.coherent()
THERMAL = SourceModel.thermal()


def balanced_count(n):
    # independent combinatorial count: choose m detectors for '+', m of the
    # rest for '-', and assign A/B to the remaining n-2m
    total = 0
    for m in range(n // 2 + 1):
        total += (math.factorial(n)
                  // (math.factorial(m) ** 2 * math.factorial(n - 2 * m))
                  * 2 ** (n - 2 * m))
    return total


class TestTermBookkeeping:
    def test_surviving_term_count_matches_combinatorics(self):
        for n in range(1, 7):
            assert term_count(n) == balanced_count(n)
        assert term_count(3) == 20
        assert term_count(4) == 70

    @pytest.mark.parametrize("n", [7, 8])
    def test_surviving_term_count_at_the_top_orders(self, n):
        assert term_count(n) == balanced_count(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_matches_product_enumeration(self, n):
        # independent reference: walk itertools.product in its own order
        k_a, k_b, signs = [], [], []
        for tokens in product("AB+-", repeat=n):
            if tokens.count("+") != tokens.count("-"):
                continue
            m = tokens.count("+")
            k_a.append(tokens.count("A") + m)
            k_b.append(tokens.count("B") + m)
            signs.append([{"+": 1, "-": -1}.get(t, 0) for t in tokens])
        got_a, got_b, got_signs = _table(n)
        assert got_signs.dtype == np.int8
        assert np.array_equal(got_a, k_a)
        assert np.array_equal(got_b, k_b)
        assert np.array_equal(got_signs, np.array(signs).reshape(-1, n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sign_rows_closed_under_negation(self, n):
        rows, counts, active = _grouped(n)[:3]
        index = {tuple(r): i for i, r in enumerate(rows.tolist())}
        assert len(index) == len(rows)
        for i, row in enumerate(rows.tolist()):
            j = index[tuple(-x for x in row)]
            assert np.array_equal(counts[i], counts[j])
            assert np.array_equal(active[i], active[j])
        assert counts.sum() == term_count(n)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            icf_general(COHERENT, np.zeros(9))
        with pytest.raises(OrderTooLarge):
            term_count(9)

    # with every warning an error: finite phases whose sum overflows gave nan
    # after "RuntimeWarning: overflow encountered in matmul"
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", [
        [], np.zeros((2, 3)), [0.0, float("nan"), 1.0], [float("inf"), 0.0], [1e308] * 6,
    ], ids=["empty", "2-D", "nan", "inf", "sum-overflows"])
    def test_bad_phases_rejected(self, delta):
        with pytest.raises(ValueError, match="non-empty 1-D list of finite phases"):
            icf_general(THERMAL, delta)


class TestPhaseBasis:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sign_rows_up_to_order_5_and_detector_subsets_above(self, n):
        rows = _grouped(n)[0]
        basis, plus, minus = _grouped(n)[3:]
        if n <= 5:
            assert basis is rows and plus is None and minus is None
            return
        bits = 1 << np.arange(n)
        assert basis.shape == (2 ** n, n)
        assert np.array_equal(basis.astype(int) @ bits, np.arange(2 ** n))
        assert not np.any(plus & minus)
        assert np.array_equal(basis[plus] - basis[minus], rows)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_subset_factors_match_sign_row_exponentials(self, n):
        # both sides round their phase sums, so the bound grows with |delta|
        rows = _grouped(n)[0]
        basis, plus, minus = _grouped(n)[3:]
        rng = np.random.default_rng(40 + n)
        for _ in range(100):
            delta = rng.uniform(-2 * np.pi, 2 * np.pi, n)
            e = np.exp(1j * (basis @ delta))
            expected = np.exp(1j * (rows @ delta))
            bound = 1e-15 * (1.0 + np.abs(delta).sum())
            assert np.max(np.abs(e[plus] * e[minus].conj() - expected)) <= bound


class TestKnownValues:
    def test_order_one_normalizes_to_unity(self):
        assert icf_general(COHERENT, [0.3]) == pytest.approx(1.0)
        assert icf_general(THERMAL, [1.7]) == pytest.approx(1.0)

    def test_matches_g3_maximum(self):
        assert icf_general(COHERENT, [0.0, 0.0, 0.0]) == pytest.approx(2.5, abs=1e-12)

    def test_matches_g4_thermal_scan_minimum(self):
        delta = [math.pi / 2, 0.0, -math.pi / 2, -math.pi]
        assert icf_general(THERMAL, delta) == pytest.approx(3.0, abs=1e-11)

    def test_matches_g2_at_pi(self):
        assert icf_general(COHERENT, [math.pi, 0.0]) == pytest.approx(0.5, abs=1e-13)

    def test_scalar_phase_is_one_detector(self):
        assert icf_general(THERMAL, 0.5) == icf_general(THERMAL, [0.5]) == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_coherent_equal_phases_give_central_binomial(self, n):
        # <(1 + cos theta)^n> = C(2n, n) / 2^n
        assert icf_general(COHERENT, np.full(n, 0.9)) == pytest.approx(
            math.comb(2 * n, n) / 2 ** n, rel=1e-12)

    def test_all_equal_deltas_give_constant_plus_cos_terms(self):
        # every cosine is 1, so order 3 reduces to g3/4 + 2.25 g2
        for model, g2, g3 in ((COHERENT, 1.0, 1.0), (THERMAL, 2.0, 6.0)):
            for shift in (0.0, 1.2, -4.0):
                assert icf_general(model, [shift] * 3) == pytest.approx(
                    g3 / 4 + 2.25 * g2, abs=1e-11)

    def test_missing_moment_for_custom(self):
        model = SourceModel.custom({2: 2.0, 3: 4.5})
        with pytest.raises(MissingMoment):
            icf_general(model, [0.0, 0.0, 0.0, 0.0])


class TestClosedFormCertification:
    def test_order_2_tight(self):
        assert verify_closed_form(2, trials=1000) < 1e-12

    def test_order_3(self):
        assert verify_closed_form(3, trials=1000) < 1e-10

    def test_order_4(self):
        assert verify_closed_form(4, trials=1000) < 1e-10

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            verify_closed_form(5, trials=10)
        with pytest.raises(ValueError):
            verify_closed_form(3, trials=0)

    @pytest.mark.parametrize("order, pins", [
        (2, ["0x1.0000000000000p-51", "0x1.0000000000000p-50", "0x1.0000000000000p-51"]),
        (3, ["0x1.0000000000000p-48", "0x1.0000000000000p-48", "0x1.0000000000000p-48"]),
        (4, ["0x1.8000000000000p-45", "0x1.0000000000000p-44", "0x1.4000000000000p-45"]),
    ])
    def test_pinned_deviations(self, order, pins):
        # sign-row phase factors up to order 5 keep these bits, seeds 0, 1, 2
        assert [verify_closed_form(order, 1000, seed=s).hex() for s in range(3)] == pins

    def test_reproducible_given_seed(self):
        assert verify_closed_form(3, 50, seed=9) == verify_closed_form(3, 50, seed=9)


class TestOracleProperties:
    def test_imaginary_residue_cancels(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = rng.integers(2, 7)
            delta = rng.uniform(0, 2 * np.pi, n)
            total = _icf_sum(THERMAL, delta)
            assert abs(total.imag) * 2.0 ** -n < 1e-12

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_imaginary_residue_cancels_at_the_top_orders(self, n):
        rng = np.random.default_rng(36 + n)
        for _ in range(50):
            delta = rng.uniform(0, 2 * np.pi, n)
            total = _icf_sum(THERMAL, delta)
            assert abs(total.imag) * 2.0 ** -n < 1e-12 * max(1.0, abs(total.real) * 2.0 ** -n)

    @pytest.mark.parametrize("model", [
        THERMAL, COHERENT,
        SourceModel.custom({k: math.exp(0.2 * k * (k - 1)) for k in range(2, 9)}),
        SourceModel.thermal(coherence_width=2.5),
    ], ids=["thermal", "coherent", "custom", "thermal-width"])
    def test_grouped_sum_matches_per_term_sum(self, model):
        rng = np.random.default_rng(37)
        for n in range(1, 9):
            for _ in range(5):
                delta = rng.uniform(-6, 6, n)
                expected = per_term_sum(model, delta)
                total = _icf_sum(model, delta)
                assert abs(total - expected) <= 1e-12 * abs(expected)

    def test_memoized_weights_follow_the_model(self):
        # two tables of one order, called alternately, each keep their own weights
        models = [SourceModel.custom({k: math.exp(c * k * (k - 1)) for k in range(2, 7)})
                  for c in (0.2, 0.35)]
        rng = np.random.default_rng(38)
        for _ in range(4):
            for model in models:
                delta = rng.uniform(-6, 6, 6)
                expected = per_term_sum(model, delta)
                assert abs(_icf_sum(model, delta) - expected) <= 1e-12 * abs(expected)
        assert _model_weights.cache_info().maxsize is not None

    def test_nonnegativity_over_random_inputs(self):
        rng = np.random.default_rng(32)
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            model = THERMAL if rng.random() < 0.5 else COHERENT
            assert icf_general(model, rng.uniform(-8, 8, n)) >= 0.0

    def test_gauge_invariance_and_periodicity(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            delta = rng.uniform(0, 2 * np.pi, n)
            v0 = icf_general(THERMAL, delta)
            assert icf_general(THERMAL, delta + 1.234) == pytest.approx(
                v0, abs=1e-11 * max(1.0, v0))
            j = int(rng.integers(0, n))
            shifted = delta.copy()
            shifted[j] += 2 * np.pi
            assert icf_general(THERMAL, shifted) == pytest.approx(
                v0, abs=1e-10 * max(1.0, v0))

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(34)
        delta = rng.uniform(0, 2 * np.pi, 4)
        base = icf_general(THERMAL, delta)
        for p in permutations(delta):
            assert icf_general(THERMAL, np.array(p)) == pytest.approx(base, abs=1e-10)

    def test_partitioned_sum_matches_single_sum(self):
        # associative merge: summing term blocks in any split gives the
        # same value to within accumulation noise
        from icfsim.expansion import _table
        from icfsim.sources import moment as moment_of
        delta = np.array([0.7, -0.3, 2.1, 1.1])
        k_a, k_b, signs = _table(4)
        g = np.array([moment_of(THERMAL, k) if k >= 1 else 1.0 for k in range(5)])
        w = g[k_a] * g[k_b]
        phases = signs @ delta
        terms = w * np.exp(1j * phases)
        whole = terms.sum()
        rng = np.random.default_rng(0)
        for _ in range(20):
            order = rng.permutation(len(terms))
            split = np.array_split(order, rng.integers(2, 8))
            merged = sum(terms[idx].sum() for idx in split)
            assert abs(merged - whole) < 1e-10

    def test_envelope_matches_analytic_forms(self):
        rng = np.random.default_rng(35)
        model = SourceModel.thermal(coherence_width=3.0)
        for _ in range(100):
            d3 = rng.uniform(-6, 6, 3)
            assert icf_general(model, d3) == pytest.approx(
                g3_point(model, PhaseConfig(tuple(d3))), abs=1e-11)
            d4 = rng.uniform(-6, 6, 4)
            assert icf_general(model, d4) == pytest.approx(
                g4_point(model, PhaseConfig(tuple(d4))),
                abs=1e-10 * max(1.0, g4_point(model, PhaseConfig(tuple(d4)))))

    def test_envelope_g2_in_scan_gauge(self):
        model = SourceModel.coherent(coherence_width=2.0)
        for phi in (0.0, 0.7, 2.0):
            assert icf_general(model, [phi, 0.0]) == pytest.approx(
                g2_point(model, phi), abs=1e-13)


def _icf_sum(model, delta):
    """Unnormalized complex expansion sum for one phase list, as icf_general forms it."""
    from icfsim.sources import coherence_envelope
    from icfsim.sources import moment as moment_of
    g = (1.0, 1.0, *(moment_of(model, k) for k in range(2, delta.size + 1)))
    env = None if model.coherence_width is None else coherence_envelope(model, delta)
    return complex(_sums(_model_weights(g), delta, env))


def per_term_sum(model, delta):
    """One phase and one envelope factor per surviving term."""
    from icfsim.sources import coherence_envelope
    from icfsim.sources import moment as moment_of
    n = len(delta)
    k_a, k_b, signs = _table(n)
    g = np.array([moment_of(model, k) if k >= 1 else 1.0 for k in range(n + 1)])
    env = coherence_envelope(model, delta)
    w = g[k_a] * g[k_b] * np.prod(np.where(signs != 0, env, 1.0), axis=1)
    return np.sum(w * np.exp(1j * (signs @ delta)))


def per_trial_reference(order, trials, seed):
    """The one-trial-at-a-time certification loop: draw, build, compare."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        g2 = rng.uniform(1.0, 4.0)
        g3 = g2 * g2 * rng.uniform(1.0, 2.5)
        g4 = (g3 * g3 / g2) * rng.uniform(1.0, 2.5)
        model = SourceModel.custom({2: g2, 3: g3, 4: g4})
        delta = rng.uniform(0.0, 2.0 * np.pi, order)
        if order == 2:
            closed = g2_point(model, delta[0] - delta[1])
        elif order == 3:
            closed = g3_point(model, PhaseConfig(tuple(delta)))
        else:
            closed = g4_point(model, PhaseConfig(tuple(delta)))
        worst = max(worst, abs(icf_general(model, delta) - closed))
    return worst


class TestBatchedVerify:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_bulk_draws_equal_scalar_draws(self, order):
        from icfsim.expansion import _draw
        rng = np.random.default_rng(9)
        scalar = []
        for _ in range(50):
            g2 = rng.uniform(1.0, 4.0)
            g3 = g2 * g2 * rng.uniform(1.0, 2.5)
            g4 = (g3 * g3 / g2) * rng.uniform(1.0, 2.5)
            scalar.append([g2, g3, g4, *rng.uniform(0.0, 2.0 * np.pi, order)])
        rng = np.random.default_rng(9)
        parts = [_draw(rng, order, 17), _draw(rng, order, 33)]
        bulk = np.concatenate([np.column_stack([g2, g3, g4, d]) for g2, g3, g4, d in parts])
        assert np.array_equal(bulk, np.array(scalar))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_matches_per_trial_reference_across_a_chunk_boundary(self, order):
        from icfsim.expansion import _CHUNK
        trials = _CHUNK + 37
        assert abs(verify_closed_form(order, trials, seed=5)
                   - per_trial_reference(order, trials, 5)) <= 1e-15

    @pytest.mark.parametrize("trials", [1, 6, 7, 50])
    def test_small_chunks_match_per_trial_reference(self, monkeypatch, trials):
        import icfsim.expansion as expansion
        monkeypatch.setattr(expansion, "_CHUNK", 7)
        for order in (2, 3, 4):
            assert abs(verify_closed_form(order, trials, seed=21)
                       - per_trial_reference(order, trials, 21)) <= 1e-15

    def test_batched_sums_equal_single_sums(self):
        rng = np.random.default_rng(43)
        for n in range(1, 9):
            g = np.concatenate([np.ones((20, 2)), rng.uniform(1, 5, (20, n - 1))], axis=1)
            delta = rng.uniform(-6, 6, (20, n))
            env = rng.uniform(0.2, 1.0, (20, n))
            for e in (None, env):
                batch = _sums(_weights(g), delta, e)
                for i in range(20):
                    assert batch[i] == _sums(_weights(g[i]), delta[i],
                                             None if e is None else e[i])

    def test_perturbed_closed_form_fails_the_cli(self, monkeypatch, capsys):
        import icfsim.expansion as expansion
        from icfsim.cli import main
        original = expansion.closed_form
        monkeypatch.setattr(expansion, "closed_form",
                            lambda *args: original(*args) * (1 + 1e-8))
        assert main(["verify", "--trials", "50"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 3 and "PASS" not in out

    def test_uncancelled_residue_in_one_trial_raises(self, monkeypatch):
        import icfsim.expansion as expansion
        original = expansion._sums

        def leaky(w, delta, env=None):
            total = original(w, delta, env)
            total[5] += 1e-6j
            return total
        monkeypatch.setattr(expansion, "_sums", leaky)
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            verify_closed_form(3, 20)

    def test_nonclassical_draw_in_one_trial_raises(self, monkeypatch):
        import icfsim.expansion as expansion
        from icfsim.errors import MomentInequalityViolated
        original = expansion._draw

        def draw(rng, order, size):
            g2, g3, g4, delta = original(rng, order, size)
            g3[size // 2] = 0.9 * g2[size // 2] ** 2
            return g2, g3, g4, delta
        monkeypatch.setattr(expansion, "_draw", draw)
        with pytest.raises(MomentInequalityViolated) as err:
            verify_closed_form(4, 20)
        assert err.value.order == 3

    def test_peak_memory_does_not_grow_with_trials(self):
        import tracemalloc

        def peak(trials):
            tracemalloc.start()
            try:
                verify_closed_form(4, trials, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(200_000) < 2 * peak(20_000)
