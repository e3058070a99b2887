import inspect
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from listcolor.bounds import (
    FORMULAS,
    REGIME_NAMES,
    LogValue,
    alternating_path_expectation,
    bad_triple_expectation_sum,
    bad_triple_probability_bound,
    chebyshev_lower_bound,
    expected_identical_cliques_bound,
    expected_identical_cliques_exact,
    girth_regime_bounds,
    log_comb,
    pair_count_bound,
    pair_expectation_sum,
    pair_probability_bound,
    pi_bound_clique_union,
    proper_triple_count_bound,
    tree_bad_expectation_bound,
)
from listcolor.certificates import proper_tree_size
from listcolor.errors import InvalidParameterError, RegimeError

from support import reference_pair_sum, reference_path_sum


def close(report, expected, tol=1e-9):
    assert report.value.to_float() == pytest.approx(float(expected), rel=tol)


class TestLogValue:
    def test_round_trip(self):
        for x in (1e-300, 0.25, 1.0, 3.5, 1e300):
            assert LogValue(math.log(x)).to_float() == pytest.approx(x, rel=1e-12)

    def test_zero_flag(self):
        z = LogValue.zero()
        assert z.is_zero and z.to_float() == 0.0
        assert (z + LogValue(math.log(5))).to_float() == pytest.approx(5)

    def test_overflow_to_inf(self):
        big = LogValue(500 * math.log(10))
        assert math.isinf(big.to_float())
        assert (big + big).approx_eq(LogValue(500 * math.log(10) + math.log(2)))

    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=100)
    def test_arithmetic_matches_floats(self, a, c):
        got = LogValue(math.log(a)) + LogValue(math.log(c))
        assert got.to_float() == pytest.approx(a + c, rel=1e-9)

    def test_log_comb_matches_exact(self):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert math.exp(log_comb(n, k)) == pytest.approx(math.comb(n, k), rel=1e-10)
        # min(k, n - k) <= 20 up to n = 10^6, where lgamma differences cancel
        for n in [*range(61), 97, 1000, 10**4, 65537, 10**5, 314159, 10**6]:
            for small in range(min(20, n) + 1):
                for k in (small, n - small):
                    exact = math.log(math.comb(n, k))
                    assert abs(log_comb(n, k) - exact) <= 1e-12 * exact, (n, k)
        # the Stirling branch, where a plain lgamma difference read 9e-12
        # relative at (10^6, 29)
        for n in (10**4, 10**5, 10**6):
            for small in range(21, 1001):
                exact = math.log(math.comb(n, small))
                for k in (small, n - small):
                    assert abs(log_comb(n, k) - exact) <= 1e-12 * exact, (n, k)


# one value per parameter name of the formulas in FORMULAS
FORMULA_ARGS = {"n": 1000, "delta": 3, "k": 2, "sigma": 40, "m": 5, "l": 3, "r": 3, "g": 5,
                "r_min": 1, "r_max": 6, "m_lo": 4, "m_hi": 9, "l_min": 3, "l_max": 6,
                "expectation": 4.0, "covariance_sum": 1.0}
REPORTING_FORMULAS = [name for name, f in FORMULAS.items()
                      if inspect.signature(f).return_annotation == "BoundReport"]


def test_twelve_formulas_report():
    assert len(REPORTING_FORMULAS) == 12


@pytest.mark.parametrize("name", REPORTING_FORMULAS)
def test_report_names_its_formula_and_its_parameters(name):
    """A report's name is its registry key, and its params keys are the
    formula's parameter names, optional ones included."""
    params = inspect.signature(FORMULAS[name]).parameters
    report = FORMULAS[name](**{p: FORMULA_ARGS[p] for p in params})
    assert report.name == name
    assert set(report.params) == set(params)


class TestIdenticalCliqueBounds:
    def test_upper_bound_example(self):
        close(expected_identical_cliques_bound(10, 2, 2, 3), Fraction(10 * 4, 9))

    def test_zero_degree(self):
        assert expected_identical_cliques_bound(7, 0, 2, 3).value.is_zero

    def test_all_ones(self):
        close(expected_identical_cliques_bound(1, 1, 1, 1), 1)

    def test_exact_expectation_example(self):
        close(expected_identical_cliques_exact(60, 4, 2, 6), Fraction(12 * 10, 225))

    def test_forced_identical_k5(self):
        close(expected_identical_cliques_exact(5, 4, 4, 4), 1)

    def test_doubling_n_doubles_blocks(self):
        one = expected_identical_cliques_exact(60, 4, 2, 6).value
        two = expected_identical_cliques_exact(120, 4, 2, 6).value
        assert two.to_float() == pytest.approx(2 * one.to_float(), rel=1e-9)

    def test_k_above_delta_gives_zero(self):
        assert expected_identical_cliques_exact(30, 2, 3, 5).value.is_zero


class TestPiBound:
    def test_example_value(self):
        oracle = Fraction(12) * (
            Fraction(5, 15**3) + Fraction(1, 15**4)
        )  # C(5,4)/C(6,2)^3 + C(5,5)/C(6,2)^4, over 12 blocks
        close(pi_bound_clique_union(60, 4, 2, 6), oracle)
        assert float(oracle) == pytest.approx(0.01801, abs=1e-5)

    def test_k_equal_delta_truncates_to_zero(self):
        assert pi_bound_clique_union(20, 3, 3, 5).value.is_zero

    def test_dominated_by_squared_expectation_on_grid(self):
        for sigma in range(6, 16):
            e = expected_identical_cliques_exact(1200, 4, 2, sigma).value.to_float()
            pi = pi_bound_clique_union(1200, 4, 2, sigma).value.to_float()
            assert pi <= e * e


class TestChebyshev:
    def test_plain_substitution(self):
        assert chebyshev_lower_bound(10, 0).value.to_float() == pytest.approx(0.9)

    def test_clamped_at_zero(self):
        assert chebyshev_lower_bound(1, 0).value.to_float() == 0.0

    def test_vacuous_when_expectation_zero(self):
        assert chebyshev_lower_bound(0, 0).value.to_float() == 0.0

    def test_tends_to_one_along_ramp(self):
        previous = 0.0
        for e in (10, 100, 10**4, 10**8):
            bound = chebyshev_lower_bound(e, e**1.5).value.to_float()
            assert bound >= previous
            previous = bound
        assert previous > 0.999


class TestTripleBounds:
    def test_probability_bound_example(self):
        oracle = Fraction(5**3 * 3 * 6**3, 10**4)
        assert float(oracle) == pytest.approx(8.1)
        close(bad_triple_probability_bound(4, 3, 2, 5), oracle)

    def test_single_vertex_collapses(self):
        close(bad_triple_probability_bound(1, 4, 2, 6), Fraction(math.comb(4, 2), math.comb(6, 2)))

    def test_decreasing_in_sigma(self):
        values = [
            bad_triple_probability_bound(4, 3, 2, sigma).value.to_float()
            for sigma in range(5, 30)
        ]
        assert values == sorted(values, reverse=True)

    def test_count_bound_example(self):
        close(proper_triple_count_bound(3, 2, 3), 24)

    def test_count_bound_m1(self):
        close(proper_triple_count_bound(17, 4, 1), 17)

    def test_count_bound_m1_survives_zero_degree(self):
        close(proper_triple_count_bound(17, 0, 1), 17)

    def test_expectation_sum_empty(self):
        assert bad_triple_expectation_sum(10, 3, 2, 9, m_lo=5, m_hi=4).value.is_zero

    def test_expectation_sum_single_term_matches_product(self):
        n, delta, k, sigma = 50, 3, 2, 40

        def term(m):
            per_triple = Fraction(
                sigma ** (m - 1) * math.comb(delta, k) * math.comb(delta * k, k - 1) ** (m - 1),
                math.comb(sigma, k) ** m,
            )
            return n * delta ** (2 * m - 2) * math.factorial(m - 1) * per_triple

        close(bad_triple_expectation_sum(n, delta, k, sigma, m_lo=4, m_hi=4), term(4))
        close(
            bad_triple_expectation_sum(n, delta, k, sigma, m_lo=4, m_hi=12),
            sum(term(m) for m in range(4, 13)),
        )

    def test_expectation_sum_decreasing_in_sigma(self):
        values = [
            bad_triple_expectation_sum(100, 3, 2, sigma).value.to_float()
            for sigma in (50, 100, 200, 400, 800)
        ]
        assert values == sorted(values, reverse=True)

    def test_huge_parameters_stay_finite_in_log_space(self):
        report = bad_triple_expectation_sum(10**9, 50, 4, 10**6, m_lo=6, m_hi=5000)
        assert math.isfinite(report.value.log)


class TestPathSum:
    def test_reference_sum(self):
        # oracle: direct float summation of 400 * 0.24^(r-1) over r=7..100
        oracle = sum(100 * 3 ** (r - 1) * 2 ** (2 * r) / 50 ** (r - 1) for r in range(7, 101))
        assert oracle == pytest.approx(0.1005805137, abs=1e-9)
        report = alternating_path_expectation(100, 3, 2, 50, 7, 100)
        close(report, oracle)
        assert not report.divergent

    def test_empty_range(self):
        assert alternating_path_expectation(10, 2, 2, 20, 9, 8).value.is_zero

    def test_paths_have_a_vertex(self):
        # r = 0 would put Delta^-1 in the first term, infinite at Delta = 0
        with pytest.raises(InvalidParameterError, match="need r_min >= 1"):
            alternating_path_expectation(10, 0, 2, 5, 0, 6)

    def test_single_vertex_paths_survive_zero_degree(self):
        # only the r=1 term survives: n * k^2
        close(alternating_path_expectation(10, 0, 2, 5, 1, 6), 40)

    def test_divergence_flag_at_ratio_one(self):
        # sigma == delta*k^2; at (6, 2, 24) log 6 + 2 log 2 - log 24 rounds below 0
        for delta, sigma in ((3, 12), (6, 24)):
            report = alternating_path_expectation(10, delta, 2, sigma, 3, 50)
            assert report.divergent
            assert "geometric_tail" not in report.extras

    def test_tail_bounds_the_remainder(self):
        head = alternating_path_expectation(100, 3, 2, 50, 7, 40)
        full = alternating_path_expectation(100, 3, 2, 50, 7, 400)
        with_tail = head.extras["total_with_tail"].to_float()
        assert with_tail >= full.value.to_float() - 1e-12
        assert with_tail == pytest.approx(full.value.to_float(), rel=1e-6)

    def test_divergent_sum_matches_decimal_at_a_million_sizes(self):
        """n = 10^6, Delta = 16, k = 2, sigma = 6 from r = 4 (the
        prop:verylargegirth sum at g = 4).  A running sum of its 999,997 logs,
        as `reference_path_sum` adds them, reads 2367136.547226011 there,
        1.1e-11 relative off."""
        with localcontext() as ctx:
            ctx.prec, ctx.Emax = 50, 10**7
            q = Decimal(16 * 2**2) / 6
            exact = 10**6 * 2**2 * q**3 * (q ** (10**6 - 3) - 1) / (q - 1)
            oracle = LogValue(float(exact.ln()))
        report = alternating_path_expectation(10**6, 16, 2, 6, 4, 10**6)
        assert report.divergent
        assert report.value.approx_eq(oracle), report.value.log
        regime = girth_regime_bounds(10**6, 16, 2, 6, g=4, which="prop:verylargegirth")
        assert regime["prop:verylargegirth"].extras["bound"].approx_eq(oracle)

    @given(
        st.integers(1, 10**6), st.integers(0, 64), st.integers(1, 6), st.integers(1, 10**4),
        st.sampled_from(["below", "at", "above", "free"]), st.integers(1, 60),
        st.integers(0, 10**4),
    )
    @example(10, 0, 2, 5, "free", 1, 6)  # Delta = 0: only r = 1 survives
    @example(10, 3, 2, 12, "at", 3, 48)  # ratio exactly one
    @example(10, 6, 2, 1, "at", 3, 48)  # ratio one, whose float log rounds below 0
    @example(100, 3, 2, 50, "below", 7, 1)  # a single size
    @example(100, 3, 2, 50, "below", 7, 0)  # empty range
    @example(10**6, 16, 2, 6, "above", 4, 10**4)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_running_sum(self, n, delta, k, sigma, side, r_min, count):
        """The closed form against `reference_path_sum` within 1e-12, on
        either side of ratio Delta*k^2/sigma = 1 and on it; exactly at one
        the sum is divergent, wherever the float log-ratio rounds."""
        at = delta * k * k
        sigma = {"below": at + sigma, "at": at, "above": at - sigma % at if at else 0}.get(
            side, sigma)
        assume(k <= sigma)
        r_max = r_min + count - 1
        report = alternating_path_expectation(n, delta, k, sigma, r_min, r_max)
        total, after_last = reference_path_sum(n, delta, k, sigma, r_min, r_max)
        assert report.value.approx_eq(LogValue(total)), (report.value.log, total)
        assert report.divergent == (count > 0 and sigma <= at)
        if count and sigma > at:
            tail = LogValue(after_last - math.log((sigma - at) / sigma))
            assert report.extras["geometric_tail"].approx_eq(tail)


class TestPairBounds:
    def test_probability_example(self):
        close(pair_probability_bound(3, 0, 5), Fraction(8, 400))

    def test_direction_in_r_depends_on_sigma(self):
        # ratio between consecutive r values is 4/(sigma-1)
        for sigma, increasing in ((4, True), (9, False)):
            values = [
                pair_probability_bound(6, r, sigma).value.to_float() for r in range(0, 7)
            ]
            assert (values == sorted(values)) == increasing

    def test_vanishes_for_large_sigma(self):
        assert pair_probability_bound(4, 1, 10**9).value.to_float() < 1e-20

    def test_count_example(self):
        close(pair_count_bound(5, 2, 3, 0), 160)

    def test_count_minimized_at_r_zero(self):
        values = [pair_count_bound(9, 3, 5, r).value.to_float() for r in range(0, 6)]
        assert values == sorted(values)

    def test_pair_sum_empty_below_minimum_size(self):
        assert pair_expectation_sum(50, 2, 30, l_max=2).value.is_zero

    def test_pair_sum_divergence_flag(self):
        assert pair_expectation_sum(50, 5, 20, l_max=30).divergent
        assert not pair_expectation_sum(50, 2, 30, l_max=30).divergent

    def test_pair_sum_slope_near_minus_four_in_sigma(self):
        # dominated by the leading l=3 term ~ n Delta^2 / sigma^4
        lo, hi = 200.0, 3200.0
        v_lo = pair_expectation_sum(1000, 2, int(lo), l_max=60).value.to_float()
        v_hi = pair_expectation_sum(1000, 2, int(hi), l_max=60).value.to_float()
        slope = (math.log(v_hi) - math.log(v_lo)) / (math.log(hi) - math.log(lo))
        assert slope == pytest.approx(-4.0, abs=0.1)

    @given(
        st.integers(1, 10**6), st.integers(0, 64), st.integers(3, 10**4),
        st.sampled_from(["below", "at", "above", "free"]), st.integers(3, 60),
        st.integers(0, 80),
    )
    @example(50, 0, 30, "free", 3, 28)  # Delta = 0: every term is zero
    @example(50, 5, 21, "at", 3, 28)  # sigma - 1 = 4*Delta: each r-sum is l + 1 ones
    @example(50, 2, 30, "below", 3, 1)  # a single size
    @example(50, 2, 30, "below", 3, 0)  # empty range
    @example(10**5, 4, 500, "free", 5, 80)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_double_loop(self, n, delta, sigma, side, l_min, count):
        """Each size's r-sum in closed form against `reference_pair_sum`
        within 1e-12, on either side of 4*Delta/(sigma-1) = 1 and on it.
        Up to ~10^4 (l, r) terms."""
        at = 4 * delta + 1
        sigma = {"below": at + sigma, "at": at, "above": 3 + sigma % max(at - 3, 1)}.get(
            side, sigma)
        assume(sigma >= 3)
        l_max = l_min + count - 1
        report = pair_expectation_sum(n, delta, sigma, l_max, l_min)
        total = reference_pair_sum(n, delta, sigma, l_max, l_min)
        assert report.value.approx_eq(LogValue(total)), (report.value.log, total)


class TestTreeBound:
    def test_leaf_exponent_example(self):
        report = tree_bad_expectation_bound(100, 3, 3, 20, 5)
        assert report.extras["leaf_exponent"] == 6  # 3 * 2^((5-3)/2)
        assert report.extras["tree_size"] == 10

    def test_exact_display_value(self):
        n, delta, k, sigma, g = 100, 3, 3, 20, 5
        q = proper_tree_size(k, g)
        oracle = Fraction(
            n * delta ** (q - 1) * sigma ** (q - 1) * math.comb(sigma - 1, k - 1) ** 6,
            math.comb(sigma, k) ** q,
        )
        close(tree_bad_expectation_bound(n, delta, k, sigma, g), oracle)

    def test_simplified_dominates_exact_on_grid(self):
        for k in (2, 3, 4):
            for g in (4, 5, 6, 7):
                for sigma in range(max(k, 3), 40, 4):
                    report = tree_bad_expectation_bound(1000, 5, k, sigma, g)
                    assert report.extras["simplified"].log >= report.value.log - 1e-9

    def test_threshold_ramp_decreases(self):
        # sigma growing as t * n^(1/(Q-1)) * Delta drives the bound to zero
        n, delta, k, g = 10**6, 4, 3, 5
        q = proper_tree_size(k, g)
        base = n ** (1 / (q - 1)) * delta
        values = [
            tree_bad_expectation_bound(n, delta, k, int(t * base), g).value.to_float()
            for t in (2, 4, 8, 16)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < values[0] / 100


class TestRegimes:
    def test_girth_threshold_exponent_k3(self):
        reports = girth_regime_bounds(10**6, 3, 3, 10**4, g=4, s=2)
        assert "prop:girth" in reports
        thr = reports["prop:girth"].extras["threshold"]
        assert thr.log == pytest.approx(math.log(10**6) / 17 + 2 * math.log(3))

    def test_prop3_threshold_at_girth_four(self):
        reports = girth_regime_bounds(10**5, 3, 2, 10**3, g=4)
        thr = reports["prop3"].extras["threshold"]
        assert thr.log == pytest.approx(math.log(10**5) / 5 + math.log(3))

    def test_p_k_value(self):
        reports = girth_regime_bounds(10**6, 3, 3, 10**4, g=5, s=2)
        assert proper_tree_size(4, 5) == 17
        assert reports["prop:girth"].extras["P(k)"] == 2 * 17 + 1 == 35

    def test_threshold_clearing_flags(self):
        low = girth_regime_bounds(10**6, 4, 2, 10, g=5)
        high = girth_regime_bounds(10**6, 4, 2, 10**5, g=5)
        assert not low["th:main1"].extras["clears_threshold"]
        assert high["th:main1"].extras["clears_threshold"]

    def test_explicit_regime_mismatch_raises(self):
        with pytest.raises(RegimeError, match="^prop:girth: needs k >= 3$"):
            girth_regime_bounds(1000, 3, 2, 50, g=4, which="prop:girth")
        with pytest.raises(RegimeError, match="^prop3: needs a girth g$"):
            girth_regime_bounds(1000, 3, 3, 50, which="prop3")
        with pytest.raises(RegimeError, match="^prop:girth2: needs girth g > 3$"):
            girth_regime_bounds(1000, 3, 3, 50, g=3, which="prop:girth2")
        with pytest.raises(RegimeError) as info:
            girth_regime_bounds(1000, 3, 3, 50, which="nonsense")
        assert str(info.value) == (
            "unknown regime 'nonsense'; choose from th:main1, th:main2, prop1, prop2, prop3, "
            "prop:girth, prop:girth2, prop:verylargegirth, th:nonconstant1, th:nonconstant2, "
            "prop:largek"
        )

    @pytest.mark.parametrize("which,args,kwargs,message", [
        ("th:main1", (1000, 3, 1, 50), {}, "needs k >= 2"),
        ("th:main2", (1000, 3, 3, 50), {}, "is a k=2 statement"),
        ("prop1", (1000, 3, 3, 50), {"alpha": 5}, "alpha=5.000 outside [1, 3]"),
        ("prop1", (1000, 3, 3, 50), {"s": 2}, "s=2 below 2 + 2/(k-1)"),
        ("prop2", (1000, 3, 1, 50), {}, "needs k >= 2"),
        ("prop3", (1000, 3, 3, 50), {"g": 4}, "is a k=2 statement"),
        ("prop:girth", (1000, 3, 3, 50), {"g": 3}, "needs girth g >= 4"),
        ("prop:girth", (1000, 3, 3, 50), {"g": 4, "s": 1}, "s below 1 + 1/(k-1)"),
        ("prop:girth2", (1000, 3, 2, 50), {"g": 4}, "needs k >= 3"),
        ("prop:verylargegirth", (1000, 3, 3, 50), {"g": 3},
         "needs k = 2, or k >= 3 with g > 3"),
        ("prop:verylargegirth", (1000, 3, 3, 50), {}, "needs a girth g"),
        ("th:nonconstant1", (1000, 3, 1, 50), {}, "needs k >= 2"),
        ("th:nonconstant2", (1000, 3, 3, 50), {"s": 2}, "needs s > 2"),
        ("th:nonconstant2", (1000, 3, 3, 50), {"alpha": 1}, "alpha=1.000 outside (1, 3]"),
        ("prop:largek", (1000, 3, 1, 50), {}, "needs k >= 2"),
    ])
    def test_explicit_regime_mismatch_message(self, which, args, kwargs, message):
        with pytest.raises(RegimeError) as info:
            girth_regime_bounds(*args, which=which, **kwargs)
        assert str(info.value) == f"{which}: {message}"

    def test_girth_series_matches_termwise_sum(self):
        """prop:girth attaches sum_m n*Delta^(m-1)*(m-1)!*sigma^(m-1)*C(Delta,k)*
        C(Delta*k,k-1)^(m-1)/C(sigma,k)^m over m = Q(k+1, g) .. Q + 10^6 - 1."""
        n, delta, k, sigma, g = 10**6, 3, 3, 10**5, 4
        rep = girth_regime_bounds(n, delta, k, sigma, g=g, which="prop:girth")["prop:girth"]
        assert rep.extras["bound_name"] == "sum:triples-girth"
        m_lo = proper_tree_size(k + 1, g)
        assert m_lo == 8
        # each term from its own formula, not from the previous term; the
        # binomials go through log_comb, whose lgamma differences already
        # differ from log(math.comb(10**5, 3)) in the eleventh digit
        terms = [
            math.log(n) + (m - 1) * math.log(delta) + math.lgamma(m) + (m - 1) * math.log(sigma)
            + log_comb(delta, k) + (m - 1) * log_comb(delta * k, k - 1)
            - m * log_comb(sigma, k)
            for m in range(m_lo, m_lo + 10**6)
        ]
        top = max(terms)
        oracle = LogValue(top + math.log(math.fsum(math.exp(t - top) for t in terms)))
        assert rep.extras["bound"].approx_eq(oracle)

    def test_nonconstant_list_threshold(self):
        reports = girth_regime_bounds(10**6, 8, 3, 10**3, eps=0.1)
        rep = reports["th:nonconstant1"]
        expected = math.log(1.1) + math.log(10**6) / 9 + math.log(8) / 3 + math.log(3)
        assert rep.extras["threshold"].log == pytest.approx(expected)
        assert "case_ii_threshold" in rep.extras
        assert "case_iii_threshold" in rep.extras

    def test_large_k_cases_switch(self):
        small = girth_regime_bounds(10**6, 5, 3, 100)["prop:largek"]
        assert small.extras["case"].startswith("i")
        large = girth_regime_bounds(100, 5, 8, 100)["prop:largek"]
        assert large.extras["case"].startswith("ii")

    def test_catalog_skips_what_it_cannot_evaluate(self):
        """Inputs that pass the catalog's own checks (n = 1, sigma = 2) never
        crash it: each regime either reports or raises RegimeError."""
        cases = [
            (n, delta, k, sigma, g)
            for n in (1, 2, 16)
            for delta in (1, 2)
            for k in (1, 2)
            for sigma in (2, 3)
            if k <= sigma
            for g in (None, 4, 5)
        ] + [(1, 1, 3, 3, 5)]
        for n, delta, k, sigma, g in cases:
            everything = girth_regime_bounds(n, delta, k, sigma, g=g)
            for name in REGIME_NAMES:
                try:
                    named = girth_regime_bounds(n, delta, k, sigma, g=g, which=name)
                except RegimeError as exc:
                    assert str(exc).startswith(f"{name}: ")
                    assert name not in everything
                else:
                    assert list(named) == [name]
                    assert named[name].to_json() == everything[name].to_json()

    @pytest.mark.parametrize("which,args,g,message", [
        ("prop1", (1, 2, 2, 3), 5, "needs n >= 2 for the default alpha"),
        ("th:nonconstant2", (1, 2, 2, 3), 5, "needs n >= 2 for the default alpha"),
        ("prop:largek", (1, 1, 3, 3), 5, "needs n >= 2"),
        ("th:main2", (16, 2, 2, 2), 5, "needs sigma >= 3"),
        ("prop3", (16, 2, 2, 2), 5, "needs sigma >= 3"),
        ("prop3", (16, 2, 2, 3), 2, "needs a girth g"),
    ])
    def test_degenerate_inputs_leave_the_regime(self, which, args, g, message):
        with pytest.raises(RegimeError) as info:
            girth_regime_bounds(*args, g=g, which=which)
        assert str(info.value) == f"{which}: {message}"
        assert which not in girth_regime_bounds(*args, g=g)

    @pytest.mark.parametrize("n", [10**6 + 6, 10**9])
    def test_very_large_girth_sums_paths_of_every_size(self, n):
        """Case (i) sums paths of g..n vertices in closed form, so it reports
        past g + 10^6 sizes, where it used to leave its regime."""
        rep = girth_regime_bounds(n, 3, 2, 100, g=5, which="prop:verylargegirth")
        rep = rep["prop:verylargegirth"]
        assert rep.extras["case"] == "i" and rep.extras["bound_name"] == "eq:pathsum"
        assert not rep.divergent  # ratio 12/100
        # the sum is its first term n * 3^4 * 2^10 / 100^4 over 1 - 0.12, less
        # a remainder 0.12^(n-4) far below float resolution
        assert rep.value.approx_eq(LogValue(math.log(n * 3**4 * 2**10 / 100**4 / 0.88)))
        assert "prop:verylargegirth" in girth_regime_bounds(n, 3, 2, 100, g=5)

    def test_girth_series_cap_needs_no_huge_power(self):
        """At g = 40 the cap Delta^((k-1)*m_lo + 1) has about 2*10^9 digits;
        the series stops at m_hi = m_lo + 10^6 - 1 without building it.
        Terms grow about e^16-fold per size there, so the top 50 terms give
        the sum to far below 1e-12, and one size more or less moves its log
        by about 16."""
        n, delta, k, sigma = 10**6, 3, 3, 400
        rep = girth_regime_bounds(n, delta, k, sigma, g=40, which="prop:girth")["prop:girth"]
        assert rep.extras["bound_name"] == "sum:triples-girth"
        m_hi = proper_tree_size(k + 1, 40) + 10**6 - 1
        terms = [
            math.log(n) + (m - 1) * math.log(delta) + math.lgamma(m) + (m - 1) * math.log(sigma)
            + log_comb(delta, k) + (m - 1) * log_comb(delta * k, k - 1)
            - m * log_comb(sigma, k)
            for m in range(m_hi - 49, m_hi + 1)
        ]
        oracle = LogValue(terms[-1] + math.log(math.fsum(math.exp(t - terms[-1]) for t in terms)))
        assert rep.extras["bound"].approx_eq(oracle), (rep.extras["bound"].log, oracle.log)

    def test_main2_branches(self):
        small = girth_regime_bounds(10**6, 10, 2, 100)["th:main2"]
        assert small.extras["branch"] == "small-delta"
        large = girth_regime_bounds(100, 30, 2, 100)["th:main2"]
        assert large.extras["branch"] == "large-delta"
        assert large.extras["threshold"].log == pytest.approx(math.log(30))


# The catalog at the four points of the bench's bounds_catalog workload,
# keyed by (n, Delta, k, sigma, g): each regime's (log_value, threshold log,
# bound log or None), read from the term-by-term sums.  _ZERO is the log of
# an empty or all-zero sum.
_ZERO = -math.inf
CATALOG_PINS = {
    (10**6, 3, 3, 400, 5): {
        "th:main1": (4134839.604714512, 1.9012608248854004, 4134839.604714512),
        "prop1": (5.545124877294685, 5.545124877294685, None),
        "prop2": (0.9287132518727077, 5.703782474656201, 0.9287132518727077),
        "prop:girth": (7314118.00941064, 2.042647306086858, 7314118.00941064),
        "prop:girth2": (-16.43138547090703, 2.633669017330807, -16.43138547090703),
        "prop:verylargegirth": (-16.43138547090703, 4.871201010907891, -16.43138547090703),
        "th:nonconstant1": (4134839.604714512, 2.99987311355351, 4134839.604714512),
        "th:nonconstant2": (6.094431021628741, 6.094431021628741, None),
        "prop:largek": (0.9287132518727077, 6.802394763324311, 0.9287132518727077),
    },
    (10**5, 3, 4, 2000, 6): {
        "th:main1": (_ZERO, 0.9942109137276667, _ZERO),
        "prop1": (-89.22469320901934, 4.707851077128639, -89.22469320901934),
        "prop2": (_ZERO, 3.9768436549106667, _ZERO),
        "prop:girth": (_ZERO, 1.5554693413079013, _ZERO),
        "prop:girth2": (-100.64258565192517, 1.559129307266919, -100.64258565192517),
        "prop:verylargegirth": (-100.64258565192517, 4.871201010907891, -100.64258565192517),
        "th:nonconstant1": (_ZERO, 2.380505274847557, _ZERO),
        "th:nonconstant2": (5.911043390137179, 5.911043390137179, None),
        "prop:largek": (_ZERO, 5.3631380160305575, _ZERO),
    },
    (10**5, 4, 2, 500, 5): {
        "th:main1": (27238.78106175235, 3.5713785468025026, 27238.78106175235),
        "th:main2": (-6.344919508207181, 3.5713785468025026, -6.344919508207181),
        "prop2": (2.95491027903374, 7.142757093605005, 2.95491027903374),
        "prop3": (-13.228957237391068, 3.305115271948262, -13.228957237391068),
        "prop:verylargegirth": (-0.8363344869339616, 7.5186441729158835, -0.8363344869339616),
        "th:nonconstant1": (27238.78106175235, 4.2645257273624475, 27238.78106175235),
        "prop:largek": (2.95491027903374, 7.8359042741649505, 2.95491027903374),
    },
    (10**4, 4, 2, 40, 6): {
        "th:main1": (37679.889832044886, 2.9957322735539913, 37679.889832044886),
        "th:main2": (2.4552795955340616, 2.9957322735539913, 2.4552795955340616),
        "prop1": (8.071859351810346, 8.071859351810346, None),
        "prop2": (5.703782474656201, 5.991464547107983, 5.703782474656201),
        "prop3": (-0.2744542118948372, 2.7020572714022024, -0.2744542118948372),
        "prop:verylargegirth": (6.526006697491293, 6.527972257270324, 6.526006697491293),
        "th:nonconstant1": (37679.889832044886, 3.6888794541139367, 37679.889832044886),
        "th:nonconstant2": (6.685564990690456, 6.685564990690456, None),
        "prop:largek": (5.703782474656201, 6.684611727667928, 5.703782474656201),
    },
}


@pytest.mark.parametrize(
    "point", list(CATALOG_PINS), ids=["n{}d{}k{}s{}g{}".format(*p) for p in CATALOG_PINS]
)
def test_catalog_matches_pinned_logs(point):
    n, delta, k, sigma, g = point
    reports = girth_regime_bounds(n, delta, k, sigma, g=g)
    assert list(reports) == list(CATALOG_PINS[point])
    for name, (log_value, threshold, bound) in CATALOG_PINS[point].items():
        rep = reports[name]
        assert rep.value.approx_eq(LogValue(log_value)), (name, rep.value.log)
        assert rep.extras["threshold"].approx_eq(LogValue(threshold)), name
        if bound is None:
            assert "bound" not in rep.extras, name
        else:
            assert rep.extras["bound"].approx_eq(LogValue(bound)), (name, rep.extras["bound"].log)
