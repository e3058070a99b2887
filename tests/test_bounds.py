import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcolor.bounds import (
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
from listcolor.errors import RegimeError


def close(report, expected, tol=1e-9):
    assert report.value.to_float() == pytest.approx(float(expected), rel=tol)


class TestLogValue:
    def test_round_trip(self):
        for x in (1e-300, 0.25, 1.0, 3.5, 1e300):
            assert LogValue.of(x).to_float() == pytest.approx(x, rel=1e-12)

    def test_zero_flag(self):
        z = LogValue.zero()
        assert z.is_zero and z.to_float() == 0.0
        assert (z * LogValue.of(5)).is_zero
        assert (z + LogValue.of(5)).to_float() == pytest.approx(5)

    def test_ordering_across_extreme_scales(self):
        small = LogValue.of(2) ** -500  # far below float range
        large = LogValue.of(2) ** 500
        assert small < large
        assert small < LogValue.one() < large
        assert (small * large).approx_eq(LogValue.one())

    def test_overflow_to_inf(self):
        assert math.isinf((LogValue.of(10) ** 500).to_float())

    @given(
        st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)
    )
    @settings(max_examples=100)
    def test_arithmetic_matches_floats(self, a, b, c):
        got = (LogValue.of(a) * LogValue.of(b) + LogValue.of(c)) / LogValue.of(b)
        assert got.to_float() == pytest.approx((a * b + c) / b, rel=1e-9)

    def test_log_comb_matches_exact(self):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert math.exp(log_comb(n, k)) == pytest.approx(math.comb(n, k), rel=1e-10)


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

    def test_single_vertex_paths_survive_zero_degree(self):
        # only the r=1 term survives: n * k^2
        close(alternating_path_expectation(10, 0, 2, 5, 1, 6), 40)

    def test_divergence_flag_at_ratio_one(self):
        report = alternating_path_expectation(10, 3, 2, 12, 3, 50)  # sigma == delta*k^2
        assert report.divergent
        assert "geometric_tail" not in report.extras

    def test_tail_bounds_the_remainder(self):
        head = alternating_path_expectation(100, 3, 2, 50, 7, 40)
        full = alternating_path_expectation(100, 3, 2, 50, 7, 400)
        with_tail = head.extras["total_with_tail"].to_float()
        assert with_tail >= full.value.to_float() - 1e-12
        assert with_tail == pytest.approx(full.value.to_float(), rel=1e-6)


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
        ("prop:verylargegirth", (10**6 + 6, 3, 2, 100), 5,
         "sums paths of at most 10^6 sizes, so needs n <= g + 10^6"),
    ])
    def test_degenerate_inputs_leave_the_regime(self, which, args, g, message):
        with pytest.raises(RegimeError) as info:
            girth_regime_bounds(*args, g=g, which=which)
        assert str(info.value) == f"{which}: {message}"
        assert which not in girth_regime_bounds(*args, g=g)

    def test_main2_branches(self):
        small = girth_regime_bounds(10**6, 10, 2, 100)["th:main2"]
        assert small.extras["branch"] == "small-delta"
        large = girth_regime_bounds(100, 30, 2, 100)["th:main2"]
        assert large.extras["branch"] == "large-delta"
        assert large.extras["threshold"].log == pytest.approx(math.log(30))
