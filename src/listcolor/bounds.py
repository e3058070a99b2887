"""Log-space evaluation of every analytic expectation and probability bound.

Quantities like Delta^(k^2+k) or (m-1)! overflow machine floats, and the
arguments only ever need ratios and comparisons, so all arithmetic happens on
natural-log magnitudes.  Binomial coefficients go through lgamma; an exact
integer path (math.comb) is used by the tests for cross-validation.

Asymptotic "omega(...)" thresholds are reported as the evaluated expression
together with the ratio sigma/threshold; nothing here claims asymptotics,
only finite-parameter evaluations.  Where a derivation bounds a geometric
series, the closed form is reported with the absorbed constant taken as 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .certificates import proper_tree_size
from .errors import InvalidParameterError, RegimeError

EXPECTATION = "EXPECTATION"
UPPER_BOUND = "UPPER_BOUND"
LOWER_BOUND = "LOWER_BOUND"

_NEG_INF = float("-inf")


def log_comb(n: int, k: int) -> float:
    """log C(n, k); -inf outside the triangle (a zero count)."""
    if k < 0 or k > n or n < 0:
        return _NEG_INF
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def _log_add(a: float, b: float) -> float:
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _log_of(x: float) -> float:
    if x < 0:
        raise InvalidParameterError("log-space values are non-negative")
    return _NEG_INF if x == 0 else math.log(x)


def _pow_log(log_base: float, exponent: float) -> float:
    """log(base^exponent) with the 0^0 = 1 convention (avoids 0 * -inf)."""
    if exponent == 0:
        return 0.0
    return exponent * log_base


class LogValue:
    """A non-negative real stored as its natural log; -inf encodes zero.

    Multiplication adds logs, addition goes through a stable log-sum-exp,
    comparisons act on the log scale; `approx_eq` allows the documented
    1e-12 relative slack.  Ordering stays exact across ratios far beyond
    the 1e300 float range.
    """

    __slots__ = ("log",)

    def __init__(self, log: float):
        object.__setattr__(self, "log", log)

    def __setattr__(self, name, value):
        raise AttributeError("LogValue is immutable")

    def __reduce__(self):
        return (LogValue, (self.log,))

    @classmethod
    def of(cls, x: float) -> "LogValue":
        return cls(_log_of(x))

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(_NEG_INF)

    @classmethod
    def one(cls) -> "LogValue":
        return cls(0.0)

    @property
    def is_zero(self) -> bool:
        return self.log == _NEG_INF

    def to_float(self) -> float:
        if self.is_zero:
            return 0.0
        try:
            return math.exp(self.log)
        except OverflowError:
            return math.inf

    def __float__(self):
        return self.to_float()

    def __mul__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.log + other.log)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.is_zero:
            raise ZeroDivisionError("division by log-space zero")
        if self.is_zero:
            return LogValue.zero()
        return LogValue(self.log - other.log)

    def __add__(self, other: "LogValue") -> "LogValue":
        return LogValue(_log_add(self.log, other.log))

    def __pow__(self, exponent: float) -> "LogValue":
        if self.is_zero:
            return LogValue.one() if exponent == 0 else LogValue.zero()
        return LogValue(self.log * exponent)

    def __lt__(self, other):
        return self.log < other.log

    def __le__(self, other):
        return self.log <= other.log

    def __eq__(self, other):
        return isinstance(other, LogValue) and self.log == other.log

    def __hash__(self):
        return hash(self.log)

    def approx_eq(self, other: "LogValue", rel_tol: float = 1e-12) -> bool:
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return math.isclose(self.log, other.log, rel_tol=rel_tol, abs_tol=1e-12)

    def __repr__(self):
        return f"LogValue(exp({self.log:.6g}))"


@dataclass
class BoundReport:
    """A named analytic quantity at concrete parameters."""

    name: str
    params: dict
    value: LogValue
    interpretation: str
    divergent: bool = False
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def plain(x):
            if isinstance(x, LogValue):
                f = x.to_float()
                return {"log": x.log, "value": None if math.isinf(f) else f}
            return x

        f = self.value.to_float()
        return {
            "name": self.name,
            "params": self.params,
            "log_value": self.value.log,
            "value": None if math.isinf(f) else f,
            "interpretation": self.interpretation,
            "divergent": self.divergent,
            "extras": {key: plain(val) for key, val in self.extras.items()},
        }


def _check(cond: bool, message: str):
    if not cond:
        raise InvalidParameterError(message)


# ---------------------------------------------------------------------------
# identical-list cliques and the second-moment machinery


def expected_identical_cliques_bound(n: int, delta: int, k: int, sigma: int) -> BoundReport:
    """n * Delta^k * C(sigma,k)^-k: expected identical-list (k+1)-cliques in
    any graph of maximum degree Delta (an upper bound)."""
    _check(1 <= k <= sigma, "need 1 <= k <= sigma")
    log = _log_of(n) + k * _log_of(delta) - k * log_comb(sigma, k)
    return BoundReport(
        "eq:probcliques",
        {"n": n, "delta": delta, "k": k, "sigma": sigma},
        LogValue(log),
        UPPER_BOUND,
    )


def expected_identical_cliques_exact(n: int, delta: int, k: int, sigma: int) -> BoundReport:
    """floor(n/(Delta+1)) * C(Delta+1, k+1) * C(sigma,k)^-k: the exact
    expected number of identical-list (k+1)-cliques in the disjoint-clique
    graph produced by clique_union(n, delta)."""
    _check(1 <= k <= sigma, "need 1 <= k <= sigma")
    blocks = n // (delta + 1)
    log = _log_of(blocks) + log_comb(delta + 1, k + 1) - k * log_comb(sigma, k)
    return BoundReport(
        "eq:expect",
        {"n": n, "delta": delta, "k": k, "sigma": sigma},
        LogValue(log),
        EXPECTATION,
        extras={"blocks": blocks},
    )


def pi_bound_clique_union(n: int, delta: int, k: int, sigma: int) -> BoundReport:
    """Covariance sum over dependent identical-list clique pairs in
    clique_union(n, delta): blocks * sum_{l=1..k} C(Delta+1, k+1+l) *
    C(sigma,k)^-(k+l).  Distinct (k+1)-cliques share at most k vertices."""
    _check(1 <= k <= sigma, "need 1 <= k <= sigma")
    blocks = n // (delta + 1)
    total = _NEG_INF
    for l in range(1, k + 1):
        term = log_comb(delta + 1, k + 1 + l) - (k + l) * log_comb(sigma, k)
        total = _log_add(total, term)
    log = _log_of(blocks) + total if blocks else _NEG_INF
    return BoundReport(
        "pi:cliques",
        {"n": n, "delta": delta, "k": k, "sigma": sigma},
        LogValue(log),
        UPPER_BOUND,
        extras={"blocks": blocks},
    )


def chebyshev_lower_bound(expectation: float, covariance_sum: float) -> BoundReport:
    """P[X > 0] >= 1 - (E + Pi)/E^2 for a non-negative count X with
    Var[X] <= E[X] + Pi, clamped to [0, 1]; vacuous (0) when E = 0."""
    e = float(expectation)
    pi = float(covariance_sum)
    _check(e >= 0 and pi >= 0, "expectation and covariance sum must be non-negative")
    prob = 0.0 if e == 0 else max(0.0, min(1.0, 1.0 - (e + pi) / (e * e)))
    return BoundReport(
        "eq:chebyshev",
        {"expectation": e, "covariance_sum": pi},
        LogValue(_log_of(prob)),
        LOWER_BOUND,
    )


# ---------------------------------------------------------------------------
# proper-triple bounds


def bad_triple_probability_bound(m: int, delta: int, k: int, sigma: int) -> BoundReport:
    """sigma^(m-1) * C(Delta,k) * C(Delta*k, k-1)^(m-1) / C(sigma,k)^m: an
    upper bound on the probability that a fixed m-vertex proper triple is
    bad under random lists (may exceed 1 and stay a valid bound)."""
    _check(m >= 1, "need m >= 1")
    _check(1 <= k <= sigma, "need 1 <= k <= sigma")
    log = (
        (m - 1) * _log_of(sigma)
        + log_comb(delta, k)
        + (m - 1) * log_comb(delta * k, k - 1)
        - m * log_comb(sigma, k)
    )
    return BoundReport(
        "lem:bad",
        {"m": m, "delta": delta, "k": k, "sigma": sigma},
        LogValue(log),
        UPPER_BOUND,
    )


def proper_triple_count_bound(n: int, delta: int, m: int) -> BoundReport:
    """n * Delta^(m-1) * (m-1)!: an upper bound on the number of m-vertex
    proper triples in a graph of maximum degree Delta."""
    _check(m >= 1, "need m >= 1")
    log = _log_of(n) + _pow_log(_log_of(delta), m - 1) + log_factorial(m - 1)
    return BoundReport(
        "lem:numbersubgraphs", {"n": n, "delta": delta, "m": m}, LogValue(log), UPPER_BOUND
    )


def _triple_series(n, delta, k, sigma, m_lo, m_hi, delta_power):
    """(log of sum_{m=m_lo..m_hi} n * Delta^(delta_power*(m-1)) * (m-1)! *
    [the per-triple probability bound], log of the ratio of the term after
    the last to the last).  Needs m_lo <= m_hi."""
    step = (
        delta_power * _log_of(delta)
        + _log_of(sigma)
        + log_comb(delta * k, k - 1)
        - log_comb(sigma, k)
    )
    current = (
        _log_of(n)
        + (delta_power * (m_lo - 1)) * _log_of(delta)
        + log_factorial(m_lo - 1)
        + (m_lo - 1) * _log_of(sigma)
        + log_comb(delta, k)
        + (m_lo - 1) * log_comb(delta * k, k - 1)
        - m_lo * log_comb(sigma, k)
    )
    total = _NEG_INF
    for m in range(m_lo, m_hi + 1):
        total = _log_add(total, current)
        last_growth = step + math.log(m)  # log of term(m+1)/term(m)
        current += last_growth
    return total, last_growth


def bad_triple_expectation_sum(
    n: int,
    delta: int,
    k: int,
    sigma: int,
    m_lo: int | None = None,
    m_hi: int | None = None,
) -> BoundReport:
    """The first-moment sum over bad proper triples of every size m:
    sum_m [n * Delta^(2m-2) * (m-1)!] * [the per-triple probability bound].

    m_lo defaults to k+2 (smaller cores are the identical-list cliques,
    handled exactly); m_hi defaults to Delta^(k^2+k) capped at 10^6 terms.
    The report carries the geometric-comparison ratio
    k^k * Delta^(k^2+2k) / sigma^(k-1) and, when that ratio is below one,
    the closed form n * Delta^(k(k+2)) / sigma^((k-1)(k+2)+1) / (1-ratio).
    `divergent` is set when the terms are still growing at truncation."""
    _check(2 <= k <= sigma, "need 2 <= k <= sigma")
    if m_lo is None:
        m_lo = k + 2
    cap = delta ** (k * k + k) if delta > 1 else m_lo
    if m_hi is None:
        m_hi = min(cap, m_lo + 10**6 - 1)
    params = {"n": n, "delta": delta, "k": k, "sigma": sigma, "m_lo": m_lo, "m_hi": m_hi}
    if m_lo > m_hi or n == 0 or delta == 0:
        return BoundReport("sum:triples", params, LogValue.zero(), UPPER_BOUND)
    total, last_growth = _triple_series(n, delta, k, sigma, m_lo, m_hi, 2)
    divergent = last_growth >= 0
    log_ratio = k * math.log(k) + (k * k + 2 * k) * _log_of(delta) - (k - 1) * _log_of(sigma)
    extras: dict = {"geometric_ratio": math.exp(min(log_ratio, 700.0))}
    if log_ratio < 0:
        prefactor = (
            _log_of(n)
            + k * (k + 2) * _log_of(delta)
            - ((k - 1) * (k + 2) + 1) * _log_of(sigma)
        )
        extras["closed_form_bound"] = LogValue(prefactor - math.log1p(-math.exp(log_ratio)))
    return BoundReport("sum:triples", params, LogValue(total), UPPER_BOUND, divergent, extras)


def alternating_path_expectation(
    n: int, delta: int, k: int, sigma: int, r_min: int, r_max: int
) -> BoundReport:
    """sum_{r=r_min..r_max} n * Delta^(r-1) * k^(2r) / sigma^(r-1): expected
    count of r-vertex paths admitting an alternating coloring.

    Geometric with ratio Delta*k^2/sigma; the closed-form tail beyond r_max
    is reported, and the report is flagged divergent when sigma <= Delta*k^2.
    """
    _check(1 <= k <= sigma, "need 1 <= k <= sigma")
    params = {"n": n, "delta": delta, "k": k, "sigma": sigma, "r_min": r_min, "r_max": r_max}
    if r_min > r_max or n == 0:
        return BoundReport("eq:pathsum", params, LogValue.zero(), UPPER_BOUND)
    if r_max - r_min > 10**6:
        raise InvalidParameterError("path sum limited to 10^6 terms")
    log_ratio = _log_of(delta) + 2 * math.log(k) - _log_of(sigma)
    total = _NEG_INF
    current = (
        _log_of(n)
        + _pow_log(_log_of(delta), r_min - 1)
        + 2 * r_min * math.log(k)
        - _pow_log(_log_of(sigma), r_min - 1)
    )
    for _ in range(r_min, r_max + 1):
        total = _log_add(total, current)
        current += log_ratio
    divergent = log_ratio >= 0
    extras: dict = {"geometric_ratio": math.exp(min(log_ratio, 700.0))}
    if not divergent:
        # `current` already holds the log of the (r_max+1)-th term
        tail = LogValue(current - math.log1p(-math.exp(log_ratio)))
        extras["geometric_tail"] = tail
        extras["total_with_tail"] = LogValue(total) + tail
    return BoundReport("eq:pathsum", params, LogValue(total), UPPER_BOUND, divergent, extras)


# ---------------------------------------------------------------------------
# 2-list pair bounds


def pair_probability_bound(l: int, r: int, sigma: int) -> BoundReport:
    """2^(l+2r) / (sigma^(l-1) * (sigma-1)^(2+r)): an upper bound on the
    probability that a fixed l-vertex proper pair with r non-consecutive
    common vertices is 2-bad."""
    _check(l >= 3, "need l >= 3")
    _check(0 <= r <= l, "need 0 <= r <= l")
    _check(sigma >= 3, "need sigma >= 3")
    log = (l + 2 * r) * math.log(2) - (l - 1) * math.log(sigma) - (2 + r) * math.log(sigma - 1)
    return BoundReport(
        "lem:2bad", {"l": l, "r": r, "sigma": sigma}, LogValue(log), UPPER_BOUND
    )


def pair_count_bound(n: int, delta: int, l: int, r: int) -> BoundReport:
    """n * Delta^(l-1+r) * 2^l: an upper bound on the number of proper pairs
    on l vertices with r non-consecutive common vertices."""
    _check(l >= 3, "need l >= 3")
    log = _log_of(n) + _pow_log(_log_of(delta), l - 1 + r) + l * math.log(2)
    return BoundReport(
        "lem:2numbersubgraphs",
        {"n": n, "delta": delta, "l": l, "r": r},
        LogValue(log),
        UPPER_BOUND,
    )


def pair_expectation_sum(
    n: int, delta: int, sigma: int, l_max: int, l_min: int = 3
) -> BoundReport:
    """Double sum over pair sizes l and non-consecutive counts r of
    count-bound times probability-bound; the first moment of 2-bad pairs.

    Flagged divergent when sigma <= 4*Delta (the l-series ratio reaches 1).
    """
    _check(sigma >= 3, "need sigma >= 3")
    _check(l_min >= 3, "need l_min >= 3")
    if l_max - l_min > 3000:
        raise InvalidParameterError("pair sum limited to 3000 sizes")
    params = {"n": n, "delta": delta, "sigma": sigma, "l_min": l_min, "l_max": l_max}
    total = _NEG_INF
    for l in range(l_min, l_max + 1):
        for r in range(0, l + 1):
            term = (
                _log_of(n)
                + (l - 1 + r) * _log_of(delta)
                + l * math.log(2)
                + (l + 2 * r) * math.log(2)
                - (l - 1) * math.log(sigma)
                - (2 + r) * math.log(sigma - 1)
            )
            total = _log_add(total, term)
    divergent = sigma <= 4 * delta
    return BoundReport(
        "sum:pairs",
        params,
        LogValue(total),
        UPPER_BOUND,
        divergent,
        {"geometric_ratio": 4 * delta / sigma},
    )


# ---------------------------------------------------------------------------
# rooted-tree bound


def _tree_leaf_exponent(k: int, g: int) -> int:
    # number of leaves: the only vertices whose lists keep free colors
    if g % 2:
        return k * (k - 1) ** ((g - 3) // 2)
    return 2 * (k - 1) ** ((g - 2) // 2)


def tree_bad_expectation_bound(n: int, delta: int, k: int, sigma: int, g: int) -> BoundReport:
    """Expected number of tree-bad rooted k-proper trees in a girth-g graph:

        n * Delta^(Q-1) * sigma^(Q-1) * C(sigma-1, k-1)^leaves / C(sigma,k)^Q

    with Q = proper_tree_size(k, g) and `leaves` the tree's leaf count
    (k(k-1)^((g-3)/2) for odd g; the analogous 2(k-1)^((g-2)/2) for even g).
    The simplified form n * Delta^(Q-1) * k^(2Q) / sigma^(Q-1) is reported
    alongside and always dominates the exact display."""
    _check(2 <= k <= sigma, "need 2 <= k <= sigma")
    _check(g >= 4, "tree bound needs girth >= 4")
    q = proper_tree_size(k, g)
    leaves = _tree_leaf_exponent(k, g)
    exact = (
        _log_of(n)
        + (q - 1) * _log_of(delta)
        + (q - 1) * math.log(sigma)
        + leaves * log_comb(sigma - 1, k - 1)
        - q * log_comb(sigma, k)
    )
    simplified = (
        _log_of(n) + (q - 1) * _log_of(delta) + 2 * q * math.log(k) - (q - 1) * math.log(sigma)
    )
    if exact > simplified + 1e-9:
        raise ArithmeticError("simplified tree bound fell below the exact display")
    return BoundReport(
        "tree:expect",
        {"n": n, "delta": delta, "k": k, "sigma": sigma, "g": g},
        LogValue(exact),
        UPPER_BOUND,
        extras={"simplified": LogValue(simplified), "tree_size": q, "leaf_exponent": leaves},
    )


# ---------------------------------------------------------------------------
# threshold regimes
#
# Each regime function evaluates one proposition's sigma-threshold at
# concrete parameters, reports sigma/threshold, and attaches the matching
# expectation bound where the derivation provides one.  Outside its regime
# (missing or too small a girth, k or s out of range, or parameters its
# formulas cannot take) it raises RegimeError, and the catalog skips it.
# Exponents below are encoded as reviewed constants.


class _Point:
    """The parameters of one catalog call, with the logs its regimes share."""

    def __init__(self, n, delta, k, sigma, g, s, alpha, eps):
        self.n, self.delta, self.k, self.sigma = n, delta, k, sigma
        self.g, self.s, self.alpha, self.eps = g, s, alpha, eps
        self.ln_n, self.ln_delta = math.log(n), math.log(delta)
        self.params = {"n": n, "delta": delta, "k": k, "sigma": sigma}


def _need(ok: bool, name: str, reason: str) -> None:
    if not ok:
        raise RegimeError(f"{name}: {reason}")


def _threshold_report(name, params, log_threshold, sigma, extras=None):
    extras = dict(extras or {})
    log_sigma = math.log(sigma)
    extras["threshold"] = LogValue(log_threshold)
    extras["sigma_over_threshold"] = math.exp(min(log_sigma - log_threshold, 700.0))
    extras["clears_threshold"] = log_sigma > log_threshold
    return BoundReport(name, params, LogValue(log_threshold), LOWER_BOUND, extras=extras)


def _attach_bound(report: BoundReport, bound: BoundReport) -> BoundReport:
    report.extras["bound"] = bound.value
    report.extras["bound_name"] = bound.name
    report.extras["bound_divergent"] = bound.divergent
    report.value = bound.value
    report.interpretation = bound.interpretation
    report.divergent = bound.divergent
    return report


def _default_alpha(name: str, p: _Point) -> float:
    """The given alpha, else log(ln n / ln Delta) / ln k (1 when Delta = 1)."""
    if p.alpha is not None:
        return p.alpha
    if p.delta == 1:
        return 1.0
    _need(p.n >= 2, name, "needs n >= 2 for the default alpha")
    return math.log(p.ln_n / p.ln_delta) / math.log(p.k)


def _display(name: str, p: _Point) -> BoundReport:
    """n * C(Delta,k) * k! * C(sigma-1,k-1)^k / C(sigma,k)^k, the display
    attached by prop2 and prop:largek."""
    k = p.k
    log = (
        _log_of(p.n)
        + log_comb(p.delta, k)
        + log_factorial(k)
        + k * log_comb(p.sigma - 1, k - 1)
        - k * log_comb(p.sigma, k)
    )
    return BoundReport(f"{name}:display", p.params, LogValue(log), UPPER_BOUND)


def _th_main1(name: str, p: _Point) -> BoundReport:
    _need(p.k >= 2, name, "needs k >= 2")
    k = p.k
    rep = _threshold_report(name, p.params, p.ln_n / (k * k) + p.ln_delta / k, p.sigma)
    rep.extras["delta_cap"] = LogValue(p.ln_n * (k - 1) / (k * (k**3 + 2 * k**2 - k + 1)))
    rep.extras["delta_within_cap"] = p.ln_delta <= rep.extras["delta_cap"].log
    return _attach_bound(rep, bad_triple_expectation_sum(p.n, p.delta, k, p.sigma))


def _th_main2(name: str, p: _Point) -> BoundReport:
    _need(p.k == 2, name, "is a k=2 statement")
    _need(p.sigma >= 3, name, "needs sigma >= 3")
    small_delta = p.delta * p.delta < p.n
    log_thr = p.ln_n / 4 + p.ln_delta / 2 if small_delta else p.ln_delta
    rep = _threshold_report(name, p.params, log_thr, p.sigma)
    rep.extras["branch"] = "small-delta" if small_delta else "large-delta"
    return _attach_bound(rep, pair_expectation_sum(p.n, p.delta, p.sigma, l_max=min(p.n, 500)))


def _prop1(name: str, p: _Point) -> BoundReport:
    _need(p.k >= 2, name, "needs k >= 2")
    k, ln_delta, log_sigma = p.k, p.ln_delta, math.log(p.sigma)
    a = _default_alpha(name, p)
    _need(1 <= a <= 3, name, f"alpha={a:.3f} outside [1, 3]")
    s_val = p.s if p.s is not None else 2 + 2 / (k - 1)
    _need(s_val >= 2 + 2 / (k - 1), name, f"s={s_val} below 2 + 2/(k-1)")
    half = k ** ((a + 1) / 2)
    log_thr = p.ln_n / half + s_val * ln_delta
    rep = _threshold_report(name, {**p.params, "alpha": a, "s": s_val}, log_thr, p.sigma)
    # the rewritten geometric sum: prefactor n*Delta^(k(k+1))/(sigma^(k^2)*Delta),
    # ratio Delta^(k^((alpha+1)/2)) * k^k * Delta^k * sigma^(1-k)
    log_ratio = half * ln_delta + k * math.log(k) + k * ln_delta + (1 - k) * log_sigma
    prefactor = p.ln_n + k * (k + 1) * ln_delta - k * k * log_sigma - ln_delta
    rep.extras["geometric_ratio"] = math.exp(min(log_ratio, 700.0))
    if log_ratio < 0:
        rep.extras["bound"] = LogValue(prefactor - math.log1p(-math.exp(log_ratio)))
        rep.value = rep.extras["bound"]
        rep.interpretation = UPPER_BOUND
    else:
        rep.divergent = True
    return rep


def _prop2(name: str, p: _Point) -> BoundReport:
    _need(p.k >= 2, name, "needs k >= 2")
    rep = _threshold_report(name, p.params, p.ln_n / p.k + p.ln_delta, p.sigma)
    return _attach_bound(rep, _display(name, p))


def _prop3(name: str, p: _Point) -> BoundReport:
    _need(p.g is not None and p.g >= 3, name, "needs a girth g")
    _need(p.k == 2, name, "is a k=2 statement")
    _need(p.sigma >= 3, name, "needs sigma >= 3")
    rep = _threshold_report(name, {**p.params, "g": p.g}, p.ln_n / (p.g + 1) + p.ln_delta, p.sigma)
    return _attach_bound(
        rep, pair_expectation_sum(p.n, p.delta, p.sigma, l_max=min(p.n, p.g + 500), l_min=p.g)
    )


def _prop_girth(name: str, p: _Point) -> BoundReport:
    _need(p.g is not None and p.g >= 4, name, "needs girth g >= 4")
    _need(p.k >= 3, name, "needs k >= 3")
    n, delta, k, sigma = p.n, p.delta, p.k, p.sigma
    s_val = p.s if p.s is not None else 1 + 1 / (k - 1)
    _need(s_val >= 1 + 1 / (k - 1), name, "s below 1 + 1/(k-1)")
    q_next = proper_tree_size(k + 1, p.g)
    p_k = (k - 1) * q_next + 1
    r_k = k * q_next * q_next
    log_thr = p.ln_n / p_k + s_val * p.ln_delta
    rep = _threshold_report(name, {**p.params, "g": p.g, "s": s_val}, log_thr, sigma)
    rep.extras["P(k)"] = p_k
    rep.extras["R(k)"] = r_k
    rep.extras["delta_cap"] = LogValue(p.ln_n / r_k)
    rep.extras["delta_within_cap"] = p.ln_delta <= p.ln_n / r_k
    # The girth-regime triple sum has a single Delta^(m-1).  It starts at the
    # minimum core size, the girth-g tree size at list size k+1, and is capped
    # at Delta^((k-1)*m_lo + 1) and at 10^6 terms.
    m_lo = q_next
    m_hi = min(delta ** ((k - 1) * m_lo + 1) if delta > 1 else m_lo, m_lo + 10**6 - 1)
    total, last_growth = _triple_series(n, delta, k, sigma, m_lo, m_hi, 1)
    series = BoundReport(
        "sum:triples-girth",
        {"n": n, "delta": delta, "k": k, "sigma": sigma, "m_lo": m_lo, "m_hi": m_hi},
        LogValue(total),
        UPPER_BOUND,
        divergent=last_growth >= 0,
    )
    return _attach_bound(rep, series)


def _prop_girth2(name: str, p: _Point) -> BoundReport:
    _need(p.g is not None and p.g > 3, name, "needs girth g > 3")
    _need(p.k >= 3, name, "needs k >= 3")
    q = proper_tree_size(p.k, p.g)
    rep = _threshold_report(name, {**p.params, "g": p.g}, p.ln_n / (q - 1) + p.ln_delta, p.sigma)
    return _attach_bound(rep, tree_bad_expectation_bound(p.n, p.delta, p.k, p.sigma, p.g))


def _prop_verylargegirth(name: str, p: _Point) -> BoundReport:
    _need(p.g is not None and p.g >= 3, name, "needs a girth g")
    params = {**p.params, "g": p.g}
    if p.k == 2 and p.n > 2:
        _need(p.n - p.g <= 10**6, name, "sums paths of at most 10^6 sizes, so needs n <= g + 10^6")
        c = p.g / p.ln_n
        a_min = 4 * math.exp(1 / c)
        log_thr = math.log(a_min) + p.ln_delta + math.log(p.ln_n)
        rep = _threshold_report(
            name, params, log_thr, p.sigma, extras={"case": "i", "C": c, "A_min": a_min}
        )
        return _attach_bound(
            rep, alternating_path_expectation(p.n, p.delta, p.k, p.sigma, r_min=p.g, r_max=p.n)
        )
    _need(p.k >= 3 and p.g > 3 and p.n > 15, name, "needs k = 2, or k >= 3 with g > 3")
    c2 = p.g / math.log(p.ln_n)
    k0 = math.ceil(math.exp(2 / c2) + 1)
    b0 = math.exp((k0 - 2) / 2) * k0 * k0
    extras = {"case": "ii", "C2": c2, "k0": k0, "B0": b0, "k_at_least_k0": p.k >= k0}
    rep = _threshold_report(name, params, math.log(b0) + p.ln_delta, p.sigma, extras=extras)
    return _attach_bound(rep, tree_bad_expectation_bound(p.n, p.delta, p.k, p.sigma, p.g))


def _th_nonconstant1(name: str, p: _Point) -> BoundReport:
    _need(p.k >= 2, name, "needs k >= 2")
    base = math.log1p(p.eps) + p.ln_n / (p.k * p.k) + math.log(p.k)
    extras = {"case": "i (k = o(log Delta))"}
    rep = _threshold_report(
        name, {**p.params, "eps": p.eps}, base + p.ln_delta / p.k, p.sigma, extras=extras
    )
    if p.delta > 1:
        c = p.k / p.ln_delta
        rep.extras["case_ii_threshold"] = LogValue(base + 1 / c)
        rep.extras["case_ii_C"] = c
    rep.extras["case_iii_threshold"] = LogValue(base)
    return _attach_bound(rep, bad_triple_expectation_sum(p.n, p.delta, p.k, p.sigma))


def _th_nonconstant2(name: str, p: _Point) -> BoundReport:
    _need(p.k >= 2, name, "needs k >= 2")
    a = _default_alpha(name, p)
    _need(1 < a <= 3, name, f"alpha={a:.3f} outside (1, 3]")
    s_val = p.s if p.s is not None else 2.5
    _need(s_val > 2, name, "needs s > 2")
    log_thr = (
        math.log1p(p.eps) + p.ln_n / (p.k ** ((a + 1) / 2)) + s_val * p.ln_delta + math.log(p.k)
    )
    params = {**p.params, "alpha": a, "s": s_val, "eps": p.eps}
    return _threshold_report(name, params, log_thr, p.sigma, extras={"threshold_only": True})


def _prop_largek(name: str, p: _Point) -> BoundReport:
    _need(p.k >= 2, name, "needs k >= 2")
    if p.k < p.ln_n:
        log_thr = math.log1p(p.eps) + p.ln_n / p.k + p.ln_delta + math.log(p.k)
        case = "i (k = o(log n))"
    else:
        _need(p.n >= 2, name, "needs n >= 2")
        c = p.k / p.ln_n
        log_thr = math.log1p(p.eps) + math.log(c) + 1 / c + p.ln_delta + math.log(p.ln_n)
        case = "ii (k >= C log n)"
    params = {**p.params, "eps": p.eps}
    rep = _threshold_report(name, params, log_thr, p.sigma, extras={"case": case})
    return _attach_bound(rep, _display(name, p))


# name -> regime function, in the catalog's order
_REGIMES = {
    "th:main1": _th_main1,
    "th:main2": _th_main2,
    "prop1": _prop1,
    "prop2": _prop2,
    "prop3": _prop3,
    "prop:girth": _prop_girth,
    "prop:girth2": _prop_girth2,
    "prop:verylargegirth": _prop_verylargegirth,
    "th:nonconstant1": _th_nonconstant1,
    "th:nonconstant2": _th_nonconstant2,
    "prop:largek": _prop_largek,
}
REGIME_NAMES = tuple(_REGIMES)


def girth_regime_bounds(
    n: int,
    delta: int,
    k: int,
    sigma: int,
    g: int | None = None,
    s: float | None = None,
    alpha: float | None = None,
    eps: float = 0.0,
    which: str | None = None,
) -> dict[str, BoundReport]:
    """Evaluate the sigma-threshold (and, where available, the matching
    expectation bound) of each colorability proposition at concrete
    parameters.

    With `which=None` every proposition whose regime the parameters fit is
    evaluated and the others are left out; naming one explicitly raises its
    RegimeError when the parameters do not fit its regime."""
    _check(n >= 1 and delta >= 1 and sigma >= 2, "need n >= 1, delta >= 1, sigma >= 2")
    _check(1 <= k <= sigma, "need 1 <= k <= sigma")
    if which is not None and which not in _REGIMES:
        raise RegimeError(f"unknown regime {which!r}; choose from {', '.join(REGIME_NAMES)}")
    point = _Point(n, delta, k, sigma, g, s, alpha, eps)
    if which is not None:
        return {which: _REGIMES[which](which, point)}
    out: dict[str, BoundReport] = {}
    for name, regime in _REGIMES.items():
        try:
            out[name] = regime(name, point)
        except RegimeError:
            pass
    return out
