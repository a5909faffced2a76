"""L(sigma, chi) with proven truncation radii, and the identities built on it.

Every truncated quantity is carried as a BoundedValue: a center plus a radius
that provably covers the distance to the exact limit. L-evaluation uses
partial summation against the bounded character sum S(u) = sum_{n<=u} w(n),
which converges for every sigma > 0 without functional-equation machinery:

    sum_{n>N} w(n) n^-s  =  (Sbar - S(N)) N^-s  +  R,   |R| <= s * g * N^(-s-1),

where Sbar is the mean of S over one period and g bounds the oscillation of
the integral of S - Sbar (both exact rationals computed from the period
table; the remainder bound comes from integrating by parts twice, since the
integral of S - Sbar over a full period vanishes).

A sigma grid takes one walk over n, in 2^15-term tiles, and one over the
primes (`races.walk`, in 2^15-prime blocks); the one-sigma functions are those
walks at one sigma. Every sigma shares a tile's n, w(n) and log n, or a block's
w(p) and log p, and forms its terms in rows made for that tile or block. The
L-series sums, the prime sums of t and lg - t and both sides of the
Abel-identity check add up as exact integers (`races._exact_sums`) and are
rounded once; the same call gives each tile's or block's sum of |x| behind the
radii, but for |lg|, which has its own pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .characters import DirichletWeight, chi4
from .errors import DomainError, ValidationError, check_count, check_reals
from .races import RacePoint, RaceSeries, _neg_power, race_scan, walk, weighted_race
from .races import _BLOCK, _UNIT, _exact_sums, _float_units, _period_row, _power_log, _terms

_EPS = sys.float_info.epsilon

_DEFAULT_N_TRUNC = 10**6


@dataclass(frozen=True)
class BoundedValue:
    """A float paired with a proven bound on |value - true value|."""

    value: float
    radius: float

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValidationError(f"radius must be >= 0, got {self.radius}")

    def log(self) -> "BoundedValue":
        """Natural log with first-order radius propagation (safety factor 2)."""
        if self.value - self.radius <= 0.0:
            raise DomainError(
                f"log undefined: value {self.value} with radius {self.radius} "
                "does not exclude zero"
            )
        v = math.log(self.value)
        r = 2.0 * self.radius / (self.value - self.radius) + _EPS * (abs(v) + 1.0)
        return BoundedValue(v, r)


def _partial_sum_stats(w: DirichletWeight) -> tuple[float, float]:
    """Sbar, the mean of S over one period, and g >= |integral over [a, u] of (S - Sbar)|.

    With F(k) = sum_{i<k} (S(i) - Sbar) (piecewise-linear antiderivative at
    integer points, periodic since F(q) = 0), g = max F - min F. T = q Sbar and
    q F(k) = q sum_{i<k} S(i) - k T are integers, so each is one rounded division by q.
    """
    q = w.modulus
    s = [w.partial_sum(i) for i in range(q)]
    total = sum(s)
    f = [q * c - k * total for k, c in enumerate(accumulate(s, initial=0))]
    return total / q, (max(f) - min(f)) / q * (1.0 + 4.0 * _EPS)


def l_value(w: DirichletWeight, sigma: float, n_trunc: int) -> BoundedValue:
    """L(sigma, chi) truncated at n_trunc with a proven tail radius: `l_value_scan` at one sigma."""
    return l_value_scan(w, [sigma], n_trunc)[0]


def l_value_scan(w: DirichletWeight, sigmas: Sequence[float], n_trunc: int) -> list[BoundedValue]:
    """L(sigma, chi) truncated at n_trunc at every sigma, from one walk over n.

    Valid for every sigma > 0 (the series converges there for non-principal
    characters). The center is the partial sum plus the partial-summation
    correction (Sbar - S(N)) N^-sigma; the radius covers the remaining tail
    plus accumulated rounding.
    """
    grid = check_reals(sigmas, "sigma", "l_value requires sigma > 0", lambda s: s > 0.0)
    n_trunc = check_count(n_trunc, "n_trunc", 0)
    if n_trunc < w.modulus:  # the least count is the character's, so the message names q
        raise ValidationError(f"n_trunc must be >= q = {w.modulus}, got {n_trunc}")
    if not grid:  # no sigma: no walk
        return []

    q = w.modulus
    row = _period_row(w, 0, 1)  # row[k] = w(k), so a tile's w(n) is one slice
    walks = [[0, 0.0] for _ in grid]  # units of the terms, sum of |terms|
    for lo in range(1, n_trunc + 1, _BLOCK):  # every sigma through a tile before the next
        logs = _power_log(np.arange(lo, min(lo + _BLOCK, n_trunc + 1), dtype=np.float64))
        weights, terms = row[lo % q :][: len(logs)], np.empty(len(logs))
        for sigma, sums in zip(grid, walks):
            units, abs_sum, _ = _exact_sums(_terms(logs, weights, sigma, terms))
            sums[0], sums[1] = sums[0] + units, sums[1] + abs_sum

    mean, oscillation = _partial_sum_stats(w)
    values = []
    for sigma, (units, abs_sum) in zip(grid, walks):
        n_pow = _neg_power(n_trunc, sigma)
        correction = (mean - w.partial_sum(n_trunc)) * n_pow
        value = units / _UNIT + correction
        tail = sigma * oscillation * n_pow / n_trunc
        rounding = _EPS * (3.0 * abs_sum + 2.0 * abs(value) + abs(correction))
        values.append(BoundedValue(value, tail + rounding))
    return values


def _char_prime_sum(w: DirichletWeight, sigmas: Sequence[float], prime_limit: int) -> list[tuple]:
    """One walk over the primes for both series of the log-L lemma, at every sigma.

    With t = w(p) p^-sigma and lg = -log1p(-t), each sigma gets the exactly
    rounded sums of t and of lg - t over p <= P, then the sums of |t|, |lg|
    and |lg - t|. Needs sigma > 1/2, as every caller does: then
    |t| < 2^(-1/2) < 1, which log1p and `b_function`'s Sterbenz argument need.
    """
    domain = "_char_prime_sum requires sigma > 1/2"
    sigmas = check_reals(sigmas, "sigma", domain, lambda s: s > 0.5)
    prime_limit = check_count(prime_limit, "prime_limit", 2)
    if not sigmas:  # no sigma: no walk
        return []
    walks = [[0, 0.0, 0, 0.0, 0.0] for _ in sigmas]  # units and sum |x| of t, of lg - t; sum |lg|
    for _, weights, logs in walk(w, prime_limit):
        t, lg, terms = np.empty((3, len(logs)))
        for sigma, sums in zip(sigmas, walks):
            _terms(logs, weights, sigma, t)
            np.negative(np.log1p(np.negative(t, out=lg), out=lg), out=lg)
            np.subtract(lg, t, out=terms)
            lg_abs = float(np.sum(np.abs(lg, out=lg)))  # lg has no exact sum: its own pass
            sums_t, sums_b = _exact_sums(t)[:2], _exact_sums(terms)[:2]
            for j, v in enumerate((*sums_t, *sums_b, lg_abs)):
                sums[j] += v
    return [(tu / _UNIT, bu / _UNIT, ta, la, ba) for tu, ta, bu, ba, la in walks]


def euler_product_value(w: DirichletWeight, sigma: float, prime_limit: int) -> BoundedValue:
    """Truncated Euler product, valid unconditionally only for sigma > 1.

    The log-tail obeys |sum_{p>P} log(1 - w(p) p^-sigma)^-1| <= 2 P^(1-sigma)
    / (sigma - 1), which exponentiates into the radius. The log is the fsum of
    `_char_prime_sum`'s sums of t = w(p) p^-sigma and of lg - t, lg = -log1p(-t).
    Relative to the value, the radius charges eps |lg| per log1p (see
    `b_function`; lg - t is exact); 1.5 eps per unit of sum |t| + sum |lg - t|
    for the two sums' roundings and their fsum, each at most eps/2 of a sum
    that size; and 2 eps for exp.
    """
    domain = "euler_product_value requires sigma > 1"
    (sigma,) = check_reals([sigma], "sigma", domain, lambda s: s > 1.0)
    ((sum_t, sum_b, abs_t, abs_lg, abs_b),) = _char_prime_sum(w, [sigma], prime_limit)
    value = math.exp(math.fsum([sum_t, sum_b]))
    log_tail = 2.0 * _neg_power(prime_limit, sigma - 1.0) / (sigma - 1.0)
    rounding = _EPS * (abs_lg + 1.5 * (abs_t + abs_b) + 2.0)
    radius = abs(value) * math.expm1(log_tail) + rounding * abs(value)
    return BoundedValue(value, radius)


def b_function(w: DirichletWeight, sigma: float, prime_limit: int) -> BoundedValue:
    """The prime-power part B(sigma) = sum_p sum_{m>=2} w(p)^m / (m p^(m sigma)).

    Converges for sigma > 1/2. With t = w(p) p^-sigma, the inner sum is
    -log1p(-t) - t in closed form, so each prime costs one log1p.

    The radius covers the primes past P:
    sum_{p>P} sum_{m>=2} p^(-m sigma)/m <= P^(1-2 sigma) / (2 (2 sigma - 1) (1 - P^-sigma)).
    It also covers rounding. Each log1p is charged 2 eps |log1p|; NumPy's
    log1p erred by at most 0.54 eps |log1p| against mpmath on x86-64 with
    AVX-512. The subtraction of t is exact by Sterbenz's lemma, since
    |t| <= 2^(-1/2) for sigma > 1/2. The power kernel's error in t is charged
    4 eps per unit of |term|, and the exactly rounded sum eps (sum |term| + |B|).
    """
    (sigma,) = check_reals([sigma], "sigma", "b_function requires sigma > 1/2", lambda s: s > 0.5)
    return _b_bounded(_char_prime_sum(w, [sigma], prime_limit)[0], sigma, prime_limit)


def _b_bounded(walk: tuple, sigma: float, prime_limit: int) -> BoundedValue:
    """B with the radius of `b_function`, from a `_char_prime_sum` walk."""
    _, value, _, abs_log, abs_terms = walk
    p_pow = _neg_power(prime_limit, sigma)
    p_tail = _neg_power(prime_limit, 2.0 * sigma - 1.0) / (
        2.0 * (2.0 * sigma - 1.0) * (1.0 - p_pow)
    )
    # 1e-300 absorbs terms whose t underflowed to zero
    rounding = _EPS * (2.0 * abs_log + 5.0 * abs_terms + abs(value))
    return BoundedValue(value, p_tail + rounding + 1e-300)


@dataclass(frozen=True)
class DecompositionReport:
    """Numeric check of log L(s) = sum_p w(p) p^-s + B(s) at a real point.

    Each part's value and radius, the residual, its budget (the sum of the
    three radii) and whether |residual| is within it: a `verify-lemma` row.
    """

    sigma: float
    log_l_value: float
    log_l_radius: float
    prime_sum_value: float
    prime_sum_radius: float
    b_value: float
    b_radius: float
    residual: float
    radius_budget: float
    within_radii: bool


def verify_log_decomposition(
    w: DirichletWeight,
    sigma: float,
    prime_limit: int,
    *,
    n_trunc: int = _DEFAULT_N_TRUNC,
) -> DecompositionReport:
    """Compute log L, the truncated full prime sum, and B, and their residual.

    Requires sigma > 1 (the unconditional region). The prime sum is the plain
    truncation of the full series; its radius is the unconditional bound
    P^(1-sigma)/(sigma-1), with no cancellation assumed.
    """
    (report,) = decomposition_scan(w, [sigma], prime_limit, n_trunc=n_trunc)
    return report


def decomposition_scan(
    w: DirichletWeight,
    sigma_grid: Sequence[float],
    prime_limit: int,
    *,
    n_trunc: int = _DEFAULT_N_TRUNC,
) -> list[DecompositionReport]:
    """verify_log_decomposition at each sigma, with the whole grid checked first."""
    domain = "verify_log_decomposition requires sigma > 1"
    grid = check_reals(sigma_grid, "sigma", domain, lambda s: s > 1.0)
    prime_limit = check_count(prime_limit, "prime_limit", 2)  # before log L is summed
    log_ls = [lv.log() for lv in l_value_scan(w, grid, n_trunc)]
    reports = []
    for sigma, log_l, walk in zip(grid, log_ls, _char_prime_sum(w, grid, prime_limit)):
        center, _, abs_acc, _, _ = walk
        tail = _neg_power(prime_limit, sigma - 1.0) / (sigma - 1.0)
        # 1e-300 absorbs terms that underflowed, as in `_b_bounded`: at sigma = 700 and
        # P = 10 every t is 0, so are the tail and the charge, but the sum is -1.04e-334
        prime_sum = BoundedValue(center, tail + _EPS * (2.0 * abs_acc + abs(center)) + 1e-300)
        b_val = _b_bounded(walk, sigma, prime_limit)
        residual = log_l.value - prime_sum.value - b_val.value
        budget = log_l.radius + prime_sum.radius + b_val.radius
        reports.append(DecompositionReport(sigma, *astuple(log_l), *astuple(prime_sum),
                                           *astuple(b_val), residual, budget,
                                           abs(residual) <= budget))
    return reports


@dataclass(frozen=True)
class BiasPoint:
    """One row of the bias-bound scan; status flags log-domain failures."""

    sigma: float
    x_max: int
    status: str
    r_value: float
    r_radius: float
    log_l_value: float
    log_l_radius: float
    race_value: float
    race_error: float
    penalty: float


def _bias_point(sigma: float, x_max: int, lv: BoundedValue, series: RaceSeries) -> BiasPoint:
    """One scan row from L(sigma) and the race to x_max at sigma."""
    race_value, race_error = series.final_value, series.running_error
    penalty = 0.5 * math.log(1.0 / (2.0 * sigma - 1.0))
    status = "ok"
    try:
        log_value, log_radius = astuple(lv.log())
    except DomainError:  # the NaNs go through the same arithmetic
        log_value, log_radius, status = math.nan, math.nan, "log-domain-error"
    r_value = log_value - race_value - penalty
    r_radius = log_radius + race_error + _EPS * (abs(r_value) + abs(penalty))
    return BiasPoint(sigma, x_max, status, r_value, r_radius, log_value, log_radius,
                     race_value, race_error, penalty)


def bias_bound_scan(
    w: DirichletWeight,
    sigma_grid: Sequence[float],
    race_x_max: int,
    *,
    n_trunc: int = _DEFAULT_N_TRUNC,
) -> list[BiasPoint]:
    """R(sigma) = log L(sigma) - A(x_max; sigma) - (1/2) log(1/(2 sigma - 1)).

    Under RH for L(s, chi) this stays O(1) as sigma -> 1/2+; the scan only
    reports the observed values with disclosed truncation (the race is cut at
    x_max; its tail has no unconditional bound for sigma < 1). No pass/fail
    judgement is attached. One walk over the primes serves the whole grid.
    """
    domain = "bias_bound_scan requires sigma in (1/2, 1]"
    grid = check_reals(sigma_grid, "sigma", domain, lambda s: 0.5 < s <= 1.0)
    x_max = check_count(race_x_max, "x_max", 1)
    # every L-value first, so a bad n_trunc fails before the race
    l_values = l_value_scan(w, grid, n_trunc)
    races = race_scan(w, grid, x_max, checkpoints=())  # only the final value is read
    return [_bias_point(s, x_max, lv, series) for s, lv, series in zip(grid, l_values, races)]


@dataclass(frozen=True)
class ConjectureScan:
    """Sampled trajectory of the sqrt-weighted race for the mod-4 character."""

    points: list[RacePoint]
    min_value: float
    min_x: int
    final_value: float
    final_x: int
    all_negative_beyond_1000: bool


def conjecture_scan(x_points: Sequence[int]) -> ConjectureScan:
    """Sample A(x) = sum_{p<=x} chi4(p)/sqrt(p) at the given ascending points.

    Purely observational: the summary records the minimum, the final value,
    and whether every sampled value beyond 10^3 is negative. No statement
    about the x -> infinity limit is made or implied.
    """
    pts = [check_count(x, "x_points", 1) for x in x_points]
    if not pts:
        raise ValidationError("x_points must be non-empty")
    series = weighted_race(chi4(), 0.5, pts[-1], checkpoints=pts)
    rows = series.points
    min_point = min(rows, key=lambda p: (p.value, p.x))
    return ConjectureScan(
        points=rows,
        min_value=min_point.value,
        min_x=min_point.x,
        final_value=rows[-1].value,
        final_x=rows[-1].x,
        all_negative_beyond_1000=all(p.value < 0.0 for p in rows if p.x >= 1000),
    )


def mellin_identity_check(
    w: DirichletWeight, sigma: float, s: float, x_limit: int
) -> float:
    """|LHS - RHS| of the truncated Abel identity at real exponents.

    LHS = sum_{p<=X} w(p) p^-s; RHS = A(X) X^(sigma-s) + the exact piecewise
    integral of A(u) u^(sigma-s-1) scaled by (s - sigma): A is a step function
    constant between consecutive primes, and each piece integrates in closed
    form, so the residual is pure rounding. s = sigma is the allowed
    degenerate case where both sides are A(X) by construction.

    One walk over the primes feeds both sums: the terms and the rows of A and
    u^-c (each led by its carried value) are made per block, and both sums add
    to exact integers (`_exact_sums`) rounded once, with math.fsum's bits.
    """
    (sigma,) = check_reals([sigma], "sigma", "sigma must be >= 0", lambda v: v >= 0.0)
    x_limit = check_count(x_limit, "X", 2)
    (s,) = check_reals([s], "s", "", lambda v: True)  # s >= sigma next, with both named
    if s < sigma:
        raise DomainError(f"degenerate exponent: need s >= sigma, got s={s} < sigma={sigma}")
    if s == sigma:
        return 0.0

    c = s - sigma
    x_pow = _neg_power(x_limit, c)
    lhs_units = piece_units = 0
    a, left = 0.0, 1.0  # A and u^-c at the last prime walked
    for _, weights, logs in walk(w, x_limit):
        row = np.empty(len(logs))
        lhs_units += _exact_sums(_terms(logs, weights, s, row))[0]
        # the cumsum starts from the carried A and the powers from the carried
        # p^-c, so every piece keeps the bits of one pass over all primes
        steps = np.cumsum(np.append(a, _terms(logs, weights, sigma, row)))
        powers = np.append(left, _terms(logs, 1.0, c, row))  # x * 1.0 is exact
        piece_units += _exact_sums(steps[:-1] * (powers[:-1] - powers[1:]))[0]
        a, left = float(steps[-1]), float(powers[-1])
    piece_units += _float_units(a * (left - x_pow))
    rhs = a * x_pow + piece_units / _UNIT
    return abs(lhs_units / _UNIT - rhs)
