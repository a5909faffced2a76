"""Streaming weighted prime races A(x) = sum_{p<=x} w(p) p^{-sigma}.

The race is consumed in blocks of primes. Block sums are exactly rounded
(math.fsum) and folded into a double-double prefix, so checkpoint values are
accurate to a couple of ulps; per-prime values for sign tracking come from a
block-local cumulative sum whose worst-case float error is folded into
`running_error`. At sigma = 0 every partial sum is an integer below 2^53, so
the block sum is read exactly from the end of that cumulative sum and the
error stays 0. The sign scan skips any block that cannot flip the carried
sign. Everything runs in one thread, in a fixed order, so the output bytes
repeat exactly from run to run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import DirichletWeight
from .errors import ValidationError
from .sieve import iter_prime_arrays

_BLOCK = 1 << 15
_U = sys.float_info.epsilon / 2  # unit roundoff


def _neg_power(n, sigma: float):
    """n^-sigma as exp(-sigma * log n), the one power kernel of the package.

    An ndarray n gives a float64 array; an int or float n gives a float.
    """
    if isinstance(n, np.ndarray):
        return np.exp(-sigma * np.log(n.astype(np.float64)))
    return math.exp(-sigma * math.log(n))


def _dd_add(hi: float, lo: float, x: float) -> tuple[float, float]:
    """Add x to the double-double value hi + lo (TwoSum + renormalize)."""
    s = hi + x
    bv = s - hi
    err = (hi - (s - bv)) + (x - bv)
    lo += err
    new_hi = s + lo
    new_lo = lo - (new_hi - s)
    return new_hi, new_lo


@dataclass(frozen=True)
class RacePoint:
    x: int
    value: float
    error_bound: float
    effective_sign: int


@dataclass
class RaceSeries:
    """A(x) sampled at checkpoints, with every per-prime sign change.

    A sign change is the RacePoint of the prime where the effective sign
    flips, carrying the sign after the flip.
    """

    points: list[RacePoint]
    sign_events: list[RacePoint]
    final_value: float
    final_sign: int
    first_positive_x: int | None
    running_error: float

    @property
    def values(self) -> list[tuple[int, float]]:
        return [(p.x, p.value) for p in self.points]


@dataclass(frozen=True)
class SignChangeReport:
    change_count: int
    change_locations: tuple[int, ...]
    final_sign: int
    first_positive_x: int | None
    ambiguous_count: int


def _block_sign_scan(avals: np.ndarray, carry: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized effective-sign scan over one block.

    Returns (indices where the effective sign flips, effective sign at every
    position). `carry` is the effective sign entering the block.
    """
    if (carry < 0 and avals.max() <= 0) or (carry > 0 and avals.min() >= 0):
        return np.empty(0, dtype=np.intp), np.full(len(avals), float(carry))
    s = np.sign(avals)
    n = len(s)
    marker = np.where(s != 0, np.arange(1, n + 1), 0)
    last_nz = np.maximum.accumulate(marker)
    filled = np.where(last_nz > 0, s[np.maximum(last_nz - 1, 0)], float(carry))
    prev = np.empty_like(filled)
    prev[0] = carry
    prev[1:] = filled[:-1]
    changes = np.flatnonzero((prev != 0) & (filled != prev))
    return changes, filled


def default_checkpoints(x_max: int) -> tuple[int, ...]:
    """Geometric checkpoints (ratio 10^(1/16)) plus every power of 10 and x_max."""
    pts = {x_max}
    k = 5  # 10^(5/16) ~ 2.05, the first value >= 2
    while True:
        v = round(10 ** (k / 16))
        if v > x_max:
            break
        if v >= 2:
            pts.add(v)
        k += 1
    d = 10
    while d <= x_max:
        pts.add(d)
        d *= 10
    return tuple(sorted(pts))


def _validate_race_args(sigma: float, x_max: int, checkpoints) -> tuple[int, ...]:
    if not 0.0 <= sigma <= 1.0:
        raise ValidationError(f"sigma must lie in [0, 1], got {sigma}")
    if x_max < 1:
        raise ValidationError(f"x_max must be >= 1, got {x_max}")
    if checkpoints is None:
        return default_checkpoints(x_max)
    cps = tuple(int(c) for c in checkpoints)
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError("checkpoints must be strictly ascending")
    if cps and (cps[0] < 1 or cps[-1] > x_max):
        raise ValidationError(
            f"checkpoints must lie in [1, x_max={x_max}], got range "
            f"[{cps[0]}, {cps[-1]}]"
        )
    return cps


def _prepare_segment(
    primes: np.ndarray, w: DirichletWeight, sigma: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float, float]]:
    """Per-block contributions, prefix sums and exact block sums of one segment."""
    blocks = []
    for off in range(0, len(primes), _BLOCK):
        blk = primes[off : off + _BLOCK]
        wv = w.values_at_primes(blk)
        contrib = wv if sigma == 0.0 else wv * _neg_power(blk, sigma)
        cum = np.cumsum(contrib)
        if sigma == 0.0:  # integer partial sums below 2^53: cum is exact
            block_sum, abs_weight = float(cum[-1]), 0.0  # no error to charge
        else:
            block_sum = math.fsum(contrib.tolist())
            abs_weight = float(np.sum(np.abs(contrib)))
        blocks.append((blk, contrib, cum, block_sum, abs_weight))
    return blocks


def weighted_race(
    w: DirichletWeight,
    sigma: float,
    x_max: int,
    checkpoints: Sequence[int] | None = None,
) -> RaceSeries:
    """Stream the race to x_max, sampling A at checkpoints and tracking signs.

    `running_error` bounds the absolute float error of any reported value:
    2 ulp per term for p^{-sigma} plus the summation-scheme bound. At sigma=0
    every value is an exact integer and the bound is 0.
    """
    cps = _validate_race_args(sigma, x_max, checkpoints)
    exact = sigma == 0.0

    dd_hi = dd_lo = 0.0
    total_weight = 0.0
    block_weight_max = 0.0
    value_max = 0.0
    err = 0.0
    carry = 0
    first_positive: int | None = None
    events: list[RacePoint] = []
    points: list[RacePoint] = []
    ci = 0

    for primes in iter_prime_arrays(x_max):
        for blk, contrib, cum, block_sum, abs_weight in _prepare_segment(primes, w, sigma):
            prefix = dd_hi + dd_lo
            while ci < len(cps) and cps[ci] < blk[0]:
                points.append(RacePoint(cps[ci], prefix, err, carry))
                ci += 1

            avals = prefix + cum
            change_idx, filled = _block_sign_scan(avals, carry)

            if not exact:
                total_weight += abs_weight
                block_weight_max = max(block_weight_max, abs_weight)
                value_max = max(value_max, float(np.max(np.abs(avals))))
                err = _U * (2.0 * total_weight + _BLOCK * block_weight_max + value_max)

            for i in change_idx.tolist():
                events.append(RacePoint(int(blk[i]), float(avals[i]), err, int(filled[i])))
            if first_positive is None:
                pos = np.flatnonzero(avals > 0.0)
                if len(pos):
                    first_positive = int(blk[pos[0]])

            terms = None  # contrib as a list, built once if a checkpoint needs it
            while ci < len(cps) and cps[ci] <= blk[-1]:
                k = int(np.searchsorted(blk, cps[ci], side="right"))
                if k == 0:
                    value, eff = prefix, carry
                else:
                    if exact:  # integer partial sums below 2^53: cum is exact
                        head = float(cum[k - 1])
                    else:
                        if terms is None:
                            terms = contrib.tolist()
                        head = math.fsum(terms[:k])
                    value = math.fsum([dd_hi, dd_lo, head])
                    eff = int(filled[k - 1])
                points.append(RacePoint(cps[ci], value, err, eff))
                ci += 1

            if len(filled):
                carry = int(filled[-1])
            dd_hi, dd_lo = _dd_add(dd_hi, dd_lo, block_sum)

    final_value = dd_hi + dd_lo
    while ci < len(cps):
        points.append(RacePoint(cps[ci], final_value, err, carry))
        ci += 1

    return RaceSeries(
        points=points,
        sign_events=events,
        final_value=final_value,
        final_sign=carry,
        first_positive_x=first_positive,
        running_error=err,
    )


def detect_sign_changes(series: RaceSeries) -> SignChangeReport:
    """Assemble the sign-change report from a race."""
    events = series.sign_events
    return SignChangeReport(
        change_count=len(events),
        change_locations=tuple(e.x for e in events),
        final_sign=series.final_sign,
        first_positive_x=series.first_positive_x,
        ambiguous_count=sum(1 for e in events if abs(e.value) <= e.error_bound),
    )
