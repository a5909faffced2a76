"""Streaming weighted prime races A(x) = sum_{p<=x} w(p) p^{-sigma}.

One walk over the primes (`walk`) serves every sigma of a scan and every
prime sum of the package: each segment is sieved once and handed out in
2^15-prime blocks whose w(p) and log p every sigma shares, so a sigma adds only
its powers, sums and sign scan, in one block-long buffer. Block sums are exactly
rounded, with math.fsum's bits: `_exact_sums` makes every exactly rounded sum
of the package and, from the same |x| row, the sum of |x| behind each block's
radius. The prefix is the exact sum of the rounded block sums, kept as an
integer count of 2^-1074, and the prefix and every checkpoint value are that
integer rounded once. Per-prime values for sign tracking come from a
block-local cumulative sum whose worst-case float error is folded into
`running_error`. At sigma = 0 every partial sum is an integer below 2^53, so
the block sum is read exactly from the end of that cumulative sum and the
error stays 0. A block's values are formed only if it may flip the carried
sign or hold the first positive one. Everything runs in one thread, in a fixed
order, so the output bytes repeat from run to run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .characters import DirichletWeight
from .errors import ValidationError, check_count, check_reals
from .sieve import iter_prime_arrays

_BLOCK = 1 << 15  # a block of the prime walk; also a tile of lfun.l_value_scan's walk over n
_U = sys.float_info.epsilon / 2  # unit roundoff


def _neg_power(n, sigma: float) -> float:
    """n^-sigma as exp(-sigma * log n) for an int or float n: the one power kernel.

    An array walk takes it in halves, `_power_log` once and `_power_exp` per sigma.
    """
    return math.exp(-sigma * math.log(n))


def _power_log(n: np.ndarray) -> np.ndarray:
    """The log half of `_neg_power`: log n as float64, formed in place (in n if float64)."""
    return np.log(x := n.astype(np.float64, copy=False), out=x)


def _power_exp(log_n: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """The exp half of `_neg_power`: n^-sigma from log n, into `out` if given."""
    return np.exp(np.multiply(log_n, -sigma, out=out), out=out)


_SUB, _LIMB = 1 << 15, 36  # _exact_sums: sub-block terms, limb bits
_UNIT = 1 << 1074  # _exact_sums per 1.0: 2^-1074 is the smallest subnormal


def _exact_sums(x: np.ndarray, scratch: np.ndarray | None = None) -> tuple[int | None, float]:
    """The exact sum of float64 x as an integer count of 2^-1074, and
    float(np.sum(np.abs(x))), both from one |x| row.

    Each 2^15-term sub-block is cut into limbs on its own binary grids (an
    error-free extraction after Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008). With 2^e > max|x| over the sub-block (e >= -1022, from the top's
    exponent bits), grids g = e - 36k (k = 1, 2, ...) and S = 1.5 * 2^(g + 52),
    the limb q = (r + S) - S of the residual r is r rounded to a multiple of 2^g,
    exactly, while |r| < 2^(g + 51): r + S then lies in [2^(g+52), 2^(g+53)),
    where floats are 2^g apart, and subtracting S is exact (Sterbenz). So
    |q| <= 2^(g + 36), 2^15 limbs sum exactly, to at most 2^(g + 51), and r - q
    is exact with |r - q| <= 2^(g - 1), inside the next grid's condition. Every
    term is a multiple of 2^h, the ulp of the least nonzero |x| (its bits less 1,
    as uint64, put zeros last) clamped at 2^-1074, a subnormal's. Extraction
    stops at the first g <= h + 39, and there g >= h: the grid before passed
    h + 39, or g is the first, e - 36, at least h + 17, or -1058 if h = -1074.
    So S stays normal, and each residual is a multiple of 2^h with |r| <=
    2^(g - 1) <= 2^(h + 38): a partial sum of at most 2^15 of them is a multiple
    of 2^h of at most 2^(h + 53), a float, so one np.sum of them is exact. None
    means a non-finite value, or a sub-block top of at least 2^1007, where g
    could pass 971 and S overflow. A walk passes `scratch`, two rows of at least
    min(len(x), 2^15) floats; |x| takes the first when x fits in it.
    """
    q, r = np.empty((2, min(len(x), _SUB))) if scratch is None else scratch
    mag = np.abs(x, out=q[: len(x)] if len(x) <= _SUB else None)
    abs_sum, bits, total = float(mag.sum()), mag.view(np.int64), 0
    for off in range(0, len(x), _SUB):
        src, b = x[off : off + _SUB], bits[off : off + _SUB]
        if (top := int(b.max())) >= (1007 + 1023) << 52:  # a top of 2^1007 or more, nan or inf
            return None, abs_sum
        b -= 1  # an all-zero sub-block gets h far above g, and no limb is cut
        h, g = max((int(b.view(np.uint64).min()) + 1) >> 52, 1) - 1075, (top >> 52) - 1022
        qs, rs = q[: len(src)], r[: len(src)]
        while g > h + 39:  # true at g = e
            g -= _LIMB
            s = 1.5 * 2.0 ** (g + 52)
            np.subtract(np.add(src, s, out=qs), s, out=qs)  # q = (r + S) - S
            src = np.subtract(src, qs, out=rs)
            total += _float_units(float(qs.sum()))
        total += _float_units(float(src.sum()))
    return total, abs_sum


def _float_units(x: float) -> int:
    """A finite float as its exact integer count of 2^-1074."""
    n, d = x.as_integer_ratio()  # d = 2^k with k <= 1074
    return n << (1075 - d.bit_length())


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
    s = np.sign(avals)
    last_nz = np.maximum.accumulate(np.where(s != 0, np.arange(1, len(s) + 1), 0))
    filled = np.where(last_nz > 0, s[np.maximum(last_nz - 1, 0)], float(carry))
    prev = np.concatenate(([carry], filled[:-1]))
    return np.flatnonzero((prev != 0) & (filled != prev)), filled


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


def walk(w: DirichletWeight, limit: int, sigmas: Sequence[float]) -> Iterator[tuple]:
    """The package's one walk over the primes to limit, for the powers p^-sigma.

    Yields (primes, w(p), log p) per block of at most 2^15 primes, at offsets
    0, 2^15, ... of each segment; log p is None when every sigma is 0. Each
    block's primes and w(p) are formed in reused rows, so no view of a segment
    outlives the next sieve. No sigma yields nothing and sieves nothing.
    """
    if sigmas:
        buf, values = np.empty(_BLOCK, dtype=np.int64), np.empty(_BLOCK)  # p; p mod q, then w(p)
        for primes in iter_prime_arrays(limit):
            for off in range(0, len(primes), _BLOCK):
                blk = buf[: min(_BLOCK, len(primes) - off)]
                blk[:] = primes[off : off + _BLOCK]
                weights = w.values_at_primes(blk, out=values[: len(blk)])
                yield blk, weights, _power_log(blk) if any(sigmas) else None
            del primes  # before the next segment is sieved


def _prepare_segment(
    primes: np.ndarray, weights: np.ndarray, logs: np.ndarray | None, sigma: float, buf: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float, float]]:
    """[(primes, contributions, prefix sums, exact sum, sum |x|)] over one block.

    `race_scan` passes a block of `walk` (`logs` may be None at sigma = 0) and
    `buf`, whose rows take the prefix sums, then the powers, |x| and exact-sum
    scratch: the arrays returned last until the next call. The name and the
    list of one tuple are kept for the benchmark tracer, which hooks them.
    """
    cum = buf[0, : len(primes)]
    if sigma == 0.0:  # integer partial sums below 2^53: cum is exact, with no error to charge
        cum = np.cumsum(weights, out=cum)
        return [(primes, weights, cum, float(cum[-1]), 0.0)]
    terms, scratch = buf[1, : len(primes)], buf[2:]
    contrib = _power_exp(logs, sigma, out=terms)
    contrib *= weights
    units, abs_weight = _exact_sums(contrib, scratch)
    return [(primes, contrib, np.cumsum(contrib, out=cum), units / _UNIT, abs_weight)]


@dataclass
class _RaceState:
    """One sigma's race as the walk goes: prefix, error bound, signs and samples."""

    sigma: float
    checkpoints: tuple[int, ...]
    units: int = 0  # the prefix: the exact sum of the rounded block sums
    total_weight: float = 0.0
    block_weight_max: float = 0.0
    value_max: float = 0.0
    err: float = 0.0
    carry: int = 0
    first_positive: int | None = None
    ci: int = 0  # index of the next checkpoint
    points: list[RacePoint] = field(default_factory=list)
    events: list[RacePoint] = field(default_factory=list)

    def add_block(self, blk, contrib, cum, block_sum: float, abs_weight: float) -> None:
        """Sample checkpoints, scan signs and fold one block of `_prepare_segment`."""
        cps = self.checkpoints
        prefix = self.units / _UNIT
        while self.ci < len(cps) and cps[self.ci] < blk[0]:
            self.points.append(RacePoint(cps[self.ci], prefix, self.err, self.carry))
            self.ci += 1

        # fl(prefix + c) is monotone in c, so lo and hi are the block's least and largest values
        lo, hi = prefix + float(cum.min()), prefix + float(cum.max())
        c = self.carry  # the block is scanned where it may leave it or hold the first value > 0
        scan = c == 0 or (lo < 0 if c > 0 else hi > 0) or (hi > 0 and self.first_positive is None)

        exact = self.sigma == 0.0
        if not exact:
            self.total_weight += abs_weight
            self.block_weight_max = max(self.block_weight_max, abs_weight)
            self.value_max = max(self.value_max, -lo, hi)
            self.err = _U * (
                2.0 * self.total_weight + _BLOCK * self.block_weight_max + self.value_max
            )

        if scan:
            avals = prefix + cum
            change_idx, filled = _block_sign_scan(avals, c)
            self.events += [RacePoint(int(blk[i]), float(avals[i]), self.err, int(filled[i]))
                            for i in change_idx.tolist()]
            if self.first_positive is None and len(pos := np.flatnonzero(avals > 0.0)):
                self.first_positive = int(blk[pos[0]])

        # the checkpoints left are at or past blk[0], so k >= 1. A head is the
        # rounded sum of contrib[:k], its units added only since the last one
        done = head_units = 0
        while self.ci < len(cps) and cps[self.ci] <= blk[-1]:
            k = int(np.searchsorted(blk, cps[self.ci], side="right"))
            if exact:  # integer partial sums below 2^53: cum is exact
                head = float(cum[k - 1])
            else:
                head_units += _exact_sums(contrib[done:k])[0]
                head, done = head_units / _UNIT, k
            value = (self.units + _float_units(head)) / _UNIT
            sign = int(filled[k - 1]) if scan else c
            self.points.append(RacePoint(cps[self.ci], value, self.err, sign))
            self.ci += 1

        self.carry = int(filled[-1]) if scan else c  # an unscanned block keeps c throughout
        self.units += _float_units(block_sum)

    def series(self) -> RaceSeries:
        """The finished race; checkpoints past the last prime take the final value."""
        final_value = self.units / _UNIT
        for x in self.checkpoints[self.ci :]:
            self.points.append(RacePoint(x, final_value, self.err, self.carry))
        return RaceSeries(
            points=self.points,
            sign_events=self.events,
            final_value=final_value,
            final_sign=self.carry,
            first_positive_x=self.first_positive,
            running_error=self.err,
        )


def race_scan(
    w: DirichletWeight,
    sigmas: Sequence[float],
    x_max: int,
    checkpoints: Sequence[int] | None = None,
) -> list[RaceSeries]:
    """The race at every sigma, from one walk over the primes to x_max.

    Every sigma is sampled at the same checkpoints and keeps its own state, so
    its series does not depend on the other sigmas of the grid.
    """
    grid = check_reals(sigmas, "sigma", "sigma must lie in [0, 1]", lambda s: 0.0 <= s <= 1.0,
                       ValidationError)
    x_max = check_count(x_max, "x_max", 1)
    if checkpoints is None:
        checkpoints = default_checkpoints(x_max)
    cps = tuple(check_count(c, "checkpoints", 1) for c in checkpoints)
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError("checkpoints must be strictly ascending")
    if cps and cps[-1] > x_max:
        raise ValidationError(f"checkpoints must lie in [1, x_max={x_max}], "
                              f"got range [{cps[0]}, {cps[-1]}]")
    states = [_RaceState(s, cps) for s in grid]
    buf = np.empty((4 if any(grid) else 1, _BLOCK))  # prefix sums; powers, |x| and scratch
    for block in walk(w, x_max, grid):  # every sigma through a block before the next
        for st in states:
            for prepared in _prepare_segment(*block, st.sigma, buf):
                st.add_block(*prepared)
    return [st.series() for st in states]


def weighted_race(
    w: DirichletWeight,
    sigma: float,
    x_max: int,
    checkpoints: Sequence[int] | None = None,
) -> RaceSeries:
    """Stream the race to x_max, sampling A at checkpoints and tracking signs.

    `running_error` bounds the absolute float error of any reported value:
    2 ulp per term for p^{-sigma} plus the summation-scheme bound. At sigma=0
    every value is an exact integer and the bound is 0. This is `race_scan`
    with one sigma.
    """
    (series,) = race_scan(w, [sigma], x_max, checkpoints)
    return series


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
