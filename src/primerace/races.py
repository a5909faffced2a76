"""Streaming weighted prime races A(x) = sum_{p<=x} w(p) p^{-sigma}.

One walk over the primes (`walk`) serves every sigma > 0 of a race and every
prime sum of the package: each segment is sieved once and handed out in
2^15-prime blocks whose w(p) and log p every sigma shares, so a sigma adds only
its powers, sums and sign scan, in rows made for the block. A race at sigma = 0
folds each segment's odd-only sieve mask instead (`_fold_mask`): the mask
times w(first + 2j), a slice of one `_period_row`, is an int8 weight row, cut
into 2^15-slot blocks, in which a composite weighs 0, and no prime is
extracted. A grid that mixes sigma = 0 and sigma > 0 takes both, sieving twice.
Block sums are exactly rounded, with math.fsum's bits: `_exact_sums` makes
every exactly rounded sum of the package and, from the same |x| row, the sum
and the top of |x|. The prefix is the exact sum of the rounded block sums, kept
as an integer count of 2^-1074, and the prefix and every checkpoint value are
that integer rounded once. A block's per-prime values, a cumulative sum whose
float error is folded into `running_error`, are formed only where one bound
from its 128-term chunk sums (`_chunk_bounds`, for both folds) says they may
flip the carried sign, hold the first positive value or raise the largest |A|;
any other block is folded by its exact sum. At sigma = 0 all of this is exact
and the error is 0. Everything runs in one thread, in a fixed order, so the
output bytes repeat from run to run.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Sequence

import numpy as np

from .characters import DirichletWeight
from .errors import ValidationError, check_count, check_reals
from .sieve import Segment, iter_prime_arrays, iter_segments

_BLOCK = 1 << 15  # one unit: a block of the prime walk, a tile of the walk over n, an exact sum
_U = sys.float_info.epsilon / 2  # unit roundoff
_CHUNK = 128  # terms per chunk of a race block's bound (see _chunk_bounds)


def _neg_power(n, sigma: float) -> float:
    """n^-sigma as exp(-sigma * log n) for an int or float n: the one power kernel.

    An array walk takes it in halves, `_power_log` once and `_terms` per sigma.
    """
    return math.exp(-sigma * math.log(n))


def _power_log(n: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The log half of `_neg_power`: log n as float64, in the float64 row `out` or in place in n."""
    return np.log(n, out=n if out is None else out)


def _terms(log_n: np.ndarray, weights, sigma: float, out: np.ndarray) -> np.ndarray:
    """w(n) n^-sigma from log n, formed in `out`: the exp half of `_neg_power`.

    Past sigma = 2^11 every n >= 2 has exp(-sigma log n) = 0 already, so the cap
    moves no term and keeps sigma log n finite (no overflow warning)."""
    np.exp(np.multiply(log_n, -min(sigma, 2048.0), out=out), out=out)
    return np.multiply(out, weights, out=out)


_LIMB = 36  # _exact_sums: limb bits
_UNIT = 1 << 1074  # _exact_sums per 1.0: 2^-1074 is the smallest subnormal


def _exact_sums(x: np.ndarray) -> tuple[int, float, float]:
    """The exact sum of one block x of at most 2^15 floats as an integer count
    of 2^-1074, float(np.sum(np.abs(x))) and max |x|, all from one |x| row.

    x is cut into limbs on binary grids (an error-free extraction after Rump, Ogita
    and Oishi, SIAM J. Sci. Comput. 31, 2008). With 2^e > max|x| (e >= -1022, from
    the top's exponent bits), grids g = e - 36k (k = 1, 2, ...) and S = 1.5 * 2^(g + 52),
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
    of 2^h of at most 2^(h + 53), a float, so one np.sum of them is exact.

    The proof stops at 2^15 terms, so a longer x raises ValueError. The two rows
    are made here, as long as x, and each is written before it is read. A top of
    2^1007 or more, an inf or a nan raises OverflowError: the first grid's S
    would pass the largest float.
    """
    if len(x) > _BLOCK:
        raise ValueError(f"an exact sum takes at most {_BLOCK} terms, got {len(x)}")
    q, r = np.empty((2, len(x)))  # |x|, then the limbs; the residuals
    abs_sum, bits, total = float(np.abs(x, out=q).sum()), q.view(np.int64), 0
    top = int(bits.max(initial=0))
    bits -= 1  # an all-zero or empty x gets h far above g (2^63: past every |x|), and no limb is cut
    least = int(bits.view(np.uint64).min(initial=1 << 63))
    h, g = max((least + 1) >> 52, 1) - 1075, (top >> 52) - 1022
    while g > h + 39:  # true at g = e
        g -= _LIMB
        s = 1.5 * 2.0 ** (g + 52)
        np.subtract(np.add(x, s, out=q), s, out=q)  # q = (r + S) - S
        x = np.subtract(x, q, out=r)
        total += _float_units(float(q.sum()))
    return total + _float_units(float(x.sum())), abs_sum, float(np.int64(top).view(np.float64))


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
    """Checkpoints round(10^(k/16)) for k >= 5 (k = 5 gives 2) plus x_max; k = 16j gives
    exactly 10^j for every j <= 12, the count cap, so every power of 10 <= x_max is one."""
    pts = {x_max}
    for k in count(5):
        v = round(10 ** (k / 16))
        if v > x_max:
            break
        pts.add(v)
    return tuple(sorted(pts))


def walk(w: DirichletWeight, limit: int) -> Iterator[tuple]:
    """The package's one walk over the primes to limit, for the powers p^-sigma.

    Yields (primes, w(p), log p) per block of at most 2^15 of a segment's primes,
    segment by segment, in rows reused for every block: they feed every consumer,
    and rows made per block added 5.8k minor faults to bias-scan and 10.8k to
    mellin-check to 1e8. The primes row is a copy, so no view of a segment
    outlives the next sieve.
    """
    buf, values, logs = np.empty(_BLOCK, np.int64), *np.empty((2, _BLOCK))
    for primes in iter_prime_arrays(limit):
        for off in range(0, len(primes), _BLOCK):
            blk = buf[: min(_BLOCK, len(primes) - off)]
            blk[:] = primes[off : off + _BLOCK]
            weights = w.values_at_primes(blk, out=values[: len(blk)])
            yield blk, weights, _power_log(blk, out=logs[: len(blk)])
        del primes  # before the next segment is sieved


def _period_row(w: DirichletWeight, first: int, step: int) -> np.ndarray:
    """w(first + step j) for j < 2^15 + q, as int8: of period q in j, so the weights of
    any 2^15 consecutive j are one slice, from offset j mod q. A row as long as a
    segment (2^21 slots) added 2 MB to the peak RSS of sign-changes to 1e9."""
    q = w.modulus
    return np.tile(w.period[(first + step * np.arange(q)) % q].astype(np.int8), -(-_BLOCK // q) + 1)


def _chunk_bounds(row: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low, high, sum) per 2^15-term block of row, from one reshape-sum of its
    128-term chunks: the bound of both race folds.

    With C the running sums of a block's chunk sums and C_0 = 0, an exact prefix
    sum is within 64 terms, so 64M (M = max |x|), of some C_j. So every prefix sum
    np.cumsum forms lies in [min(C, 0) - reach, max(C, 0) + reach] when `reach`
    covers 64M and the rounding, and the sum is the last C. The sigma = 0 fold
    passes a segment's int8 weights, -1, 0 or 1 on slots of odd numbers, and
    reach 64. All of it is exact: a chunk is summed in int8, exactly, since 42 or
    more of any 128 consecutive odd numbers are multiples of 3, so at most 87 are
    prime and |a chunk sum| <= 87, and C is int64. `_prepare_segment` passes one
    float block and reach 64M + E, E = 2^-30 S for S = sum |x|. With u = 2^-53,
    np.cumsum is off by 2^15 uS at most and a sum of 128 terms, in any order, by
    127 u times the sum of their |x| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 4.2), so the C are off by 384 uS (then 255 additions),
    and the two roundings of low or high by u(129S + 2E): E covers them 250 times
    over. A subnormal E loses 2^-1075 at most, which matters only if S < 2^-1040,
    and then every sum here is below 2^-1021, where floats are 2^-1074 apart: exact.
    """
    n, per_block = len(row), _BLOCK // _CHUNK
    blocks, full = -(-n // _BLOCK), n // _CHUNK
    chunks = np.zeros(blocks * per_block, row.dtype)
    chunks[:full] = row[: full * _CHUNK].reshape(full, _CHUNK).sum(axis=1, dtype=row.dtype)
    if n % _CHUNK:  # a short last chunk
        chunks[full] = row[full * _CHUNK :].sum(dtype=row.dtype)
    runs = np.add.accumulate(chunks.reshape(blocks, per_block), axis=1,
                             dtype=np.result_type(row.dtype, np.int64))
    return np.minimum(runs.min(axis=1), 0) - reach, np.maximum(runs.max(axis=1), 0) + reach, runs[:, -1]


def _prepare_segment(
    primes: np.ndarray, weights: np.ndarray, logs: np.ndarray, sigma: float
) -> list[tuple[np.ndarray, np.ndarray, float, float, float, float]]:
    """[(primes, contributions, low, high, exact sum, sum |x|)] over one block at sigma > 0.

    `race_scan` passes a block of `walk`; the contributions are a new row, and
    every prefix sum np.cumsum would form over them lies in [low, high]
    (`_chunk_bounds`). The name and the list of one tuple are kept for the
    benchmark tracer, which hooks them.
    """
    contrib = _terms(logs, weights, sigma, np.empty(len(primes)))
    units, abs_weight, top = _exact_sums(contrib)
    reach = _CHUNK // 2 * top + 2.0**-30 * abs_weight
    (low,), (high,), _ = (a.tolist() for a in _chunk_bounds(contrib, reach))
    return [(primes, contrib, low, high, units / _UNIT, abs_weight)]


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

    def _leaves(self, lo: float, hi: float) -> bool:
        """Whether values in [lo, hi] may leave the carried sign, as a first value > 0 does."""
        return self.carry == 0 or (lo < 0 if self.carry > 0 else hi > 0)

    def add_block(self, blk, contrib, low, high, block_sum: float, abs_weight: float) -> None:
        """Sample checkpoints, scan signs and fold one block of `_prepare_segment` or, at
        sigma = 0, of `_fold_mask`, whose numbers `blk` run over odd slots, primes or not,
        with the composites' terms 0. Its values, which lie in [prefix + low, prefix + high],
        are formed only where that range may leave the carried sign or pass value_max at
        sigma > 0."""
        cps = self.checkpoints
        prefix = self.units / _UNIT
        while self.ci < len(cps) and cps[self.ci] < blk[0]:
            self.points.append(RacePoint(cps[self.ci], prefix, self.err, self.carry))
            self.ci += 1

        lo, hi = prefix + low, prefix + high  # fl(prefix + c) is monotone in c
        exact = self.sigma == 0.0
        if self._leaves(lo, hi) or (not exact and max(-lo, hi) > self.value_max):
            cum = np.cumsum(contrib)  # the block's least and largest values replace the bound
            lo, hi = prefix + float(cum.min()), prefix + float(cum.max())
        scan = self._leaves(lo, hi)  # False where the values were not formed

        if not exact:
            self.total_weight += abs_weight
            self.block_weight_max = max(self.block_weight_max, abs_weight)
            self.value_max = max(self.value_max, -lo, hi)
            self.err = _U * (
                2.0 * self.total_weight + _BLOCK * self.block_weight_max + self.value_max
            )

        if scan:
            avals = prefix + cum
            change_idx, filled = _block_sign_scan(avals, self.carry)
            self.events += [RacePoint(int(blk[i]), float(avals[i]), self.err, int(filled[i]))
                            for i in change_idx.tolist()]
            if self.first_positive is None and len(pos := np.flatnonzero(avals > 0.0)):
                self.first_positive = int(blk[pos[0]])

        # the checkpoints left are at or past blk[0], so k >= 1. A head is the rounded sum
        # of contrib[:k], its units added only since the last one (by np.sum at sigma = 0)
        done = head_units = 0
        while self.ci < len(cps) and cps[self.ci] <= blk[-1]:
            k = bisect_right(blk, cps[self.ci])  # blk may be a range
            part, done = contrib[done:k], k
            head_units += _float_units(float(part.sum())) if exact else _exact_sums(part)[0]
            value = (self.units + _float_units(head_units / _UNIT)) / _UNIT
            sign = int(filled[k - 1]) if scan else self.carry
            self.points.append(RacePoint(cps[self.ci], value, self.err, sign))
            self.ci += 1

        self.carry = int(filled[-1]) if scan else self.carry  # an unscanned block keeps it
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
    exact = [st for st in states if st.sigma == 0.0]
    powered = [st for st in states if st.sigma != 0.0]
    for seg in iter_segments(x_max) if exact else ():
        _fold_mask(seg, w, exact)
        del seg  # before the next segment is sieved
    for block in walk(w, x_max) if powered else ():
        for st in powered:
            for prepared in _prepare_segment(*block, st.sigma):
                st.add_block(*prepared)
    return [st.series() for st in states]


def _fold_mask(seg: Segment, w: DirichletWeight, states: list) -> None:
    """Every sigma = 0 state through one sieved segment, with no prime extracted
    and no w(p) looked up; no block view of the mask outlives the call.

    The mask's bytes become the weights in place, 2^15 slots at a time: slot j
    times w(first + 2j), read from the `_period_row` made at the segment's first
    number, so a composite weighs 0; at lo = 2 slot 0, which holds 2, takes w(2).
    Each state then takes one block per 2^15 slots: the slots' odd numbers as a
    range (at lo = 2 the first block's as an array that starts with 2), their
    weights, and the bound and sum of `_chunk_bounds`.
    """
    weights, first, q = seg.mask.view(np.int8), seg.first, w.modulus
    n, row = len(weights), _period_row(w, first, 2)
    for start in range(0, n, _BLOCK):
        part = weights[start : start + _BLOCK]
        np.multiply(part, row[start % q :][: len(part)], out=part)
    if seg.lo == 2:
        weights[0] = w.period[2 % q]
    bounds = zip(*(a.tolist() for a in _chunk_bounds(weights, _CHUNK // 2)))
    for start, (low, high, total) in zip(range(0, n, _BLOCK), bounds):
        stop = min(start + _BLOCK, n)
        numbers = range(first + 2 * start, first + 2 * stop, 2)
        if seg.lo == 2 and start == 0:
            numbers = np.arange(first, first + 2 * stop, 2)
            numbers[0] = 2
        for st in states:
            st.add_block(numbers, weights[start:stop], low, high, float(total), 0.0)


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
