"""Segmented sieve of Eratosthenes for high-throughput prime streaming.

Numbers are sieved in fixed-width segments using an odd-only mask, so the
working set stays cache resident and segments can be produced independently.
Everything is deterministic; no probabilistic primality testing anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import ValidationError, check_count

SEGMENT_WIDTH = 1 << 22  # 2^22 and 2^23 tie near 1e10; 2^24 is 1.5x slower


def _first_odd(lo: int) -> int:
    """The number of a mask's slot 0: lo | 1, or 1 at lo = 2, whose slot holds 2."""
    return 1 if lo == 2 else lo | 1


@dataclass(frozen=True)
class Segment:
    """The half-open range [lo, hi) as an odd-only mask: slot j is True where
    first + 2j is prime, and at lo = 2 slot 0, the slot of 1, stands for 2."""

    lo: int
    hi: int
    mask: np.ndarray

    @property
    def first(self) -> int:
        """The number of slot 0."""
        return _first_odd(self.lo)

    @cached_property
    def primes(self) -> np.ndarray:
        """The primes of the segment, strictly ascending int64, extracted once."""
        primes = np.flatnonzero(self.mask)  # int64; scaled in place, with no temporaries
        primes *= 2
        primes += self.first
        if self.lo == 2:
            primes[0] = 2
        return primes


def _odd_mask(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The odd-only mask of [lo, hi) (see `Segment`), crossed off by `base`,
    which holds every odd prime <= sqrt(hi - 1): the one crossing-off loop."""
    first_odd = _first_odd(lo)  # at lo = 2 the slot of 1, never crossed off, holds 2
    n_odd = (hi - first_odd + 1) // 2 if first_odd < hi else 0
    mask = np.ones(n_odd, dtype=bool)
    for p in base.tolist():
        start = p * p
        if start >= hi:
            break
        if start < lo:
            start = ((lo + p - 1) // p) * p
            if start % 2 == 0:
                start += p
            if start >= hi:
                continue
        mask[(start - first_odd) // 2 :: p] = False
    return mask


def base_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit, for crossing off composites in segments."""
    limit = check_count(limit, "limit", 0)
    if limit < 3:
        return np.empty(0, dtype=np.int64)
    return Segment(3, limit + 1, _odd_mask(3, limit + 1, base_primes(math.isqrt(limit)))).primes


def sieve_segment(lo: int, hi: int, *, base: np.ndarray | None = None) -> Segment:
    """Sieve the half-open range [lo, hi).

    `base` must contain all odd primes <= sqrt(hi - 1); it is computed on the
    fly when omitted. Raises ValidationError for an invalid range or a range
    wider than `SEGMENT_WIDTH`.
    """
    lo = check_count(lo, "lo", 2)
    hi = check_count(hi, "hi", lo + 1)
    if hi - lo > SEGMENT_WIDTH:
        raise ValidationError(f"segment width {hi - lo} exceeds the maximum {SEGMENT_WIDTH}")
    base = base_primes(math.isqrt(hi - 1)) if base is None else base
    return Segment(lo, hi, _odd_mask(lo, hi, base))


def iter_segments(limit: int) -> Iterator[Segment]:
    """Yield the sieved segments jointly covering [2, limit], ascending.

    Every segment is sieved against one shared base. The caller drops each
    one before asking for the next, so no mask is held while the next is sieved.
    """
    limit = check_count(limit, "limit", 0)
    shared = base_primes(math.isqrt(limit))
    for lo in range(2, limit + 1, SEGMENT_WIDTH):
        yield sieve_segment(lo, min(lo + SEGMENT_WIDTH, limit + 1), base=shared)


def iter_prime_arrays(limit: int) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes, jointly covering all p <= limit.

    `races.walk` hands them out in blocks for every sum over primes.
    """
    for seg in iter_segments(limit):
        primes = seg.primes
        del seg  # the mask goes with it, before the primes are handed out
        if len(primes):
            yield primes
        del primes  # so no segment is held while the next one is sieved


def prime_stream(limit: int) -> Iterator[int]:
    """Every prime <= limit exactly once, ascending. Empty for limit 0 or 1."""
    for primes in iter_prime_arrays(limit):
        yield from primes.tolist()
        del primes  # before the next segment is sieved


def prime_count(limit: int) -> int:
    """pi(limit): the True slots of each segment's mask (the slot of 1 holds 2),
    counted with no prime extracted and no mask held while the next is sieved."""
    count = 0
    for seg in iter_segments(limit):
        count += np.count_nonzero(seg.mask)
        del seg  # before the next segment is sieved
    return count
