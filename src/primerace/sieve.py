"""Segmented sieve of Eratosthenes for high-throughput prime streaming.

Numbers are sieved in fixed-width segments using an odd-only mask, so the
working set stays cache resident and segments can be produced independently.
Everything is deterministic; no probabilistic primality testing anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ValidationError

DEFAULT_SEGMENT_SIZE = 1 << 22


@dataclass(frozen=True)
class Segment:
    """Primes found in the half-open range [lo, hi), strictly ascending."""

    lo: int
    hi: int
    primes: np.ndarray


def base_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit, for crossing off composites in segments."""
    if limit < 3:
        return np.empty(0, dtype=np.int64)
    # index i represents the odd number 2*i + 3
    mask = np.ones((limit - 1) // 2, dtype=bool)
    for i in range((math.isqrt(limit) - 1) // 2 + 1):
        if mask[i]:
            p = 2 * i + 3
            mask[(p * p - 3) // 2 :: p] = False
    return (2 * np.flatnonzero(mask) + 3).astype(np.int64)


def sieve_segment(
    lo: int,
    hi: int,
    *,
    base: np.ndarray | None = None,
    max_width: int = DEFAULT_SEGMENT_SIZE,
) -> Segment:
    """Sieve the half-open range [lo, hi).

    `base` must contain all odd primes <= sqrt(hi - 1); it is computed on the
    fly when omitted. Raises ValidationError for an invalid range or a range
    wider than `max_width`.
    """
    if lo < 2 or lo >= hi:
        raise ValidationError(f"invalid sieve range [{lo}, {hi}): need 2 <= lo < hi")
    if hi - lo > max_width:
        raise ValidationError(
            f"segment width {hi - lo} exceeds the configured maximum {max_width}"
        )
    if base is None:
        base = base_primes(math.isqrt(hi - 1))

    first_odd = lo | 1
    n_odd = (hi - first_odd + 1) // 2 if first_odd < hi else 0
    mask = np.ones(n_odd, dtype=bool)
    if n_odd:
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
    primes = first_odd + 2 * np.flatnonzero(mask)
    if lo <= 2 < hi:
        primes = np.concatenate((np.array([2], dtype=np.int64), primes))
    return Segment(lo, hi, primes.astype(np.int64))


def iter_prime_arrays(
    limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes, jointly covering all p <= limit.

    This is the package's one walk over the primes: every segment is sieved
    against one shared base.
    """
    if limit < 2:
        return
    shared = base_primes(math.isqrt(limit))
    lo = 2
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        primes = sieve_segment(lo, hi, base=shared, max_width=segment_size).primes
        if len(primes):
            yield primes
        lo = hi


def prime_stream(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> Iterator[int]:
    """Every prime <= limit exactly once, ascending. Empty for limit < 2."""
    for primes in iter_prime_arrays(limit, segment_size):
        yield from primes.tolist()


def prime_count(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """pi(limit), counted segment by segment."""
    return sum(len(a) for a in iter_prime_arrays(limit, segment_size))
