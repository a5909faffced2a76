import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerace import sieve
from primerace.errors import ValidationError
from primerace.sieve import (
    iter_prime_arrays,
    prime_count,
    prime_stream,
    sieve_segment,
)

from oracles import simple_sieve, trial_division_primes


def test_segment_examples():
    assert sieve_segment(2, 11).primes.tolist() == [2, 3, 5, 7]
    assert sieve_segment(2, 11).primes.dtype == np.int64  # the segment holding 2
    assert sieve_segment(90, 110).primes.dtype == np.int64
    assert sieve_segment(2, 3).primes.tolist() == [2]
    assert sieve_segment(90, 97).primes.tolist() == []


def test_segment_holding_two_is_not_copied():
    # 2 takes the slot of 1 in the odd grid, so the primes of [2, 2 + 2^22)
    # (2.3 MiB) are formed once beside the 2 MiB mask: 4.3 MiB, against 6.5
    # with a second array to prepend 2
    assert [sieve_segment(2, hi).primes.tolist() for hi in (3, 4, 5)] == [[2], [2, 3], [2, 3]]
    tracemalloc.start()
    try:
        sieve_segment(2, 2 + 2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_segment_past_a_base_primes_first_multiple():
    # 3's first odd multiple at or past 100 is 105, beyond the segment [100, 102)
    assert sieve_segment(100, 102).primes.tolist() == [101]


def test_segment_matches_trial_division_oracle():
    assert sieve_segment(2, 11).primes.tolist() == trial_division_primes(10)
    assert sieve_segment(90, 97).primes.tolist() == [
        n for n in trial_division_primes(96) if n >= 90
    ]


def test_base_primes_match_trial_division():
    # every limit to 3000 passes each p^2 - 1, p^2 and p^2 + 1 of the recursion
    # base_primes(n) = odd primes of [3, n] crossed off by base_primes(isqrt(n))
    odd = [p for p in trial_division_primes(3000) if p > 2]
    for n in range(3001):
        assert sieve.base_primes(n).tolist() == [p for p in odd if p <= n], n


@pytest.mark.parametrize("lo,hi", [(11, 11), (12, 5), (1, 10), (0, 3)])
def test_segment_range_errors(lo, hi):
    with pytest.raises(ValidationError):
        sieve_segment(lo, hi)


# each sieve entry point with a bad count; the generators run when consumed
COUNT_ENTRY_POINTS = {
    "iter_prime_arrays": lambda n: list(sieve.iter_prime_arrays(n)),
    "prime_count": sieve.prime_count,
    "prime_stream": lambda n: list(sieve.prime_stream(n)),
    "base_primes": sieve.base_primes,
    "sieve_segment": lambda n: sieve_segment(2, n),
}


@pytest.mark.parametrize("bad", [2.5, 100.0, np.float64(100.0), True, "100", None, -1])
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_counts_are_checked_integers(entry, bad):
    with pytest.raises(ValidationError):
        COUNT_ENTRY_POINTS[entry](bad)


def test_numpy_integer_counts_are_accepted():
    assert sieve.prime_count(np.int64(100)) == 25
    assert sieve_segment(np.int64(2), np.int32(11)).primes.tolist() == [2, 3, 5, 7]
    assert sieve.base_primes(np.uint16(10)).tolist() == [3, 5, 7]


def test_segment_width_cap():
    # the widest segment the walk makes holds 295,947 primes; one more number is refused
    assert len(sieve_segment(2, 2 + 2**22).primes) == 295_947
    with pytest.raises(ValidationError):
        sieve_segment(2, 3 + 2**22)


def test_prime_stream_examples():
    assert list(prime_stream(10)) == [2, 3, 5, 7]
    assert list(prime_stream(2)) == [2]
    assert list(prime_stream(1)) == []


def test_stream_equals_trial_division():
    limit = 20_000
    assert list(prime_stream(limit)) == trial_division_primes(limit)


def test_count_against_second_sieve_at_1e6():
    # independent one-shot sieve cross-check at scale
    assert prime_count(10**6) == len(simple_sieve(10**6)) == 78498


def test_small_segment_sizes_agree(monkeypatch):
    full = list(prime_stream(50_000))
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 10)
    assert list(prime_stream(50_000)) == full


@pytest.mark.parametrize("k, seam_is_prime", [(1, True), (2, False), (3, True), (40, False)])
def test_segment_seams_match_trial_division(monkeypatch, k, seam_is_prime):
    # an odd width puts seams 2 + kW on odd and even numbers alike; a limit one
    # below, at and one past a seam ends in a full, a one-number and a two-number
    # segment, and a prime seam (47 and 137 at W = 45) is alone in its segment.
    # prime_count counts the masks' True slots, the one of 2 included
    width = 45
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    seam = 2 + k * width
    for limit in (seam - 1, seam, seam + 1):
        assert list(prime_stream(limit)) == trial_division_primes(limit)
        assert prime_count(limit) == len(trial_division_primes(limit))
    arrays = [primes.tolist() for primes in iter_prime_arrays(seam)]
    assert (arrays[-1] == [seam]) == seam_is_prime


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=3, max_value=30_000), min_size=1, max_size=5))
def test_segment_concatenation(cuts):
    # sieving [2, N) in one pass equals the concatenation of any partition
    bounds = sorted(set(cuts))
    n = bounds[-1]
    whole = sieve_segment(2, n).primes.tolist()
    pieces = []
    lo = 2
    for hi in bounds:
        if hi > lo:
            pieces.extend(sieve_segment(lo, hi).primes.tolist())
            lo = hi
    assert pieces == whole


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=3000))
def test_monotone_counts(a, b):
    if a > b:
        a, b = b, a
    assert prime_count(a) <= prime_count(b)


def test_segment_invariants_random_window():
    seg = sieve_segment(10_000, 12_000)
    primes = seg.primes.tolist()
    assert primes == sorted(set(primes))
    oracle = set(trial_division_primes(12_000))
    expected = [n for n in range(10_000, 12_000) if n in oracle]
    assert primes == expected
    assert np.all(np.diff(seg.primes) > 0)
