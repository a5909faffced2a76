import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerace.errors import ValidationError
from primerace.sieve import (
    prime_count,
    prime_stream,
    sieve_segment,
)

from oracles import simple_sieve, trial_division_primes


def test_segment_examples():
    assert sieve_segment(2, 11).primes.tolist() == [2, 3, 5, 7]
    assert sieve_segment(2, 3).primes.tolist() == [2]
    assert sieve_segment(90, 97).primes.tolist() == []


def test_segment_matches_trial_division_oracle():
    assert sieve_segment(2, 11).primes.tolist() == trial_division_primes(10)
    assert sieve_segment(90, 97).primes.tolist() == [
        n for n in trial_division_primes(96) if n >= 90
    ]


@pytest.mark.parametrize("lo,hi", [(11, 11), (12, 5), (1, 10), (0, 3)])
def test_segment_range_errors(lo, hi):
    with pytest.raises(ValidationError):
        sieve_segment(lo, hi)


def test_segment_width_cap():
    with pytest.raises(ValidationError):
        sieve_segment(2, 2 + (1 << 23))
    assert len(sieve_segment(2, 100, max_width=1 << 23).primes) == 25


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


def test_small_segment_sizes_agree():
    full = list(prime_stream(50_000))
    assert list(prime_stream(50_000, segment_size=1 << 10)) == full


def test_negative_segment_size_rejected():
    with pytest.raises(ValidationError):
        prime_count(100, segment_size=-5)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=3, max_value=30_000), min_size=1, max_size=5))
def test_segment_concatenation(cuts):
    # sieving [2, N) in one pass equals the concatenation of any partition
    bounds = sorted(set(cuts))
    n = bounds[-1]
    whole = sieve_segment(2, n, max_width=1 << 23).primes.tolist()
    pieces = []
    lo = 2
    for hi in bounds:
        if hi > lo:
            pieces.extend(sieve_segment(lo, hi, max_width=1 << 23).primes.tolist())
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
    expected = [n for n in range(10_000, 12_000) if n in set(trial_division_primes(12_000))]
    assert primes == expected
    assert np.all(np.diff(seg.primes) > 0)
