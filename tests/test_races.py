import ast
import bisect
import functools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primerace.characters import (
    MAX_MODULUS,
    DirichletWeight,
    build_character,
    character_from_discriminant,
    chi4,
)
from primerace.config import parse_grid
from primerace import races, sieve
from primerace.errors import ValidationError
from primerace.races import (
    _BLOCK,
    _UNIT,
    _block_sign_scan,
    _exact_sums,
    default_checkpoints,
    detect_sign_changes,
    race_scan,
    weighted_race,
)
from primerace.sieve import iter_prime_arrays, prime_stream

from oracles import (
    CHI12_FROM_CHI4,
    CHI12_TABLE,
    _prepare_segment_fresh_arrays,
    fresh_arrays_race_state,
    fundamental_discriminants,
    kronecker_periodic,
    mp_race,
    race_scan_fresh_arrays,
    race_sigma0_brute,
    race_sigma1_fraction,
    sign_change_walk,
    trial_division_primes,
)


def test_race_examples():
    c4 = chi4()
    assert weighted_race(c4, 0.0, 10).final_value == -1.0
    a5 = weighted_race(c4, 1.0, 5).final_value
    assert abs(a5 - float(Fraction(-2, 15))) < 1e-15
    assert race_sigma1_fraction(5) == Fraction(-2, 15)
    assert weighted_race(c4, 0.5, 1).final_value == 0.0


def _values(series):
    """(x, A(x)) at every checkpoint of a race."""
    return [(p.x, p.value) for p in series.points]


def _values_at(sigma, points):
    """A at exactly the given ascending points."""
    return _values(weighted_race(chi4(), sigma, max(points), checkpoints=points))


def test_checkpoint_values_examples():
    (x, a10), = _values_at(0.5, [10])
    assert x == 10
    assert abs(a10 - (-(3 ** -0.5) + 5 ** -0.5 - 7 ** -0.5)) < 1e-15
    assert _values_at(0.5, [2]) == [(2, 0.0)]


def test_checkpoint_values_do_not_depend_on_x_max():
    # checkpoint values do not depend on x_max past them
    c4 = chi4()
    pts = [10, 97, 1000, 4999]
    series = weighted_race(c4, 0.5, 5000, checkpoints=pts)
    assert _values_at(0.5, pts) == _values(series)


def test_synthetic_sign_convention():
    changes, final = sign_change_walk([2, 1, -1, 0, 3])
    assert changes == [2, 4]  # the 3rd and 5th entries
    assert final == 1
    assert sign_change_walk([0, 0, 1, 2, 0, 3])[0] == []
    assert sign_change_walk([1, 0, -1])[0] == [2]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60),
    st.sampled_from([-1, 0, 1]),
)
@example([1, 2, 3, 1, 2], 0)  # a series that never leaves the + side
@example([-1, 0, -3, 0, -2], -1)  # cannot flip a - carry: the scan is skipped
@example([0, 2, 0, 1, 3], 1)  # cannot flip a + carry: the scan is skipped
@example([0, 0, 0], -1)
@example([0, 0, 0], 0)
@example([0, 0, 0], 1)
@example([-1, -2, 0, -1, 3], -1)  # one flip, in the last element
@example([1, 2, 0, 1, -3], 1)
def test_vectorized_scan_matches_scalar(values, carry):
    arr = np.array(values, dtype=np.float64)
    idx, filled = _block_sign_scan(arr, carry)
    ref_changes, ref_final = sign_change_walk(values, carry)
    assert idx.tolist() == ref_changes
    assert int(filled[-1]) == (ref_final if ref_final != 0 else carry)
    assert filled.tolist() == [
        sign_change_walk(values[: i + 1], carry)[1] for i in range(len(values))
    ]


def test_sigma0_exact_match_to_1e4():
    c4 = chi4()
    oracle = race_sigma0_brute(10**4)
    series = weighted_race(c4, 0.0, 10**4, checkpoints=[p for p, _ in oracle])
    assert series.running_error == 0.0
    for (p, expected), (x, got) in zip(oracle, _values(series)):
        assert x == p
        assert got == float(expected)
    report = detect_sign_changes(series)
    assert report.change_count == 0
    assert report.final_sign == -1


def test_sigma0_sign_changes_to_1e5():
    # the race first favors the +1 class at 26861 and flips back at 26879
    series = weighted_race(chi4(), 0.0, 10**5)
    report = detect_sign_changes(series)
    assert report.change_locations == (26861, 26879)
    assert report.first_positive_x == 26861
    assert report.final_sign == -1
    assert report.ambiguous_count == 0


def test_checkpoint_at_every_prime_is_linear_at_sigma0(monkeypatch):
    # an exact checkpoint head adds, by .sum() on the block's weight row, only the
    # terms since the block's last head, and a block sum is its last chunk run:
    # with a checkpoint at every prime each w(p) reaches .sum() exactly once, and
    # no slot of the mask fold reaches it twice. 1,024-wide segments give about
    # 100 blocks, so the heads restart often
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 10)
    primes = list(prime_stream(10**5))
    summed, covered = [], []

    class CountingRow(np.ndarray):
        def sum(self, *args, **kwargs):
            summed.append((self.ctypes.data, self.size))
            return super().sum(*args, **kwargs)

    real_add = races._RaceState.add_block

    def counting_add(self, numbers, weights, *rest):
        real_add(self, numbers, weights.view(CountingRow), *rest)
        for address, size in summed:  # the block is folded: name the slots it summed
            start = address - weights.ctypes.data
            covered.extend(int(x) for x in numbers[start : start + size])
        summed.clear()

    monkeypatch.setattr(races._RaceState, "add_block", counting_add)
    series = weighted_race(chi4(), 0.0, 10**5, checkpoints=primes)
    monkeypatch.undo()
    assert len(covered) == len(set(covered)) and set(primes) <= set(covered)
    oracle = race_sigma0_brute(10**5)
    assert [(p.x, p.value) for p in series.points] == [(p, float(a)) for p, a in oracle]


def test_checkpoint_heads_are_summed_once_per_block(monkeypatch):
    # each checkpoint adds only the terms since the last one in its block, so
    # the elements handed to _exact_sums are the block sums' plus one pass
    primes = list(prime_stream(10**5))
    summed = []
    real_sums = races._exact_sums

    def counting_sums(x):
        summed.append(len(x))
        return real_sums(x)

    monkeypatch.setattr(races, "_exact_sums", counting_sums)
    series = weighted_race(chi4(), 0.5, 10**5, checkpoints=primes)
    monkeypatch.undo()
    assert sum(summed) <= 2 * len(primes)
    # a checkpoint's value does not depend on the checkpoints before it
    assert _values(series)[::97] == _values_at(0.5, primes[::97])
    assert series.points[-1].value == series.final_value


def _prepared(blk, contrib, sigma):
    """`races._prepare_segment`'s tuple for a hand-made block: at log p = 0 the
    contributions are the weights themselves, w * exp(-0.0) = w * 1.0. At
    sigma = 0 it is the tuple that `races._fold_mask` hands each state."""
    contrib = np.array(contrib, dtype=np.float64)
    if sigma == 0.0:  # the bound and sum of the sigma = 0 fold, as _fold_mask forms them
        (low,), (high,), (total,) = (a.tolist() for a in races._chunk_bounds(contrib, 64))
        return np.array(blk), contrib, low, high, float(total), 0.0
    (block,) = races._prepare_segment(np.array(blk), contrib, np.zeros(len(contrib)), sigma)
    return block


def _fresh_prepared(blk, contrib, sigma):
    """The fresh-arrays oracle's tuple for the same block."""
    contrib = np.array(contrib, dtype=np.float64)
    (block,) = _prepare_segment_fresh_arrays(np.array(blk), contrib, np.zeros(len(contrib)), sigma)
    return block


def _shaped_row(rng, n: int, shape: str, spread: int) -> np.ndarray:
    """n floats over `spread` binary orders: of random signs ("noise"), nine in ten of
    one sign ("runs"), or of one size, 64 up then 64 down in every 128-term chunk
    ("tent"), where a prefix sum is 64 terms from every running chunk sum."""
    if shape == "tent":
        size = 2.0 ** -int(rng.integers(0, spread + 1))
        return np.where(np.arange(n) % 128 < 64, size, -size)
    signs = rng.choice([-1.0, 1.0], n, p=[0.1, 0.9] if shape == "runs" else [0.5, 0.5])
    return signs * rng.uniform(1, 2, n) * 2.0 ** rng.integers(-spread, 1, n)


def _int8_weights(rng, n: int, shape: str) -> np.ndarray:
    """n weights of -1, 0 and 1 with at most 87 nonzero in each aligned 128-term
    chunk, as on the slots of odd numbers: noise, or in runs of one sign."""
    row = np.zeros(-(-n // 128) * 128, np.int8)
    row[:n] = rng.integers(-1, 2, n) if shape == "noise" else np.repeat(
        rng.choice([-1, 1], -(-n // 500)), 500)[:n]
    chunks = row.reshape(-1, 128)
    chunks[np.cumsum(chunks != 0, axis=1) > 87] = 0
    return row[:n]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 127, 128, 129, _BLOCK]) | st.integers(1, _BLOCK),
       st.sampled_from(["noise", "runs", "tent"]), st.integers(0, 120), st.integers(0, 2**32 - 1))
def test_chunk_bounds_contain_every_prefix_sum(n, shape, spread, seed):
    # a float row is one sigma > 0 block, bounded by `_prepare_segment` (at log p = 0
    # its contributions are the weights); an int8 row is a sigma = 0 segment of up to
    # four blocks, bounded with reach 64 as `_fold_mask` does
    rng = np.random.default_rng(seed)
    row = _shaped_row(rng, n, shape, spread)
    ((_, contrib, low, high, _, _),) = races._prepare_segment(np.arange(n), row, np.zeros(n), 0.5)
    cum = np.cumsum(contrib)
    assert contrib.tobytes() == row.tobytes() and low <= cum.min() and cum.max() <= high
    weights = _int8_weights(rng, 3 * n + int(rng.integers(0, _BLOCK)), shape)
    for start, low, high, total in zip(range(0, len(weights), _BLOCK),
                                       *races._chunk_bounds(weights, 64)):
        cum = np.cumsum(weights[start : start + _BLOCK], dtype=np.int64)
        assert low <= cum.min() and cum.max() <= high and total == cum[-1]


def test_a_blocks_contributions_outlive_the_next_sigma():
    # each call forms its contributions in a row of its own, so the next sigma's
    # call on the same block leaves the first one's bits as the fresh oracle has them
    block = next(races.walk(chi4(), 10**5))
    ((_, first, *_),) = races._prepare_segment(*block, 0.3)
    kept = first.copy()
    races._prepare_segment(*block, 0.7)
    assert first.tobytes() == kept.tobytes()
    assert kept.tobytes() == _prepare_segment_fresh_arrays(*block, 0.3)[0][1].tobytes()


def _fold(blocks, checkpoints):
    """The sigma = 0.5 race of hand-made (primes, contributions) blocks."""
    state = races._RaceState(0.5, checkpoints)
    for blk, contrib in blocks:
        state.add_block(*_prepared(blk, contrib, 0.5))
    return state.series()


def test_fold_is_exact_where_a_double_double_was_not():
    # 1 + 2^-53 is a tie that rounds to 1, and 2^-110 tips the exact sum above it
    sums = [1.0, 2.0**-53, 2.0**-110]
    series = _fold([([2], sums[:1]), ([3], sums[1:2]), ([5], sums[2:])], (5,))
    assert series.final_value == math.fsum(sums) == 1.0 + 2.0**-52
    assert [p.value for p in series.points] == [series.final_value]


def test_checkpoint_adds_the_rounded_head():
    # the prefix adds rounded block sums: 2^-53 + 2^-110 rounds to 2^-53 first,
    # so a checkpoint at the block's last prime reads the final value, 1
    series = _fold([([2], [1.0]), ([3, 5], [2.0**-53, 2.0**-110])], (5,))
    assert [p.value for p in series.points] == [series.final_value] == [1.0]


def test_sigma0_block_sums_skip_fsum(monkeypatch):
    # at sigma = 0 a block sum (the last chunk run) and a checkpoint head (an
    # np.sum) are sums of integers below 2^53, exact, added to the integer
    # prefix: nothing calls fsum or the exact-sum kernel
    summed = []
    real_fsum, real_sums = math.fsum, races._exact_sums

    def counting_fsum(xs):
        xs = list(xs)
        summed.append(len(xs))
        return real_fsum(xs)

    monkeypatch.setattr(races.math, "fsum", counting_fsum)
    monkeypatch.setattr(races, "_exact_sums",
                        lambda x: summed.append(len(x)) or real_sums(x))
    series = weighted_race(chi4(), 0.0, 10**5, checkpoints=[50_000])
    monkeypatch.undo()
    assert summed == []
    oracle = race_sigma0_brute(10**5)
    assert series.points[0].value == float([a for p, a in oracle if p <= 50_000][-1])
    assert series.final_value == float(oracle[-1][1])


def test_sigma0_small_segments_match_brute_force(monkeypatch):
    # 1,024-wide segments give about 100 segments and blocks below 1e5, so
    # the sign scan meets many blocks that cannot flip the carried sign
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 10)
    oracle = race_sigma0_brute(10**5)
    series = weighted_race(chi4(), 0.0, 10**5, checkpoints=[p for p, _ in oracle])
    assert [(p.x, p.value) for p in series.points] == [(p, float(a)) for p, a in oracle]
    changes, final = sign_change_walk([a for _, a in oracle])
    report = detect_sign_changes(series)
    assert report.change_locations == tuple(oracle[i][0] for i in changes)
    assert report.final_sign == final
    assert report.first_positive_x == next(p for p, a in oracle if a > 0)


@pytest.mark.parametrize("width", [1 << 10, 999])
@pytest.mark.parametrize("d", [-4, -3, 5, 8, -8, 12, -7])
def test_sigma0_mask_fold_matches_brute_force(monkeypatch, width, d):
    # w(2) = 0 or w(3) = 0 for d in {-4, -3, 8, -8, 12}; w(2) = -1 for d = 5 and +1
    # for d = -7, whose race is positive at 2 and changes sign at 5. So the slot of
    # 2 at lo = 2 and the in-place weights that drop the primes dividing q are
    # checked at every prime, across the seams of an even and an odd width
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    w = chi4() if d == -4 else character_from_discriminant(d)
    oracle = race_sigma0_brute(10**5, d)
    series = weighted_race(w, 0.0, 10**5, checkpoints=[p for p, _ in oracle])
    effective, signs = 0, []
    for _, a in oracle:
        effective = (a > 0) - (a < 0) or effective
        signs.append(effective)
    changes, final = sign_change_walk([a for _, a in oracle])
    assert series.points == [races.RacePoint(p, float(a), 0.0, s)
                             for (p, a), s in zip(oracle, signs)]
    assert series.sign_events == [races.RacePoint(oracle[i][0], float(oracle[i][1]), 0.0, signs[i])
                                  for i in changes]
    assert series.first_positive_x == next((p for p, a in oracle if a > 0), None)
    assert (series.final_value, series.final_sign) == (float(oracle[-1][1]), final)
    if d == -7:
        assert series.first_positive_x == 2 and series.sign_events[0].x == 5


def test_sigma0_race_of_an_imprimitive_table_character():
    # w mod 12 is chi4 at every prime but 3, so A(x) = A(x; chi4) + 1 from x = 3 on,
    # and its sign changes are those of a trial-division sum over the table itself
    w, primes = build_character(CHI12_FROM_CHI4), trial_division_primes(10**5)
    oracle = list(zip(primes, accumulate(CHI12_TABLE[p % 12] for p in primes)))
    series = weighted_race(w, 0.0, 10**5, checkpoints=primes[1:])
    chi4_series = weighted_race(chi4(), 0.0, 10**5, checkpoints=primes[1:])
    assert [p.value for p in series.points] == [p.value + 1 for p in chi4_series.points]
    changes, final = sign_change_walk([a for _, a in oracle])
    report = detect_sign_changes(series)
    assert report.change_locations == tuple(oracle[i][0] for i in changes)
    assert report.final_sign == final
    assert report.first_positive_x == next(p for p, a in oracle if a > 0) == 5
    assert report.change_count == 9


@functools.lru_cache(maxsize=8)
def _domain_character(d: int) -> DirichletWeight:
    return character_from_discriminant(d)  # about 0.1 s at q = 10^4


_DOMAIN_LIMIT = 100_003
# ranked down from the largest |d|: hypothesis draws small ranks most, so large q most
_DOMAIN_D = st.integers(0, 6085).map(lambda rank: fundamental_discriminants(MAX_MODULUS)[-1 - rank])


@settings(max_examples=6, deadline=None)
@given(_DOMAIN_D, st.floats(0.01, 1.0),
       st.lists(st.integers(1, _DOMAIN_LIMIT), min_size=1, max_size=40, unique=True).map(sorted))
@example(-9995, 0.5, [1, 2, 26861, _DOMAIN_LIMIT])
def test_sigma0_race_over_the_character_domain(d, sigma, cps):
    # at widths 2^17 and 65,537 the first segment holds two 2^15-slot blocks, and at the
    # odd width the second starts at 65,539, so at large q the weights are read from
    # `_period_row` at offset start % q > 0 and from a row made past the first number
    w, oracle = _domain_character(d), race_sigma0_brute(_DOMAIN_LIMIT, d)
    primes, values, signs = [p for p, _ in oracle], [0], [0]  # A and its sign before 2 lead
    for _, a in oracle:
        values.append(a)
        signs.append((a > 0) - (a < 0) or signs[-1])
    changes, final = sign_change_walk(values[1:])
    at = [bisect.bisect_right(primes, x) for x in cps]  # primes up to x
    points = [races.RacePoint(x, float(values[i]), 0.0, signs[i]) for x, i in zip(cps, at)]
    events = [races.RacePoint(primes[i], float(values[i + 1]), 0.0, signs[i + 1]) for i in changes]
    with pytest.MonkeyPatch.context() as m:
        for width in (1 << 17, 65_537):
            m.setattr(sieve, "SEGMENT_WIDTH", width)
            series = weighted_race(w, 0.0, _DOMAIN_LIMIT, checkpoints=cps)
            assert series.points == points
            assert series.sign_events == events
            assert series.first_positive_x == next((p for p, a in oracle if a > 0), None)
            assert (series.final_value, series.final_sign) == (float(values[-1]), final)
        # one sigma > 0 race of the same character, bit for bit, at the odd width
        _assert_same_repr(race_scan(w, [sigma], _DOMAIN_LIMIT, checkpoints=cps),
                          race_scan_fresh_arrays(w, [sigma], _DOMAIN_LIMIT, cps))


def test_mixed_grid_matches_its_parts(monkeypatch):
    # the sigma = 0 states fold the masks and the sigmas > 0 take the prime walk,
    # each sigma with its own state, so the mixed grid is its two parts run alone
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 999)
    w, sigmas, cps = character_from_discriminant(-7), [0.0, 0.3, 0.0, 1.0], [2, 5, 1000, 99_991]
    scan = race_scan(w, sigmas, 10**5, checkpoints=cps)
    _assert_same_repr(scan, race_scan_fresh_arrays(w, sigmas, 10**5, cps))
    _assert_same_repr(scan[::2], race_scan(w, [0.0, 0.0], 10**5, checkpoints=cps))
    _assert_same_repr(scan[1::2], race_scan(w, [0.3, 1.0], 10**5, checkpoints=cps))


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_last_segment_holds_no_odd_number(monkeypatch, sigma):
    # at an even width the last segment [limit, limit + 1) is one even number with
    # no mask slot; the race passes it and reads the final value at the limit
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1000)
    limit = 2 + 100 * 1000
    assert len(sieve.sieve_segment(limit, limit + 1).mask) == 0
    oracle = race_sigma0_brute(limit)
    cps = [p for p, _ in oracle] + [limit]
    (series,) = scan = race_scan(chi4(), [sigma], limit, checkpoints=cps)
    _assert_same_repr(scan, race_scan_fresh_arrays(chi4(), [sigma], limit, cps))
    if sigma == 0.0:
        final = [(limit, float(oracle[-1][1]))]
        assert _values(series) == [(p, float(a)) for p, a in oracle] + final


def test_checkpoint_at_every_prime_matches_single_checkpoints():
    primes = list(prime_stream(10**5))
    dense = weighted_race(chi4(), 0.5, 10**5, checkpoints=primes)
    for i in range(0, len(primes), 479):
        (x, value), = _values_at(0.5, [primes[i]])
        assert dense.points[i].x == x
        assert dense.points[i].value == value


class _PlusOneAtPrimes:
    """A weight of +1 at every prime, which no character is: a test double for the
    one method a race at sigma > 0 reads from its weight."""

    def values_at_primes(self, primes, out=None):
        values = np.empty(len(primes)) if out is None else out
        values.fill(1.0)
        return values


def test_constant_sign_series_has_no_changes():
    report = detect_sign_changes(weighted_race(_PlusOneAtPrimes(), 0.5, 2000))
    assert report.change_count == 0
    assert report.final_sign == 1
    assert report.first_positive_x == 2


def test_checkpoint_refinement_leaves_changes_alone():
    c4 = chi4()
    base = detect_sign_changes(weighted_race(c4, 0.0, 30_000))
    for cps in ([30_000], [7, 100, 29_999], list(range(1000, 30_001, 1000))):
        refined = detect_sign_changes(weighted_race(c4, 0.0, 30_000, checkpoints=cps))
        assert refined.change_count == base.change_count
        assert refined.change_locations == base.change_locations


def test_prefix_consistency():
    c4 = chi4()
    x1, x2 = 10**4, 10**5
    series = weighted_race(c4, 0.5, x2, checkpoints=[x1, x2])
    a1, a2 = series.points[0].value, series.points[1].value
    direct = weighted_race(c4, 0.5, x2, checkpoints=[x2]).final_value - weighted_race(
        c4, 0.5, x1, checkpoints=[x1]
    ).final_value
    assert abs((a2 - a1) - direct) <= 2.0 * series.running_error


def test_compensated_accuracy_sigma1_1e6():
    series = weighted_race(chi4(), 1.0, 10**6, checkpoints=[10**6])
    oracle = mp_race(1.0, [10**6], dps=45)[0]
    assert abs(series.final_value - oracle) < 1e-12


def test_extended_precision_route_agrees():
    pts = [100, 10_000]
    ours = _values(weighted_race(chi4(), 0.5, 10_000, checkpoints=pts))
    theirs = mp_race(0.5, pts, dps=45)
    for (x, v), ref in zip(ours, theirs):
        assert abs(v - ref) < 1e-14


@pytest.mark.parametrize("d", [-4, -3, 5, 8, -8, 12, -7, -9995])
def test_race_values_lie_within_their_error_bounds(d):
    # every checkpoint and sign-event value to 10^5 lies within its own error_bound
    # of a 40-digit sum over trial-division primes and sympy's Kronecker symbol
    sigmas, chi = [0.3, 0.55, 1.0], kronecker_periodic(d)
    w = chi4() if d == -4 else _domain_character(d)  # cached: the domain test builds -9,995 too
    for sigma, series in zip(sigmas, race_scan(w, sigmas, 10**5)):
        reported = sorted(series.points + series.sign_events, key=lambda p: p.x)
        for p, ref in zip(reported, mp_race(sigma, [p.x for p in reported], dps=40, chi=chi)):
            assert abs(p.value - ref) <= p.error_bound, (d, sigma, p, ref)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=2, max_value=10**6),
)
def test_monotone_domination(s1, s2, p):
    lo, hi = min(s1, s2), max(s1, s2)
    assert p ** (-hi) <= p ** (-lo)


def test_running_error_monotone_and_zero_at_sigma0():
    series = weighted_race(chi4(), 0.5, 10**5)
    errs = [p.error_bound for p in series.points]
    assert all(b >= a for a, b in zip(errs, errs[1:]))
    assert weighted_race(chi4(), 0.0, 10**5).running_error == 0.0


def test_validation_errors():
    c4 = chi4()
    with pytest.raises(ValidationError):
        weighted_race(c4, -0.1, 100)
    with pytest.raises(ValidationError):
        weighted_race(c4, 1.5, 100)
    with pytest.raises(ValidationError):
        weighted_race(c4, 0.5, 100, checkpoints=[50, 200])
    with pytest.raises(ValidationError):
        weighted_race(c4, 0.5, 100, checkpoints=[50, 50])
    with pytest.raises(ValidationError):
        weighted_race(c4, 0.5, 0)


def test_default_checkpoints_scheme():
    cps = default_checkpoints(10**4)
    assert cps[0] >= 2
    assert cps[-1] == 10**4
    for d in (10, 100, 1000, 10**4):
        assert d in cps
    assert list(cps) == sorted(set(cps))
    assert default_checkpoints(100) == (2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 15, 18, 21, 24, 27, 32,
                                        37, 42, 49, 56, 65, 75, 87, 100)
    assert default_checkpoints(1) == (1,)
    assert len(default_checkpoints(10**12)) == 184
    for x_max in (2, 9, 10, 11, 10**6 + 1, 10**12 - 1, 10**12):
        cps = default_checkpoints(x_max)
        assert all(a < b for a, b in zip(cps, cps[1:])), x_max
        assert cps[-1] == x_max
        assert {10**j for j in range(1, 13) if 10**j <= x_max} <= set(cps), x_max


def test_two_runs_give_the_same_bits():
    c4 = chi4()
    a = weighted_race(c4, 0.5, 10**6)
    b = weighted_race(c4, 0.5, 10**6)
    assert a.final_value == b.final_value
    assert a.running_error == b.running_error
    assert [(p.x, p.value, p.error_bound) for p in a.points] == [
        (p.x, p.value, p.error_bound) for p in b.points
    ]
    assert a.sign_events == b.sign_events


# terms of mixed sign over 2^-60 .. 2^60, terms up to 2^1000, and terms below
# 2^-1000, subnormals included: a list with all three spans 2,000 binary orders
_MIXED = st.builds(
    math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=-60, max_value=60)
)
_WIDE = st.floats(min_value=-(2.0**1000), max_value=2.0**1000)
_TINY = st.floats(min_value=-(2.0**-1000), max_value=2.0**-1000)
_TILE = (1 << 15) + 123  # tiles straddle the 2^15-term blocks that the walks cut


def _run(n):
    """n mixed-sign terms, their sizes in [2^-59, 2)."""
    return [(-1) ** k * math.ldexp(1.0 + k / n, -(k % 60)) for k in range(n)]


def _tiled(*exponents):
    """Tiles of _TILE mixed-sign terms, tile i scaled by 2^exponents[i] (None: zeros)."""
    tile = _run(_TILE)
    return [0.0 if e is None else math.ldexp(v, e) for e in exponents for v in tile]


def _span(binades):
    """2^15 terms from [1, 2) to [2^(binades - 1), 2^binades), so h = -52: one top,
    and terms in [1, 2) whose residuals on the first grid, 2^(binades - 36), are
    odd multiples of 2^-52 just below half that grid. At 23 binades that grid is
    2^(h + 39), the last, and the residuals sum to under 2 = 2^(h + 53); at 24
    they sum to near 4, which needs 54 bits, so a second grid must follow."""
    half = 2.0 ** (binades - 37)
    return [2.0 ** (binades - 1)] + [1.0 + half - (2 * k + 1) * 2.0**-52 for k in range(_BLOCK - 1)]


@settings(max_examples=500, deadline=None)
@given(st.lists(_MIXED | _WIDE, max_size=40), st.integers(min_value=0, max_value=40))
@example([], 0)
@example([0.0], 0)
@example([-0.0], 0)
@example([0.0, -0.0], 0)
@example([-0.0, -0.0], 0)
@example([1.5], 0)
@example([1e16, 1.0, -1e16, 2.0**-60], 0)
@example([1e16, 1.0, -1e16, 2.0**-60, 1e16, 1.0, -1e16, 2.0**-60], 0)
@example([1.0, 2.0**-53], 0)  # a tie: rounds half to even
@example([1.0, 2.0**-53, 2.0**-105], 0)  # just above the tie
@example([2.0**1000, 2.0**-100], 0)  # 31 grids, from 2^965 down to 2^-115
@example([5e-324, -5e-324, 1.0], 1)
@example([5e-324] * 3 + [-(2.0**-1070)], 0)  # all subnormal, and so is the sum
@example([0.0, 1.0, -0.0, 2.0**-40, -0.0], 1)  # zeros drop out of the least term
@example([math.pi], 0)  # one term
@example([-5e-324], 0)
@example(_run(1 << 15), 0)  # one whole block
def test_exact_sum_matches_fsum(values, cancel):
    # the units rounded by int division have math.fsum's bits, but for the
    # sign of a zero sum: equal nonzero floats are equal bit for bit. The sum
    # of |x| is np.sum's, bit for bit
    values = values + [-v for v in values[:cancel]]
    x = np.array(values, dtype=np.float64)
    units, abs_sum, top = _exact_sums(x)
    assert abs_sum.hex() == float(np.sum(np.abs(x))).hex()
    assert units / _UNIT == math.fsum(values)
    assert top == max(map(abs, values), default=0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MIXED | _WIDE | _TINY, max_size=40), st.lists(st.integers(0, 40), max_size=4))
@example(_tiled(-20, -1040), [_TILE // 2, _TILE + 5])
@example(_span(23), [])  # one extraction, and residual sums reach 2^(h + 53)
@example(_span(24), [])  # a second extraction: after one, residual sums need 54 bits
@example(_span(24)[::-1] + _span(23), [1, 1 << 15])  # both, with one-term cuts
@example([1.0, 5e-324, -(2.0**-600)], [])  # the least term is subnormal: h = -1074
@example([0.0, 3 * 5e-324, -0.0, 2.0**-1060, 0.0, -(2.0**-1073)], [2])  # zeros and tiny terms
@example(_run(1 << 15), [])  # one whole block
@example(_run((1 << 15) + 1), [1 << 15])  # a one-term second block
@example(_tiled(0, 40), [])  # past 2^15 terms, each block on its own grid
@example(_tiled(-30, 0, 45, -60), [])  # past 3 * 2^15 terms
@example(_tiled(-20, 40) + [-v for v in _tiled(40)], [])  # 2^40 tiles cancel across blocks
@example(_tiled(3, -20) + [-v for v in _tiled(3, -20)], [])  # the list cancels to exact zero
@example(_tiled(10, None, None, -10), [])  # an all-zero block
@example(_tiled(0, -1000), [])  # one block whose grids reach the 2^-1074 floor
@example(_tiled(-1040), [])  # a tile at the floor: its first grid is 2^-1074
def test_exact_units_add_over_cuts(values, cuts):
    # cut every 2^15 terms, as the walks cut, a list's blocks add up to its exact
    # rational sum in 2^-1074, and so do the pieces of any further cut; each
    # block's sum of |x| is np.sum's and its top is its max |x|
    x = np.array(values, dtype=np.float64)
    edges = range(0, len(x), _BLOCK)
    bounds = sorted({*edges, *(min(c, len(x)) for c in cuts), len(x)})
    exact = sum(map(Fraction, values)) * 2**1074
    assert sum(_exact_sums(x[a:b])[0] for a, b in zip(bounds, bounds[1:])) == exact
    blocks = [x[a : a + _BLOCK] for a in edges] or [x]
    total = 0
    for blk in blocks:
        units, abs_sum, top = _exact_sums(blk)
        total += units
        assert abs_sum.hex() == float(np.sum(np.abs(blk))).hex()
        assert top == float(np.max(np.abs(blk), initial=0.0))
    assert total == exact


def test_exact_units_declines_only_non_finite_values_and_huge_tops():
    # a top of 2^1007 or more, an inf or a nan would take the first grid's S past
    # the largest float; one block is 2^15 terms, and a longer x gives no sum
    for bad in ([2.0**1007, 1.0], [-(2.0**1007)], [1.0, math.inf], [-math.inf], [math.nan, 1.0],
                [2.0, -math.nan], [2.0**1007, 1.0, -(2.0**1007)]):
        with pytest.raises(OverflowError):
            _exact_sums(np.array(bad))
    top = math.nextafter(2.0**1007, 0.0)
    assert _exact_sums(np.array([top, 5e-324, -top]))[0] == 1
    assert _exact_sums(np.array([])) == (0, 0.0, 0.0)
    with pytest.raises(ValueError, match="32768"):
        _exact_sums(np.ones(_BLOCK + 1))


def test_exact_sum_matches_fsum_on_race_blocks(monkeypatch):
    # _exact_sums makes its rows with np.empty; here they start as NaN, so stale
    # memory cannot change a bit (np.full does not call np.empty through np)
    c4, made = chi4(), []

    def nan_rows(shape, dtype=np.float64):
        made.append(shape)
        return np.full(shape, np.nan, dtype)

    for primes in iter_prime_arrays(10**6):
        for sigma in (0.3, 0.55, 0.95):
            t = c4.values_at_primes(primes) * primes.astype(np.float64) ** -sigma
            for off in range(0, len(t), 1 << 14):
                blk = t[off : off + (1 << 14)]
                for part in (blk, blk[:1], blk[:777], np.abs(blk)):
                    with monkeypatch.context() as m:
                        m.setattr(np, "empty", nan_rows)
                        units, abs_sum, top = _exact_sums(part)
                    assert made.pop() == (2, len(part))
                    assert units / _UNIT == math.fsum(part.tolist())
                    assert abs_sum.hex() == float(np.sum(np.abs(part))).hex()
                    assert top == float(np.max(np.abs(part)))


@pytest.mark.parametrize("d", [5, -3])
def test_race_scan_matches_one_sigma_races(d):
    # the checkpoints straddle the first segment boundary at 2 + 2^22
    w = character_from_discriminant(d)
    sigmas = [0.0, 0.5, 0.7]
    cps = [1000, 4194303, 4194305]
    scan = race_scan(w, sigmas, 4_200_000, checkpoints=cps)
    assert len(scan) == len(sigmas)
    for sigma, series in zip(sigmas, scan):
        single = weighted_race(w, sigma, 4_200_000, checkpoints=cps)
        assert [p.x for p in series.points] == cps
        assert repr(series) == repr(single)  # repr keeps every float's bits
    assert race_scan(w, [], 4_200_000) == []


def test_race_scan_takes_a_one_shot_sigma_iterable():
    scan = race_scan(chi4(), iter([0.0, 0.5]), 10**4)
    assert [repr(s) for s in scan] == [repr(weighted_race(chi4(), s, 10**4)) for s in (0.0, 0.5)]


def test_race_scan_keeps_each_sigmas_sign(monkeypatch):
    # a segment boundary at 26864 falls inside the first positive run of the
    # sigma = 0 race (26861 <= x < 26879), where the sigma = 0.5 race is negative
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 26862)
    scan = race_scan(chi4(), [0.0, 0.5], 10**5)
    assert [e.x for e in scan[0].sign_events] == [26861, 26879]
    assert scan[1].sign_events == []
    for sigma, series in zip([0.0, 0.5], scan):
        assert repr(series) == repr(weighted_race(chi4(), sigma, 10**5))


def test_one_walk_over_the_primes():
    # the package sieves in sieve.iter_segments only; a sum over primes looks up
    # w(p) in races.walk only, and the race's sigma = 0 fold takes the masks
    # through races._fold_mask, from race_scan only. So a second prime walk added
    # anywhere in the package fails here
    allowed = {
        "iter_segments": {"sieve.iter_prime_arrays", "sieve.prime_count", "races.race_scan"},
        "iter_prime_arrays": {"races.walk", "sieve.prime_stream", "cli.cmd_sieve"},
        "_prime_blocks": set(),
        "_fold_mask": {"races.race_scan"},
        "values_at_primes": {"races.walk"},
    }
    found = {name: set() for name in allowed}
    for path in Path(races.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = path.stem + (f".{top.name}" if isinstance(top, ast.FunctionDef) else "")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in found:
                        found[name].add(owner)
    assert found == allowed


def _attribute_calls(match) -> Counter:
    """Calls x.attr in the package whose ast.Attribute `match` accepts, per top-level owner."""
    found = Counter()
    for path in Path(races.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            owner = path.stem + (f".{top.name}" if named else "")
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and match(node.func)):
                    found[owner] += 1
    return found


def test_one_abs_pass():
    # every sum of |x| behind a radius comes out of races._exact_sums, from the
    # |x| row its extraction reads; only the lemma's sum of |lg|, whose lg has
    # no exact sum, takes its own np.abs pass. So a second |x| pass fails here
    found = _attribute_calls(lambda f: f.attr in ("abs", "absolute", "fabs"))
    assert found == {"races._exact_sums": 1, "lfun._char_prime_sum": 1}


def test_one_power_kernel():
    # every array power w(n) n^-sigma of the package is formed by races._terms,
    # so a second np.exp site fails here
    found = _attribute_calls(lambda f: f.attr == "exp" and getattr(f.value, "id", "") == "np")
    assert found == {"races._terms": 1}


def test_one_prefix_sum_site():
    # a race block's per-prime prefix sums are formed in one place, the formed-block
    # path of _RaceState.add_block (the bound before it adds up only chunk sums, with
    # np.add.accumulate); mellin-check's running A is the package's other np.cumsum
    found = _attribute_calls(lambda f: f.attr == "cumsum")
    assert found == {"races._RaceState": 1, "lfun.mellin_identity_check": 1}


def test_one_chunk_bound_and_one_period_row():
    # both race folds bound their blocks by races._chunk_bounds, the one np.add.accumulate
    # (np.maximum.accumulate is the sign scan's), with no np.add.reduceat; the mask fold
    # and the walk over n read w from races._period_row, the one np.tile. So a second
    # bound or a second period row fails here
    found = _attribute_calls(
        lambda f: f.attr == "accumulate" and getattr(f.value, "attr", "") == "add")
    assert found == {"races._chunk_bounds": 1}
    assert _attribute_calls(lambda f: f.attr == "reduceat") == {}
    found = _attribute_calls(lambda f: f.attr == "tile" and getattr(f.value, "id", "") == "np")
    assert found == {"races._period_row": 1}


def _assert_same_repr(got, want) -> None:
    """repr(got) == repr(want), failing with the first difference: pytest's own
    diff of two megabyte-long reprs runs for minutes."""
    got, want = repr(got), repr(want)
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got + "$", want + "#")) if a != b)
        pytest.fail(f"reprs differ at {i}: {got[max(i - 60, 0) : i + 60]!r} "
                    f"!= {want[max(i - 60, 0) : i + 60]!r}")


# blocks of the lengths around a 128-term chunk and a whole block, shaped to
# land near 0 or +-value_max: flat, a tent per chunk that returns to its base,
# a ramp of at most 63 terms that falls back at once, noise, or zeros
_SHAPED_BLOCKS = st.lists(
    st.tuples(st.sampled_from([1, 127, 128, 129, _BLOCK]) | st.integers(1, 300),
              st.sampled_from(["flat", "tent", "ramp", "noise", "zeros"]),
              st.sampled_from(["zero", "top", "bottom"]),
              st.integers(-2, 2) | st.sampled_from([-64, -63, -62, 62, 63, 64]),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=6)


def _aimed(state, n, shape, aim, nudge, seed):
    """n terms whose values go from the race's prefix to 0 or +-value_max and miss
    it by nudge steps: one term at sigma = 0, where terms are -1, 0 or 1."""
    prefix, exact = state.units / _UNIT, state.sigma == 0.0
    target = {"zero": 0.0, "top": state.value_max, "bottom": -state.value_max}[aim]
    step = 1.0 if exact else 2.0**-40 * max(1.0, abs(prefix), abs(target))
    gap, x = target + nudge * step - prefix, np.zeros(n)
    # h terms of size d rise to the aim; at sigma = 0 only |gap| unit terms do
    h = {"flat": n, "tent": min(64, n // 2), "ramp": min(63, n)}.get(shape, n)
    h = max(1, min(h, int(abs(gap))) if exact else h)
    d = np.sign(gap) if exact else gap / h
    if shape == "flat":
        x[:h] = d
    elif shape == "tent":  # h terms up, then h down, in every 128-term chunk
        j = np.arange(n) % 128
        x[j < h], x[(j >= h) & (j < 2 * h)] = d, -d
    elif shape == "ramp":
        x[:h], x[h:] = d, -d
    elif shape == "noise":
        rng = np.random.default_rng(seed)
        x = rng.integers(-1, 2, n) * 1.0 if exact else rng.uniform(-1, 1, n) * (abs(gap) + step)
    return x


class TestWorkingSet:
    """One set of buffers per walk, and values formed only where a block may matter."""

    SIGMAS = [0.0, 0.02, 0.1, 0.55, 1.0]

    @staticmethod
    def _character(d):
        return chi4() if d == -4 else character_from_discriminant(d)

    @pytest.mark.parametrize("d", [-4, -3, 5, 8, -7])
    def test_checkpoint_at_every_prime_keeps_every_bit(self, d):
        # chi_4 and d = 8 vanish at 2, so the race enters its first prime with carry 0;
        # d = -7 changes sign at x = 5 at every sigma (events with error bounds)
        w, cps = self._character(d), list(prime_stream(10**5))
        scan = race_scan(w, self.SIGMAS, 10**5, checkpoints=cps)
        _assert_same_repr(scan, race_scan_fresh_arrays(w, self.SIGMAS, 10**5, cps))
        if d == -7:
            assert all(s.sign_events[0].x == 5 for s in scan)

    def test_sign_changes_at_small_sigma_keep_every_bit(self):
        # d = 8 first changes sign past 11.1e6, in the third segment: 206, 608 and
        # 22 times at sigma = 0, 0.02 and 0.1, with error bounds at sigma > 0
        w = character_from_discriminant(8)
        scan = race_scan(w, self.SIGMAS, 12_000_000)
        _assert_same_repr(
            scan, race_scan_fresh_arrays(w, self.SIGMAS, 12_000_000, default_checkpoints(12_000_000)))
        assert [len(s.sign_events) > 0 for s in scan] == [True, True, True, False, False]

    @pytest.mark.parametrize("d", [-4, -3, 5, 8, -7])
    def test_segment_boundary_keeps_every_bit(self, d):
        # the first segment is [2, 2 + 2^22): checkpoints on both sides of its end,
        # past about nine blocks that mostly cannot flip the carried sign
        w = self._character(d)
        cps = [1000, 4194300, 4194304, 4194305, 4194306, 4194307, 4194311, 4_200_000]
        _assert_same_repr(race_scan(w, self.SIGMAS, 4_200_000, checkpoints=cps),
                          race_scan_fresh_arrays(w, self.SIGMAS, 4_200_000, cps))

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_zero_carry_blocks_keep_every_bit(self, sigma):
        # whole blocks at 0 keep the carry at 0; then blocks that cross 0, that
        # return to it, that stay below it and that are the first to pass it
        blocks = [([2, 3, 5], [0.0, 0.0, 0.0]), ([7, 11], [0.0, 0.0]),
                  ([13, 17, 19], [0.0, -0.5, 0.5]), ([23, 29], [-1.0, 0.25]),
                  ([31, 37], [0.25, 0.25]), ([41, 43, 47], [0.0, 1.0, -3.0])]
        cps = (2, 3, 7, 11, 13, 17, 19, 29, 31, 37, 43, 47)
        new, fresh = races._RaceState(sigma, cps), fresh_arrays_race_state(sigma, cps)
        for blk, contrib in blocks:
            new.add_block(*_prepared(blk, contrib, sigma))
            fresh.add_block(*_fresh_prepared(blk, contrib, sigma))
        series = new.series()
        assert repr(series) == repr(fresh.series())
        signs = [0, 0, 0, 0, 0, -1, -1, -1, -1, -1, 1, -1]
        assert [p.effective_sign for p in series.points] == signs
        assert series.first_positive_x == 43

    def test_sign_scan_runs_only_where_the_sign_may_flip(self, monkeypatch):
        # chi_4 at sigma = 0.5 is negative past 3 to 10^7 (Chebyshev's bias), so only
        # the first of its 23 blocks, entered with carry 0, is scanned
        scanned = []
        real_scan = races._block_sign_scan

        def counting_scan(avals, carry):
            scanned.append(len(avals))
            return real_scan(avals, carry)

        monkeypatch.setattr(races, "_block_sign_scan", counting_scan)
        (series,) = race_scan(chi4(), [0.5], 10**7, checkpoints=(10**7,))
        assert scanned == [1 << 15] and series.sign_events == [] and series.final_sign == -1

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0.0, 0.5]), _SHAPED_BLOCKS)
    @example(0.5, [(200, "flat", "bottom", -2, 0), (200, "flat", "zero", -1, 0),
                   (128, "tent", "bottom", -1, 0)])  # a tent's dip passes value_max by 1 step
    @example(0.5, [(200, "flat", "zero", -1, 0), (128, "tent", "zero", 1, 0)])  # a peak crosses 0
    @example(0.0, [(200, "flat", "zero", -62, 0), (129, "ramp", "zero", 1, 0)])  # term 63 crosses 0
    @example(0.0, [(200, "flat", "zero", 62, 0), (129, "ramp", "zero", -1, 0)])  # and from above
    @example(0.0, [(300, "flat", "zero", -63, 0), (128, "tent", "zero", 1, 0),
                   (1, "flat", "zero", 0, 0)])  # a tent's peak at term 64 crosses 0
    @example(0.0, [(_BLOCK, "noise", "zero", 0, 7), (_BLOCK, "flat", "zero", 1, 0),
                   (_BLOCK, "zeros", "zero", 0, 0), (127, "ramp", "zero", 0, 0)])
    def test_bound_first_fold_keeps_every_bit(self, sigma, specs):
        # the race that forms a block's values only where its bound may matter
        # against one that forms every block's, on blocks that land a few steps
        # either side of 0 or of value_max, with checkpoints in every block
        cps, x = [], 2
        for n, *_ in specs:
            cps, x = cps + [x, x + n // 2, x + n - 1], x + n
        cps = tuple(sorted(set(cps)))
        new, fresh = races._RaceState(sigma, cps), fresh_arrays_race_state(sigma, cps)
        x = 2
        for n, *shape in specs:
            blk, contrib = np.arange(x, x + n), _aimed(new, n, *shape)
            new.add_block(*_prepared(blk, contrib, sigma))
            fresh.add_block(*_fresh_prepared(blk, contrib, sigma))
            x += n
        assert repr(new.series()) == repr(fresh.series())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_block_with_a_non_finite_term_is_formed(self, monkeypatch, bad):
        # no walk makes a non-finite term (|w(p) p^-sigma| <= 1), but a hand-made
        # nan or infinite one still stops the fold: at sigma = 0 the block's sum, not
        # finite, has no units, and at sigma = 0.5 the exact sum declines the block.
        # Entered at -100 with carry -1, the block of ones and zeros before it is
        # folded by its sum alone at sigma = 0, and formed at 0.5 (it passes value_max)
        formed, real_cumsum = [], np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda x: formed.append(len(x)) or real_cumsum(x))
        for sigma, folded in ((0.0, [100]), (0.5, [100, 3])):
            formed.clear()
            state = races._RaceState(sigma, ())
            state.add_block(*_prepared(range(2, 102), [-1.0] * 100, sigma))
            state.add_block(*_prepared(range(102, 105), [1.0, 0.0, -1.0], sigma))
            assert formed == folded
            with pytest.raises((ValueError, OverflowError)):
                state.add_block(*_prepared(range(105, 108), [1.0, bad, -1.0], sigma))

    def test_bias_grid_forms_few_blocks(self, monkeypatch):
        # chi_4 on the bias-scan grid to 10^7 has 9 x 21 blocks: 72 form their
        # prefix sums, and the sign scan still meets only each sigma's first block
        formed, scanned = [], []
        real_cumsum, real_scan = np.cumsum, races._block_sign_scan
        monkeypatch.setattr(np, "cumsum", lambda x: formed.append(len(x)) or real_cumsum(x))
        monkeypatch.setattr(races, "_block_sign_scan",
                            lambda avals, carry: scanned.append((len(avals), carry))
                            or real_scan(avals, carry))
        race_scan(chi4(), parse_grid("0.55:0.95:0.05"), 10**7, checkpoints=())
        assert len(formed) <= 72 and scanned == [(1 << 15, 0)] * 9

    def test_block_major_walk_keeps_every_bit(self):
        # every sigma through a block before the next: the second segment is one
        # short block, and checkpoints sit inside blocks, on both sides of block
        # edges and of the segment seam (the first segment is [2, 2 + 2^22))
        limit = (1 << 22) + 3 * _BLOCK + 5
        first, second = (a.tolist() for a in iter_prime_arrays(limit))
        assert len(second) % _BLOCK and first[-1] < (1 << 22) + 2 <= second[0]
        cps = {1000, 4194305, 4194306, second[0] - 1, second[0], second[1], second[-1] + 1, limit}
        for primes in (first, second):
            for edge in range(_BLOCK, len(primes), _BLOCK):
                cps |= {primes[edge - 1], primes[edge] - 1, primes[edge], primes[edge + 100] + 1}
        for primes in (first[-3:], second[-3:]):
            cps |= set(primes)
        sigmas, cps = [0.0, 0.02, 0.55, 1.0], sorted(cps)
        for d in (-4, 8):
            w = self._character(d)
            _assert_same_repr(race_scan(w, sigmas, limit, checkpoints=cps),
                              race_scan_fresh_arrays(w, sigmas, limit, cps))

    def test_sigma0_race_memory_does_not_grow(self):
        # a sigma = 0 race needs one segment's mask, which becomes its weights, a
        # block-long weight row, and block-long prefix sums in the few blocks that
        # form them: 3.9 MiB, against 5.9 with a segment-long weight row, 5.0 with
        # a segment's primes and one block's primes and w(p), 6.5 with a segment's
        # w(p) and the first segment copied to prepend 2, 8.1 with a segment-long
        # buffer and 10.7 with new arrays per segment
        tracemalloc.start()
        try:
            race_scan(chi4(), [0.0], 10**7, checkpoints=(10**7,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20

    def test_sigma_grid_race_memory_is_bounded(self):
        # the bias-scan grid: one segment's primes, one block's primes, w(p) and
        # log p, and per sigma and block a power row and two exact-sum rows: 5.0 MiB,
        # against 5.8 with one (3, 2^15) buffer for the whole walk, 9.1 with a
        # segment's w(p) and log p and 13.2 with segment-long power and prefix-sum buffers
        tracemalloc.start()
        try:
            race_scan(chi4(), parse_grid("0.55:0.95:0.05"), 10**7, checkpoints=(10**7,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * 2**20
