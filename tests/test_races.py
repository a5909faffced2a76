import ast
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primerace.characters import DirichletWeight, character_from_discriminant, chi4
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
    fresh_arrays_race_state,
    mp_race,
    race_scan_fresh_arrays,
    race_sigma0_brute,
    race_sigma1_fraction,
    sign_change_walk,
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


def test_race_at_points_examples():
    (x, a10), = _values_at(0.5, [10])
    assert x == 10
    assert abs(a10 - (-(3 ** -0.5) + 5 ** -0.5 - 7 ** -0.5)) < 1e-15
    assert _values_at(0.5, [2]) == [(2, 0.0)]


def test_race_at_points_matches_race_checkpoints():
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
    # exact checkpoints read the block's prefix sum instead of re-summing it,
    # so the elements handed to fsum grow linearly with the checkpoint count
    primes = list(prime_stream(10**5))
    summed = []
    real_fsum = math.fsum

    def counting_fsum(xs):
        xs = list(xs)
        summed.append(len(xs))
        return real_fsum(xs)

    monkeypatch.setattr(races.math, "fsum", counting_fsum)
    series = weighted_race(chi4(), 0.0, 10**5, checkpoints=primes)
    monkeypatch.undo()
    assert sum(summed) <= 4 * len(primes)
    oracle = race_sigma0_brute(10**5)
    assert [(p.x, p.value) for p in series.points] == [(p, float(a)) for p, a in oracle]


def test_checkpoint_heads_are_summed_once_per_block(monkeypatch):
    # each checkpoint adds only the terms since the last one in its block, so
    # the elements handed to _exact_sums are the block sums' plus one pass
    primes = list(prime_stream(10**5))
    summed = []
    real_sums = races._exact_sums

    def counting_sums(x, *scratch):
        summed.append(len(x))
        return real_sums(x, *scratch)

    monkeypatch.setattr(races, "_exact_sums", counting_sums)
    series = weighted_race(chi4(), 0.5, 10**5, checkpoints=primes)
    monkeypatch.undo()
    assert sum(summed) <= 2 * len(primes)
    # a checkpoint's value does not depend on the checkpoints before it
    assert _values(series)[::97] == _values_at(0.5, primes[::97])
    assert series.points[-1].value == series.final_value


def _fold(blocks, checkpoints):
    """The sigma = 0.5 race of hand-made (primes, contributions) blocks."""
    state = races._RaceState(0.5, checkpoints)
    for blk, contrib in blocks:
        contrib = np.array(contrib)
        abs_weight = float(np.sum(np.abs(contrib)))
        block_sum = _exact_sums(contrib)[0] / _UNIT
        state.add_block(np.array(blk), contrib, np.cumsum(contrib), block_sum, abs_weight)
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
    # at sigma = 0 a block sum is the last entry of its integer cumsum, and a
    # checkpoint adds the exact head to the integer prefix: nothing calls fsum
    summed = []
    real_fsum = math.fsum

    def counting_fsum(xs):
        xs = list(xs)
        summed.append(len(xs))
        return real_fsum(xs)

    monkeypatch.setattr(races.math, "fsum", counting_fsum)
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


def test_checkpoint_at_every_prime_matches_single_checkpoints():
    primes = list(prime_stream(10**5))
    dense = weighted_race(chi4(), 0.5, 10**5, checkpoints=primes)
    for i in range(0, len(primes), 479):
        (x, value), = _values_at(0.5, [primes[i]])
        assert dense.points[i].x == x
        assert dense.points[i].value == value


def test_constant_sign_series_has_no_changes():
    # a weight of +1 at every prime; built directly, since the character
    # constructors reject a principal table
    w = DirichletWeight("constant", modulus=1, period=np.array([1], dtype=np.int8))
    report = detect_sign_changes(weighted_race(w, 0.5, 2000))
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


def test_worker_determinism():
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
_TILE = (1 << 15) + 123  # tiles straddle the 2^15-term sub-blocks of _exact_sums


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
@example(_tiled(0, 40), 0)  # past 2^15 terms, each sub-block on its own grid
@example(_tiled(-30, 0, 45, -60), 0)  # past 3 * 2^15 terms
@example(_tiled(-20, 40) + [-v for v in _tiled(40)], 0)  # 2^40 tiles cancel across sub-blocks
@example(_tiled(3, -20), 2 * _TILE)  # the whole list cancels to exact zero
@example(_tiled(10, None, None, -10), 0)  # an all-zero sub-block
@example(_tiled(0, -1000), 0)  # one sub-block whose grids reach the 2^-1074 floor
@example(_tiled(-1040), 0)  # a tile at the floor: its first grid is 2^-1074
@example([5e-324] * 3 + [-(2.0**-1070)], 0)  # all subnormal, and so is the sum
@example([2.0**1007, 1.0, -(2.0**1007)], 0)  # a top of 2^1007: declined
@example([0.0, 1.0, -0.0, 2.0**-40, -0.0], 1)  # zeros drop out of the least term
@example([math.pi], 0)  # one term
@example([-5e-324], 0)
@example(_run(1 << 15), 0)  # one whole sub-block, |x| in the scratch row
@example(_run((1 << 15) + 1), 0)  # a one-term second sub-block, |x| in a new array
def test_exact_sum_matches_fsum(values, cancel):
    # the units rounded by int division have math.fsum's bits, but for the
    # sign of a zero sum: equal nonzero floats are equal bit for bit. The sum
    # of |x| is np.sum's, bit for bit
    values = values + [-v for v in values[:cancel]]
    x = np.array(values, dtype=np.float64)
    units, abs_sum = _exact_sums(x)
    assert abs_sum.hex() == float(np.sum(np.abs(x))).hex()
    if units is None:
        assert max(map(abs, values)) >= 2.0**1007
    else:
        assert units / _UNIT == math.fsum(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MIXED | _WIDE | _TINY, max_size=40), st.lists(st.integers(0, 40), max_size=4))
@example(_tiled(-20, -1040), [_TILE // 2, _TILE + 5])
@example(_span(23), [])  # one extraction, and residual sums reach 2^(h + 53)
@example(_span(24), [])  # a second extraction: after one, residual sums need 54 bits
@example(_span(24)[::-1] + _span(23), [1, 1 << 15])  # both, with one-term cuts
@example([1.0, 5e-324, -(2.0**-600)], [])  # the least term is subnormal: h = -1074
@example([0.0, 3 * 5e-324, -0.0, 2.0**-1060, 0.0, -(2.0**-1073)], [2])  # zeros and tiny terms
@example(_run(1 << 15), [])  # one whole sub-block
@example(_run((1 << 15) + 1), [1 << 15])  # a one-term second sub-block
def test_exact_units_add_over_cuts(values, cuts):
    # the units of any cut of a list sum to the units of the whole, which are
    # its exact rational sum in 2^-1074, and the sum of |x| is np.sum's
    x = np.array(values, dtype=np.float64)
    bounds = [0, *sorted(min(c, len(x)) for c in cuts), len(x)]
    parts = [_exact_sums(x[a:b])[0] for a, b in zip(bounds, bounds[1:])]
    units, abs_sum = _exact_sums(x)
    assert sum(parts) == units == sum(map(Fraction, values)) * 2**1074
    assert abs_sum.hex() == float(np.sum(np.abs(x))).hex()


def test_exact_units_declines_only_non_finite_values_and_huge_tops():
    for bad in ([2.0**1007, 1.0], [-(2.0**1007)], [1.0, math.inf], [-math.inf], [math.nan, 1.0],
                [2.0, -math.nan]):
        assert _exact_sums(np.array(bad))[0] is None
    top = math.nextafter(2.0**1007, 0.0)
    assert _exact_sums(np.array([top, 5e-324, -top]))[0] == 1
    assert _exact_sums(np.array([])) == (0, 0.0)


def test_exact_sum_matches_fsum_on_race_blocks():
    c4, scratch = chi4(), np.full((2, 1 << 15), np.nan)
    for primes in iter_prime_arrays(10**6):
        for sigma in (0.3, 0.55, 0.95):
            t = c4.values_at_primes(primes) * primes.astype(np.float64) ** -sigma
            for off in range(0, len(t), 1 << 14):
                blk = t[off : off + (1 << 14)]
                for part in (blk, blk[:1], blk[:777], np.abs(blk)):
                    units, abs_sum = _exact_sums(part, scratch)  # as a walk calls it
                    assert units / _UNIT == math.fsum(part.tolist())
                    assert abs_sum.hex() == float(np.sum(np.abs(part))).hex()


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
    # the package sieves for a sum over primes and looks up w(p) in races.walk
    # only, so a second prime walk added anywhere in the package fails here
    allowed = {
        "values_at_primes": {"races.walk"},
        "iter_prime_arrays": {"races.walk", "sieve.prime_stream", "sieve.prime_count",
                              "cli.cmd_sieve"},
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


def test_one_abs_pass():
    # every sum of |x| behind a radius comes out of races._exact_sums, from the
    # |x| row its extraction reads; only the lemma's sum of |lg|, whose lg has
    # no exact sum, takes its own np.abs pass. So a second |x| pass fails here
    found = Counter()
    for path in Path(races.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = path.stem + (f".{top.name}" if isinstance(top, ast.FunctionDef) else "")
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("abs", "absolute", "fabs")):
                    found[owner] += 1
    assert found == {"races._exact_sums": 1, "lfun._char_prime_sum": 1}


def _assert_same_repr(got, want) -> None:
    """repr(got) == repr(want), failing with the first difference: pytest's own
    diff of two megabyte-long reprs runs for minutes."""
    got, want = repr(got), repr(want)
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got + "$", want + "#")) if a != b)
        pytest.fail(f"reprs differ at {i}: {got[max(i - 60, 0) : i + 60]!r} "
                    f"!= {want[max(i - 60, 0) : i + 60]!r}")


class TestWorkingSet:
    """One set of buffers per walk, and values formed only where the sign may flip."""

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
            contrib = np.array(contrib)
            for state in (new, fresh):
                state.add_block(np.array(blk), contrib, np.cumsum(contrib),
                                _exact_sums(contrib)[0] / _UNIT, float(np.sum(np.abs(contrib))))
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
        # a sigma = 0 race needs one segment's primes, one block's primes and w(p),
        # and one block-long prefix-sum buffer: 4.8 MiB, against 6.5 with a
        # segment's w(p) and the first segment copied to prepend 2, 8.1 with a
        # segment-long buffer and 10.7 with new arrays per segment
        tracemalloc.start()
        try:
            race_scan(chi4(), [0.0], 10**7, checkpoints=(10**7,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20

    def test_sigma_grid_race_memory_is_bounded(self):
        # the bias-scan grid: one segment's primes, one block's primes, w(p) and
        # log p, and one block-long buffer shared by the nine sigmas: 5.5 MiB,
        # against 9.1 with a segment's w(p) and log p and 13.2 with segment-long
        # power and prefix-sum buffers
        tracemalloc.start()
        try:
            race_scan(chi4(), parse_grid("0.55:0.95:0.05"), 10**7, checkpoints=(10**7,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * 2**20
