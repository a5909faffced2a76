import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerace.characters import (
    build_character,
    character_from_discriminant,
    character_from_table,
    chi4,
    kronecker_symbol,
)
from primerace.errors import ValidationError

from oracles import chi4_value, kronecker_ref

FUNDAMENTAL = [-4, -3, 5, 8, -8, 12]


def at(w, n):
    """w(n) for one integer, through the package's table lookup."""
    return float(w.values_at_primes(np.array([n]))[0])


def test_chi4_defining_values():
    w = chi4()
    assert at(w, 1) == 1
    assert at(w, 3) == -1
    assert at(w, 2) == 0


def test_chi4_periodicity():
    w = chi4()
    n = np.arange(1, 10_001)
    vals = w.values_at_primes(n)  # table lookup works for any integers
    assert np.array_equal(vals, w.values_at_primes(n + 4))


@pytest.mark.parametrize("d", FUNDAMENTAL + [-7, 1009, -9991])
def test_lookup_in_a_reused_row_is_the_table(d):
    # p mod q is formed in the bytes of w(p) itself, and a reused row holding
    # the last block's values changes nothing: w(n) is period[n mod q]
    w, row = character_from_discriminant(d), np.full(1 << 15, np.nan)
    for lo in (1, 10**12 - (1 << 15), -(10**6)):
        n = np.arange(lo, lo + (1 << 15), dtype=np.int64)
        got = w.values_at_primes(n, out=row)
        assert got is row
        assert np.array_equal(got, w.period[n % w.modulus].astype(np.float64))


def test_kronecker_examples():
    assert kronecker_symbol(-4, 3) == -1
    for d in (-8, -4, -3, 5, 8, 12, 21):
        assert kronecker_symbol(d, 1) == 1
    assert kronecker_symbol(5, 5) == 0


def test_kronecker_against_sympy():
    for d in FUNDAMENTAL + [-7, 13, -11, 28]:
        for n in range(0, 200):
            assert kronecker_symbol(d, n) == kronecker_ref(d, n), (d, n)


def test_kronecker_minus4_equals_chi4():
    w = character_from_discriminant(-4)
    c = chi4()
    for n in range(1, 1001):
        assert at(w, n) == at(c, n) == chi4_value(n)


def test_build_character_specs():
    assert build_character("kronecker:-4").modulus == 4
    w = build_character("table:4:0,1,0,-1")
    assert [at(w, n) for n in (1, 2, 3, 4)] == [1, 0, -1, 0]
    with pytest.raises(ValidationError):
        build_character("gauss:7")
    with pytest.raises(ValidationError):
        build_character("table:4:0,1,0")


def test_negative_arguments_rejected():
    with pytest.raises(ValidationError, match=r"^kronecker_symbol requires n >= 0$"):
        kronecker_symbol(5, -1)
    with pytest.raises(ValidationError, match=r"^partial_sum requires x >= 0$"):
        chi4().partial_sum(-1)


@pytest.mark.parametrize("values", [[0, 1, 0, 2**70], [0, 1, 0, 300], [0, 1.5, 0, -1]])
def test_table_values_checked_before_the_int8_cast(values):
    # an int8 cast overflows on 2^70 and 300, and truncates 1.5 to 1
    with pytest.raises(ValidationError, match=r"^table mod 4: character values must lie in"):
        character_from_table(4, values)


def test_repr_names_the_construction():
    assert repr(chi4()) == "DirichletWeight(table mod 4)"
    assert repr(character_from_discriminant(-4)) == "DirichletWeight(kronecker d=-4)"


def test_equality_compares_modulus_and_period():
    # however it was built: a table and the Kronecker symbol give one character
    assert chi4() == character_from_discriminant(-4) == build_character("table:4:0,1,0,-1")
    assert chi4() != character_from_discriminant(-3)
    assert chi4() != "kronecker:-4"


def test_principal_table_rejected():
    with pytest.raises(ValidationError, match="non-principal"):
        character_from_table(4, [0, 1, 0, 1])


def test_multiplicativity_violation_reports_witness():
    with pytest.raises(ValidationError, match=r"witness pair \(m, n\) = \(2, 2\)"):
        character_from_table(5, [0, 1, 1, -1, -1])


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_blocked_products_check_reports_the_first_witness(rows, monkeypatch):
    # the check walks the q x q products in blocks of rows; its witness must be
    # the first one of the whole matrix in row-major order
    q = 101
    table = np.array([kronecker_symbol(q, r) for r in range(q)], dtype=np.int8)
    other = next(r for r in range(71, q) if table[r] != table[70])
    table[[70, other]] = table[[other, 70]]  # keeps w(1), the zeros and the sum
    m = np.arange(1, q + 1)
    ok = table[np.outer(m, m) % q] == np.outer(table[m % q], table[m % q])
    i, j = np.argwhere(~ok)[0]
    monkeypatch.setattr("primerace.characters._ROWS", rows)
    with pytest.raises(ValidationError, match=rf"witness pair \(m, n\) = \({m[i]}, {m[j]}\)$"):
        character_from_table(q, table)


def test_gcd_vanishing_enforced():
    with pytest.raises(ValidationError, match="vanish"):
        character_from_table(4, [0, 1, 1, -1])


@pytest.mark.parametrize("d", [0, 1, -1, 2, 4, 6, 9, 16, 25, -100])
def test_non_fundamental_discriminants_rejected(d):
    with pytest.raises(ValidationError):
        character_from_discriminant(d)


@pytest.mark.parametrize("d", FUNDAMENTAL)
def test_fundamental_characters_survive_all_invariants(d):
    w = character_from_discriminant(d)
    q = w.modulus
    assert q == abs(d)
    assert int(w.period.sum()) == 0
    for n in range(1, 4 * q + 1):
        assert at(w, n) == at(w, n + q)
        assert (at(w, n) == 0) == (math.gcd(n, q) > 1)


def test_weight_at_examples():
    w = chi4()
    assert at(w, 15) == -1  # chi4(3) * chi4(5) = (-1)(+1)
    assert at(w, 1) == 1
    assert at(w, 0) == at(w, 4) == 0


def test_partial_sum_examples():
    w = chi4()
    assert w.partial_sum(4) == 0
    assert w.partial_sum(3) == 0
    assert w.partial_sum(5) == 1


@pytest.mark.parametrize("d", FUNDAMENTAL)
def test_partial_sums_bounded_to_1e6(d):
    w = character_from_discriminant(d)
    n = np.arange(1, 10**6 + 1, dtype=np.int64)
    running = np.cumsum(w.period[n % w.modulus].astype(np.int64))
    assert int(np.abs(running).max()) <= w.modulus
    # spot-check the O(1) formula against the exact cumulative sums
    for x in (1, 17, 1000, 999_983):
        assert w.partial_sum(x) == int(running[x - 1])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(FUNDAMENTAL),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_complete_multiplicativity(d, m, n):
    w = character_from_discriminant(d)
    assert at(w, m * n) == at(w, m) * at(w, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**4))
def test_vanishing_iff_shared_factor(n):
    w = chi4()
    assert (at(w, n) == 0) == (math.gcd(n, 4) > 1)
