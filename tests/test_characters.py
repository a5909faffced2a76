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
    general_weight,
    kronecker_symbol,
)
from primerace.errors import CapabilityError, ValidationError

from oracles import chi4_value, kronecker_ref

FUNDAMENTAL = [-4, -3, 5, 8, -8, 12]


def test_chi4_defining_values():
    w = chi4()
    assert w.at(1) == 1
    assert w.at(3) == -1
    assert w.at(2) == 0


def test_chi4_periodicity():
    w = chi4()
    n = np.arange(1, 10_001)
    vals = w.values_at_primes(n)  # table lookup works for any integers
    assert np.array_equal(vals, w.values_at_primes(n + 4))


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
        assert w.at(n) == c.at(n) == chi4_value(n)


def test_build_character_specs():
    assert build_character("kronecker:-4").modulus == 4
    w = build_character("table:4:0,1,0,-1")
    assert [w.at(n) for n in (1, 2, 3, 4)] == [1, 0, -1, 0]
    with pytest.raises(ValidationError):
        build_character("gauss:7")
    with pytest.raises(ValidationError):
        build_character("table:4:0,1,0")


def test_principal_table_rejected():
    with pytest.raises(ValidationError, match="non-principal"):
        character_from_table(4, [0, 1, 0, 1])


def test_multiplicativity_violation_reports_witness():
    with pytest.raises(ValidationError, match=r"witness pair \(m, n\) = \(2, 2\)"):
        character_from_table(5, [0, 1, 1, -1, -1])


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
        assert w.at(n) == w.at(n + q)
        assert (w.at(n) == 0) == (math.gcd(n, q) > 1)


def test_weight_at_examples():
    w = chi4()
    assert w.at(15) == -1  # chi4(3) * chi4(5) = (-1)(+1)
    assert w.at(1) == 1
    f = general_weight({2: -1.0})
    assert f.at(8) == -1.0
    with pytest.raises(ValidationError):
        w.at(0)


def test_general_weight_defaults_and_limits():
    f = general_weight({3: -1.0}, default=0.0)
    assert f.at(6) == 0.0  # unassigned prime 2 defaults to 0
    assert f.at(9) == 1.0
    g = general_weight({2: 0.5}, default=1.0, factor_limit=100)
    big_prime = 10_007
    with pytest.raises(CapabilityError):
        g.at(big_prime * big_prime)
    with pytest.raises(ValidationError):
        general_weight({4: 1.0})
    with pytest.raises(ValidationError):
        general_weight({2: 1.5})


def test_partial_sum_examples():
    w = chi4()
    assert w.partial_sum(4) == 0
    assert w.partial_sum(3) == 0
    assert w.partial_sum(5) == 1
    with pytest.raises(CapabilityError):
        general_weight({2: 1.0}).partial_sum(10)


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
    assert w.at(m * n) == w.at(m) * w.at(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**4))
def test_vanishing_iff_shared_factor(n):
    w = chi4()
    assert (w.at(n) == 0) == (math.gcd(n, 4) > 1)
