import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerace.characters import character_from_discriminant, chi4, general_weight
from primerace.errors import CapabilityError, DomainError, ValidationError
from primerace.lfun import (
    BoundedValue,
    b_function,
    bias_bound_scan,
    conjecture_scan,
    euler_product_value,
    l_value,
    mellin_identity_check,
    prime_power_sum,
    verify_log_decomposition,
)

from oracles import (
    catalan_alternating,
    chi4_value,
    machin_pi_over_4,
    mp_b_double_sum,
    trial_division_primes,
)


class TestBoundedValue:
    def test_radius_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            BoundedValue(1.0, -1e-9)

    def test_arithmetic_adds_radii(self):
        a = BoundedValue(1.0, 1e-3)
        b = BoundedValue(2.0, 1e-4)
        assert (a + b).radius >= 1.1e-3
        assert (a - b).value == -1.0
        assert a.scaled(-2.0).radius >= 2e-3

    def test_log_propagation_and_domain(self):
        v = BoundedValue(math.e, 1e-6).log()
        assert abs(v.value - 1.0) < 1e-12
        assert v.radius >= 2e-6 / math.e
        with pytest.raises(DomainError):
            BoundedValue(1e-9, 1e-3).log()

    def test_overlaps_is_radius_aware(self):
        assert BoundedValue(1.0, 0.1).overlaps(BoundedValue(1.15, 0.06))
        assert not BoundedValue(1.0, 0.01).overlaps(BoundedValue(1.15, 0.01))


class TestLValue:
    def test_pi_over_4(self):
        oracle, oracle_bound = machin_pi_over_4()
        assert abs(oracle - math.pi / 4) <= oracle_bound + 1e-15
        lv = l_value(chi4(), 1.0, 10**6)
        assert abs(lv.value - oracle) < 1e-10
        assert lv.radius + oracle_bound >= abs(lv.value - oracle)

    def test_catalan(self):
        oracle, oracle_bound = catalan_alternating(10**6)
        lv = l_value(chi4(), 2.0, 10**5)
        assert abs(lv.value - oracle) < 1e-10
        assert lv.radius + oracle_bound >= abs(lv.value - oracle)

    def test_large_sigma_is_one(self):
        lv = l_value(chi4(), 30.0, 10**3)
        assert abs(lv.value - 1.0) < 1e-14

    def test_domain_and_validation(self):
        with pytest.raises(DomainError):
            l_value(chi4(), 0.0, 100)
        with pytest.raises(DomainError):
            l_value(chi4(), -0.5, 100)
        with pytest.raises(ValidationError):
            l_value(chi4(), 1.0, 3)  # below the modulus
        with pytest.raises(CapabilityError):
            l_value(general_weight({2: 1.0}), 1.0, 100)

    @pytest.mark.parametrize("sigma,n", [(0.8, 20_000), (1.0, 50_000), (0.55, 10_000), (2.0, 5_000)])
    def test_tail_bounds_are_honest(self, sigma, n):
        # halving/doubling the truncation moves the center by less than the
        # larger radius
        half = l_value(chi4(), sigma, n // 2)
        base = l_value(chi4(), sigma, n)
        double = l_value(chi4(), sigma, 2 * n)
        assert abs(double.value - base.value) < base.radius
        assert abs(base.value - half.value) < half.radius


class TestEulerProduct:
    @pytest.mark.parametrize("d", [-4, 5])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
    def test_two_method_agreement(self, d, sigma):
        w = character_from_discriminant(d)
        series = l_value(w, sigma, 10**6)
        product = euler_product_value(w, sigma, 10**5)
        assert series.overlaps(product)

    def test_large_sigma_trivial(self):
        bv = euler_product_value(chi4(), 30.0, 10)
        assert abs(bv.value - 1.0) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            euler_product_value(chi4(), 1.0, 100)
        with pytest.raises(DomainError):
            euler_product_value(chi4(), 0.9, 100)
        with pytest.raises(ValidationError):
            euler_product_value(chi4(), 2.0, 1)

    def test_tail_honesty(self):
        a = euler_product_value(chi4(), 1.5, 10**4)
        b = euler_product_value(chi4(), 1.5, 2 * 10**4)
        assert abs(b.value - a.value) < a.radius


# mp_b_double_sum cuts the m-series at m_max; past it each odd prime leaves
# sum_{m>M} |t|^m / m <= |t|^(M+1) / ((M+1)(1 - |t|)), t = chi4(p) p^-sigma.
# _oracle_m_max picks M so that this tail, summed over p <= P, is below 1e-25,
# so the oracle stands for the sum untruncated in m.
ORACLE_M_TAIL = 1e-25


def _oracle_m_max(sigma, prime_limit):
    t = np.array(trial_division_primes(prime_limit)[1:], dtype=np.float64) ** -sigma
    m_max = 2
    while np.sum(t ** (m_max + 1) / ((m_max + 1) * (1.0 - t))) >= ORACLE_M_TAIL:
        m_max += 1
    return m_max


def _b_rounding_charge(sigma, prime_limit, b):
    """The rounding part of b_function's radius, restated: no p-tail in it."""
    p = np.array(trial_division_primes(prime_limit), dtype=np.float64)
    t = np.array([chi4_value(int(q)) for q in p]) * p ** -sigma
    lg = -np.log1p(-t)
    eps = sys.float_info.epsilon
    return eps * (2.0 * np.sum(np.abs(lg)) + 5.0 * np.sum(np.abs(lg - t)) + abs(b))


class TestBFunction:
    def _check_against_oracle(self, sigma, prime_limit):
        bv = b_function(chi4(), sigma, prime_limit)
        oracle = mp_b_double_sum(
            sigma, prime_limit, _oracle_m_max(sigma, prime_limit), dps=40
        )
        gap = abs(bv.value - oracle)
        assert gap <= bv.radius + ORACLE_M_TAIL
        # the radius is mostly the p > P tail, which the oracle shares; the
        # rounding charge alone must cover the gap
        assert gap <= _b_rounding_charge(sigma, prime_limit, oracle) + ORACLE_M_TAIL
        return bv

    def test_against_high_precision_double_sum(self):
        bv = self._check_against_oracle(2.0, 10**4)
        assert bv.value > 0
        assert bv.radius < 1e-10

    def test_sigma_three_quarters(self):
        bv = self._check_against_oracle(0.75, 2 * 10**4)
        assert math.isfinite(bv.radius)

    def test_sigma_just_above_half(self):
        # the old m <= 64 cut-off was loosest here: |t| = 3^-0.51 = 0.571
        self._check_against_oracle(0.51, 10**4)

    def test_sigma_one_point_one(self):
        self._check_against_oracle(1.1, 10**4)

    def test_large_sigma_vanishes(self):
        bv = b_function(chi4(), 30.0, 100)
        assert abs(bv.value) < 1e-15

    def test_radius_strictly_shrinks_with_truncation(self):
        base = b_function(chi4(), 0.75, 10**3).radius
        assert b_function(chi4(), 0.75, 10**4).radius < base

    def test_log1p_rounding_within_charge(self):
        # the radius charges 2 eps |log1p| per prime; sample |t| < 2^-1/2
        from mpmath import log1p, mp, mpf

        rng = np.random.default_rng(5)
        t = 10.0 ** rng.uniform(-12.0, math.log10(0.7071), 2000)
        t *= rng.choice([-1.0, 1.0], t.size)
        lg = -np.log1p(-t)
        eps = sys.float_info.epsilon
        with mp.workdps(40):
            for ti, li in zip(t.tolist(), lg.tolist()):
                exact = -log1p(-mpf(ti))
                assert abs(mpf(li) - exact) <= 2.0 * eps * abs(li)
                # Sterbenz: lg and t are within a factor 2, so lg - t is exact
                assert mpf(li) - mpf(ti) == mpf(li - ti)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            b_function(chi4(), 0.5, 100)
        with pytest.raises(ValidationError):
            b_function(chi4(), 1.0, 1)


class TestDecomposition:
    def test_sigma2_reproduces_identity(self):
        rep = verify_log_decomposition(chi4(), 2.0, 10**6)
        assert rep.within_radii
        assert abs(rep.residual) < 1e-8

    def test_sigma_just_above_one_within_radii(self):
        rep = verify_log_decomposition(chi4(), 1.1, 10**5)
        assert rep.within_radii

    def test_large_sigma_trivial(self):
        rep = verify_log_decomposition(chi4(), 30.0, 100, n_trunc=1000)
        assert abs(rep.residual) < 1e-13

    def test_requires_sigma_above_one(self):
        with pytest.raises(DomainError):
            verify_log_decomposition(chi4(), 1.0, 1000)


class TestBiasScan:
    def test_penalty_vanishes_at_sigma_one(self):
        (point,) = bias_bound_scan(chi4(), [1.0], 10**4)
        assert point.penalty == 0.0
        assert point.status == "ok"
        assert abs(point.r_value - (point.log_l_value - point.race_value)) < 1e-12

    def test_grid_rows_all_finite(self):
        grid = [0.55, 0.65, 0.75, 0.85, 0.95]
        rows = bias_bound_scan(chi4(), grid, 10**5)
        assert [r.sigma for r in rows] == grid
        for r in rows:
            assert r.status == "ok"
            assert math.isfinite(r.r_value)
            assert r.r_radius > 0

    def test_truncation_shift_is_disclosed(self):
        # moving x_max from 1e5 to 5e4 shifts R by at most the unsigned mass
        # of the dropped primes plus the quoted radii
        sigma = 0.6
        (full,) = bias_bound_scan(chi4(), [sigma], 10**5)
        (half,) = bias_bound_scan(chi4(), [sigma], 5 * 10**4)
        allowance = (
            prime_power_sum(sigma, 10**5)
            - prime_power_sum(sigma, 5 * 10**4)
            + full.r_radius
            + half.r_radius
        )
        assert abs(full.r_value - half.r_value) <= allowance

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bias_bound_scan(chi4(), [0.5], 1000)
        with pytest.raises(DomainError):
            bias_bound_scan(chi4(), [1.01], 1000)

    @pytest.mark.parametrize("sigma", [0.55, 0.6, 0.7])
    def test_prime_square_sum_tracks_log_singularity(self, sigma):
        # sum_{p<=P} p^(-2 sigma) stays within an O(1) band of log(1/(2s-1))
        total = prime_power_sum(2 * sigma, 10**6)
        assert abs(total - math.log(1.0 / (2 * sigma - 1.0))) <= 3.0


class TestConjectureScan:
    def test_small_points(self):
        scan = conjecture_scan([2, 10, 100])
        assert scan.points[0].value == 0.0
        expected_10 = -(3 ** -0.5) + 5 ** -0.5 - 7 ** -0.5
        assert abs(scan.points[1].value - expected_10) < 1e-15
        assert scan.final_x == 100

    def test_summary_fields(self):
        scan = conjecture_scan([10**3, 10**4, 10**5])
        assert scan.all_negative_beyond_1000
        assert scan.min_x == 10**5
        assert scan.min_value == scan.final_value
        assert scan.final_value < -1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            conjecture_scan([])
        with pytest.raises(ValidationError):
            conjecture_scan([100, 100])
        with pytest.raises(ValidationError):
            conjecture_scan([10, 10**6], budget=10**5)


class TestMellinIdentity:
    def test_example_small(self):
        assert mellin_identity_check(chi4(), 0.0, 2.0, 10) < 1e-14

    def test_degenerate_case_is_exactly_zero(self):
        assert mellin_identity_check(chi4(), 0.7, 0.7, 1000) == 0.0

    def test_half_to_five_quarters(self):
        assert mellin_identity_check(chi4(), 0.5, 1.25, 10**4) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mellin_identity_check(chi4(), -0.5, 1.0, 100)
        with pytest.raises(DomainError):
            mellin_identity_check(chi4(), 1.0, 0.5, 100)
        with pytest.raises(ValidationError):
            mellin_identity_check(chi4(), 0.0, 1.0, 1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=2.5),
        st.floats(min_value=0.01, max_value=0.5),
        st.integers(min_value=2, max_value=2000),
    )
    def test_residual_is_rounding_level(self, sigma, gap, x_limit):
        assert mellin_identity_check(chi4(), sigma, sigma + gap, x_limit) < 1e-10
