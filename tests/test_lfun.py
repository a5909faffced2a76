import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerace import lfun, races, sieve
from primerace.characters import DirichletWeight, character_from_discriminant, chi4
from primerace.cli import main
from primerace.config import parse_grid
from primerace.errors import DomainError, ValidationError
from primerace.lfun import (
    BoundedValue,
    b_function,
    bias_bound_scan,
    conjecture_scan,
    decomposition_scan,
    euler_product_value,
    l_value,
    l_value_scan,
    mellin_identity_check,
    verify_log_decomposition,
)
from primerace.sieve import iter_prime_arrays

from oracles import (
    catalan_alternating,
    char_prime_sum_fresh_arrays,
    chi4_value,
    l_value_scan_fresh_arrays,
    machin_pi_over_4,
    mellin_identity_check_fresh_arrays,
    mp_b_double_sum,
    prime_power_sum,
    simple_sieve,
    trial_division_primes,
)


class TestBoundedValue:
    def test_radius_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            BoundedValue(1.0, -1e-9)

    def test_log_propagation_and_domain(self):
        v = BoundedValue(math.e, 1e-6).log()
        assert abs(v.value - 1.0) < 1e-12
        assert v.radius >= 2e-6 / math.e
        with pytest.raises(DomainError):
            BoundedValue(1e-9, 1e-3).log()


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

    @pytest.mark.parametrize("d", [-4, 5, -3])
    def test_many_tiles_lie_within_radius_of_mpmath(self, d):
        # 97 tiles of n, the last one 5 terms long, against mpmath's L from
        # Hurwitz zeta values, which walks no n
        from mpmath import dirichlet, mp, mpf

        w, sigmas = character_from_discriminant(d), [0.5, 0.7, 1.5]
        with mp.workdps(30):
            for sigma, lv in zip(sigmas, l_value_scan(w, sigmas, 3 * (1 << 20) + 5)):
                exact = dirichlet(mpf(sigma), [int(v) for v in w.period])
                assert abs(lv.value - exact) <= lv.radius

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
        assert abs(series.value - product.value) <= series.radius + product.radius

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

    def test_one_walk_per_grid(self, monkeypatch):
        # every sigma's prime sum and B come from the same pass over the primes
        walks = []

        def counting(limit):
            walks.append(limit)
            return iter_prime_arrays(limit)

        monkeypatch.setattr(races, "iter_prime_arrays", counting)
        decomposition_scan(chi4(), [1.1, 1.5, 2.0], 10**5)
        assert walks == [10**5]
        walks.clear()
        b_function(chi4(), 1.5, 10**5)
        euler_product_value(chi4(), 1.5, 10**5)
        assert walks == [10**5] * 2
        walks.clear()
        logs = []  # the L-series walk starts with log n
        monkeypatch.setattr(lfun, "_power_log", lambda n: logs.append(n))
        assert decomposition_scan(chi4(), [], 10**5) == []  # no sigma: no walk
        assert walks == [] and logs == []

    @pytest.mark.parametrize("d", [5, -3])
    def test_grid_walks_match_one_sigma_calls(self, monkeypatch, d):
        # n_trunc = 2^20 + 17 ends in a 17-term tile, and 4,096-wide segments
        # split the primes to 10^5 into 25 segments
        monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 12)
        w = character_from_discriminant(d)
        sigmas, n_trunc = [1.1, 1.5, 2.0], (1 << 20) + 17
        grid = l_value_scan(w, sigmas, n_trunc)
        assert repr(grid) == repr([l_value(w, s, n_trunc) for s in sigmas])  # every bit
        reports = decomposition_scan(w, sigmas, 10**5, n_trunc=n_trunc)
        singles = [verify_log_decomposition(w, s, 10**5, n_trunc=n_trunc) for s in sigmas]
        assert repr(reports) == repr(singles)
        assert [r.log_l for r in reports] == [lv.log() for lv in grid]
        assert [r.b_value for r in reports] == [b_function(w, s, 10**5) for s in sigmas]


class TestInPlace:
    """Every per-sigma term is formed in place, with the bits of fresh arrays."""

    @pytest.mark.parametrize("d", [-4, 5])
    @pytest.mark.parametrize("n_trunc", [(1 << 15) - 1, (1 << 15) + 1, (1 << 20) + (1 << 15) + 7])
    def test_l_value_keeps_every_bit(self, d, n_trunc):
        # one short tile; a full one and one term; 33 tiles, the last one short
        w = character_from_discriminant(d)
        assert repr(l_value_scan(w, [0.55, 1.5], n_trunc)) == repr(
            l_value_scan_fresh_arrays(w, [0.55, 1.5], n_trunc))

    @pytest.mark.parametrize("d", [-4, 5])
    def test_l_value_centers_are_fsum_of_every_term(self, d):
        # the sum over n is rounded once over the whole walk, so the center is
        # math.fsum of all its terms plus the correction, past 2^20 terms too
        w, sigmas, n_trunc = character_from_discriminant(d), [0.5, 0.7, 1.5], 3 * (1 << 20) + 5

        def terms(sigma):  # fsum's bits do not depend on how the terms are cut
            for lo in range(1, n_trunc + 1, 100_000):
                n = np.arange(lo, min(lo + 100_000, n_trunc + 1), dtype=np.int64)
                logs = np.log(n.astype(np.float64))
                yield from (w.period[n % w.modulus] * np.exp(-sigma * logs)).tolist()

        mean = lfun._partial_sum_stats(w)[0]
        for sigma, lv in zip(sigmas, l_value_scan(w, sigmas, n_trunc)):
            correction = (mean - w.partial_sum(n_trunc)) * math.exp(-sigma * math.log(n_trunc))
            assert repr(lv.value) == repr(math.fsum(terms(sigma)) + correction)

    def test_l_value_takes_log_n_once_per_tile(self, monkeypatch):
        # every sigma of the grid shares a tile's log n: 31 tiles to 10^6
        calls, real_log = [], lfun._power_log
        monkeypatch.setattr(lfun, "_power_log", lambda n: calls.append(len(n)) or real_log(n))
        l_value_scan(chi4(), parse_grid("0.55:0.95:0.05"), 10**6)
        assert len(calls) == 31 and sum(calls) == 10**6

    def test_prime_sum_keeps_every_bit(self):
        # two segments, each ending in a short block; the second is one short block
        limit = (1 << 22) + 3 * (1 << 15) + 5
        assert len(list(iter_prime_arrays(limit))) == 2
        assert repr(lfun._char_prime_sum(chi4(), [0.55, 1.5], limit)) == repr(
            char_prime_sum_fresh_arrays(chi4(), [0.55, 1.5], limit))

    @pytest.mark.parametrize("width", [1 << 12, sieve.SEGMENT_WIDTH])
    def test_prime_sum_centers_are_fsum_of_every_term(self, monkeypatch, width):
        # the sums of t and of lg - t are each rounded once over the whole walk,
        # so they are math.fsum of all its terms, however the walk is cut
        monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
        w, sigmas, limit = character_from_discriminant(5), [0.55, 1.1, 2.0], 10**6
        primes = np.array(simple_sieve(limit), dtype=np.int64)
        weights, logs = w.values_at_primes(primes), np.log(primes.astype(np.float64))
        for sigma, (sum_t, sum_b, *_) in zip(sigmas, lfun._char_prime_sum(w, sigmas, limit)):
            t = weights * np.exp(-sigma * logs)
            assert repr((sum_t, sum_b)) == repr(
                (math.fsum(t.tolist()), math.fsum((-np.log1p(-t) - t).tolist())))

    @pytest.mark.parametrize("d, sigma, s", [(-4, 0.5, 1.5), (-3, 0.0, 0.7), (5, 0.9, 0.95),
                                             (8, 0.25, 0.5)])
    def test_abel_check_keeps_every_bit(self, d, sigma, s):
        # three segments, the last one short, through one buffer for the whole walk
        w, limit = character_from_discriminant(d), 2 * sieve.SEGMENT_WIDTH + 1000
        assert repr(mellin_identity_check(w, sigma, s, limit)) == repr(
            mellin_identity_check_fresh_arrays(w, sigma, s, limit))

    @pytest.mark.parametrize("name", ["race_scan", "_char_prime_sum", "mellin_identity_check",
                                      "prime_count", "prime_stream", "sieve --emit"])
    def test_no_segment_outlives_the_next_sieve(self, monkeypatch, tmp_path, name):
        # on entry to each sieve, the primes of the previous segment must be
        # gone, with no view of them left, and every w(p) and log p array of a
        # prime walk is one block of at most 2^15 primes
        w, segments, sieved, lengths = chi4(), [], [], []
        limit = 2 * sieve.SEGMENT_WIDTH + 1000  # three segments, the last one short
        count = sieve.prime_count(limit)
        real_sieve, real_values, real_log = sieve.sieve_segment, w.values_at_primes, races._power_log

        def checked_sieve(lo, hi, **kwargs):
            assert [ref() for ref in segments] == [None] * len(segments), f"alive at lo = {lo}"
            sieved.append(lo)
            out = real_sieve(lo, hi, **kwargs)
            segments.append(weakref.ref(out.primes))
            return out

        def sized(real):
            def call(primes, **kwargs):
                lengths.append(len(out := real(primes, **kwargs)))
                return out
            return call

        monkeypatch.setattr(sieve, "sieve_segment", checked_sieve)
        monkeypatch.setattr(w, "values_at_primes", sized(real_values))
        monkeypatch.setattr(races, "_power_log", sized(real_log))
        if name == "race_scan":
            races.race_scan(w, [0.0, 0.5], limit, checkpoints=(10**6, limit))
        elif name == "_char_prime_sum":
            lfun._char_prime_sum(w, [0.55, 1.5], limit)
        elif name == "mellin_identity_check":
            lfun.mellin_identity_check(w, 0.5, 1.5, limit)
        elif name == "prime_count":
            assert sieve.prime_count(limit) == count
        elif name == "prime_stream":
            assert sum(1 for _ in sieve.prime_stream(limit)) == count
        else:
            assert main(["sieve", "--limit", str(limit), "--emit", str(tmp_path / "p.txt")]) == 0
            assert (tmp_path / "p.txt").read_bytes().count(b"\n") == count
        walked = name in ("race_scan", "_char_prime_sum", "mellin_identity_check")
        assert len(sieved) == 3 and max(lengths, default=0) <= races._BLOCK
        assert sum(lengths) == 2 * count * walked  # w(p) and log p at every prime once

    def test_prime_sum_memory_is_bounded(self):
        # the lemma walk: one block's primes, w(p) and log p beside one segment's
        # primes, and one (5, 2^15) buffer of t, lg, lg - t and exact-sum scratch
        # for the whole walk. 5.8 MiB; 14.1 MiB with segment-long rows
        tracemalloc.start()
        try:
            lfun._char_prime_sum(chi4(), [1.1, 1.5, 2.0], 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_abel_check_memory_is_bounded(self):
        # the Abel check to 10^7: one block's terms and pieces at a time.
        # 5.8 MiB; 14.1 MiB with segment-long rows
        tracemalloc.start()
        try:
            lfun.mellin_identity_check(chi4(), 0.5, 1.5, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_l_value_memory_is_bounded(self):
        # the bias-scan grid at n = 10^6 needs one tile of n, of log n and of
        # terms, two rows of exact-sum scratch and one row of weights: 1.5 MiB.
        # 3 MiB leaves no room for a 2^20-term chunk of terms (9.2 MiB with one)
        grid = parse_grid("0.55:0.95:0.05")
        tracemalloc.start()
        try:
            l_value_scan(chi4(), grid, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


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
            conjecture_scan([0])
        with pytest.raises(ValidationError):
            conjecture_scan([10, 5])


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

    def test_one_walk(self, monkeypatch):
        # the LHS and the Abel pieces come from the same pass over the primes:
        # 4,096-wide segments split the primes to 10^5 into 25 segments
        walks, segments, lookups = [], [], []
        lookup = DirichletWeight.values_at_primes

        def counting(limit):
            walks.append(limit)
            for primes in iter_prime_arrays(limit):
                segments.append(len(primes))
                yield primes

        def looking_up(self, primes, **kwargs):
            lookups.append(len(primes))
            return lookup(self, primes, **kwargs)

        monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 12)
        monkeypatch.setattr(races, "iter_prime_arrays", counting)
        monkeypatch.setattr(DirichletWeight, "values_at_primes", looking_up)
        mellin_identity_check(chi4(), 0.5, 1.5, 10**5)
        assert walks == [10**5]
        assert len(segments) == 25 and lookups == segments

    @staticmethod
    def _one_array_residual(w, sigma, s, x_limit):
        """The identity over one array of every prime <= X, the folded loop's reference."""
        primes = np.array(trial_division_primes(x_limit), dtype=np.int64)
        logp = np.log(primes.astype(np.float64))
        wv = w.values_at_primes(primes)
        a_steps = np.cumsum(wv * np.exp(-sigma * logp))
        lhs = math.fsum((wv * np.exp(-s * logp)).tolist())
        left_pow = np.exp(-(s - sigma) * logp)
        x_pow = math.exp(-(s - sigma) * math.log(x_limit))
        right_pow = np.append(left_pow[1:], x_pow)
        rhs = float(a_steps[-1]) * x_pow + math.fsum((a_steps * (left_pow - right_pow)).tolist())
        return abs(lhs - rhs)

    @pytest.mark.parametrize(
        "disc, sigma, s, x_limit",
        [(-4, 0.1, 0.35, 10**5), (-4, 0.7, 0.71, 99_991), (5, 0.3, 0.9, 30_011), (8, 0.5, 1.5, 2000)],
    )
    def test_segment_fold_keeps_every_bit(self, monkeypatch, disc, sigma, s, x_limit):
        # A and the last power are carried across segments, so 1,024-wide
        # segments give the residual of one pass over a single array
        w = character_from_discriminant(disc)
        whole = mellin_identity_check(w, sigma, s, x_limit)
        monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 10)
        assert mellin_identity_check(w, sigma, s, x_limit) == whole
        assert whole == self._one_array_residual(w, sigma, s, x_limit)
        assert whole > 0.0  # a rounding-level residual, so its bits are a real check

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=2.5),
        st.floats(min_value=0.01, max_value=0.5),
        st.integers(min_value=2, max_value=2000),
    )
    def test_residual_is_rounding_level(self, sigma, gap, x_limit):
        assert mellin_identity_check(chi4(), sigma, sigma + gap, x_limit) < 1e-10


# The library's input contract over every public entry point. Each entry is
# (call(sigmas, count), an accepted sigma, an accepted count, a refused count
# to try with an empty grid, for the grid entries). A one-sigma entry unpacks
# its sigma from the list. After "/" is the count the entry varies, of two.
ENTRY_POINTS = {
    "race_scan": (lambda ss, n: races.race_scan(chi4(), ss, n), 0.5, 100, 0),
    "weighted_race": (lambda ss, n: races.weighted_race(chi4(), *ss, n), 0.5, 100, None),
    "l_value_scan": (lambda ss, n: l_value_scan(chi4(), ss, n), 0.5, 100, 2),
    "l_value": (lambda ss, n: l_value(chi4(), *ss, n), 0.5, 100, None),
    "_char_prime_sum": (lambda ss, n: lfun._char_prime_sum(chi4(), ss, n), 0.55, 100, 1),
    "euler_product_value": (lambda ss, n: euler_product_value(chi4(), *ss, n), 1.5, 100, None),
    "b_function": (lambda ss, n: b_function(chi4(), *ss, n), 1.5, 100, None),
    "decomposition_scan": (
        lambda ss, n: decomposition_scan(chi4(), ss, n, n_trunc=100), 1.5, 100, 1),
    "decomposition_scan/n_trunc": (
        lambda ss, n: decomposition_scan(chi4(), ss, 100, n_trunc=n), 1.5, 100, 2),
    "verify_log_decomposition": (
        lambda ss, n: verify_log_decomposition(chi4(), *ss, n, n_trunc=100), 1.5, 100, None),
    "bias_bound_scan": (lambda ss, n: bias_bound_scan(chi4(), ss, n, n_trunc=100), 0.7, 100, 0),
    "bias_bound_scan/n_trunc": (
        lambda ss, n: bias_bound_scan(chi4(), ss, 100, n_trunc=n), 0.7, 100, 2),
    "conjecture_scan": (lambda ss, n: conjecture_scan([n]), None, 100, None),
    "mellin_identity_check": (
        lambda ss, n: mellin_identity_check(chi4(), *ss, 1.5, n), 0.5, 100, None),
}
REFUSED = [
    *((name, [bad], count) for name, (_, sigma, count, _) in ENTRY_POINTS.items()
      if sigma is not None for bad in (math.nan, math.inf, -math.inf)),
    *((name, [sigma] if sigma is not None else [], bad) for name, (_, sigma, _, _)
      in ENTRY_POINTS.items() for bad in (100.5, 1e3)),
    *((name, [], below) for name, (*_, below) in ENTRY_POINTS.items() if below is not None),
]


@pytest.mark.parametrize("name, sigmas, count", REFUSED,
                         ids=[f"{n}-{s}-{c}" for n, s, c in REFUSED])
def test_refused_input_stops_before_any_walk(monkeypatch, name, sigmas, count):
    # NaN, +-inf, a float count and a count below the least all raise a
    # ValidationError naming the field, and no prime and no n is walked
    def forbidden(*args):
        pytest.fail("a walk started before the inputs were checked")

    monkeypatch.setattr(races, "iter_prime_arrays", forbidden)
    monkeypatch.setattr(lfun, "_power_log", forbidden)
    call = ENTRY_POINTS[name][0]
    with pytest.raises(ValidationError, match=r"^(sigma|n_trunc|prime_limit|x_max|x_points|X)\b"):
        call(sigmas, count)


def test_prime_sum_needs_sigma_above_one_half(monkeypatch):
    # B diverges at sigma <= 1/2, and near 0 |t| rounds to 1 and log1p(-t) is
    # -inf: refused before any prime is walked
    def forbidden(*args):
        pytest.fail("a walk started before the inputs were checked")

    monkeypatch.setattr(races, "iter_prime_arrays", forbidden)
    for sigma in (1e-17, 0.25, 0.5):
        with pytest.raises(DomainError, match=r"sigma > 1/2, got"):
            lfun._char_prime_sum(chi4(), [1.5, sigma], 100)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_numpy_inputs_give_python_input_bits(name):
    call, sigma, count, _ = ENTRY_POINTS[name]
    sigmas = [sigma] if sigma is not None else []
    assert repr(call([np.float64(s) for s in sigmas], np.int64(count))) == repr(call(sigmas, count))
