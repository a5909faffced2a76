"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's own code paths: primes come
from trial division or a plain one-shot sieve, sums from exact integers,
Fractions, or mpmath at high precision.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_division_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime_trial(n)]


def simple_sieve(limit: int) -> list[int]:
    """One-shot sieve, structurally unlike the segmented implementation."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [n for n in range(limit + 1) if flags[n]]


@lru_cache(maxsize=2)
def _sieved(limit: int) -> tuple[int, ...]:
    return tuple(simple_sieve(limit))


def prime_power_sum(sigma: float, prime_limit: int) -> float:
    """sum_{p<=P} p^-sigma (unsigned), exactly summed over the one-shot sieve."""
    return math.fsum(p ** -sigma for p in _sieved(prime_limit))


def chi4_value(n: int) -> int:
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def race_sigma0_brute(limit: int, d: int | None = None) -> list[tuple[int, int]]:
    """Exact integer race values (p, A(p)) at sigma = 0 over trial-division primes,
    for the character (d/.) by `kronecker_periodic`, or chi_4 when d is None."""
    chi = chi4_value if d is None else kronecker_periodic(d)
    out = []
    total = 0
    for p in trial_division_primes(limit):
        total += chi(p)
        out.append((p, total))
    return out


def race_sigma1_fraction(limit: int) -> Fraction:
    """A(limit) at sigma = 1 as an exact rational."""
    total = Fraction(0)
    for p in trial_division_primes(limit):
        total += Fraction(chi4_value(p), p)
    return total


def sign_change_walk(values, initial_sign: int = 0):
    """Scalar effective-sign convention, re-stated independently for tests."""
    eff = initial_sign
    changes = []
    for i, v in enumerate(values):
        s = (v > 0) - (v < 0)
        if s != 0:
            if eff != 0 and s != eff:
                changes.append(i)
            eff = s
    return changes, eff


def _arctan_alternating(x: float, terms: int) -> tuple[float, float]:
    """Taylor series of arctan at |x| < 1 with the alternating-series bound."""
    total = math.fsum(
        (-1) ** k * x ** (2 * k + 1) / (2 * k + 1) for k in range(terms)
    )
    bound = x ** (2 * terms + 1) / (2 * terms + 1)
    return total, bound


def machin_pi_over_4() -> tuple[float, float]:
    """pi/4 = 4 arctan(1/5) - arctan(1/239), alternating-series error bounds."""
    a, ra = _arctan_alternating(1 / 5, 16)
    b, rb = _arctan_alternating(1 / 239, 8)
    return 4 * a - b, 4 * ra + rb + 1e-15


def catalan_alternating(terms: int = 10**6) -> tuple[float, float]:
    """sum (-1)^k / (2k+1)^2 with the alternating-series remainder bound."""
    import numpy as np

    k = np.arange(terms, dtype=np.float64)
    vals = (1.0 - 2.0 * (np.arange(terms) % 2)) / (2.0 * k + 1.0) ** 2
    return math.fsum(vals.tolist()), 1.0 / (2.0 * terms + 1.0) ** 2


def mp_race(sigma: float, points: list[int], dps: int = 50, chi=chi4_value) -> list[float]:
    """Extended-precision race values of the character chi (n -> chi(n), chi_4 by
    default) at ascending points, over trial-division primes."""
    from mpmath import mp, mpf

    old = mp.dps
    mp.dps = dps
    try:
        total = mpf(0)
        out = []
        primes = simple_sieve(max(points))
        pi = 0
        for x in points:
            while pi < len(primes) and primes[pi] <= x:
                p = primes[pi]
                c = chi(p)
                if c:
                    total += c * mpf(p) ** (-mpf(sigma))
                pi += 1
            out.append(float(total))
        return out
    finally:
        mp.dps = old


def mp_b_double_sum(
    sigma: float, prime_limit: int, m_max: int, dps: int = 40
) -> float:
    """Literal high-precision double sum for the prime-power correction."""
    from mpmath import mp, mpf

    old = mp.dps
    mp.dps = dps
    try:
        total = mpf(0)
        for p in simple_sieve(prime_limit):
            c = chi4_value(p)
            if not c:
                continue
            pm = mpf(p) ** (-mpf(sigma))
            t = c * pm
            u = t * t
            for m in range(2, m_max + 1):
                total += u / m
                u *= t
        return float(total)
    finally:
        mp.dps = old


def chi4_prime_sum_mobius(sigma: float) -> tuple[float, float]:
    """The untruncated prime sum F(sigma) = sum_p chi4(p) p^-sigma, sigma > 1.

    Moebius inversion of log L(s, psi) = sum_m P(ms; psi^m) / m gives
    F(sigma) = sum_k mu(k)/k log L(k sigma, chi4^k). For odd k, chi4^k = chi4
    and L(s, chi4) = 4^-s (zeta(s, 1/4) - zeta(s, 3/4)); for even k, chi4^k is
    principal mod 4 and L(s) = zeta(s)(1 - 2^-s). No prime is enumerated.

    Cut-off bound: both characters vanish at 2, so
    |log L(s, psi)| <= sum_{n>=3} n^-s <= 3^-s (1 + 3/(s-1)) <= 4 * 3^-s for
    s >= 2, and the k > K tail is at most 4/(K+1) 3^-(K+1)sigma / (1 - 3^-sigma).
    K grows until that tail is below 1e-20. The sum runs at 30 digits, and the
    returned bound is the tail plus K * 1e-27 for that working precision; it
    does not include the rounding of the returned float.
    """
    from mpmath import log, mp, mpf, power, zeta
    from sympy import mobius

    if not sigma > 1.0:
        raise ValueError(f"needs sigma > 1, got {sigma}")

    def tail(k_max: int) -> float:
        return (
            4.0 * 3.0 ** (-(k_max + 1) * sigma)
            / ((k_max + 1) * (1.0 - 3.0 ** (-sigma)))
        )

    k_max = 1
    while tail(k_max) > 1e-20:
        k_max += 1
    old = mp.dps
    mp.dps = 30
    try:
        total = mpf(0)
        for k in range(1, k_max + 1):
            mu = int(mobius(k))
            if not mu:
                continue
            s = k * mpf(sigma)
            if k % 2:
                lval = power(4, -s) * (zeta(s, mpf(1) / 4) - zeta(s, mpf(3) / 4))
            else:
                lval = zeta(s) * (1 - power(2, -s))
            total += mpf(mu) / k * log(lval)
        return float(total), tail(k_max) + k_max * 1e-27
    finally:
        mp.dps = old


def kronecker_ref(d: int, n: int) -> int:
    """Kronecker symbol via sympy, as an independent implementation."""
    from sympy import kronecker_symbol

    return int(kronecker_symbol(d, n))


def kronecker_periodic(d: int):
    """n -> (d/n) for a fundamental d by `kronecker_ref`, one symbol per residue
    class: (d/.) has period |d|, and (d/0) = 0 = (d/p) for every p dividing d."""
    symbol = lru_cache(maxsize=None)(lambda r: kronecker_ref(d, r))
    return lambda n: symbol(n % abs(d))


# chi mod 12 induced from chi_-4: imprimitive, so only the validated table: form
# builds it. It differs from chi_-4 only at 3, where it is 0 and chi_-4(3) = -1
CHI12_TABLE = [0, 1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1]
CHI12_FROM_CHI4 = "table:12:0,1,0,0,0,1,0,-1,0,0,0,-1"


@lru_cache(maxsize=1)
def fundamental_discriminants(limit: int) -> tuple[int, ...]:
    """Every fundamental discriminant d with 3 <= |d| <= limit, ordered by |d| and
    then sign, from a sieve of squares: d = 1 mod 4 squarefree, or d = 4m with
    m = 2 or 3 mod 4 squarefree."""
    squarefree = bytearray([1]) * (limit + 1)
    for k in range(2, math.isqrt(limit) + 1):
        squarefree[k * k :: k * k] = bytearray(len(range(k * k, limit + 1, k * k)))
    found = [d for d in range(-limit, limit + 1) if abs(d) >= 3 and (
        d % 4 == 1 and squarefree[abs(d)]
        or d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree[abs(d) // 4])]
    return tuple(sorted(found, key=abs))


def first_multiplicativity_witness(values, rows: int = 64) -> tuple[int, int] | None:
    """The first (m, n) in row-major order over m, n in 1..q with w(mn) != w(m) w(n),
    for the period table `values` (index n mod q), or None: all q^2 products, `rows`
    rows of them at a time."""
    import numpy as np

    values = np.asarray(values)
    q = len(values)
    m = np.arange(1, q + 1, dtype=np.int32)  # q^2 <= 10^8 fits
    w = values[m % q]
    for lo in range(0, q, rows):
        bad = values[np.outer(m[lo : lo + rows], m) % q] != np.outer(w[lo : lo + rows], w)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), q)  # the first True, row-major
            return lo + i + 1, j + 1
    return None


def partial_sum_stats_fraction(w) -> tuple[float, float]:
    """`lfun._partial_sum_stats` in Fractions: Sbar, the mean of S over one period,
    and max F - min F for F(k) = sum_{i<k} (S(i) - Sbar), widened by 4 eps."""
    q = w.modulus
    mean = Fraction(sum(w.partial_sum(r) for r in range(1, q + 1)), q)
    f = [Fraction(0)]
    for i in range(q):
        f.append(f[-1] + w.partial_sum(i) - mean)
    return float(mean), float(max(f) - min(f)) * (1.0 + 4.0 * sys.float_info.epsilon)


# The package's per-sigma loops as they were before they formed their terms in
# place: each sigma builds new arrays as long as a 2^15-term tile of n or a
# 2^15-prime block, summed by math.fsum over every term of the walk and by one
# np.sum of |x| per array. Unlike the oracles above they share the package's
# sieve segments and L-series constants, since what they check is that the
# in-place loops keep every bit.


def l_value_scan_fresh_arrays(w, sigmas, n_trunc: int) -> list:
    """`lfun.l_value_scan`, with new arrays for every tile and sigma."""
    import numpy as np

    from primerace.lfun import BoundedValue, _partial_sum_stats
    from primerace.races import _BLOCK

    period_f = w.period.astype(np.float64)
    walks = [([], [0.0]) for _ in sigmas]
    for lo in range(1, n_trunc + 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, n_trunc + 1), dtype=np.int64)
        weights, logs = period_f[n % w.modulus], np.log(n.astype(np.float64))
        for sigma, (terms, abs_sum) in zip(sigmas, walks):
            contrib = weights * np.exp(-sigma * logs)
            terms.extend(contrib.tolist())
            abs_sum[0] += float(np.sum(np.abs(contrib)))
    mean, oscillation = _partial_sum_stats(w)
    values = []
    for sigma, (terms, (abs_sum,)) in zip(sigmas, walks):
        n_pow = math.exp(-sigma * math.log(n_trunc))
        correction = (mean - w.partial_sum(n_trunc)) * n_pow
        value = math.fsum(terms) + correction
        tail = sigma * oscillation * n_pow / n_trunc
        rounding = sys.float_info.epsilon * (3.0 * abs_sum + 2.0 * abs(value) + abs(correction))
        values.append(BoundedValue(value, tail + rounding))
    return values


def char_prime_sum_fresh_arrays(w, sigmas, prime_limit: int) -> list[tuple]:
    """`lfun._char_prime_sum`, with new t, lg and lg - t arrays for every block and sigma."""
    import numpy as np

    from primerace.races import _BLOCK
    from primerace.sieve import iter_prime_arrays

    walks = [([], [], [0.0, 0.0, 0.0]) for _ in sigmas]
    for primes in iter_prime_arrays(prime_limit):
        for off in range(0, len(primes), _BLOCK):
            blk = primes[off : off + _BLOCK]
            weights, logs = w.values_at_primes(blk), np.log(blk.astype(np.float64))
            for sigma, (t_terms, b_terms, abs_sums) in zip(sigmas, walks):
                t = weights * np.exp(-sigma * logs)
                lg = -np.log1p(-t)
                terms = lg - t
                t_terms.extend(t.tolist())
                b_terms.extend(terms.tolist())
                for j, x in enumerate((t, lg, terms)):
                    abs_sums[j] += float(np.sum(np.abs(x)))
    return [(math.fsum(ts), math.fsum(bs), *abs_sums) for ts, bs, abs_sums in walks]


# The race loop as it was before each walk kept one working set: every block
# and sigma gets new contribution, prefix-sum and |x| arrays, and every block's
# running values are formed and sign-scanned, flip or no flip. Block sums are
# math.fsum, whose bits races._exact_sums keeps; the rest shares the package's
# sieve segments, prefix units and checkpoint heads, unchanged by that change.


def _block_sign_scan_fresh_arrays(avals, carry: int):
    """`races._block_sign_scan`, with its shortcut for blocks that cannot flip."""
    import numpy as np

    if (carry < 0 and avals.max() <= 0) or (carry > 0 and avals.min() >= 0):
        return np.empty(0, dtype=np.intp), np.full(len(avals), float(carry))
    s = np.sign(avals)
    n = len(s)
    marker = np.where(s != 0, np.arange(1, n + 1), 0)
    last_nz = np.maximum.accumulate(marker)
    filled = np.where(last_nz > 0, s[np.maximum(last_nz - 1, 0)], float(carry))
    prev = np.empty_like(filled)
    prev[0] = carry
    prev[1:] = filled[:-1]
    changes = np.flatnonzero((prev != 0) & (filled != prev))
    return changes, filled


def _prepare_segment_fresh_arrays(primes, weights, logs, sigma: float) -> list[tuple]:
    """`races._prepare_segment`, with new arrays for every block and sigma."""
    import numpy as np

    from primerace.races import _BLOCK

    exact = sigma == 0.0
    blocks = []
    for off in range(0, len(primes), _BLOCK):
        part = slice(off, off + _BLOCK)
        contrib = weights[part] if exact else weights[part] * np.exp(-sigma * logs[part])
        cum = np.cumsum(contrib)
        if exact:  # integer partial sums below 2^53: cum is exact
            block_sum, abs_weight = float(cum[-1]), 0.0  # no error to charge
        else:
            block_sum = math.fsum(contrib.tolist())
            abs_weight = float(np.sum(np.abs(contrib)))
        blocks.append((primes[off : off + _BLOCK], contrib, cum, block_sum, abs_weight))
    return blocks


def fresh_arrays_race_state(sigma: float, checkpoints: tuple[int, ...]):
    """A `races._RaceState` whose add_block forms and scans every block's values."""
    import numpy as np

    from primerace import races
    from primerace.races import _BLOCK, _U, _UNIT, RacePoint, _exact_sums, _float_units

    class FreshArraysRaceState(races._RaceState):
        def add_block(self, blk, contrib, cum, block_sum: float, abs_weight: float) -> None:
            cps = self.checkpoints
            prefix = self.units / _UNIT
            while self.ci < len(cps) and cps[self.ci] < blk[0]:
                self.points.append(RacePoint(cps[self.ci], prefix, self.err, self.carry))
                self.ci += 1

            avals = prefix + cum
            change_idx, filled = _block_sign_scan_fresh_arrays(avals, self.carry)

            exact = self.sigma == 0.0
            if not exact:
                self.total_weight += abs_weight
                self.block_weight_max = max(self.block_weight_max, abs_weight)
                self.value_max = max(self.value_max, float(np.max(np.abs(avals))))
                self.err = _U * (
                    2.0 * self.total_weight + _BLOCK * self.block_weight_max + self.value_max
                )

            for i in change_idx.tolist():
                self.events.append(
                    RacePoint(int(blk[i]), float(avals[i]), self.err, int(filled[i])))
            if self.first_positive is None:
                pos = np.flatnonzero(avals > 0.0)
                if len(pos):
                    self.first_positive = int(blk[pos[0]])

            done = head_units = 0
            while self.ci < len(cps) and cps[self.ci] <= blk[-1]:
                k = int(np.searchsorted(blk, cps[self.ci], side="right"))
                if exact:  # integer partial sums below 2^53: cum is exact
                    head = float(cum[k - 1])
                else:
                    head_units += _exact_sums(contrib[done:k])[0]
                    head, done = head_units / _UNIT, k
                value = (self.units + _float_units(head)) / _UNIT
                self.points.append(RacePoint(cps[self.ci], value, self.err, int(filled[k - 1])))
                self.ci += 1

            self.carry = int(filled[-1])
            self.units += _float_units(block_sum)

    return FreshArraysRaceState(sigma, tuple(checkpoints))


def race_scan_fresh_arrays(w, sigmas, x_max: int, checkpoints) -> list:
    """`races.race_scan`, with new arrays for every segment, block and sigma."""
    import numpy as np

    from primerace.sieve import iter_prime_arrays

    states = [fresh_arrays_race_state(s, checkpoints) for s in sigmas]
    for primes in iter_prime_arrays(x_max):
        weights, logs = w.values_at_primes(primes), np.log(primes.astype(np.float64))
        for st in states:
            for block in _prepare_segment_fresh_arrays(primes, weights, logs, st.sigma):
                st.add_block(*block)
    return [st.series() for st in states]


def mellin_identity_check_fresh_arrays(w, sigma: float, s: float, x_limit: int) -> float:
    """`lfun.mellin_identity_check` for s > sigma, with new arrays for every segment."""
    import numpy as np

    from primerace.races import _UNIT, _exact_sums, _float_units, _neg_power, walk

    c = s - sigma
    x_pow = _neg_power(x_limit, c)
    lhs_units = piece_units = 0
    a, left = 0.0, 1.0  # A and u^-c at the last prime walked
    for _, weights, logs in walk(w, x_limit):
        lhs_units += _exact_sums(weights * np.exp(logs * -s))[0]
        # the cumsum starts from the carried A and the powers from the carried
        # p^-c, so every piece keeps the bits of one pass over all primes
        a_steps = np.cumsum(np.concatenate(([a], weights * np.exp(logs * -sigma))))
        left_pow = np.concatenate(([left], np.exp(logs * -c)))
        piece_units += _exact_sums(a_steps[:-1] * (left_pow[:-1] - left_pow[1:]))[0]
        a, left = float(a_steps[-1]), float(left_pow[-1])
        del _, weights, logs, a_steps, left_pow  # before the next segment is sieved
    piece_units += _float_units(a * (left - x_pow))
    rhs = a * x_pow + piece_units / _UNIT
    return abs(lhs_units / _UNIT - rhs)
