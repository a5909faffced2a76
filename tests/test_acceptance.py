"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. Criteria are asserted at their stated tolerances and
runtime budgets; nothing is loosened to force a green run. Oracles are built
before each timed window, so a budget times only the package's work.

Criterion 2 checks the lemma log L = F + B against the untruncated prime sum
F(sigma), computed by Moebius inversion over Hurwitz zeta values with no prime
enumerated: |log L - B - F| < 1e-8 and within the log L and B radii. The
truncated prime sum S(10^7) must lie within its tail radius of F. At sigma =
1.5 and 2.0, where the tail F - S(10^7) is -2.879e-9 and -5.9e-13, the
truncated residual log L - S - B is also held to 1e-8. At sigma = 1.1 the
tail is -2.998e-6, and only the radius bounds it.

Criterion 5 takes the sign changes of the sigma = 0 mod-4 race to 10^5 from
the trial-division brute force: two, at 26861 (Leech 1957) and 26879.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from primerace.characters import character_from_discriminant, chi4
from primerace.cli import main as cli_main
from primerace.lfun import (
    bias_bound_scan,
    conjecture_scan,
    euler_product_value,
    l_value,
    mellin_identity_check,
    verify_log_decomposition,
)
from primerace.races import detect_sign_changes, weighted_race
from primerace.sieve import prime_stream

from oracles import (
    catalan_alternating,
    chi4_prime_sum_mobius,
    machin_pi_over_4,
    prime_power_sum,
    race_sigma0_brute,
    sign_change_walk,
)

DISCRIMINANTS = [-4, -3, 5, 8, -8, 12]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_character_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(20260811)
    weights = [chi4()] + [character_from_discriminant(d) for d in DISCRIMINANTS]
    for w in weights:
        q = w.modulus
        n = np.arange(1, 10**4 + 1, dtype=np.int64)
        table = lambda m: w.period[m % q].astype(np.int64)  # noqa: E731
        assert np.array_equal(table(n), table(n + q)), f"periodicity failed, q={q}"
        m1 = rng.integers(1, 10**6, size=10**4, dtype=np.int64)
        m2 = rng.integers(1, 10**6, size=10**4, dtype=np.int64)
        assert np.array_equal(table(m1 * m2), table(m1) * table(m2)), (
            f"multiplicativity failed, q={q}"
        )
        gcds = np.gcd(n, q)
        assert np.array_equal(table(n) == 0, gcds > 1), f"vanishing failed, q={q}"
        assert int(w.period.sum()) == 0, f"non-principality failed, q={q}"
        big = np.arange(1, 10**6 + 1, dtype=np.int64)
        running = np.cumsum(w.period[big % q].astype(np.int64))
        assert int(np.abs(running).max()) <= q, f"partial sums exceed q={q}"
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    _report(1, ok, f"7 characters, all axioms hold, {elapsed:.2f}s (< 10s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded 10s"


def test_criterion_2_lemma_decomposition():
    sigmas = (1.1, 1.5, 2.0)
    # The prime-sum tail past 10^7 is -2.879e-9 at sigma = 1.5 and -5.9e-13 at
    # 2.0, so there the truncated residual log L - S - B is held to 1e-8. At
    # 1.1 the tail is -2.998e-6; only the tail radius can bound it.
    residual_sigmas = (1.5, 2.0)
    oracle = {sigma: chi4_prime_sum_mobius(sigma) for sigma in sigmas}
    started = time.perf_counter()
    reports = [verify_log_decomposition(chi4(), sigma, 10**7) for sigma in sigmas]
    elapsed = time.perf_counter() - started
    rows = []
    for r in reports:
        full_sum, cut_bound = oracle[r.sigma]
        gap = abs(r.log_l_value - r.b_value - full_sum)
        gap_budget = (
            r.log_l_radius + r.b_radius + cut_bound + math.ulp(full_sum)
        )
        tail = full_sum - r.prime_sum_value
        rows.append((r, gap, gap_budget, tail))
    lemma = all(gap < 1e-8 and gap <= budget for _, gap, budget, _ in rows)
    tail_covered = all(abs(tail) <= r.prime_sum_radius for r, _, _, tail in rows)
    residual_small = all(
        abs(r.residual) < 1e-8 for r in reports if r.sigma in residual_sigmas
    )
    within = all(r.within_radii for r in reports)
    detail = ", ".join(
        f"sigma={r.sigma}: |log L - B - F|={gap:.1e} (<= {budget:.1e}), "
        f"tail F - S(1e7)={tail:.3e}, residual={r.residual:.3e}"
        for r, gap, budget, tail in rows
    )
    ok = lemma and tail_covered and residual_small and within and elapsed < 60.0
    _report(2, ok, f"{detail}, {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0
    assert within, "residual escaped the summed radii"
    for r, gap, budget, tail in rows:
        assert gap < 1e-8, (
            f"|log L - B - F| = {gap:.3e} at sigma={r.sigma} exceeds 1e-8"
        )
        assert gap <= budget, (
            f"|log L - B - F| = {gap:.3e} at sigma={r.sigma} exceeds the "
            f"log L and B radii plus the oracle bound, {budget:.3e}"
        )
        assert abs(tail) <= r.prime_sum_radius, (
            f"prime-sum tail {tail:.3e} at sigma={r.sigma} escapes its "
            f"radius {r.prime_sum_radius:.3e}"
        )
        if r.sigma in residual_sigmas:
            assert abs(r.residual) < 1e-8, (
                f"residual {r.residual:.3e} at sigma={r.sigma} exceeds 1e-8"
            )


def test_criterion_3_euler_product_equivalence():
    started = time.perf_counter()
    checked = []
    for d in (-4, 5):
        w = character_from_discriminant(d)
        for sigma in (1.5, 2.0, 3.0):
            series = l_value(w, sigma, 10**6)
            product = euler_product_value(w, sigma, 10**5)
            gap = abs(series.value - product.value)
            budget = series.radius + product.radius
            checked.append(gap <= budget)
    elapsed = time.perf_counter() - started
    ok = all(checked) and elapsed < 30.0
    _report(3, ok, f"6 (character, sigma) pairs agree within radii, {elapsed:.1f}s (< 30s)")
    assert all(checked)
    assert elapsed < 30.0


def test_criterion_4_mellin_identity():
    started = time.perf_counter()
    rng = random.Random(20260811)
    w = chi4()
    worst = 0.0
    for _ in range(20):
        sigma = rng.uniform(0.0, 2.99)
        s = sigma + (3.0 - sigma) * rng.uniform(1e-6, 1.0)
        x_limit = rng.randint(2, 10**5)
        worst = max(worst, mellin_identity_check(w, sigma, s, x_limit))
    degenerate = mellin_identity_check(w, 1.25, 1.25, 10**4)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and degenerate == 0.0 and elapsed < 10.0
    _report(4, ok, f"worst residual {worst:.2e} (< 1e-10), degenerate {degenerate}, {elapsed:.1f}s (< 10s)")
    assert worst < 1e-10
    assert degenerate == 0.0
    assert elapsed < 10.0


def test_criterion_5_exact_race_oracle():
    oracle = race_sigma0_brute(10**5)
    walk, walk_final = sign_change_walk([a for _, a in oracle])
    expected = tuple(oracle[i][0] for i in walk)
    started = time.perf_counter()
    series = weighted_race(chi4(), 0.0, 10**5, checkpoints=[p for p, _ in oracle])
    report = detect_sign_changes(series)
    elapsed = time.perf_counter() - started
    complete = len(series.points) == len(oracle) == 9592
    mismatches = [
        (pt.x, pt.value, want)
        for pt, (p, want) in zip(series.points, oracle)
        if pt.x != p or pt.value != float(want)
    ]
    signs_agree = (
        report.change_locations == expected
        and report.change_count == 2
        and report.first_positive_x == 26861
        and report.final_sign == walk_final == -1
        and report.ambiguous_count == 0
    )
    ok = complete and not mismatches and signs_agree and elapsed < 5.0
    _report(
        5,
        ok,
        f"values match brute force at all {len(oracle)} primes, "
        f"sign changes expected at {expected}, found at {report.change_locations}, "
        f"first positive x={report.first_positive_x}, {elapsed:.2f}s (< 5s)",
    )
    assert complete, f"{len(series.points)} race values for {len(oracle)} primes"
    assert not mismatches, f"first mismatch: {mismatches[:1]}"
    assert elapsed < 5.0
    assert report.change_locations == expected
    assert report.change_count == 2
    assert report.first_positive_x == 26861  # Leech (1957)
    assert report.final_sign == walk_final == -1
    assert report.ambiguous_count == 0


def test_criterion_6_l_value_oracles():
    started = time.perf_counter()
    pi_oracle, pi_bound = machin_pi_over_4()
    cat_oracle, cat_bound = catalan_alternating(10**6)
    lv1 = l_value(chi4(), 1.0, 10**6)
    lv2 = l_value(chi4(), 2.0, 10**5)
    d1 = abs(lv1.value - pi_oracle)
    d2 = abs(lv2.value - cat_oracle)
    covered = (lv1.radius + pi_bound >= d1) and (lv2.radius + cat_bound >= d2)
    elapsed = time.perf_counter() - started
    ok = d1 < 1e-10 and d2 < 1e-10 and covered and elapsed < 10.0
    _report(6, ok, f"|L(1)-pi/4|={d1:.2e}, |L(2)-Catalan|={d2:.2e}, radii cover, {elapsed:.1f}s (< 10s)")
    assert d1 < 1e-10 and d2 < 1e-10
    assert covered
    assert elapsed < 10.0


def test_criterion_7_bias_bound_scan():
    grid = [round(0.55 + 0.05 * i, 2) for i in range(9)]  # 0.55 .. 0.95
    # unsigned mass of the primes in (5e6, 1e7], dropped by halving x_max
    dropped = {
        sigma: prime_power_sum(sigma, 10**7) - prime_power_sum(sigma, 5 * 10**6)
        for sigma in grid
    }
    started = time.perf_counter()
    full = bias_bound_scan(chi4(), grid, 10**7)
    half = bias_bound_scan(chi4(), grid, 5 * 10**6)
    finite = all(r.status == "ok" and math.isfinite(r.r_value) and r.r_radius > 0 for r in full)
    honest = []
    for f, h in zip(full, half):
        allowance = dropped[f.sigma] + f.r_radius + h.r_radius
        honest.append(abs(f.r_value - h.r_value) <= allowance)
    elapsed = time.perf_counter() - started
    ok = finite and all(honest) and elapsed < 120.0
    _report(
        7,
        ok,
        f"9 grid rows finite with radii, halved-x_max shifts within disclosed "
        f"truncation, {elapsed:.1f}s (< 120s)",
    )
    assert finite
    assert all(honest)
    assert elapsed < 120.0


def test_criterion_8_conjecture_scan_deterministic():
    started = time.perf_counter()
    points = [10**k for k in range(3, 9)]
    first = conjecture_scan(points)
    second = conjecture_scan(points)
    identical = [
        (p.x, p.value, p.error_bound) for p in first.points
    ] == [(p.x, p.value, p.error_bound) for p in second.points]
    elapsed = time.perf_counter() - started
    ok = identical and first.all_negative_beyond_1000 and elapsed < 300.0
    _report(
        8,
        ok,
        f"trajectory to 1e8 reproduced identically twice; min A={first.min_value:.6f} "
        f"at x={first.min_x}; all sampled values beyond 1e3 negative: "
        f"{first.all_negative_beyond_1000}; {elapsed:.1f}s (< 300s)",
    )
    assert identical
    assert isinstance(first.all_negative_beyond_1000, bool)  # observation, not a limit claim
    assert elapsed < 300.0


def test_criterion_9_performance():
    started = time.perf_counter()
    count = sum(1 for _ in prime_stream(10**8))
    stream_time = time.perf_counter() - started
    assert count == 5761455

    started = time.perf_counter()
    series = weighted_race(chi4(), 0.5, 10**8)
    race_time = time.perf_counter() - started
    ok = stream_time < 10.0 and race_time < 60.0
    _report(
        9,
        ok,
        f"prime_stream(1e8): {stream_time:.1f}s (< 10s); race sigma=1/2 to 1e8: "
        f"{race_time:.1f}s (< 60s), A={series.final_value:.6f}",
    )
    assert stream_time < 10.0
    assert race_time < 60.0


def test_criterion_10_two_runs_give_the_same_bytes(tmp_path):
    # one thread does all the work, so two runs give the same bytes
    started = time.perf_counter()
    outputs = {}
    for run in (1, 2):
        sign_path = tmp_path / f"sign_{run}.json"
        bias_path = tmp_path / f"bias_{run}.csv"
        conj_path = tmp_path / f"conj_{run}.csv"
        assert cli_main(["sign-changes", "--sigma", "0", "--xmax", "1e5",
                         "--out", str(sign_path)]) == 0
        assert cli_main(["bias-scan", "--grid", "0.55:0.95:0.05", "--xmax", "1e7",
                         "--out", str(bias_path)]) == 0
        assert cli_main(["conjecture", "--points", "1e3,1e4,...,1e8",
                         "--out", str(conj_path)]) == 0
        outputs[run] = (
            sign_path.read_bytes(),
            bias_path.read_bytes(),
            conj_path.read_bytes(),
        )
    identical = outputs[1] == outputs[2]
    elapsed = time.perf_counter() - started
    _report(10, identical, f"criterion 5/7/8 outputs byte-identical across two runs, {elapsed:.1f}s")
    assert identical
