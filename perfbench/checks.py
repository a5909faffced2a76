"""Known-answer checks for the benchmark workloads' outputs.

Each ``check_*`` takes the output bytes of one operation and returns a list
of problems; an empty list means the output is correct. The oracles are
independent of primerace where one exists:

- signs: Bays & Hudson (1978) leader-change points of pi(x;4,1) vs
  pi(x;4,3), plus a byte-for-byte stored reference (sigma = 0 is exact).
- bias, lemma: log L(sigma, chi_4) from ``mpmath.dirichlet`` must lie within
  the reported radius; race, prime-sum and B values must agree with the
  stored reference within the sum of both radii.

`perturbations` builds wrong variants of a correct output; `self_test`
requires the checker to reject every one of them.

    python3 perfbench/checks.py      # self-test against the stored references
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

BAYS_HUDSON = (26861, 616841, 12306137, 951784481)
BIAS_GRID = tuple(round(0.55 + 0.05 * i, 2) for i in range(9))
LEMMA_GRID = (1.1, 1.5, 2.0)
CHI4 = [0, 1, 0, -1]


def reference(workload: str) -> bytes:
    return (REFERENCE / {"signs": "signs.json", "bias": "bias.csv",
                         "lemma": "lemma.csv"}[workload]).read_bytes()


def _rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _agree(value: str, radius: str, ref_value: str, ref_radius: str) -> bool:
    diff = abs(Fraction(float(value)) - Fraction(float(ref_value)))
    return diff <= Fraction(float(radius)) + Fraction(float(ref_radius))


def _check_log_l(row: dict[str, str]) -> list[str]:
    """log_l_value must lie within its radius of the mpmath value."""
    import mpmath

    sigma = float(row["sigma"])
    with mpmath.workdps(40):
        oracle = mpmath.log(mpmath.dirichlet(mpmath.mpf(sigma), CHI4))
        err = abs(mpmath.mpf(float(row["log_l_value"])) - oracle)
        if err > mpmath.mpf(float(row["log_l_radius"])):
            return [f"sigma={sigma}: log_l_value is {mpmath.nstr(err, 3)} from the "
                    f"mpmath value, radius {row['log_l_radius']}"]
    return []


def _check_grid(rows, grid) -> list[str]:
    sigmas = tuple(round(float(r["sigma"]), 2) for r in rows)
    return [] if sigmas == grid else [f"sigma column {sigmas} != {grid}"]


def check_signs(data: bytes) -> list[str]:
    problems = []
    if data != reference("signs"):
        problems.append("JSON body differs from the stored reference")
    try:
        report = json.loads(data)
        locations = report["change_locations"]
        final_sign = report["final_sign"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    # A(x) starts negative (chi(3) = -1), so up-crossings are the even-indexed
    # changes; a region starts where a change lies > 10% past the previous one.
    up = set(locations[0::2])
    starts = [x for i, x in enumerate(locations) if i == 0 or x > 1.1 * locations[i - 1]]
    if tuple(starts) != BAYS_HUDSON or not up.issuperset(BAYS_HUDSON):
        problems.append(f"positive excursions begin at {starts}, expected {list(BAYS_HUDSON)}")
    if report.get("change_count") != len(locations) or final_sign != (-1) ** (len(locations) + 1):
        problems.append("change_count or final_sign inconsistent with change_locations")
    if report.get("first_positive_x") != BAYS_HUDSON[0]:
        problems.append(f"first_positive_x {report.get('first_positive_x')} != {BAYS_HUDSON[0]}")
    if report.get("ambiguous_count") != 0:
        problems.append("ambiguous_count must be 0 at sigma = 0")
    return problems


def check_bias(data: bytes) -> list[str]:
    rows, ref = _rows(data), _rows(reference("bias"))
    problems = _check_grid(rows, BIAS_GRID)
    if problems:
        return problems
    for row, r in zip(rows, ref):
        sigma = float(row["sigma"])
        if row["status"] != "ok":
            problems.append(f"sigma={sigma}: status {row['status']}")
            continue
        if row["x_max"] != "100000000":
            problems.append(f"sigma={sigma}: x_max {row['x_max']}")
        problems += _check_log_l(row)
        if not _agree(row["race_value"], row["race_error"], r["race_value"], r["race_error"]):
            problems.append(f"sigma={sigma}: race_value disagrees with the reference")
    return problems


def check_lemma(data: bytes) -> list[str]:
    rows, ref = _rows(data), _rows(reference("lemma"))
    problems = _check_grid(rows, LEMMA_GRID)
    if problems:
        return problems
    for row, r in zip(rows, ref):
        sigma = float(row["sigma"])
        if row["within_radii"] != "true":
            problems.append(f"sigma={sigma}: within_radii is {row['within_radii']}")
        problems += _check_log_l(row)
        for key in ("prime_sum", "b"):
            if not _agree(row[f"{key}_value"], row[f"{key}_radius"],
                          r[f"{key}_value"], r[f"{key}_radius"]):
                problems.append(f"sigma={sigma}: {key}_value disagrees with the reference")
    return problems


CHECKS = {"signs": check_signs, "bias": check_bias, "lemma": check_lemma}


def _edit_csv(data: bytes, edit) -> bytes:
    rows = _rows(data)
    edit(rows[0])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _shift(row, key, radius_key, factor):
    row[key] = format(float(row[key]) + factor * float(row[radius_key]), ".16e")


def perturbations(workload: str, data: bytes) -> dict[str, bytes]:
    """Wrong variants of a correct output, each of which must be rejected."""
    if workload == "signs":
        report = json.loads(data)
        moved = dict(report, change_locations=list(report["change_locations"]))
        moved["change_locations"][5] += 2
        late = dict(report, change_locations=list(report["change_locations"]))
        late["change_locations"][124] = 951784483
        return {
            "one sign location moved": (json.dumps(moved, indent=2) + "\n").encode(),
            "Bays-Hudson point moved": (json.dumps(late, indent=2) + "\n").encode(),
        }
    out = {
        "log_l shifted by twice its radius": _edit_csv(
            data, lambda r: _shift(r, "log_l_value", "log_l_radius", 2.0)),
    }
    if workload == "bias":
        out["race_value shifted by 3 radii"] = _edit_csv(
            data, lambda r: _shift(r, "race_value", "race_error", 6.0))
        out["status not ok"] = _edit_csv(data, lambda r: r.update(status="log-domain-error"))
    else:
        out["b_value shifted by 3 radii"] = _edit_csv(
            data, lambda r: _shift(r, "b_value", "b_radius", 6.0))
        out["within_radii false"] = _edit_csv(data, lambda r: r.update(within_radii="false"))
    return out


def self_test(workload: str, data: bytes) -> list[str]:
    """Problems with the checker itself: each perturbation must be rejected."""
    check = CHECKS[workload]
    return [f"checker accepted a perturbed {workload} output: {label}"
            for label, bad in perturbations(workload, data).items() if not check(bad)]


if __name__ == "__main__":
    failures = []
    for name, check in CHECKS.items():
        failures += [f"{name} reference: {p}" for p in check(reference(name))]
        failures += self_test(name, reference(name))
    print("\n".join(failures) or "checker self-test passed: references accepted, "
          "every perturbed output rejected")
    sys.exit(1 if failures else 0)
