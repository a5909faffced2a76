"""Command-line interface and experiment runner.

Every numeric CSV field uses scientific notation with 17 significant digits
and '.' as the decimal point, so re-runs produce byte-identical bodies.
Exit codes: 0 success, 2 validation, 3 compute-domain, 4 I/O.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from ._version import __version__
from .characters import build_character
from .config import (
    PATH_KEYS,
    ExperimentConfig,
    load_config,
    parse_count,
    parse_grid,
    parse_points,
    parse_real,
    parse_real_list,
    serialize_config,
    validate_config,
)
from .errors import CapabilityError, DomainError, ValidationError
from .lfun import (
    bias_bound_scan,
    conjecture_scan,
    l_value,
    mellin_identity_check,
    verify_log_decomposition,
)
from .races import (
    default_checkpoints,
    detect_sign_changes,
    race_extended,
    weighted_race,
)
from .sieve import iter_prime_arrays, prime_count


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return format(float(value), ".16e")


def _check_writable(paths) -> None:
    """Open each output path for appending, so a bad path fails before any work.

    A file that did not exist is removed again, and an existing file is left
    untouched.
    """
    for path in paths:
        if path is None:
            continue
        existed = os.path.exists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _write_csv(path: str | None, header: list[str], rows: list[tuple]) -> None:
    formatted = [[_fmt(v) for v in row] for row in rows]
    if path is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _character(ns) -> "DirichletWeight":
    return build_character(getattr(ns, "character", None) or "kronecker:-4")


def cmd_sieve(ns) -> dict:
    limit = ns.limit
    if ns.count_only:
        print(prime_count(limit))
        return {"radii": {}, "outputs": []}
    if ns.emit:
        with open(ns.emit, "w", encoding="utf-8") as fh:
            for primes in iter_prime_arrays(limit):
                fh.write("\n".join(map(str, primes.tolist())))
                fh.write("\n")
        return {"radii": {}, "outputs": [ns.emit]}
    for primes in iter_prime_arrays(limit):
        sys.stdout.write("\n".join(map(str, primes.tolist())))
        sys.stdout.write("\n")
    return {"radii": {}, "outputs": []}


def cmd_character(ns) -> dict:
    w = build_character(ns.spec)
    if ns.print_period:
        print(",".join(str(int(v)) for v in w.period))
    else:
        print(f"kind={w.kind} modulus={w.modulus} non_principal=true")
    return {"radii": {}, "outputs": []}


def _race_rows(series) -> list[tuple]:
    by_x = {}
    for e in series.sign_events or ():
        by_x[e.prime] = (e.prime, e.value, e.error_bound, e.sign_after)
    for p in series.points:  # checkpoint values are authoritative on ties
        by_x[p.x] = (p.x, p.value, p.error_bound, p.effective_sign)
    return [by_x[x] for x in sorted(by_x)]


def cmd_race(ns) -> dict:
    w = _character(ns)
    if getattr(ns, "precision", "standard") == "oracle":
        checkpoints = _checkpoint_list(ns.checkpoints, ns.xmax)
        if checkpoints is None:
            checkpoints = default_checkpoints(ns.xmax)
        values = race_extended(w, ns.sigma, checkpoints)
        rows = [(x, v, 0.0, (v > 0) - (v < 0)) for x, v in values]
        _write_csv(ns.out, ["x", "A", "error_bound", "effective_sign"], rows)
        return {"radii": {"running_error": 0.0}, "outputs": [ns.out] if ns.out else []}
    series = weighted_race(w, ns.sigma, ns.xmax, checkpoints=_checkpoint_list(ns.checkpoints, ns.xmax))
    _write_csv(ns.out, ["x", "A", "error_bound", "effective_sign"], _race_rows(series))
    return {
        "radii": {"running_error": series.running_error},
        "outputs": [ns.out] if ns.out else [],
    }


def _checkpoint_list(spec: str, x_max: int):
    if spec is None or spec == "geometric":
        return None  # race default
    if spec == "none":
        return (x_max,)
    return [parse_count(tok, "checkpoints") for tok in spec.split(",") if tok.strip()]


def cmd_sign_changes(ns) -> dict:
    w = _character(ns)
    series = weighted_race(w, ns.sigma, ns.xmax, checkpoints=(ns.xmax,))
    report = detect_sign_changes(series)
    payload = {
        "change_count": report.change_count,
        "change_locations": list(report.change_locations),
        "final_sign": report.final_sign,
        "first_positive_x": report.first_positive_x,
        "ambiguous_count": report.ambiguous_count,
    }
    _write_json(ns.out, payload)
    return {
        "radii": {"running_error": series.running_error},
        "outputs": [ns.out] if ns.out else [],
    }


def cmd_lvalue(ns) -> dict:
    w = _character(ns)
    bv = l_value(w, ns.sigma, ns.ntrunc)
    rows = [(bv.value, bv.radius)]
    _write_csv(ns.out, ["value", "radius"], rows)
    return {"radii": {"l_value": bv.radius}, "outputs": [ns.out] if ns.out else []}


def cmd_verify_lemma(ns) -> dict:
    w = _character(ns)
    header = [
        "sigma",
        "log_l_value", "log_l_radius",
        "prime_sum_value", "prime_sum_radius",
        "b_value", "b_radius",
        "residual", "radius_budget", "within_radii",
    ]
    rows = []
    radii = []
    for sigma in ns.sigma_grid:
        rep = verify_log_decomposition(w, sigma, ns.prime_limit, n_trunc=ns.ntrunc)
        rows.append(
            (
                rep.sigma,
                rep.log_l.value, rep.log_l.radius,
                rep.prime_sum.value, rep.prime_sum.radius,
                rep.b_value.value, rep.b_value.radius,
                rep.residual, rep.radius_budget, rep.within_radii,
            )
        )
        radii.append(
            {
                "sigma": rep.sigma,
                "log_l": rep.log_l.radius,
                "prime_sum": rep.prime_sum.radius,
                "b_value": rep.b_value.radius,
            }
        )
    _write_csv(ns.out, header, rows)
    return {"radii": {"decomposition": radii}, "outputs": [ns.out] if ns.out else []}


def cmd_bias_scan(ns) -> dict:
    w = _character(ns)
    points = bias_bound_scan(w, ns.grid, ns.xmax, n_trunc=ns.ntrunc)
    header = [
        "sigma", "x_max", "status",
        "r_value", "r_radius",
        "log_l_value", "log_l_radius",
        "race_value", "race_error",
        "penalty",
    ]
    rows = [
        (
            p.sigma, p.x_max, p.status,
            p.r_value, p.r_radius,
            p.log_l_value, p.log_l_radius,
            p.race_value, p.race_error,
            p.penalty,
        )
        for p in points
    ]
    _write_csv(ns.out, header, rows)
    radii = [
        {"sigma": p.sigma, "r": p.r_radius, "log_l": p.log_l_radius, "race": p.race_error}
        for p in points
    ]
    return {"radii": {"bias_scan": radii}, "outputs": [ns.out] if ns.out else []}


def cmd_mellin_check(ns) -> dict:
    w = _character(ns)
    residual = mellin_identity_check(w, ns.sigma, ns.s, ns.x)
    print(f"residual={_fmt(residual)}")
    return {"radii": {"mellin_residual": residual}, "outputs": []}


def cmd_conjecture(ns) -> dict:
    scan = conjecture_scan(ns.points, budget=ns.budget)
    rows = [(p.x, p.value, p.error_bound) for p in scan.points]
    _write_csv(ns.out, ["x", "A", "error_bound"], rows)
    summary = {
        "min_value": scan.min_value,
        "min_x": scan.min_x,
        "final_value": scan.final_value,
        "final_x": scan.final_x,
        "all_negative_beyond_1000": scan.all_negative_beyond_1000,
    }
    if ns.report:
        _write_json(ns.report, summary)
    print(
        f"min A={_fmt(scan.min_value)} at x={scan.min_x}; "
        f"final A={_fmt(scan.final_value)} at x={scan.final_x}; "
        f"all sampled values beyond 1e3 negative: {summary['all_negative_beyond_1000']}"
    )
    return {
        "radii": {"error_bounds": [p.error_bound for p in scan.points]},
        "outputs": [p for p in (ns.out, ns.report) if p],
    }


def _config_to_argv(cfg: ExperimentConfig) -> list[str]:
    argv = [cfg.command]
    for key, value in cfg.options:
        if key == "manifest":
            continue
        flag = "--" + key.replace("_", "-")
        if key in ("count_only", "print_period"):
            if value.strip().lower() in ("true", "1", "yes"):
                argv.append(flag)
        else:
            argv.extend([flag, value])
    return argv


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Validate a config, run its command, write outputs plus a manifest.

    The manifest JSON records the config, the package version, the wall time,
    and every radius the run produced. Returns {"radii", "outputs",
    "manifest"}.
    """
    validate_config(cfg)
    _check_writable(cfg.get(key) for key in PATH_KEYS)
    parser = build_parser()
    inner = parser.parse_args(_config_to_argv(cfg))
    started = time.perf_counter()
    result = inner.func(inner)
    elapsed = time.perf_counter() - started

    manifest_path = cfg.get("manifest")
    if manifest_path is None:
        outputs = result.get("outputs") or []
        manifest_path = (outputs[0] + ".manifest.json") if outputs else "manifest.json"
    manifest = {
        "command": cfg.command,
        "config": dict(cfg.options),
        "config_text": serialize_config(cfg),
        "version": __version__,
        "wall_time_seconds": elapsed,
        "radii": result.get("radii", {}),
        "outputs": result.get("outputs", []),
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return {
        "radii": result.get("radii", {}),
        "outputs": result.get("outputs", []),
        "manifest": manifest_path,
    }


def cmd_run(ns) -> dict:
    cfg = load_config(ns.config)
    overrides = {}
    for item in ns.set or []:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if overrides:
        cfg = cfg.with_overrides(overrides)
    result = run_experiment(cfg)
    print(f"manifest written to {result['manifest']}")
    return result


def _count(field: str):
    """argparse type for a count flag; errors name the field."""
    return lambda text: parse_count(text, field)


def _real(field: str):
    """argparse type for a finite real flag; errors name the field."""
    return lambda text: parse_real(text, field)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primerace",
        description="Weighted prime races, sign changes, and rigorously bounded L-values.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="stream primes up to a limit")
    p.add_argument("--limit", type=_count("limit"), required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", metavar="PATH", help="write one prime per line")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("character", help="build and inspect a character")
    p.add_argument("--spec", required=True, help="kronecker:<d> or table:<q>:<comma-values>")
    p.add_argument("--print-period", action="store_true")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("race", help="stream the weighted race and emit CSV")
    p.add_argument("--character", default="kronecker:-4")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--xmax", type=_count("xmax"), required=True)
    p.add_argument("--checkpoints", default="geometric", help="geometric | none | comma list")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--precision", choices=("standard", "oracle"), default="standard")
    p.set_defaults(func=cmd_race)

    p = sub.add_parser("sign-changes", help="JSON sign-change report for a race")
    p.add_argument("--character", default="kronecker:-4")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--xmax", type=_count("xmax"), required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_sign_changes)

    p = sub.add_parser("lvalue", help="L(sigma, chi) with proven radius")
    p.add_argument("--character", default="kronecker:-4")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--ntrunc", type=_count("ntrunc"), required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("verify-lemma", help="log L = prime sum + B, numerically")
    p.add_argument("--character", default="kronecker:-4")
    p.add_argument("--sigma-grid", type=lambda t: parse_real_list(t, "sigma_grid"), required=True)
    p.add_argument("--prime-limit", type=_count("prime_limit"), required=True)
    p.add_argument("--ntrunc", type=_count("ntrunc"), default=None)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("bias-scan", help="R(sigma) over a grid in (1/2, 1]")
    p.add_argument("--character", default="kronecker:-4")
    p.add_argument("--grid", type=lambda t: parse_grid(t, "grid"), required=True)
    p.add_argument("--xmax", type=_count("xmax"), required=True)
    p.add_argument("--ntrunc", type=_count("ntrunc"), default=10**6)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_bias_scan)

    p = sub.add_parser("mellin-check", help="residual of the truncated Abel identity")
    p.add_argument("--character", default="kronecker:-4")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--s", type=_real("s"), required=True)
    p.add_argument("--X", dest="x", type=_count("x"), required=True)
    p.set_defaults(func=cmd_mellin_check)

    p = sub.add_parser("conjecture", help="sample the sqrt-weighted mod-4 race")
    p.add_argument("--points", type=lambda t: parse_points(t, "points"), required=True)
    p.add_argument("--budget", type=_count("budget"), default=10**9)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--report", metavar="PATH", help="write the JSON summary here")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config entry")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _check_writable(getattr(ns, key, None) for key in PATH_KEYS)
        ns.func(ns)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, CapabilityError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
