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
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import astuple, fields

from ._version import __version__
from .characters import build_character
from .config import (
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
from .errors import DomainError, ValidationError
from .lfun import (
    _DEFAULT_N_TRUNC,
    BiasPoint,
    BoundedValue,
    bias_bound_scan,
    conjecture_scan,
    decomposition_scan,
    l_value,
    mellin_identity_check,
)
from .races import detect_sign_changes, weighted_race
from .sieve import iter_prime_arrays, prime_count


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return format(float(value), ".16e")


# The options that name an output file; a config may also name the manifest.
_PATH_KEYS = ("emit", "out", "report")


def _check_outputs(paths: dict[str, str | None], config: str | None = None) -> None:
    """Check output paths, given by key, before any work; None is unset.

    A key that repeats a path, however spelt, or names the `config` file is a ValidationError.
    Then each path is opened for appending, so a bad path fails at once: a file
    that did not exist is removed again, and an existing file is left untouched.
    """
    seen = {}  # real path: (key, path as given)
    for key, path in paths.items():
        if path is not None and "\0" in path:
            raise ValidationError(f"{key}: output path {path!r} contains a NUL byte")
        real = path and os.path.realpath(path)
        if real in seen:
            raise ValidationError(f"{key}: output paths must be distinct, and {path!r} "
                                  f"is also the {seen[real][0]} path")
        if path is not None:
            if config is not None and os.path.exists(path) and os.path.samefile(path, config):
                raise ValidationError(f"{key}: output path {path!r} is the config file")
            seen[real] = key, path
    for _, path in seen.values():
        existed = os.path.exists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _output(path: str | None):
    """The file at path opened for writing, or stdout (left open) if path is None."""
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _write_csv(path: str | None, header: list[str], rows: list[tuple]) -> None:
    formatted = [[_fmt(v) for v in row] for row in rows]
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    with _output(path) as fh:
        fh.write(text)


def _write_records(path: str | None, cls: type, records: list) -> None:
    """CSV of dataclass records: the field names are the header."""
    _write_csv(path, [f.name for f in fields(cls)], [astuple(r) for r in records])


def _fields_dict(record, skip: tuple[str, ...] = ()) -> dict:
    """A dataclass record's fields in declaration order, for a JSON payload."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


# Every command returns the radii its run produced; `main` ignores them and
# `run_experiment` records them in the manifest.


def cmd_sieve(ns) -> dict:
    if ns.count_only:
        print(prime_count(ns.limit))
        return {}
    with _output(ns.emit) as fh:
        for primes in iter_prime_arrays(ns.limit):
            fh.write("\n".join(map(str, primes.tolist())))
            fh.write("\n")
            del primes  # before the next segment is sieved
    return {}


def cmd_character(ns) -> dict:
    if ns.print_period:
        print(",".join(str(int(v)) for v in ns.spec.period))
    else:
        print(f"kind={ns.spec.kind} modulus={ns.spec.modulus} non_principal=true")
    return {}


def _race_rows(series) -> list[tuple]:
    by_x = {p.x: p for p in series.sign_events}
    by_x.update((p.x, p) for p in series.points)  # checkpoint values win ties
    return [astuple(by_x[x]) for x in sorted(by_x)]


def cmd_race(ns) -> dict:
    checkpoints = (ns.xmax,) if ns.checkpoints == "none" else ns.checkpoints
    series = weighted_race(ns.character, ns.sigma, ns.xmax, checkpoints=checkpoints)
    _write_csv(ns.out, ["x", "A", "error_bound", "effective_sign"], _race_rows(series))
    return {"running_error": series.running_error}


def cmd_sign_changes(ns) -> dict:
    series = weighted_race(ns.character, ns.sigma, ns.xmax, checkpoints=(ns.xmax,))
    _write_json(ns.out, _fields_dict(detect_sign_changes(series)))
    return {"running_error": series.running_error}


def cmd_lvalue(ns) -> dict:
    bv = l_value(ns.character, ns.sigma, ns.ntrunc)
    _write_records(ns.out, BoundedValue, [bv])
    return {"l_value": bv.radius}


def cmd_verify_lemma(ns) -> dict:
    header = [
        "sigma",
        "log_l_value", "log_l_radius",
        "prime_sum_value", "prime_sum_radius",
        "b_value", "b_radius",
        "residual", "radius_budget", "within_radii",
    ]
    reports = decomposition_scan(ns.character, ns.sigma_grid, ns.prime_limit, n_trunc=ns.ntrunc)
    rows = [
        (r.sigma, *astuple(r.log_l), *astuple(r.prime_sum), *astuple(r.b_value),
         r.residual, r.radius_budget, r.within_radii)
        for r in reports
    ]
    radii = [
        {"sigma": r.sigma, "log_l": r.log_l.radius, "prime_sum": r.prime_sum.radius,
         "b_value": r.b_value.radius}
        for r in reports
    ]
    _write_csv(ns.out, header, rows)
    return {"decomposition": radii}


def cmd_bias_scan(ns) -> dict:
    points = bias_bound_scan(ns.character, ns.grid, ns.xmax, n_trunc=ns.ntrunc)
    _write_records(ns.out, BiasPoint, points)
    radii = []
    for p in points:
        ok = p.status == "ok"  # a log-domain-error row has no r or log L radius: null, not NaN
        radii.append({"sigma": p.sigma, "r": p.r_radius if ok else None,
                      "log_l": p.log_l_radius if ok else None, "race": p.race_error})
    return {"bias_scan": radii}


def cmd_mellin_check(ns) -> dict:
    residual = mellin_identity_check(ns.character, ns.sigma, ns.s, ns.x)
    print(f"residual={_fmt(residual)}")
    return {"mellin_residual": residual}


def cmd_conjecture(ns) -> dict:
    scan = conjecture_scan(ns.points)
    rows = [(p.x, p.value, p.error_bound) for p in scan.points]
    _write_csv(ns.out, ["x", "A", "error_bound"], rows)
    if ns.report:
        _write_json(ns.report, _fields_dict(scan, skip=("points",)))
    print(  # on stderr, so a CSV on stdout stays parseable
        f"min A={_fmt(scan.min_value)} at x={scan.min_x}; "
        f"final A={_fmt(scan.final_value)} at x={scan.final_x}; "
        f"all sampled values beyond 1e3 negative: {scan.all_negative_beyond_1000}",
        file=sys.stderr,
    )
    return {"error_bounds": [p.error_bound for p in scan.points]}


def _config_options(parser: argparse.ArgumentParser) -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand a config may name (all but `run`): its options by dest, the config keys."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
            for name, sub in action.choices.items() if name != "run"}


def run_experiment(cfg: ExperimentConfig, config_path: str | None = None) -> dict:
    """Validate a config, run its command, write outputs plus a manifest.

    The config becomes the command line it stands for, read by the CLI's own
    parser, so it gives the Namespace the matching flags give, and the same
    checks run in the same order as in `main`: parse, distinct and writable
    output paths, then the command. The outputs are the given `emit`, `out`
    and `report` paths; the manifest goes to `manifest`, else to `<first
    output>.manifest.json`, else to `manifest.json`. That path is checked with
    the others, and none may name `config_path`, the config's own file.

    The manifest JSON records the config, the package version, the wall time,
    and every radius the run produced. Returns {"radii", "outputs",
    "manifest"}.
    """
    parser = build_parser()
    ns = parser.parse_args(validate_config(cfg, _config_options(parser)))
    paths = {key: getattr(ns, key, None) for key in _PATH_KEYS}
    outputs = [path for path in paths.values() if path is not None]
    default_manifest = (outputs[0] + ".manifest.json") if outputs else "manifest.json"
    manifest_path = cfg.get("manifest", default_manifest)
    _check_outputs({**paths, "manifest": manifest_path}, config_path)
    started = time.perf_counter()
    radii = ns.func(ns)
    elapsed = time.perf_counter() - started

    manifest = {
        "command": cfg.command,
        "config": dict(cfg.options),
        "config_text": serialize_config(cfg),
        "version": __version__,
        "wall_time_seconds": elapsed,
        "radii": radii,
        "outputs": outputs,
    }
    _write_json(manifest_path, manifest)
    return {"radii": radii, "outputs": outputs, "manifest": manifest_path}


def cmd_run(ns) -> dict:
    cfg = load_config(ns.config)
    overrides = {}
    for item in ns.set or []:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    result = run_experiment(cfg.with_overrides(overrides), ns.config)
    print(f"manifest written to {result['manifest']}")
    return result["radii"]


def _count(field: str):
    """argparse type for a count flag; errors name the field."""
    return lambda text: parse_count(text, field)


def _real(field: str):
    """argparse type for a finite real flag; errors name the field."""
    return lambda text: parse_real(text, field)


def _checkpoints(text: str):
    """argparse type for --checkpoints: None (geometric), "none" (x_max alone) or counts."""
    if text in ("geometric", "none"):
        return None if text == "geometric" else text
    return [parse_count(tok, "checkpoints") for tok in text.split(",") if tok.strip()]


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal as a value.

    argparse counts only -<digits> and -<digits>.<digits> as numbers, so
    `--sigma -1e3` would fail with a missing argument instead of reaching the
    range check that a config's `sigma = -1e3` reaches. A parse error is a
    ValidationError, with no usage text. Subparsers inherit both.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primerace",
        description="Weighted prime races, sign changes, and rigorously bounded L-values.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse types the string default too, so every command gets a built character
    chi = argparse.ArgumentParser(add_help=False)
    chi.add_argument("--character", type=build_character, default="kronecker:-4")

    p = sub.add_parser("sieve", help="stream primes up to a limit")
    p.add_argument("--limit", type=_count("limit"), required=True)
    writes = p.add_mutually_exclusive_group()  # --count-only writes no file
    writes.add_argument("--count-only", action="store_true")
    writes.add_argument("--emit", metavar="PATH", help="write one prime per line")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("character", help="build and inspect a character")
    p.add_argument("--spec", type=build_character, required=True,
                   help="kronecker:<d> or table:<q>:<comma-values>")
    p.add_argument("--print-period", action="store_true")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("race", parents=[chi], help="stream the weighted race and emit CSV")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--xmax", type=_count("xmax"), required=True)
    p.add_argument("--checkpoints", type=_checkpoints, default="geometric",
                   help="geometric | none | comma list")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_race)

    p = sub.add_parser("sign-changes", parents=[chi], help="JSON sign-change report for a race")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--xmax", type=_count("xmax"), required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_sign_changes)

    p = sub.add_parser("lvalue", parents=[chi], help="L(sigma, chi) with proven radius")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--ntrunc", type=_count("ntrunc"), required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("verify-lemma", parents=[chi], help="log L = prime sum + B, numerically")
    p.add_argument("--sigma-grid", type=lambda t: parse_real_list(t, "sigma_grid"), required=True)
    p.add_argument("--prime-limit", type=_count("prime_limit"), required=True)
    p.add_argument("--ntrunc", type=_count("ntrunc"), default=_DEFAULT_N_TRUNC)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("bias-scan", parents=[chi], help="R(sigma) over a grid in (1/2, 1]")
    p.add_argument("--grid", type=lambda t: parse_grid(t, "grid"), required=True)
    p.add_argument("--xmax", type=_count("xmax"), required=True)
    p.add_argument("--ntrunc", type=_count("ntrunc"), default=_DEFAULT_N_TRUNC)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_bias_scan)

    p = sub.add_parser("mellin-check", parents=[chi],
                       help="residual of the truncated Abel identity")
    p.add_argument("--sigma", type=_real("sigma"), required=True)
    p.add_argument("--s", type=_real("s"), required=True)
    p.add_argument("--X", dest="x", type=_count("x"), required=True)
    p.set_defaults(func=cmd_mellin_check)

    p = sub.add_parser("conjecture", help="sample the sqrt-weighted mod-4 race")
    p.add_argument("--points", type=lambda t: parse_points(t, "points"), required=True)
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
        _check_outputs({key: getattr(ns, key, None) for key in _PATH_KEYS})
        ns.func(ns)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
