"""Declarative experiment configs: flat key = value files, no nesting.

A config names one subcommand plus its options, using the same option names
as the CLI flags (underscores for dashes). Values stay strings until the
command parses them, so a config round-trips through serialization unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

COMMANDS = (
    "sieve",
    "character",
    "race",
    "sign-changes",
    "lvalue",
    "verify-lemma",
    "bias-scan",
    "mellin-check",
    "conjecture",
)

PATH_KEYS = ("emit", "out", "report", "manifest")

# Largest count any input may name. It bounds what a typo can allocate: the
# base sieve for 10^12 is a 0.5 MB mask up to 10^6, where 1e20 would need 5 GB.
MAX_COUNT = 10**12
_BOOL_KEYS = ("count_only", "print_period")

# option -> (required for these commands, allowed for these commands)
_ALLOWED = {
    "sieve": {"limit", "count_only", "emit", "manifest"},
    "character": {"spec", "print_period", "manifest"},
    "race": {"character", "sigma", "xmax", "checkpoints", "out", "manifest"},
    "sign-changes": {"character", "sigma", "xmax", "out", "manifest"},
    "lvalue": {"character", "sigma", "ntrunc", "out", "manifest"},
    "verify-lemma": {"character", "sigma_grid", "prime_limit", "ntrunc", "out", "manifest"},
    "bias-scan": {"character", "grid", "xmax", "ntrunc", "out", "manifest"},
    "mellin-check": {"character", "sigma", "s", "x", "manifest"},
    "conjecture": {"points", "budget", "out", "report", "manifest"},
}

_REQUIRED = {
    "sieve": {"limit"},
    "character": {"spec"},
    "race": {"sigma", "xmax"},
    "sign-changes": {"sigma", "xmax"},
    "lvalue": {"sigma", "ntrunc"},
    "verify-lemma": {"sigma_grid", "prime_limit"},
    "bias-scan": {"grid", "xmax"},
    "mellin-check": {"sigma", "s", "x"},
    "conjecture": {"points"},
}


def parse_real(text: str, field: str) -> float:
    """Finite float; inf and nan are rejected."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(f"{field}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{field}: expected a finite number, got {text!r}")
    return value


def parse_count(text: str, field: str) -> int:
    """Integer in [0, MAX_COUNT], accepting scientific notation like 1e8."""
    value = parse_real(text, field)
    rounded = int(round(value))
    if abs(value - rounded) > 1e-6 * max(1.0, abs(value)) or rounded < 0:
        raise ValidationError(f"{field}: expected a nonnegative integer, got {text!r}")
    if rounded > MAX_COUNT:
        raise ValidationError(f"{field}: {text!r} exceeds the largest accepted count, {MAX_COUNT}")
    return rounded


def parse_bool(text: str, field: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValidationError(f"{field}: expected true/false, got {text!r}")


def parse_real_list(text: str, field: str) -> list[float]:
    return [parse_real(tok, field) for tok in text.split(",") if tok.strip()]


def parse_points(text: str, field: str = "points") -> list[int]:
    """Comma list of counts; '...' fills decades between its neighbors."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    out: list[int] = []
    for i, tok in enumerate(tokens):
        if tok == "...":
            if not out or i + 1 >= len(tokens):
                raise ValidationError(f"{field}: '...' needs a point on both sides")
            nxt = parse_count(tokens[i + 1], field)
            cur = out[-1] * 10
            while cur < nxt:
                out.append(cur)
                cur *= 10
        else:
            out.append(parse_count(tok, field))
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValidationError(f"{field}: points must be strictly ascending")
    return out


def parse_grid(text: str, field: str = "grid") -> list[float]:
    """'start:stop:step' inclusive grid of sigmas."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"{field}: expected start:stop:step, got {text!r}")
    start, stop, step = (parse_real(p, field) for p in parts)
    if step <= 0 or stop < start:
        raise ValidationError(f"{field}: need step > 0 and stop >= start")
    n = int(round((stop - start) / step)) + 1
    grid = [round(start + i * step, 12) for i in range(n)]
    return [g for g in grid if g <= stop + 1e-12]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a command plus its flat string options."""

    command: str
    options: tuple[tuple[str, str], ...]

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.options:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict[str, str]:
        return dict(self.options)

    def with_overrides(self, overrides: dict[str, str]) -> "ExperimentConfig":
        merged = self.as_dict()
        merged.update(overrides)
        command = merged.pop("command", self.command)
        return ExperimentConfig(command, tuple(sorted(merged.items())))


def parse_config(text: str) -> ExperimentConfig:
    options: dict[str, str] = {}
    command = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValidationError(f"config line {lineno}: empty key or value")
        if key == "command":
            command = value
        elif key in options:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        else:
            options[key] = value
    if command is None:
        raise ValidationError("config: missing required key 'command'")
    return ExperimentConfig(command, tuple(sorted(options.items())))


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"command = {cfg.command}"]
    lines += [f"{k} = {v}" for k, v in sorted(cfg.options)]
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def validate_config(cfg: ExperimentConfig) -> None:
    """Structural and domain validation; raises ValidationError naming the field."""
    if cfg.command not in COMMANDS:
        raise ValidationError(
            f"command: unknown command {cfg.command!r}; expected one of {', '.join(COMMANDS)}"
        )
    allowed = _ALLOWED[cfg.command]
    for key, _ in cfg.options:
        if key not in allowed:
            raise ValidationError(f"{key}: not a valid option for command {cfg.command!r}")
    for key in _REQUIRED[cfg.command]:
        if cfg.get(key) is None:
            raise ValidationError(f"{key}: required for command {cfg.command!r}")

    paths = [cfg.get(k) for k in PATH_KEYS if cfg.get(k) is not None]
    if len(paths) != len(set(paths)):
        raise ValidationError("out: output paths must be distinct")
    for key in _BOOL_KEYS:
        if cfg.get(key) is not None:
            parse_bool(cfg.get(key), key)

    cmd = cfg.command
    if cmd == "sieve":
        parse_count(cfg.get("limit"), "limit")
    elif cmd in ("race", "sign-changes"):
        sigma = parse_real(cfg.get("sigma"), "sigma")
        if not 0.0 <= sigma <= 1.0:
            raise ValidationError(f"sigma: must lie in [0, 1], got {sigma}")
        parse_count(cfg.get("xmax"), "xmax")
    elif cmd == "lvalue":
        if parse_real(cfg.get("sigma"), "sigma") <= 0:
            raise ValidationError("sigma: must be > 0 for lvalue")
        parse_count(cfg.get("ntrunc"), "ntrunc")
    elif cmd == "verify-lemma":
        for s in parse_real_list(cfg.get("sigma_grid"), "sigma_grid"):
            if s <= 1.0:
                raise ValidationError(f"sigma_grid: entries must be > 1, got {s}")
        parse_count(cfg.get("prime_limit"), "prime_limit")
    elif cmd == "bias-scan":
        for s in parse_grid(cfg.get("grid"), "grid"):
            if not 0.5 < s <= 1.0:
                raise ValidationError(f"grid: sigmas must lie in (1/2, 1], got {s}")
        parse_count(cfg.get("xmax"), "xmax")
    elif cmd == "mellin-check":
        sigma = parse_real(cfg.get("sigma"), "sigma")
        s = parse_real(cfg.get("s"), "s")
        if sigma < 0:
            raise ValidationError(f"sigma: must be >= 0, got {sigma}")
        if s < sigma:
            raise ValidationError(f"s: must be >= sigma, got s={s} < sigma={sigma}")
        parse_count(cfg.get("x"), "x")
    elif cmd == "conjecture":
        pts = parse_points(cfg.get("points"), "points")
        budget = parse_count(cfg.get("budget"), "budget") if cfg.get("budget") else 10**9
        if pts[-1] > budget:
            raise ValidationError(
                f"points: largest point {pts[-1]} exceeds budget {budget}"
            )
