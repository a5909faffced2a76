"""Declarative experiment configs: flat key = value files, no nesting.

A config names one subcommand plus its options. Each key is the dest of one
of that subcommand's CLI flags (underscores for dashes, `x` for `--X`), and
`validate_config` turns a config into the command line it stands for, which
the CLI's argparse parser types, defaults and checks as it does the flags.
Values stay strings until then, so a config round-trips unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# Largest count any input may name. It bounds what a typo can allocate: the
# base sieve for 10^12 is a 0.5 MB mask up to 10^6, where 1e20 would need 5 GB.
MAX_COUNT = 10**12
# Largest number of sigmas a start:stop:step grid may hold. Each entry costs a
# whole race, and a step like 1e-12 would otherwise ask for 4e11 of them.
MAX_GRID = 10**4


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
    if not value.is_integer() or value < 0:
        raise ValidationError(f"{field}: expected a nonnegative integer, got {text!r}")
    if value > MAX_COUNT:
        raise ValidationError(f"{field}: {text!r} exceeds the largest accepted count, {MAX_COUNT}")
    return int(value)


def parse_bool(text: str, field: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValidationError(f"{field}: expected true/false, got {text!r}")


def parse_real_list(text: str, field: str, parse=parse_real) -> list:
    """A nonempty comma list of reals, each read by `parse` (parse_count for counts)."""
    values = [parse(tok, field) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValidationError(f"{field}: expected at least one number, got {text!r}")
    return values


def parse_points(text: str, field: str = "points") -> list[int]:
    """Comma list of counts; '...' fills decades between its neighbors."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValidationError(f"{field}: expected at least one point, got {text!r}")
    out: list[int] = []
    for i, tok in enumerate(tokens):
        if tok == "...":
            if not out or i + 1 >= len(tokens):
                raise ValidationError(f"{field}: '...' needs a point on both sides")
            if out[-1] == 0:  # 0 * 10 never grows to the right point
                raise ValidationError(f"{field}: '...' needs a positive point on its left, got 0")
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
    """'start:stop:step' inclusive grid of sigmas, at most MAX_GRID of them."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"{field}: expected start:stop:step, got {text!r}")
    start, stop, step = (parse_real(p, field) for p in parts)
    if step <= 0 or stop < start:
        raise ValidationError(f"{field}: need step > 0 and stop >= start")
    span = (stop - start) / step  # the grid has round(span) + 1 entries
    if not span < MAX_GRID - 0.5:
        raise ValidationError(
            f"{field}: {text!r} exceeds the largest accepted grid, {MAX_GRID} entries"
        )
    grid = [round(start + i * step, 12) for i in range(int(round(span)) + 1)]
    if grid[0] != start or grid != sorted(set(grid)):  # rounding moved or repeated a sigma
        raise ValidationError(f"{field}: {text!r} moves or repeats a sigma at 12 decimals")
    return [g for g in grid if g <= stop + 1e-12]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a command plus its flat string options."""

    command: str
    options: tuple[tuple[str, str], ...]

    def get(self, key: str, default: str | None = None) -> str | None:
        return dict(self.options).get(key, default)

    def with_overrides(self, overrides: dict[str, str]) -> "ExperimentConfig":
        merged = {**dict(self.options), **overrides}
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except ValueError as exc:  # a NUL byte in the path, or text that is not UTF-8
        raise ValidationError(f"config {path!r}: {exc}") from exc


def validate_config(cfg: ExperimentConfig, commands: dict) -> list[str]:
    """The command line a config stands for: [command, "--flag=value", ...].

    `commands` maps each command to its argparse actions by dest. Every key
    but `manifest` must be one of those dests, and `manifest` is left out. A
    store_true option takes true/false and is present only when true. Typing,
    defaults and required options are left to the parser that reads the list.
    Raises ValidationError naming the command or the key.
    """
    if cfg.command not in commands:
        raise ValidationError(
            f"command: unknown command {cfg.command!r}; expected one of {', '.join(commands)}"
        )
    options = commands[cfg.command]
    argv = [cfg.command]
    for key, value in cfg.options:
        if key == "manifest":
            continue
        if key not in options:
            raise ValidationError(f"{key}: not a valid option for command {cfg.command!r}")
        flag = options[key].option_strings[0]
        if options[key].nargs != 0:
            argv.append(f"{flag}={value}")
        elif parse_bool(value, key):  # a store_true flag
            argv.append(flag)
    return argv
