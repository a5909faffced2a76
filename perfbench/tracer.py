"""Span tracer for the traced benchmark run.

`install` wraps the entry points of each primerace layer, including every
alias the package holds for them (``races.sieve_segment``,
``lfun.weighted_race``, ...), so a call through any name is recorded. Each
call becomes a span ``(id, name, start, end, parent)`` kept in memory and
written out by `dump` when the run ends. A hook that no longer exists
(a private helper renamed by a later change) is reported as missing, and the
metrics that depend on it are marked absent instead of failing the run.

`layer_metrics` turns a dumped trace into per-layer self times and counts.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _segment_counts(counts, bound, result):
    counts["sieve.segments"] += 1
    counts["sieve.primes"] += len(result.primes)


def _lookup_counts(counts, bound, result):
    counts["characters.lookups"] += len(bound.arguments["primes"])


def _race_counts(counts, bound, result):
    counts["races.passes"] += 1


def _prepare_counts(counts, bound, result):
    # one (primes, contrib, cum, block_sum, abs_weight) tuple per block
    counts["races.terms"] += sum(len(block[0]) for block in result)


def _scan_counts(counts, bound, result):
    counts["races.sign_scan_blocks"] += 1


def _l_value_counts(counts, bound, result):
    counts["lfun.l_value_terms"] += int(bound.arguments["n_trunc"])


def _write_counts(counts, bound, result):
    path = bound.arguments["path"]
    counts["cli.bytes_out"] += os.path.getsize(path) if path is not None else 0


# (span name, module, attribute, count function or None, counts it feeds)
HOOKS = (
    ("sieve.segment", "primerace.sieve", "sieve_segment", _segment_counts,
     ("sieve.segments", "sieve.primes")),
    ("sieve.base", "primerace.sieve", "base_primes", None, ()),
    ("characters.lookup", "primerace.characters", "DirichletWeight.values_at_primes",
     _lookup_counts, ("characters.lookups",)),
    ("races.fold", "primerace.races", "weighted_race", _race_counts, ("races.passes",)),
    ("races.segment", "primerace.races", "_prepare_segment", _prepare_counts,
     ("races.terms",)),
    ("races.sign_scan", "primerace.races", "_block_sign_scan", _scan_counts,
     ("races.sign_scan_blocks",)),
    ("lfun.l_value", "primerace.lfun", "l_value", _l_value_counts, ("lfun.l_value_terms",)),
    ("lfun.prime_sum", "primerace.lfun", "_char_prime_sum", None, ()),
    ("lfun.b_function", "primerace.lfun", "b_function", None, ()),
    ("cli.write", "primerace.cli", "_write_csv", _write_counts, ("cli.bytes_out",)),
    ("cli.write", "primerace.cli", "_write_json", _write_counts, ("cli.bytes_out",)),
    ("config.load", "primerace.config", "load_config", None, ()),
    ("config.validate", "primerace.config", "validate_config", None, ()),
)


class Tracer:
    """Records spans and counts for wrapped calls; one span stack per thread."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing_hooks: list[str] = []
        self.absent_counts: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count, count_names):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):  # a compiled replacement may have none
            signature = None
            self.absent_counts.update(count_names)

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if count is not None and not self.absent_counts.issuperset(count_names):
                try:
                    count(self.counts, signature.bind(*args, **kwargs), result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    self.absent_counts.update(count_names)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hook found in the loaded primerace modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "primerace" or n.startswith("primerace."))]
        for name, module_name, attr, count, count_names in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing_hooks.append(f"{module_name}.{attr}")
                self.absent_counts.update(count_names)
                continue
            traced = self.wrap(name, original, count, count_names)
            setattr(owner, leaf, traced)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: str, wall_s: float) -> None:
        payload = {
            "wall_s": wall_s,
            "missing_hooks": self.missing_hooks,
            "counts": dict(sorted(self.counts.items())),
            "absent_counts": sorted(self.absent_counts),
            "spans": sorted(self.spans),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans) -> dict[str, float]:
    """Sum of (duration - direct children's durations) per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent in spans:
        totals[name] += (end - start) - child_time[sid]
    return totals


# per-layer time metric -> span names whose self times it sums
TIME_METRICS = {
    "sieve.busy_s": ("sieve.segment", "sieve.base"),
    "characters.busy_s": ("characters.lookup",),
    "races.segment_s": ("races.segment",),
    "races.sign_scan_s": ("races.sign_scan",),
    "races.fold_s": ("races.fold",),
    "lfun.b_function_s": ("lfun.b_function",),
    "lfun.prime_sum_s": ("lfun.prime_sum",),
    "lfun.l_value_s": ("lfun.l_value",),
    "cli.write_s": ("cli.write",),
    "config.busy_s": ("config.load", "config.validate"),
}

COUNT_METRICS = (
    "sieve.segments", "sieve.primes", "characters.lookups", "races.terms",
    "races.sign_scan_blocks", "races.passes", "lfun.l_value_terms", "cli.bytes_out",
)


def layer_metrics(trace: dict) -> dict[str, float | int | None]:
    """Per-layer self times and counts from a dumped trace; None marks absent.

    Also returns ``tracing.unattributed_s``: traced wall time not covered by
    any layer's self time (argument parsing, glue code, manifest write).
    """
    missing_spans = {name for name, module_name, attr, *_ in HOOKS
                     if f"{module_name}.{attr}" in trace["missing_hooks"]}
    totals = self_times(trace["spans"])
    out: dict[str, float | int | None] = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = None if missing_spans.intersection(names) else sum(
            totals.get(n, 0.0) for n in names)
    counts = trace["counts"]
    for metric in COUNT_METRICS:
        out[metric] = None if metric in trace["absent_counts"] else counts.get(metric, 0)
    out["tracing.unattributed_s"] = trace["wall_s"] - sum(totals.values())
    return out
