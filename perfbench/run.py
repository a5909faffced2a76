"""primerace benchmark: paper workloads as fresh CLI child processes.

    python3 perfbench/run.py --workload signs --seed 1 --seconds 30 --trace 0

Run from the repository root; primerace is imported from ./src. One
operation is one `primerace` command in a new process, run one at a time
(a closed loop with a single client). Operations repeat until the next one
would end after --seconds. Every output is checked against the oracles in
checks.py, and the first one is also used to show that the checker rejects
perturbed copies of it. Outputs must be byte-identical across operations,
across runs of the same code, and between the traced and untraced runs.

--trace 0 prints the end-to-end metrics: wall_s (CLI ready -> command
returned, outputs written), setup_s (spawn -> primerace imported and the CLI
parser built) and peak_rss_mb (the child's ru_maxrss), each the median over
the run. --trace 1 also runs the command once with the layer entry points
wrapped (tracer.py) and prints the per-layer metrics instead.

The last stdout line is the result JSON; the line before it records the
environment fingerprint, calibration-kernel times and every operation.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every child is killed once the run is this old
SETUP_PROBES = 4  # setup-only spawns before and after the measured window

LEMMA_CONFIG = """command = verify-lemma
character = kronecker:-4
sigma_grid = 1.1,1.5,2.0
prime_limit = 1e7
out = {out}
manifest = {manifest}
"""


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    output: str
    prime_count: int  # pi(x) of the largest prime the command needs


# pi(1e9), pi(1e8) and pi(1e7) are the published prime counts.
WORKLOADS = {
    "signs": Workload(("sign-changes", "--sigma", "0", "--xmax", "1e9", "--out", "{dir}/signs.json"),
                      "signs.json", 50_847_534),
    "bias": Workload(("bias-scan", "--grid", "0.55:0.95:0.05", "--xmax", "1e8",
                      "--out", "{dir}/bias.csv"), "bias.csv", 5_761_455),
    "lemma": Workload(("run", "--config", "{dir}/lemma.cfg"), "lemma.csv", 664_579),
}


@dataclass
class Op:
    kind: str  # "probe", "op" or "traced"
    exit: int
    setup_s: float | None = None
    wall_s: float | None = None
    lifetime_s: float | None = None
    rss_mb: float | None = None
    cpu_s: float | None = None
    problems: tuple[str, ...] = ()
    output: bytes | None = None


def child_env() -> tuple[dict[str, str], str | None]:
    env = dict(os.environ)
    inherited = env.pop("PRIMERACE_WORKERS", None)  # measure the default: one worker
    return env, inherited


def wait_child(proc: subprocess.Popen, deadline: float):
    """Reap proc with os.wait4 (for its rusage); kill it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        time.sleep(0.02)


def spawn(kind: str, argv: list[str], work: Path, env, deadline: float) -> Op:
    timing = work / "timing.json"
    timing.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(timing)]
    if kind == "probe":
        cmd.append("--setup-only")
    elif kind == "traced":
        cmd += ["--trace", str(work / "trace.json")]
    cmd += ["--", *argv]
    with open(work / "child.log", "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            usage = wait_child(proc, deadline)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        ended = time.monotonic()
    if proc.returncode != 0 or not timing.exists():
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        return Op(kind, proc.returncode or 1, problems=(f"exit {proc.returncode}: {tail}",))
    t = json.loads(timing.read_text())
    return Op(kind, 0, setup_s=t["ready"] - started, wall_s=t["done"] - t["ready"],
              lifetime_s=ended - started, rss_mb=usage.ru_maxrss / 1024.0,
              cpu_s=usage.ru_utime + usage.ru_stime)


def run_op(kind: str, name: str, work: Path, env, deadline: float) -> Op:
    wl = WORKLOADS[name]
    out = work / wl.output
    out.unlink(missing_ok=True)
    rel = work.relative_to(ROOT).as_posix()
    op = spawn(kind, [a.format(dir=rel) for a in wl.argv], work, env, deadline)
    if op.exit == 0:
        op.output = out.read_bytes() if out.exists() else b""
        op.problems = tuple(checks.CHECKS[name](op.output))
        if name == "lemma":
            op.problems += tuple(check_manifest(work / "lemma.manifest.json"))
    return op


def check_manifest(path: Path) -> list[str]:
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc!r}"]
    return [] if manifest.get("command") == "verify-lemma" else ["manifest command is not verify-lemma"]


def calibrate() -> float:
    """Median time of a fixed pure-Python kernel, to show machine drift."""
    data = [math.sin(i) for i in range(200_000)]
    times = []
    for _ in range(5):
        t = time.perf_counter()
        math.fsum(data)
        sorted(data)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def fingerprint(inherited_workers: str | None) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    import mpmath

    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": mpmath.__version__,
        "cpu_model": cpu_model or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "PRIMERACE_WORKERS": {"inherited": inherited_workers, "children": None},
    }


def code_digest() -> str:
    """Hash of the program and benchmark sources; keys the determinism state."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_state(name: str, key: str, value) -> list[str]:
    """Require `value` to equal what earlier runs of the same code recorded."""
    path = WORK / "state" / f"{name}-{code_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    state = json.loads(path.read_text()) if path.exists() else {}
    if key in state:
        return [] if state[key] == value else [f"{key} differs from an earlier run of this code: "
                                               f"{value} != {state[key]}"]
    state[key] = value
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, path)
    return []


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def per_layer(name: str, ops: list[Op], traced: Op, work: Path) -> tuple[dict, list[str]]:
    problems = []
    trace = json.loads((work / "trace.json").read_text())
    shutil.copy(work / "trace.json", WORK / f"trace-{name}.json")
    metrics = tracer.layer_metrics(trace)
    primes = metrics["sieve.primes"]
    metrics["sieve.reuse"] = WORKLOADS[name].prime_count / primes if primes else None
    untraced = [op for op in ops if op.kind == "op" and op.exit == 0]
    metrics["process.cpu_s"] = median([op.cpu_s for op in untraced])
    metrics["process.cpu_util"] = median([op.cpu_s / op.lifetime_s for op in untraced])
    base = median([op.wall_s for op in untraced])
    metrics["tracing.overhead_s"] = traced.wall_s - base if base is not None else None
    counts = {k: metrics[k] for k in tracer.COUNT_METRICS}
    problems += compare_state(name, "counts", counts)
    if trace["missing_hooks"]:
        print(f"tracer: hooks not found, metrics marked absent: {trace['missing_hooks']}",
              file=sys.stderr)
    return metrics, problems


END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{k: "s" for k in tracer.TIME_METRICS},
    **{k: "count" for k in tracer.COUNT_METRICS},
    "cli.bytes_out": "bytes",
    "sieve.reuse": "ratio",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "tracing.overhead_s": "s",
    "tracing.unattributed_s": "s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the setup probes and calibration; inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "primerace" / "cli.py").is_file():
        print(f"no primerace sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    name = args.workload
    rng = random.Random(args.seed)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if name == "lemma":
        rel = work.relative_to(ROOT).as_posix()
        (work / "lemma.cfg").write_text(LEMMA_CONFIG.format(
            out=f"{rel}/lemma.csv", manifest=f"{rel}/lemma.manifest.json"))
    env, inherited = child_env()
    environment = fingerprint(inherited)
    environment["loadavg_start"] = os.getloadavg()

    ops: list[Op] = []
    calibration: list[float] = []

    def side_tasks():
        tasks = ["probe"] * SETUP_PROBES + ["calibrate"]
        rng.shuffle(tasks)
        for task in tasks:
            if task == "probe":
                ops.append(spawn("probe", [], work, env, deadline))
            else:
                calibration.append(calibrate())

    try:
        side_tasks()
        window_end = time.monotonic() + args.seconds
        longest = 0.0
        while True:
            t = time.monotonic()
            op = run_op("op", name, work, env, deadline)
            ops.append(op)
            longest = max(longest, time.monotonic() - t)
            if time.monotonic() + longest > window_end or time.monotonic() > deadline:
                break
        if args.trace:
            ops.append(run_op("traced", name, work, env, deadline))
        side_tasks()
    finally:
        environment["loadavg_end"] = os.getloadavg()

    problems: list[str] = []
    runs = [op for op in ops if op.kind != "probe"]
    good = [op for op in runs if op.exit == 0 and not op.problems]
    for op in ops:
        problems += [f"{op.kind}: {p}" for p in op.problems]
    first = next((op.output for op in runs if op.exit == 0), None)
    if first is not None:
        problems += checks.self_test(name, first)
        digests = {hashlib.sha256(op.output).hexdigest() for op in runs if op.exit == 0}
        if len(digests) != 1:
            problems.append("output bytes differ between operations (traced ones included)")
        problems += compare_state(name, "output_sha256", min(digests))

    if args.trace:
        traced = next(op for op in runs if op.kind == "traced")
        if traced.exit == 0:
            values, trace_problems = per_layer(name, ops, traced, work)
            problems += trace_problems
        else:
            values = {}
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": median([op.wall_s for op in good]),
            "setup_s": median([op.setup_s for op in ops]),
            "peak_rss_mb": median([op.rss_mb for op in good]),
        }
        units = END_TO_END

    detail = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment,
        "calibration_s": calibration,
        "ops": [{"kind": op.kind, "exit": op.exit, "setup_s": op.setup_s, "wall_s": op.wall_s,
                 "rss_mb": op.rss_mb, "cpu_s": op.cpu_s, "problems": list(op.problems)}
                for op in ops],
        "problems": problems,
        "elapsed_s": time.monotonic() - began,
    }
    print(json.dumps(detail))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in runs if op.exit != 0 or op.problems)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values.get(k), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
