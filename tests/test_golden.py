"""Golden outputs: small CLI runs whose output bytes must not move.

Each case is an argv. An argument that starts with `{out}/` is an output file,
written under a temporary directory. A case that writes files is compared by
its files, and any other case by its stdout. The expected bytes are in
tests/golden/, as `<case>.stdout` or `<case>.<file name>`. `lemma.workload.csv`
is the CSV of the `lemma` benchmark workload, which test_perfbench_checks.py
pins.

    PYTHONPATH=src python tests/test_golden.py

rewrites every golden file from the code on the path, and prints the name of
each file whose bytes changed (a new file counts as changed). Run it only for
a change that moves output bits on purpose, and list those files in
CHANGES.md.

The bytes repeat on one NumPy version and SIMD dispatch, not across them:
with AVX-512 turned off (`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"`) on NumPy 2.4.6, five of these cases and the `lemma` workload
CSV change bytes, while `check_lemma` still accepts that CSV.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from primerace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

LEMMA = ["verify-lemma", "--sigma-grid", "1.1,1.5,2.0", "--prime-limit", "1e6", "--ntrunc", "1e5"]

CASES = {
    "race-chi4": ["race", "--sigma", "0.5", "--xmax", "1e6"],
    "race-chi5": ["race", "--character", "kronecker:5", "--sigma", "0.7", "--xmax", "5e6",
                  "--checkpoints", "1000,4194303,4194305"],
    "sign-changes": ["sign-changes", "--sigma", "0", "--xmax", "1e6"],
    "bias-scan": ["bias-scan", "--grid", "0.55:0.95:0.1", "--xmax", "1e5", "--ntrunc", "1e5"],
    "verify-lemma-chi-4": LEMMA + ["--character", "kronecker:-4"],
    "verify-lemma-chi5": LEMMA + ["--character", "kronecker:5"],
    "verify-lemma-chi-3": LEMMA + ["--character", "kronecker:-3"],
    "lvalue": ["lvalue", "--sigma", "0.5", "--ntrunc", "1e6"],
    "lvalue-chunks": ["lvalue", "--sigma", "0.7", "--ntrunc", "3e6"],  # three 2^20 chunks
    "mellin-check": ["mellin-check", "--sigma", "0.5", "--s", "1.5", "--X", "1e5"],
    "mellin-check-segments": ["mellin-check", "--character", "kronecker:-4", "--sigma", "0.1",
                              "--s", "0.35", "--X", "1e7"],  # crosses two 2^22 segment ends
    "conjecture": ["conjecture", "--points", "1e3,...,1e6",
                   "--out", "{out}/conjecture.csv", "--report", "{out}/conjecture.json"],
    "sieve": ["sieve", "--limit", "1e4", "--emit", "{out}/primes.txt"],
}

# Rewritten with the cases, and compared by test_perfbench_checks.py only.
LEMMA_WORKLOAD = ["verify-lemma", "--sigma-grid", "1.1,1.5,2.0", "--prime-limit", "1e7",
                  "--out", "{out}/workload.csv"]


def outputs(name: str, argv: list[str], out_dir: Path) -> dict[str, bytes]:
    """Run one case; its output files by golden name, else its stdout."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main([arg.format(out=out_dir) for arg in argv]) == 0
    files = [arg.split("/", 1)[1] for arg in argv if arg.startswith("{out}/")]
    if not files:
        return {f"{name}.stdout": stdout.getvalue().encode()}
    return {f"{name}.{file}": (out_dir / file).read_bytes() for file in files}


@pytest.mark.parametrize("name", CASES)
def test_output_bytes_match_golden(name, tmp_path):
    for golden, data in outputs(name, CASES[name], tmp_path).items():
        assert data == (GOLDEN / golden).read_bytes(), golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()):
        for name, argv in [*CASES.items(), ("lemma", LEMMA_WORKLOAD)]:
            for golden, data in outputs(name, argv, Path(tmp)).items():
                path = GOLDEN / golden
                if not path.exists() or path.read_bytes() != data:
                    path.write_bytes(data)
                    print(golden)
