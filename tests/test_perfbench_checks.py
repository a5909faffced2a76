"""The benchmark's output checker accepts its references and rejects perturbations.

Runs the self-test of perfbench/checks.py (what `python3 perfbench/checks.py`
does) in-process, loading the module by path since perfbench is not a package,
and feeds it the output of the benchmark's full `lemma` workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from primerace.cli import main

CHECKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["signs", "bias", "lemma"])
def test_reference_accepted_and_perturbations_rejected(checks, workload):
    data = checks.reference(workload)
    assert checks.CHECKS[workload](data) == []
    assert checks.perturbations(workload, data)
    assert checks.self_test(workload, data) == []


def test_lemma_workload_passes_the_checker(checks, tmp_path, monkeypatch):
    # run.py imports its sibling modules by name
    monkeypatch.syspath_prepend(str(CHECKS_PATH.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", CHECKS_PATH.parent / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    out = tmp_path / "lemma.csv"
    cfg = tmp_path / "lemma.cfg"
    cfg.write_text(bench.LEMMA_CONFIG.format(out=out, manifest=tmp_path / "lemma.manifest.json"))
    assert "sigma_grid = 1.1,1.5,2.0\nprime_limit = 1e7\n" in cfg.read_text()
    assert main(["run", "--config", str(cfg)]) == 0
    assert checks.check_lemma(out.read_bytes()) == []
