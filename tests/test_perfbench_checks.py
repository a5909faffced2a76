"""The benchmark's output checker accepts its references and rejects perturbations.

Runs the self-test of perfbench/checks.py (what `python3 perfbench/checks.py`
does) in-process, loading the module by path since perfbench is not a package.
"""

import importlib.util
from pathlib import Path

import pytest

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
