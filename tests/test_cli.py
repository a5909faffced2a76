import csv
import hashlib
import importlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import primerace
from primerace import cli
from primerace.characters import MAX_MODULUS, chi4
from primerace.cli import _config_options, build_parser, main, run_experiment
from primerace.config import (
    MAX_GRID,
    ExperimentConfig,
    parse_config,
    parse_count,
    parse_grid,
    parse_points,
    serialize_config,
    validate_config,
)
from primerace.errors import ValidationError
from primerace.lfun import DecompositionReport, mellin_identity_check

from oracles import trial_division_primes


def run_cli(args):
    return main(args)


def config_options():
    """Each config-runnable command's options by dest, read from the parser."""
    return _config_options(build_parser())


def test_sieve_count_only(capsys):
    assert run_cli(["sieve", "--limit", "100", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "25"


def test_sieve_emit(tmp_path):
    out = tmp_path / "primes.csv"
    assert run_cli(["sieve", "--limit", "50", "--emit", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert [int(x) for x in lines] == trial_division_primes(50)


def test_character_print_period(capsys):
    assert run_cli(["character", "--spec", "kronecker:-4", "--print-period"]) == 0
    assert capsys.readouterr().out.strip() == "0,1,0,-1"


def test_character_bad_spec_exit_2(no_compute, capsys):
    assert run_cli(["character", "--spec", "kronecker:9"]) == 2
    # an empty spec is rejected, not read as the default chi_4
    assert run_cli(["race", "--character", "", "--sigma", "0.5", "--xmax", "10"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "validation error: unrecognized character spec ''; "
        "expected 'kronecker:<d>' or 'table:<q>:<comma-values>'"
    )


def test_race_csv_format(tmp_path):
    out = tmp_path / "race.csv"
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,A,error_bound,effective_sign"
    first = lines[1].split(",")
    assert first[0] == "2"
    # 17 significant digits, scientific notation
    assert "e" in first[1] and len(first[1].split("e")[0].replace("-", "").replace(".", "")) == 17


def test_race_includes_sign_change_rows(tmp_path):
    out = tmp_path / "race.csv"
    assert run_cli(["race", "--sigma", "0", "--xmax", "30000",
                    "--checkpoints", "none", "--out", str(out)]) == 0
    xs = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert 26861 in xs and 26879 in xs and 30000 in xs


def test_race_validation_exit_2(capsys):
    assert run_cli(["race", "--sigma", "-0.1", "--xmax", "100"]) == 2
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "100",
                    "--checkpoints", "50,200"]) == 2


def test_sign_changes_json(capsys):
    assert run_cli(["sign-changes", "--sigma", "0", "--xmax", "1e4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "change_count": 0,
        "change_locations": [],
        "final_sign": -1,
        "first_positive_x": None,
        "ambiguous_count": 0,
    }
    assert list(payload) == ["change_count", "change_locations", "final_sign",
                             "first_positive_x", "ambiguous_count"]


# perfbench/reference/signs.json holds the exact sigma = 0 report to 1e9;
# a positive region starts where a change lies more than 10% past the
# previous one (the region rule of perfbench/checks.py)
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
SIGNS_REFERENCE = REFERENCE / "signs.json"


def test_sign_changes_sigma0_matches_stored_reference(tmp_path):
    out = tmp_path / "signs.json"
    assert run_cli(["sign-changes", "--sigma", "0", "--xmax", "2e7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    reference = json.loads(SIGNS_REFERENCE.read_text())["change_locations"]
    expected = [x for x in reference if x <= 2 * 10**7]
    assert len(expected) == 124
    locations = report["change_locations"]
    assert locations == expected
    starts = [x for i, x in enumerate(locations) if i == 0 or x > 1.1 * locations[i - 1]]
    assert starts == [26861, 616841, 12306137]  # Bays & Hudson (1978)
    assert report["ambiguous_count"] == 0


def test_sign_changes_sigma0_full_reference_1e9(tmp_path):
    # the whole stored report, including the fourth region at 951784481
    out = tmp_path / "signs.json"
    assert run_cli(["sign-changes", "--sigma", "0", "--xmax", "1e9", "--out", str(out)]) == 0
    assert out.read_bytes() == SIGNS_REFERENCE.read_bytes()
    locations = json.loads(out.read_text())["change_locations"]
    starts = [x for i, x in enumerate(locations) if i == 0 or x > 1.1 * locations[i - 1]]
    assert starts == [26861, 616841, 12306137, 951784481]  # Bays & Hudson (1978)



def test_bias_scan_full_reference_1e8(tmp_path):
    # the whole `bias` workload: nine sigmas share one walk over 24 segments
    out = tmp_path / "bias.csv"
    argv = ["bias-scan", "--grid", "0.55:0.95:0.05", "--xmax", "1e8", "--out", str(out)]
    assert run_cli(argv) == 0
    assert out.read_bytes() == (REFERENCE / "bias.csv").read_bytes()


MALFORMED_FLAGS = [
    ["sieve", "--limit", "abc"],
    ["race", "--sigma", "0.5", "--xmax", "abc"],
    ["sign-changes", "--sigma", "0", "--xmax", "1e3x"],
    ["lvalue", "--sigma", "1", "--ntrunc", "abc"],
    ["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "abc"],
    ["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e3", "--ntrunc", "abc"],
    ["verify-lemma", "--sigma-grid", "2.0,abc", "--prime-limit", "1e3"],
    ["bias-scan", "--grid", "0.6:abc:0.1", "--xmax", "1e3"],
    ["bias-scan", "--grid", "0.6:0.7:0.1", "--xmax", "abc"],
    ["bias-scan", "--grid", "0.6:0.7:0.1", "--xmax", "1e3", "--ntrunc", "abc"],
    ["mellin-check", "--sigma", "0", "--s", "1", "--X", "abc"],
    ["conjecture", "--points", "1e3,abc"],
    # counts are exact integers, never rounded to one
    ["race", "--sigma", "0.5", "--xmax", "1000000.5"],
    ["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e-7"],
]


@pytest.mark.parametrize("argv", MALFORMED_FLAGS, ids=lambda a: " ".join(a))
def test_malformed_flag_exits_2_without_traceback(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("validation error:")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sieve", "--limit", "inf"], "limit"),
        (["lvalue", "--sigma", "inf", "--ntrunc", "100"], "sigma"),
        (["race", "--sigma", "nan", "--xmax", "100"], "sigma"),
        (["mellin-check", "--sigma", "0", "--s", "nan", "--X", "10"], "s"),
    ],
)
def test_non_finite_number_exits_2_naming_field(argv, field, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {field}:")
    assert "finite" in err


def test_non_finite_config_value_exits_2_naming_field(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = lvalue\nsigma = inf\nntrunc = 100\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("validation error: sigma:")


def test_lvalue_stdout(capsys):
    assert run_cli(["lvalue", "--sigma", "1", "--ntrunc", "1e5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "value,radius"
    value = float(out[1].split(",")[0])
    assert abs(value - 0.7853981633974483) < 1e-9


def test_lvalue_domain_exit_3(capsys):
    assert run_cli(["lvalue", "--sigma", "-1", "--ntrunc", "100"]) == 3


def test_mellin_check_stdout(capsys):
    assert run_cli(["mellin-check", "--sigma", "0", "--s", "2", "--X", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("residual=")
    assert float(out.split("=")[1]) < 1e-14
    assert run_cli(["mellin-check", "--sigma", "2", "--s", "1", "--X", "10"]) == 3


# sigma log n overflows to -inf past sigma ~ 1e308 / log n, where exp already
# gives the exact 0; the suite's error::RuntimeWarning filter fails any warning.
# Every prime term underflows there, so both prime radii read the 1e-300 floor
HUGE_EXPONENTS = [
    (["lvalue", "--sigma", "1e308", "--ntrunc", "10"],
     "value,radius\n1.0000000000000000e+00,1.1102230246251565e-15\n"),
    (["verify-lemma", "--sigma-grid", "1e308", "--prime-limit", "10", "--ntrunc", "10"],
     "sigma,log_l_value,log_l_radius,prime_sum_value,prime_sum_radius,b_value,b_radius,"
     "residual,radius_budget,within_radii\n1.0000000000000000e+308,0.0000000000000000e+00,"
     "2.4424906541753468e-15,0.0000000000000000e+00,1.0000000000000000e-300,"
     "0.0000000000000000e+00,1.0000000000000000e-300,0.0000000000000000e+00,"
     "2.4424906541753468e-15,true\n"),
    (["mellin-check", "--sigma", "0", "--s", "1e308", "--X", "100"],
     "residual=0.0000000000000000e+00\n"),
]


@pytest.mark.parametrize("argv, stdout", HUGE_EXPONENTS, ids=[argv[0] for argv, _ in HUGE_EXPONENTS])
def test_huge_exponent_runs_without_warning(argv, stdout, capsys):
    assert run_cli(argv) == 0
    assert capsys.readouterr() == (stdout, "")


def test_verify_lemma_csv(tmp_path, capsys):
    out = tmp_path / "lemma.csv"
    assert run_cli(["verify-lemma", "--sigma-grid", "2.0,3.0",
                    "--prime-limit", "1e5", "--ntrunc", "1e5",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sigma,log_l_value,log_l_radius,prime_sum_value")
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "true"


def test_verify_lemma_header_is_the_report_fields(tmp_path):
    out = tmp_path / "lemma.csv"
    assert run_cli(["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e3",
                    "--ntrunc", "1e3", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == [f.name for f in fields(DecompositionReport)]


def test_log_domain_row_writes_nan(tmp_path):
    # L(0.501) for kronecker:-1012 at 1012 terms does not exclude zero: log L
    # and R are NaN, written as nan
    out = tmp_path / "bias.csv"
    assert run_cli(["bias-scan", "--character", "kronecker:-1012", "--grid", "0.501:0.501:0.1",
                    "--xmax", "1e3", "--ntrunc", "1012", "--out", str(out)]) == 0
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    assert row["status"] == "log-domain-error"
    nan_fields = ("r_value", "r_radius", "log_l_value", "log_l_radius")
    assert [row[k] for k in nan_fields] == ["nan"] * 4
    assert all(math.isfinite(float(row[k])) for k in ("race_value", "race_error", "penalty"))


# the commands that take each flag declared in a parent parser; lvalue's
# --ntrunc is required, not defaulted, so it is its own action
SHARED_FLAGS = {
    "character": {"race", "sign-changes", "lvalue", "verify-lemma", "bias-scan", "mellin-check"},
    "sigma": {"race", "sign-changes", "lvalue", "mellin-check"},
    "out": {"race", "sign-changes", "lvalue", "verify-lemma", "bias-scan", "conjecture"},
    "xmax": {"race", "sign-changes", "bias-scan"},
    "ntrunc": {"verify-lemma", "bias-scan"},
}


@pytest.mark.parametrize("dest", SHARED_FLAGS)
def test_shared_flag_is_one_action(dest):
    by_command = {name: opts[dest] for name, opts in config_options().items()
                  if dest in opts and (name, dest) != ("lvalue", "ntrunc")}
    assert set(by_command) == SHARED_FLAGS[dest]
    first = next(iter(by_command.values()))
    assert all(action is first for action in by_command.values())


@pytest.mark.parametrize("command, required", [
    ("race", "--sigma, --xmax"),
    ("sign-changes", "--sigma, --xmax"),
    ("lvalue", "--sigma, --ntrunc"),
    ("mellin-check", "--sigma, --s, --X"),
    ("bias-scan", "--grid, --xmax"),
    ("verify-lemma", "--sigma-grid, --prime-limit"),
])
def test_required_flags_are_named_in_order(command, required, capsys):
    assert run_cli([command]) == 2
    assert capsys.readouterr().err == (
        f"validation error: the following arguments are required: {required}\n"
    )


def test_bias_scan_csv(tmp_path):
    out = tmp_path / "bias.csv"
    assert run_cli(["bias-scan", "--grid", "0.6:0.9:0.1", "--xmax", "1e4",
                    "--ntrunc", "1e5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("sigma,x_max,status,r_value,r_radius,log_l_value,log_l_radius,"
                        "race_value,race_error,penalty")
    assert len(lines) == 5
    assert all(line.split(",")[2] == "ok" for line in lines[1:])


def test_conjecture_points_and_report(tmp_path, capsys):
    out = tmp_path / "conj.csv"
    rep = tmp_path / "conj.json"
    assert run_cli(["conjecture", "--points", "1e2,1e3,...,1e5",
                    "--out", str(out), "--report", str(rep)]) == 0
    lines = out.read_text().splitlines()
    assert [r.split(",")[0] for r in lines[1:]] == ["100", "1000", "10000", "100000"]
    summary = json.loads(rep.read_text())
    assert summary["all_negative_beyond_1000"] is True
    assert summary["final_x"] == 100000
    assert list(summary) == ["min_value", "min_x", "final_value", "final_x",
                             "all_negative_beyond_1000"]


def test_conjecture_stdout_is_its_csv(capsys):
    assert run_cli(["conjecture", "--points", "1e2,1e3"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["x", "A", "error_bound"]
    assert [row[0] for row in rows[1:]] == ["100", "1000"]
    assert captured.err.startswith("min A=")
    assert "final A=" in captured.err


def test_io_error_exit_4(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "100", "--out", str(missing)]) == 4


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if any module walks the primes or sums an L-series.

    Every prime walk enters through `iter_prime_arrays` or `iter_segments`.
    Building a character may still call `sieve.base_primes` for the primes
    below its modulus: its table check is input checking. `l_value_scan` may
    still check its arguments: every L-series sum starts with a call to
    `_power_log`, the log half of the power kernel, which is replaced here with
    the whole kernel.
    """
    def forbidden(*args, **kwargs):
        pytest.fail("computing started before the inputs were checked")

    for name in ("sieve", "races", "cli"):
        monkeypatch.setattr(f"primerace.{name}.iter_prime_arrays", forbidden)
    for name in ("sieve", "races"):
        monkeypatch.setattr(f"primerace.{name}.iter_segments", forbidden)
    monkeypatch.setattr("primerace.lfun._neg_power", forbidden)
    monkeypatch.setattr("primerace.lfun._power_log", forbidden)


def test_bad_output_path_fails_before_computing(tmp_path, no_compute, capsys):
    missing = tmp_path / "missing" / "x.csv"
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "3e7", "--out", str(missing)]) == 4
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "command = verify-lemma\nsigma_grid = 2.0\nprime_limit = 1e7\n"
        f"out = {tmp_path / 'lemma.csv'}\nmanifest = {missing}\n"
    )
    assert run_cli(["run", "--config", str(cfg)]) == 4
    assert not (tmp_path / "lemma.csv").exists()
    assert capsys.readouterr().err.count("i/o error:") == 2


def test_output_path_check_leaves_existing_file(tmp_path):
    out = tmp_path / "race.csv"
    out.write_text("old\n")
    assert run_cli(["race", "--sigma", "-1", "--xmax", "100", "--out", str(out)]) == 2
    assert out.read_text() == "old\n"


def test_two_spellings_of_one_output_exit_2(tmp_path, monkeypatch, no_compute, capsys):
    # a.csv and ./a.csv are one file, which the report would overwrite
    monkeypatch.chdir(tmp_path)
    argv = ["conjecture", "--points", "1e2,1e3", "--out", "a.csv", "--report", "./a.csv"]
    assert run_cli(argv) == 2
    Path("exp.cfg").write_text("command = conjecture\npoints = 1e2,1e3\nout = a.csv\nreport = ./a.csv\n")
    assert run_cli(["run", "--config", "exp.cfg"]) == 2
    message = "report: output paths must be distinct, and './a.csv' is also the out path"
    assert capsys.readouterr().err == f"validation error: {message}\n" * 2
    assert os.listdir() == ["exp.cfg"]


def test_python_dash_m_primerace():
    src = str(Path(primerace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "primerace", "sieve", "--limit", "100", "--count-only"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "25\n"
    assert "RuntimeWarning" not in proc.stderr


def test_version_matches_pyproject():
    # the version is kept by hand in both src/primerace/_version.py and pyproject.toml
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == primerace.__version__


def test_console_script_is_the_cli_main():
    # `pip install` makes the `primerace` command from [project.scripts]
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        module, name = tomllib.load(f)["project"]["scripts"]["primerace"].split(":")
    assert getattr(importlib.import_module(module), name) is main


def test_removed_mmax_flag_exits_2(capsys):
    assert run_cli(["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e3",
                    "--mmax", "64"]) == 2
    err = capsys.readouterr().err
    assert "--mmax" in err and "Traceback" not in err


def test_removed_mmax_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = verify-lemma\nsigma_grid = 2.0\nprime_limit = 1e3\nmmax = 64\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: mmax:")
    assert "Traceback" not in err


def test_removed_budget_flag_and_key_exit_2(tmp_path, capsys):
    # conjecture relies on the 10^12 count cap, like every other command
    assert run_cli(["conjecture", "--points", "1e3", "--budget", "1e3"]) == 2
    assert "--budget" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = conjecture\npoints = 1e3\nbudget = 1e3\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("validation error: budget:")


def test_removed_precision_flag_exits_2(capsys):
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "100", "--precision", "oracle"]) == 2
    err = capsys.readouterr().err
    assert "--precision" in err and "Traceback" not in err


def test_removed_precision_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = race\nsigma = 0.5\nxmax = 100\nprecision = oracle\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: precision:")
    assert "Traceback" not in err


OVERSIZED_COUNTS = [
    (["sieve", "--limit", "1e13", "--count-only"], "limit"),
    (["race", "--sigma", "0.5", "--xmax", "1e20"], "xmax"),
    (["race", "--sigma", "0.5", "--xmax", "1e6", "--checkpoints", "10,2e12"], "checkpoints"),
    (["sign-changes", "--sigma", "0", "--xmax", "1000000000001"], "xmax"),
    (["lvalue", "--sigma", "1", "--ntrunc", "1e13"], "ntrunc"),
    (["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e20"], "prime_limit"),
    (["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e3", "--ntrunc", "1e13"], "ntrunc"),
    (["bias-scan", "--grid", "0.6:0.7:0.1", "--xmax", "1e20"], "xmax"),
    (["mellin-check", "--sigma", "0", "--s", "1", "--X", "1e20"], "x"),
    (["conjecture", "--points", "1e3,...,1e13"], "points"),
]


@pytest.mark.parametrize(
    "argv, field", OVERSIZED_COUNTS, ids=[" ".join(argv) for argv, _ in OVERSIZED_COUNTS]
)
def test_oversized_count_exits_2_before_computing(argv, field, no_compute, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {field}:")
    assert "Traceback" not in err


def test_oversized_config_count_exits_2_before_computing(tmp_path, no_compute, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = race\nsigma = 0.5\nxmax = 1e20\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("validation error: xmax:")


@pytest.mark.parametrize("sigma, s", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                                      (0.5, math.inf), (-math.inf, 1.0)])
def test_mellin_non_finite_exponent_fails_before_computing(sigma, s, no_compute):
    name = "sigma" if not math.isfinite(sigma) else "s"
    with pytest.raises(ValidationError, match=f"^{name}: expected a finite number"):
        mellin_identity_check(chi4(), sigma, s, 10**6)


def test_count_cap_is_inclusive():
    assert parse_count("1e12", "xmax") == 10**12


# (CLI argv, the same run as config text, exit code). A config becomes the
# command line it stands for, which the CLI's parser reads, and every range
# check lives in the library, so both routes must fail alike, and before
# computing.
# The first 20 cases are the range checks the config route used to make on its
# own, plus the grid cap; the next six used to differ between the routes or
# to compute before they failed. The next one, --count-only with --emit, used
# to exit 0 and write nothing to the named file. In the next four, argparse
# used to take a negative number in exponent form for an unknown option. The
# next one is a count within 10^-6 of an integer, which used to be rounded.
# The last two are a descending grid and a table value outside int8, which
# used to raise OverflowError. In the last three, a missing option was worded
# apart on the two routes, and a bad --checkpoints or --count-only with --emit
# was found only after the output paths were opened, so they exited 4. The
# two grids after them rounded to 12 decimals, which repeated sigma = 0.6 five
# times (exit 0), or moved the start 0.5000000000001 to 0.5, outside the
# domain (exit 3).
BOTH_ROUTES = [
    (["sieve", "--limit", "-1"], "command = sieve; limit = -1", 2),
    (["race", "--sigma", "-0.1", "--xmax", "100"], "command = race; sigma = -0.1; xmax = 100", 2),
    (["race", "--sigma", "1.5", "--xmax", "100"], "command = race; sigma = 1.5; xmax = 100", 2),
    (["race", "--sigma", "0.5", "--xmax", "2.5"], "command = race; sigma = 0.5; xmax = 2.5", 2),
    (["sign-changes", "--sigma", "2", "--xmax", "100"],
     "command = sign-changes; sigma = 2; xmax = 100", 2),
    (["sign-changes", "--sigma", "0", "--xmax", "-5"],
     "command = sign-changes; sigma = 0; xmax = -5", 2),
    (["lvalue", "--sigma", "0", "--ntrunc", "100"], "command = lvalue; sigma = 0; ntrunc = 100", 3),
    (["lvalue", "--sigma", "1", "--ntrunc", "1e20"], "command = lvalue; sigma = 1; ntrunc = 1e20", 2),
    (["verify-lemma", "--sigma-grid", "1", "--prime-limit", "1e3"],
     "command = verify-lemma; sigma_grid = 1; prime_limit = 1e3", 3),
    (["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "abc"],
     "command = verify-lemma; sigma_grid = 2.0; prime_limit = abc", 2),
    (["bias-scan", "--grid", "0.4:0.6:0.1", "--xmax", "1e3"],
     "command = bias-scan; grid = 0.4:0.6:0.1; xmax = 1e3", 3),
    (["bias-scan", "--grid", "0.6:1.1:0.1", "--xmax", "1e3"],
     "command = bias-scan; grid = 0.6:1.1:0.1; xmax = 1e3", 3),
    (["bias-scan", "--grid", "0.6:0.7:0.1", "--xmax", "1e20"],
     "command = bias-scan; grid = 0.6:0.7:0.1; xmax = 1e20", 2),
    (["bias-scan", "--grid", "0.55:0.95:1e-12", "--xmax", "1e3"],
     "command = bias-scan; grid = 0.55:0.95:1e-12; xmax = 1e3", 2),
    # the largest grid the cap accepts reaches the library's sigma check
    (["bias-scan", "--grid", "0:0.9999:0.0001", "--xmax", "1e3"],
     "command = bias-scan; grid = 0:0.9999:0.0001; xmax = 1e3", 3),
    (["bias-scan", "--grid", "0:1:0.0001", "--xmax", "1e3"],
     "command = bias-scan; grid = 0:1:0.0001; xmax = 1e3", 2),
    (["mellin-check", "--sigma", "-1", "--s", "1", "--X", "10"],
     "command = mellin-check; sigma = -1; s = 1; x = 10", 3),
    (["mellin-check", "--sigma", "1", "--s", "0.5", "--X", "10"],
     "command = mellin-check; sigma = 1; s = 0.5; x = 10", 3),
    (["mellin-check", "--sigma", "0", "--s", "1", "--X", "2.5"],
     "command = mellin-check; sigma = 0; s = 1; x = 2.5", 2),
    (["conjecture", "--points", "1e3,1e2"], "command = conjecture; points = 1e3,1e2", 2),
    # a 0 left of '...' never grows, so the fill would append until memory ran out
    (["conjecture", "--points", "0,...,10"], "command = conjecture; points = 0,...,10", 2),
    (["lvalue", "--sigma", "-1", "--ntrunc", "100"], "command = lvalue; sigma = -1; ntrunc = 100", 3),
    (["verify-lemma", "--sigma-grid", "2.0,0.5", "--prime-limit", "3e7"],
     "command = verify-lemma; sigma_grid = 2.0,0.5; prime_limit = 3e7", 3),
    (["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1"],
     "command = verify-lemma; sigma_grid = 2.0; prime_limit = 1", 2),
    (["bias-scan", "--grid", "0.6:0.6:0.1", "--xmax", "1e8", "--ntrunc", "2"],
     "command = bias-scan; grid = 0.6:0.6:0.1; xmax = 1e8; ntrunc = 2", 2),
    (["bias-scan", "--grid", "0.6:0.6:0.1", "--xmax", "0"],
     "command = bias-scan; grid = 0.6:0.6:0.1; xmax = 0", 2),
    (["conjecture", "--points", "1e3", "--out", "same.txt", "--report", "same.txt"],
     "command = conjecture; points = 1e3; out = same.txt; report = same.txt", 2),
    (["sieve", "--limit", "1e3", "--count-only", "--emit", "p.txt"],
     "command = sieve; limit = 1e3; count_only = true; emit = p.txt", 2),
    # negative numbers in exponent form are values, not unknown options
    (["race", "--sigma", "-1e3", "--xmax", "10"], "command = race; sigma = -1e3; xmax = 10", 2),
    (["mellin-check", "--sigma", "-1E-3", "--s", "1", "--X", "10"],
     "command = mellin-check; sigma = -1E-3; s = 1; x = 10", 3),
    (["lvalue", "--sigma", "-.5e1", "--ntrunc", "100"],
     "command = lvalue; sigma = -.5e1; ntrunc = 100", 3),
    (["race", "--sigma", "-inf", "--xmax", "10"], "command = race; sigma = -inf; xmax = 10", 2),
    (["sign-changes", "--sigma", "0", "--xmax", "999999999999.7"],
     "command = sign-changes; sigma = 0; xmax = 999999999999.7", 2),
    (["bias-scan", "--grid", "0.9:0.5:0.1", "--xmax", "1e3"],
     "command = bias-scan; grid = 0.9:0.5:0.1; xmax = 1e3", 2),
    (["race", "--character", "table:4:0,1,0,-129", "--sigma", "0", "--xmax", "10"],
     "command = race; character = table:4:0,1,0,-129; sigma = 0; xmax = 10", 2),
    (["race", "--sigma", "0.5"], "command = race; sigma = 0.5", 2),
    (["race", "--sigma", "0.5", "--xmax", "100", "--checkpoints", "abc", "--out", "missing/x.csv"],
     "command = race; sigma = 0.5; xmax = 100; checkpoints = abc; out = missing/x.csv", 2),
    (["sieve", "--limit", "1e3", "--count-only", "--emit", "missing/p.txt"],
     "command = sieve; limit = 1e3; count_only = true; emit = missing/p.txt", 2),
    # an empty list is a parse error, so no output path is opened
    (["verify-lemma", "--sigma-grid", ",", "--prime-limit", "100"],
     "command = verify-lemma; sigma_grid = ,; prime_limit = 100", 2),
    (["conjecture", "--points", ",", "--out", "missing/x.csv"],
     "command = conjecture; points = ,; out = missing/x.csv", 2),
    (["race", "--sigma", "0.5", "--xmax", "100", "--checkpoints", ",", "--out", "missing/x.csv"],
     "command = race; sigma = 0.5; xmax = 100; checkpoints = ,; out = missing/x.csv", 2),
    (["bias-scan", "--grid", "0.6:0.6000000000004:1e-13", "--xmax", "100", "--ntrunc", "100"],
     "command = bias-scan; grid = 0.6:0.6000000000004:1e-13; xmax = 100; ntrunc = 100", 2),
    (["bias-scan", "--grid", "0.5000000000001:0.6:0.1", "--xmax", "100"],
     "command = bias-scan; grid = 0.5000000000001:0.6:0.1; xmax = 100", 2),
]


@pytest.mark.parametrize(
    "argv, config_text, code", BOTH_ROUTES, ids=[" ".join(argv) for argv, _, _ in BOTH_ROUTES]
)
def test_both_routes_fail_alike_before_computing(
    argv, config_text, code, tmp_path, monkeypatch, no_compute, capsys
):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == code
    cli_err = capsys.readouterr().err
    Path("exp.cfg").write_text(config_text.replace("; ", "\n") + "\n")
    assert run_cli(["run", "--config", "exp.cfg"]) == code
    config_err = capsys.readouterr().err
    assert cli_err.splitlines()[0] == config_err.splitlines()[0]
    assert cli_err.startswith("validation error:" if code == 2 else "compute error:")
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]


# (argv, message). A character is built while its flag is parsed, so a bad
# spec exits 2 before the output paths are checked: missing/x.csv is never
# opened.
BAD_CHARACTERS = [
    (["character", "--spec", "kronecker:3"], "non-fundamental discriminant: 3"),  # 3 mod 4
    (["character", "--spec", "kronecker:abc"],
     "malformed character spec 'kronecker:abc': invalid literal for int() with base 10: 'abc'"),
    (["character", "--spec", "table:2:0,1"], "table mod 2: modulus must be >= 3, got 2"),
    (["character", "--spec", "table:4:0,2,0,-1"],
     "table mod 4: character values must lie in {-1, 0, +1}"),
    (["character", "--spec", "table:4:0,-1,0,1"], "table mod 4: w(1) must equal 1"),
    (["character", "--spec", "table:4:0,1,0,300"],
     "table mod 4: character values must lie in {-1, 0, +1}"),
    (["race", "--character", "table:4:0,1,0,-129", "--sigma", "0", "--xmax", "10"],
     "table mod 4: character values must lie in {-1, 0, +1}"),
    (["race", "--character", "kronecker:9", "--sigma", "0", "--xmax", "10",
      "--out", "missing/x.csv"], "non-fundamental discriminant: 9"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_CHARACTERS, ids=[" ".join(argv) for argv, _ in BAD_CHARACTERS]
)
def test_bad_character_exits_2_with_its_message(argv, message, no_compute, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_grid_cap_is_inclusive():
    assert len(parse_grid("0:0.9999:0.0001")) == MAX_GRID
    with pytest.raises(ValidationError, match="^grid: .*largest accepted grid"):
        parse_grid("0:1:0.0001")
    with pytest.raises(ValidationError, match="^grid: "):
        parse_grid("0.55:0.95:5e-324")  # a span past the float range


def test_grid_rounding_neither_moves_nor_repeats_a_sigma():
    # the grids of the bias workload, README and the tests keep their decimal entries
    for text, n in (("0.55:0.95:0.05", 9), ("0.55:0.95:0.1", 5), ("0.51:0.99:0.02", 25)):
        start, _, step = map(float, text.split(":"))
        assert parse_grid(text) == [float(f"{start + k * step:.2f}") for k in range(n)]
    for text in ("0.6:0.6000000000004:1e-13", "0.5000000000001:0.6:0.1"):
        with pytest.raises(ValidationError, match=r"^grid: .* moves or repeats a sigma at 12 decimals$"):
            parse_grid(text)


def test_character_modulus_cap(monkeypatch, capsys):
    spec = f"kronecker:-{MAX_MODULUS + 7}"  # a fundamental discriminant past the cap
    def forbidden(*args):
        pytest.fail("a table was built for a modulus over the cap")

    with monkeypatch.context() as patched:
        patched.setattr("primerace.characters.kronecker_symbol", forbidden)
        assert run_cli(["character", "--spec", spec]) == 2
        assert run_cli(["race", "--character", spec, "--sigma", "0", "--xmax", "10"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"validation error: kronecker d=-{MAX_MODULUS + 7}: modulus "
                   f"{MAX_MODULUS + 7} exceeds the largest accepted modulus, {MAX_MODULUS}"] * 2
    assert run_cli(["character", "--spec", "kronecker:-3003", "--print-period"]) == 0
    period = capsys.readouterr().out
    # the table the q x q products check accepted, unchanged
    assert hashlib.sha256(period.encode()).hexdigest() == (
        "20024a8a23bfdeb300e066b1d756a3862f6cc6ccbf6a0711c93db1e265ed4eb2"
    )


# a sample value per config key; the flag is --<key> with dashes, except --X
OPTION_SAMPLES = {
    "limit": "1e3", "count_only": "true", "emit": "p.txt", "spec": "kronecker:5",
    "print_period": "true", "character": "kronecker:5", "sigma": "0.5", "xmax": "1e3",
    "checkpoints": "10,100", "out": "o.csv", "ntrunc": "1e3", "sigma_grid": "1.5,2",
    "prime_limit": "1e3", "grid": "0.6:0.7:0.1", "s": "1", "x": "1e3",
    "points": "1e2,1e3,...,1e5", "report": "r.json",
}
CONFIG_KEYS = [(command, key) for command, options in config_options().items()
               for key in options]


@pytest.mark.parametrize("command, key", CONFIG_KEYS, ids=[f"{c}-{k}" for c, k in CONFIG_KEYS])
def test_config_key_parses_like_its_flag(command, key, tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}",
                        lambda ns: seen.append(ns) or {})
    monkeypatch.chdir(tmp_path)
    options = config_options()[command]
    keys = sorted({k for k, action in options.items() if action.required} | {key})
    argv, lines = [command], [f"command = {command}", "manifest = m.json"]
    for k in keys:
        flag = "--X" if k == "x" else "--" + k.replace("_", "-")
        argv += [flag] if OPTION_SAMPLES[k] == "true" else [flag, OPTION_SAMPLES[k]]
        lines.append(f"{k} = {OPTION_SAMPLES[k]}")
    assert run_cli(argv) == 0
    Path("exp.cfg").write_text("\n".join(lines) + "\n")
    assert run_cli(["run", "--config", "exp.cfg"]) == 0
    flag_ns, config_ns = seen
    assert flag_ns == config_ns
    assert getattr(config_ns, key) != options[key].default


# Fuzzed inputs. Each option draws from a list of valid values, or now and
# then from a list of malformed ones. A valid count is at most 1e5, so no case
# sieves or sums far, and every case runs in a fresh temporary working
# directory, where its relative output paths land.
FUZZ_COUNTS = (["0", "1", "2", "10", "97", "1e3", "99991", "1e5"],
               ["-1", "2.5", "abc", "1e3x", "", "nan", "inf", "1000000000001", "1e20", "1e400"])
FUZZ_REALS = (["0", "0.5", "0.75", "1", "1.5", "2", "1e-300", "1e300"],
              ["-0.5", "nan", "inf", "-inf", "abc", ""])
FUZZ_CHARACTERS = (["kronecker:-4", "kronecker:5", "kronecker:-3", "kronecker:8",
                    "table:4:0,1,0,-1"],
                   ["kronecker:9", "kronecker:abc", "table:3:0,1", "table:5:0,1,1,1,1",
                    "bogus", ""])
FUZZ_PATHS = (["a.csv", "b.json", "c.txt"], ["missing/x.csv", ".", ""])
FUZZ_BOOLS = (["true", "false"], ["maybe"])
FUZZ_VALUES = {
    "limit": FUZZ_COUNTS, "xmax": FUZZ_COUNTS, "ntrunc": FUZZ_COUNTS,
    "prime_limit": FUZZ_COUNTS, "x": FUZZ_COUNTS,
    "sigma": FUZZ_REALS, "s": FUZZ_REALS,
    "character": FUZZ_CHARACTERS, "spec": FUZZ_CHARACTERS,
    "checkpoints": (["geometric", "none", "10,100", "1e3", ""],
                    ["100,10", "5,5", "0", "abc", "10,1e20"]),
    "points": (["1e3", "1e2,1e3,...,1e5", "10,100"],
               ["100,10", "...,1e3", "1e3,...", "1e3,...,1e13", "0", "abc", ""]),
    "grid": (["0.6:0.7:0.1", "0.6:0.6:0.1", "0.75:0.95:0.1"],
             ["0.7:0.6:0.1", "0.6:0.9:0", "0.4:0.6:0.1", "nan:1:0.1", "0.6:0.7", "abc"]),
    "sigma_grid": (["2.0", "1.1,1.5", "3", "2.0,,3.0"], ["0.5", "1", "nan", "abc", ""]),
    "count_only": FUZZ_BOOLS, "print_period": FUZZ_BOOLS,
    "emit": FUZZ_PATHS, "out": FUZZ_PATHS, "report": FUZZ_PATHS, "manifest": FUZZ_PATHS,
}
FUZZ_JUNK_LINES = ["garbage", "= 1", "sigma =", "bogus = 1", "command = plot"]
# commands, keys, flags and store_true keys, all read from the parser
FUZZ_COMMANDS = config_options()
FUZZ_FLAGS = {key: action.option_strings[0]
              for options in FUZZ_COMMANDS.values() for key, action in options.items()}
FUZZ_SWITCHES = {key for options in FUZZ_COMMANDS.values()
                 for key, action in options.items() if action.nargs == 0}


@st.composite
def fuzz_case(draw):
    """(argv, config text or None) for one command with drawn options."""
    def rarely():
        return draw(st.integers(0, 5)) == 0

    command = draw(st.sampled_from(tuple(FUZZ_COMMANDS) + ("plot",)))
    table = FUZZ_COMMANDS.get(command)
    keys = sorted(table.keys() | {"manifest"}) if table else ["sigma", "xmax"]
    required = {key for key, action in table.items() if action.required} if table else set()
    # an omitted ntrunc defaults to 1e6 in bias-scan, so it is always drawn
    chosen = [k for k in keys
              if k == "ntrunc" or (not rarely() if k in required else draw(st.booleans()))]
    if rarely():
        chosen.append(draw(st.sampled_from(sorted(FUZZ_VALUES))))
    options = [(k, draw(st.sampled_from(FUZZ_VALUES[k][rarely()]))) for k in chosen]
    if draw(st.booleans()):
        argv = [command]
        for key, value in options:
            flag = FUZZ_FLAGS.get(key, "--" + key.replace("_", "-"))
            argv += [flag] if key in FUZZ_SWITCHES else [flag, value]
        return argv, None
    lines = [f"command = {command}"] + [f"{k} = {v}" for k, v in options]
    if rarely():
        lines.append(draw(st.sampled_from(FUZZ_JUNK_LINES)))
    argv = ["run", "--config", "exp.cfg"]
    if rarely():
        argv += ["--set", draw(st.sampled_from(["xmax=1e3", "sigma=0.5", "out=d.csv", "novalue"]))]
    return argv, "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_case())
@example((["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "0", "--ntrunc", "10"], None))
def test_fuzzed_inputs_exit_cleanly(case):
    argv, config_text = case
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config_text is not None:
                Path("exp.cfg").write_text(config_text)
            with redirect_stdout(out), redirect_stderr(err):
                code = run_cli(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, config_text, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def readme_commands() -> list[list[str]]:
    """The argv of every `primerace ...` command in README's CLI block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    cli_section = readme.read_text().split("\n## CLI\n", 1)[1]
    block = cli_section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "primerace", line
            commands.append(argv[1:])
    return commands


def test_readme_commands_parse(tmp_path, monkeypatch, no_compute):
    # a flag renamed or removed without a README edit fails here; nothing runs
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    for argv in commands:
        build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == {*config_options(), "run"}
    assert list(tmp_path.iterdir()) == []


def test_cli_imports_neither_mpmath_nor_sympy(tmp_path):
    # the oracles live in tests/; the product runs on NumPy alone
    runs = [
        ["race", "--sigma", "0.5", "--xmax", "1e4", "--out", str(tmp_path / "race.csv")],
        ["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e4", "--ntrunc", "1e4",
         "--out", str(tmp_path / "lemma.csv")],
        ["bias-scan", "--grid", "0.6:0.7:0.1", "--xmax", "1e4", "--ntrunc", "1e4",
         "--out", str(tmp_path / "bias.csv")],
    ]
    script = (
        "import runpy, sys\n"
        f"for argv in {runs!r}:\n"
        "    sys.argv = ['primerace', *argv]\n"
        "    try:\n"
        "        runpy.run_module('primerace', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
        "print(sorted({'mpmath', 'sympy'} & set(sys.modules)))\n"
    )
    src = str(Path(primerace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    for name in ("race.csv", "lemma.csv", "bias.csv"):
        assert (tmp_path / name).stat().st_size > 0


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(["conjecture", "--points", "1e3,1e4", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_parse_and_roundtrip(self):
        text = """
        # weighted race experiment
        command = race
        sigma = 0.5
        xmax = 1e6
        character = kronecker:-4
        out = race.csv
        """
        cfg = parse_config(text)
        assert cfg.command == "race"
        assert cfg.get("sigma") == "0.5"
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_missing_command(self):
        with pytest.raises(ValidationError, match="command"):
            parse_config("sigma = 0.5\n")

    def test_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config("command = race\nsigma = 0.5\nsigma = 0.6\n")

    def test_validation_names_field(self, tmp_path, no_compute, capsys):
        # the range is checked by the library, on the real run --config route
        path = tmp_path / "exp.cfg"
        path.write_text("command = race\nsigma = -0.1\nxmax = 100\n")
        assert run_cli(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("validation error: sigma must lie in [0, 1]")
        cfg = parse_config("command = race\nxmax = 100\n")
        with pytest.raises(ValidationError, match="^the following arguments are required: --sigma"):
            run_experiment(cfg)
        cfg = parse_config("command = race\nsigma = 0.5\nxmax = 100\nbogus = 1\n")
        with pytest.raises(ValidationError, match="bogus"):
            validate_config(cfg, config_options())

    def test_distinct_output_paths(self, tmp_path, monkeypatch, no_compute):
        # the run checks its given paths and the derived manifest path at once
        monkeypatch.chdir(tmp_path)
        for outputs, message in [
            ("out = same.csv\nreport = same.csv\n",
             "report: output paths must be distinct, and 'same.csv' is also the out path"),
            ("out = a.csv\nreport = a.csv.manifest.json\n",
             "manifest: output paths must be distinct, "
             "and 'a.csv.manifest.json' is also the report path"),
        ]:
            cfg = parse_config("command = conjecture\npoints = 1e3\n" + outputs)
            with pytest.raises(ValidationError) as exc:
                run_experiment(cfg)
            assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_count_only_takes_a_boolean(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("exp.cfg").write_text("command = sieve\nlimit = 10\ncount_only = maybe\n")
        assert run_cli(["run", "--config", "exp.cfg"]) == 2
        assert capsys.readouterr().err == (
            "validation error: count_only: expected true/false, got 'maybe'\n")
        Path("exp.cfg").write_text("command = sieve\nlimit = 10\ncount_only = false\nemit = p.txt\n")
        assert run_cli(["run", "--config", "exp.cfg"]) == 0
        assert Path("p.txt").read_text() == "2\n3\n5\n7\n"

    @pytest.mark.parametrize("name, line, key", [
        ("exp.cfg", "out = ./exp.cfg", "out"),
        ("exp.cfg", "manifest = exp.cfg", "manifest"),
        ("o.csv.manifest.json", "out = o.csv", "manifest"),  # the derived manifest path
    ])
    def test_no_output_overwrites_the_config(
        self, name, line, key, tmp_path, monkeypatch, no_compute, capsys
    ):
        monkeypatch.chdir(tmp_path)
        text = f"command = race\nsigma = 0.5\nxmax = 1e3\n{line}\n".encode()
        Path(name).write_bytes(text)
        assert run_cli(["run", "--config", name]) == 2
        assert capsys.readouterr().err.startswith(f"validation error: {key}: output path ")
        assert Path(name).read_bytes() == text
        assert list(tmp_path.iterdir()) == [tmp_path / name]

    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown command"):
            validate_config(ExperimentConfig("plot", ()), config_options())

    def test_parse_points_ellipsis(self):
        assert parse_points("1e2,1e3,...,1e6") == [100, 1000, 10000, 100000, 1000000]
        with pytest.raises(ValidationError):
            parse_points("...,1e3")
        with pytest.raises(ValidationError):
            parse_points("1e3,1e2")
        with pytest.raises(ValidationError, match="^points: '...' needs a positive point"):
            parse_points("0,...,10")

    def test_parse_grid(self):
        assert parse_grid("0.55:0.95:0.05") == pytest.approx(
            [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
        )
        with pytest.raises(ValidationError):
            parse_grid("0.55:0.95")


class TestRunCommand:
    def test_run_config_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        manifest = tmp_path / "manifest.json"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "command = sign-changes\n"
            "character = kronecker:-4\n"
            "sigma = 0\n"
            "xmax = 1e4\n"
            f"out = {out}\n"
            f"manifest = {manifest}\n"
        )
        assert run_cli(["run", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert report["change_count"] == 0
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "sign-changes"
        assert doc["version"]
        assert "wall_time_seconds" in doc
        assert "running_error" in doc["radii"]
        assert doc["outputs"] == [str(out)]

    def test_run_config_mellin_check(self, tmp_path, capsys):
        # the config key x is the --X flag
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"command = mellin-check\nsigma = 0\ns = 2\nx = 10\nmanifest = {tmp_path / 'm.json'}\n"
        )
        assert run_cli(["run", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("residual=")

    def test_log_domain_row_writes_null_radii(self, tmp_path):
        # L(0.501) for kronecker:-1012 at 1012 terms is 0.0534 with radius 0.0556,
        # so log L has no radius and the manifest must stay strict JSON
        out, manifest = tmp_path / "bias.csv", tmp_path / "m.json"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "command = bias-scan\ncharacter = kronecker:-1012\ngrid = 0.501:0.501:0.1\n"
            f"xmax = 1e3\nntrunc = 1012\nout = {out}\nmanifest = {manifest}\n"
        )
        assert run_cli(["run", "--config", str(cfg)]) == 0
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        assert row["status"] == "log-domain-error"

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(manifest.read_text(), parse_constant=reject)
        (radii,) = doc["radii"]["bias_scan"]
        assert radii["r"] is None and radii["log_l"] is None
        assert radii["race"] > 0

    def test_run_invalid_config_exit_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = race\nsigma = -0.1\nxmax = 100\n")
        assert run_cli(["run", "--config", str(cfg)]) == 2

    def test_run_with_override(self, tmp_path):
        out = tmp_path / "l.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = lvalue\nsigma = 1\nntrunc = 1e4\n")
        assert run_cli(["run", "--config", str(cfg), "--set", f"out={out}"]) == 0
        assert out.read_text().splitlines()[0] == "value,radius"

    def test_default_manifest_path_is_checked_before_the_run(
        self, tmp_path, monkeypatch, no_compute, capsys
    ):
        # the derived manifest path, <out>.manifest.json, names the report
        monkeypatch.chdir(tmp_path)
        Path("exp.cfg").write_text(
            "command = conjecture\npoints = 1e3\nout = a.csv\nreport = a.csv.manifest.json\n"
        )
        assert run_cli(["run", "--config", "exp.cfg"]) == 2
        assert capsys.readouterr().err == (
            "validation error: manifest: output paths must be distinct, "
            "and 'a.csv.manifest.json' is also the report path\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_default_manifest_path_follows_first_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("exp.cfg").write_text(
            "command = conjecture\npoints = 1e2,1e3\nout = c.csv\nreport = c.json\n"
        )
        assert run_cli(["run", "--config", "exp.cfg"]) == 0
        doc = json.loads(Path("c.csv.manifest.json").read_text())
        assert doc["outputs"] == ["c.csv", "c.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.csv", "c.csv.manifest.json", "c.json", "exp.cfg"]

    def test_run_missing_config_exit_4(self, tmp_path):
        assert run_cli(["run", "--config", str(tmp_path / "nope.cfg")]) == 4

    def test_config_not_utf8_exits_2(self, tmp_path, monkeypatch, no_compute, capsys):
        monkeypatch.chdir(tmp_path)
        Path("exp.cfg").write_bytes(b"command = race\nsigma = 0.5\xff\nxmax = 100\nout = r.csv\n")
        assert run_cli(["run", "--config", "exp.cfg"]) == 2
        assert capsys.readouterr().err == (
            "validation error: config 'exp.cfg': 'utf-8' codec can't decode byte 0xff "
            "in position 26: invalid start byte\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_nul_byte_in_a_path_exits_2(self, tmp_path, monkeypatch, no_compute, capsys):
        monkeypatch.chdir(tmp_path)
        Path("exp.cfg").write_text("command = race\nsigma = 0.5\nxmax = 100\nout = a\0b.csv\n")
        assert run_cli(["run", "--config", "exp.cfg"]) == 2
        assert run_cli(["race", "--sigma", "0.5", "--xmax", "100", "--out", "a\0b.csv"]) == 2
        assert run_cli(["run", "--config", "exp\0.cfg"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "validation error: out: output path 'a\\x00b.csv' contains a NUL byte"] * 2 + [
            "validation error: config 'exp\\x00.cfg': embedded null byte"]
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_run_experiment_python_api(self, tmp_path):
        from primerace import ExperimentConfig, run_experiment

        out = tmp_path / "l.csv"
        manifest = tmp_path / "m.json"
        cfg = ExperimentConfig(
            "lvalue",
            (("manifest", str(manifest)), ("ntrunc", "1e4"), ("out", str(out)), ("sigma", "2")),
        )
        result = run_experiment(cfg)
        assert result["manifest"] == str(manifest)
        assert out.exists() and manifest.exists()
        doc = json.loads(manifest.read_text())
        assert doc["radii"]["l_value"] > 0


class TestRunDeterminism:
    def test_race_csv_identical_across_runs(self, tmp_path):
        # one thread does all the work, so two runs give the same bytes
        outputs = []
        for name in ("run1.csv", "run2.csv"):
            path = tmp_path / name
            assert run_cli(["race", "--sigma", "0.5", "--xmax", "2e5", "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
