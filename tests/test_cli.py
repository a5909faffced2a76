import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primerace
from primerace.cli import main
from primerace.config import (
    ExperimentConfig,
    parse_config,
    parse_grid,
    parse_points,
    serialize_config,
    validate_config,
)
from primerace.errors import ValidationError

from oracles import trial_division_primes


def run_cli(args):
    return main(args)


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


def test_character_bad_spec_exit_2(capsys):
    assert run_cli(["character", "--spec", "kronecker:9"]) == 2


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


def test_race_oracle_precision(tmp_path):
    out = tmp_path / "race.csv"
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "1000",
                    "--precision", "oracle", "--checkpoints", "10,1000",
                    "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    a10 = float(rows[0].split(",")[1])
    assert abs(a10 - (-(3 ** -0.5) + 5 ** -0.5 - 7 ** -0.5)) < 1e-14


def test_race_oracle_default_checkpoints(tmp_path):
    out = tmp_path / "race.csv"
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "100",
                    "--precision", "oracle", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 2


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


# perfbench/reference/signs.json holds the exact sigma = 0 report to 1e9;
# a positive region starts where a change lies more than 10% past the
# previous one (the region rule of perfbench/checks.py)
SIGNS_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "signs.json"


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
    ["conjecture", "--points", "1e3", "--budget", "abc"],
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


def test_verify_lemma_csv(tmp_path, capsys):
    out = tmp_path / "lemma.csv"
    assert run_cli(["verify-lemma", "--sigma-grid", "2.0,3.0",
                    "--prime-limit", "1e5", "--ntrunc", "1e5",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sigma,log_l_value,log_l_radius,prime_sum_value")
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "true"


def test_bias_scan_csv(tmp_path):
    out = tmp_path / "bias.csv"
    assert run_cli(["bias-scan", "--grid", "0.6:0.9:0.1", "--xmax", "1e4",
                    "--ntrunc", "1e5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["sigma", "x_max", "status"]
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


def test_io_error_exit_4(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli(["race", "--sigma", "0.5", "--xmax", "100", "--out", str(missing)]) == 4


@pytest.fixture
def no_prime_walk(monkeypatch):
    """Fail the test if any module walks the primes."""
    def forbidden(*args, **kwargs):
        pytest.fail("primes were walked before the output path was checked")

    for name in ("sieve", "races", "lfun", "cli"):
        monkeypatch.setattr(f"primerace.{name}.iter_prime_arrays", forbidden)


def test_bad_output_path_fails_before_computing(tmp_path, no_prime_walk, capsys):
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


def test_removed_mmax_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify-lemma", "--sigma-grid", "2.0", "--prime-limit", "1e3", "--mmax", "64"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--mmax" in err and "Traceback" not in err


def test_removed_mmax_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("command = verify-lemma\nsigma_grid = 2.0\nprime_limit = 1e3\nmmax = 64\n")
    assert run_cli(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: mmax:")
    assert "Traceback" not in err


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

    def test_validation_names_field(self):
        cfg = parse_config("command = race\nsigma = -0.1\nxmax = 100\n")
        with pytest.raises(ValidationError, match="sigma"):
            validate_config(cfg)
        cfg = parse_config("command = race\nxmax = 100\n")
        with pytest.raises(ValidationError, match="sigma"):
            validate_config(cfg)
        cfg = parse_config("command = race\nsigma = 0.5\nxmax = 100\nbogus = 1\n")
        with pytest.raises(ValidationError, match="bogus"):
            validate_config(cfg)

    def test_distinct_output_paths(self):
        cfg = parse_config(
            "command = conjecture\npoints = 1e3\nout = same.csv\nreport = same.csv\n"
        )
        with pytest.raises(ValidationError, match="distinct"):
            validate_config(cfg)

    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown command"):
            validate_config(ExperimentConfig("plot", ()))

    def test_parse_points_ellipsis(self):
        assert parse_points("1e2,1e3,...,1e6") == [100, 1000, 10000, 100000, 1000000]
        with pytest.raises(ValidationError):
            parse_points("...,1e3")
        with pytest.raises(ValidationError):
            parse_points("1e3,1e2")

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

    def test_run_missing_config_exit_4(self, tmp_path):
        assert run_cli(["run", "--config", str(tmp_path / "nope.cfg")]) == 4

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


class TestWorkerDeterminism:
    def test_race_csv_identical_across_worker_counts(self, tmp_path, monkeypatch):
        outputs = []
        for n, name in ((1, "w1.csv"), (4, "w4.csv")):
            monkeypatch.setenv("PRIMERACE_WORKERS", str(n))
            path = tmp_path / name
            assert run_cli(["race", "--sigma", "0.5", "--xmax", "2e5", "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
