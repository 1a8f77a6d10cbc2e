import json
import subprocess
import sys

import pytest

from hyperlab import cli


def run_main(tmp_path, *args):
    out = tmp_path / "out.bin"
    code = cli.main(list(args) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_passing_run_exit_zero(tmp_path):
    code, payload = run_main(tmp_path, "check", "--suite", "strong-hyp",
                             "--group", "free:2")
    assert code == 0
    doc = json.loads(payload)
    assert doc["schema_version"] == "1"
    assert doc["passed"] is True
    report = doc["reports"][0]
    assert report["suite"] == "strong-hyp"
    assert report["counts"]["failures"] == 0


def test_output_is_deterministic(tmp_path):
    args = ("check", "--suite", "boundary", "--group", "free:2",
            "--seed", "7")
    _, one = run_main(tmp_path, *args)
    _, two = run_main(tmp_path, *args)
    assert one == two
    assert b"duration" not in one


def test_math_failure_exit_one_with_witness(tmp_path):
    # the plain word metric on a one-relator group genuinely fails the
    # four-point inequality once relator overlaps shorten products
    code, payload = run_main(tmp_path, "check", "--suite", "strong-hyp",
                             "--group", "surface:2", "--radius", "3",
                             "--metric", "word")
    assert code == 1
    doc = json.loads(payload)
    assert doc["passed"] is False
    check = doc["reports"][0]["checks"][0]
    assert check["passed"] is False
    assert check["details"]["mode"] == "sampled"
    witness = check["witness"]
    assert witness["defect"] > 0
    assert set(witness) >= {"x", "y", "z", "basepoint"}


@pytest.mark.parametrize("suite", ["strong-hyp", "cocycle", "properness"])
def test_alphabet_past_int8_range(tmp_path, suite):
    # free:65 spells its elements with 130 symbols
    code, _ = run_main(tmp_path, "check", "--suite", suite,
                       "--group", "free:65", "--radius", "1")
    assert code == 0


def test_unknown_suite_exit_two(capsys):
    assert cli.main(["check", "--suite", "bogus", "--group", "free:2"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_unknown_group_exit_two(capsys):
    assert cli.main(["check", "--suite", "kms",
                     "--group", "nosuch:9"]) == 2
    assert "unknown group spec" in capsys.readouterr().err


def test_kms_depth_radius_guard_exit_two(capsys):
    assert cli.main(["check", "--suite", "kms", "--group", "free:2",
                     "--radius", "3"]) == 2
    assert "depth" in capsys.readouterr().err


def test_unwritable_out_exit_three(capsys):
    code = cli.main(["check", "--suite", "strong-hyp", "--group", "free:2",
                     "--out", "/nonexistent-dir/x.json"])
    assert code == 3
    assert "io error" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsuite = strong-hyp\ngroup = free:2\n"
                   "radius = 2\nseed = 11\n")
    code, payload = run_main(tmp_path, "check", "--config", str(cfg))
    assert code == 0
    settings = json.loads(payload)["reports"][0]["settings"]
    assert settings["radius"] == 2
    assert settings["seed"] == 11


def test_cli_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = strong-hyp\ngroup = free:2\nradius = 2\n")
    code, payload = run_main(tmp_path, "check", "--config", str(cfg),
                             "--radius", "3")
    assert code == 0
    assert json.loads(payload)["reports"][0]["settings"]["radius"] == 3


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("radius = x\n")
    assert cli.main(["check", "--suite", "green", "--group", "free:2",
                     "--config", str(bad)]) == 2
    bad.write_text("bogus = 1\n")
    assert cli.main(["check", "--suite", "green", "--group", "free:2",
                     "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err


def test_missing_suite_exit_two(capsys):
    assert cli.main(["check", "--group", "free:2"]) == 2


def test_single_element_csv_table(tmp_path):
    code, payload = run_main(tmp_path, "check", "--suite", "cocycle",
                             "--group", "free:2", "--g", "ab",
                             "--format", "csv")
    assert code == 0
    lines = payload.decode().splitlines()
    assert lines[0] == "p,K,C,radius,norm_p,tail_bound,n,lower_bound"
    assert lines[1] == "1,1/1,0/1,4,4/1,0,1,1/1"
    assert lines[2] == "2,1/1,0/1,4,4/1,0,1,1/1"
    assert lines[3] == "3,1/1,0/1,4,4/1,0,1,1/1"


def test_p_grid_flag(tmp_path):
    code, payload = run_main(tmp_path, "check", "--suite", "cocycle",
                             "--group", "free:2", "--g", "ab",
                             "--p", "1,2")
    assert code == 0
    checks = json.loads(payload)["reports"][0]["checks"]
    assert [c["name"] for c in checks] == ["lp-norm-p=1", "lp-norm-p=2"]


def test_presentation_file_group(tmp_path):
    pres = tmp_path / "surface.txt"
    pres.write_text("generators: a b c d\naba'b'cdc'd'\n")
    code, payload = run_main(tmp_path, "check", "--suite", "strong-hyp",
                             "--group", f"@{pres}", "--radius", "2")
    assert code == 0
    report = json.loads(payload)["reports"][0]
    assert report["checks"][0]["details"]["elements"] == 65


def test_suite_all_runs_in_order(tmp_path):
    code, payload = run_main(tmp_path, "check", "--suite", "all",
                             "--group", "free:2", "--radius", "2",
                             "--depth", "3")
    assert code == 0
    suites = [r["suite"] for r in json.loads(payload)["reports"]]
    assert suites == ["strong-hyp", "green", "cocycle", "properness",
                      "boundary", "kms"]


def test_stdout_and_file_payloads_match(tmp_path):
    argv = ["check", "--suite", "green", "--group", "free:2"]
    proc = subprocess.run([sys.executable, "-m", "hyperlab.cli"] + argv,
                          capture_output=True, check=True)
    _, from_file = run_main(tmp_path, *argv)
    assert proc.stdout == from_file
    assert b"s" in proc.stderr  # timing goes to stderr only
