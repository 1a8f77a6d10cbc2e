import hashlib
import json
import subprocess
import sys
import time

import pytest

from hyperlab import cli, groups


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


@pytest.mark.parametrize("suite", ["cocycle", "properness"])
def test_empty_band_exit_two(capsys, suite):
    # green distances on free:2 are multiples of log 3, so the band
    # [K-C, K+C] around the default K = 1 holds no pair of the ball
    assert cli.main(["check", "--suite", suite, "--group", "free:2",
                     "--metric", "green"]) == 2
    assert "[K-C, K+C]" in capsys.readouterr().err


def test_band_past_a_small_ball_is_reported_empty(tmp_path):
    # no two elements of the radius-2 ball are 20 apart
    code, payload = run_main(tmp_path, "check", "--suite", "cocycle",
                             "--group", "free:2", "--radius", "2",
                             "--K", "20")
    assert code == 0
    checks = json.loads(payload)["reports"][0]["checks"]
    assert checks[0]["details"]["pair_count"] == 0
    assert [c["details"]["verdict"] for c in checks[1:]] == ["empty"] * 3


def test_oversized_distance_matrix_exit_two(capsys):
    # the free:2 radius-9 ball holds 39365 elements; comparing all their
    # words at once would take about 46.2 GiB, so it is refused up front
    started = time.perf_counter()
    assert cli.main(["check", "--suite", "cocycle", "--group", "free:2",
                     "--radius", "9", "--g", "abababab"]) == 2
    assert time.perf_counter() - started < 10
    err = capsys.readouterr().err
    assert "39365 x 39365" in err and "46.2 GiB" in err


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


# Report bytes for a fixed configuration are an invariant.  A deliberate
# format change updates the hash here and says so in CHANGES.md.
PINNED_REPORTS = [
    (("--suite", "all", "--group", "free:2", "--seed", "7"),
     "896555dd8728c6b2e66ceb38bd831c31bbe08cfcb599b0d18e8db1748f03bb95"),
    (("--suite", "green", "--group", "modular", "--radius", "2"),
     "8c9b1882bd095227d6daf930f7b5744a9e456785856bd6bfcae93636a8100b88"),
    (("--suite", "cocycle", "--group", "surface:2", "--radius", "2"),
     "96e53fd7cbb733acf3b8d13e14dc2dc8c48951e1ffa6ffa3c8a4de7404d895db"),
    (("--suite", "cocycle", "--group", "free:2", "--g", "abab",
      "--format", "csv"),
     "f999ce400a89308b51c7da52b79271bae70347f6c57410a4a6b3ad076365315a"),
    (("--suite", "properness", "--group", "modular", "--metric", "green",
      "--radius", "3", "--K", "12"),
     "98d06eb2b1b45dffa9a7825456516aa92edf608557a3826b4a665816b8ceb19f"),
    (("--suite", "green", "--group", "modular"),
     "e9e4d8564bd120e390563bbd2e9de29274e3c40f787b510a4d2df72a074b33c7"),
    (("--suite", "strong-hyp", "--group", "modular", "--metric", "green"),
     "c5adf4f6e4b999f551a7d230186a01881b6ca0ff4442954d7d97197c9d2f0e6c"),
    (("--suite", "strong-hyp", "--group", "free:2", "--radius", "4"),
     "715d9f10fa47da34fd7d6241a3e395cbd6c2b24f68d8b24990b1927bf2af189a"),
    (("--suite", "strong-hyp", "--group", "modular", "--radius", "6"),
     "88b896b4e018c14e82d9beb17b862d146eeb4f4ca0761f2b3c48d0bfed0d23ba"),
    # nonzero C: partition targets fall halfway between path points
    (("--suite", "properness", "--group", "free:2", "--radius", "5",
      "--K", "5/2", "--C", "1/2"),
     "ea17a9496866044a79038c3c9e0c75fbeb338afd734fadda0935e98b6dfe35c2"),
    (("--suite", "properness", "--group", "modular"),
     "48ff636816d8d8da0a078641bf26e8e3510834d610f25d08d79b032e23c07c6d"),
    # products up to 7 letters: relator windows at several starts
    (("--suite", "cocycle", "--group", "surface:2", "--radius", "3"),
     "02b2ba6104fa1799557911d75e6be0bfccd4d1ce544574d85825da106379f0cc"),
]


@pytest.mark.parametrize("args,digest", PINNED_REPORTS,
                         ids=[" ".join(a) for a, _ in PINNED_REPORTS])
def test_report_bytes_are_pinned(tmp_path, args, digest):
    code, payload = run_main(tmp_path, "check", *args)
    assert code == 0
    assert hashlib.sha256(payload).hexdigest() == digest


def _count_normalize(monkeypatch):
    """List that collects every word passed to normalize from now on."""
    calls = []
    normalize = groups.GroupPresentation.normalize

    def counting(self, word):
        calls.append(word)
        return normalize(self, word)

    monkeypatch.setattr(groups.GroupPresentation, "normalize", counting)
    return calls


@pytest.mark.parametrize("args,limit", [
    # below one call per ball element (1,457 at the default radius 6)
    (("--suite", "properness", "--group", "free:2"), 1457),
    (("--suite", "all", "--group", "free:2", "--seed", "7"), 1_000),
], ids=["properness", "all"])
def test_free_runs_rarely_normalize(tmp_path, monkeypatch, args, limit):
    # free-kind distances come from the common prefix of the two words,
    # so the properness certificates renormalize no product
    calls = _count_normalize(monkeypatch)
    code, _ = run_main(tmp_path, "check", *args)
    assert code == 0
    assert len(calls) < limit


def test_cocycle_scan_forms_each_product_once(tmp_path, monkeypatch):
    # the identity scan reads each g*h of the outer ball from the row kept
    # when it was first formed (16,048 normalize calls when it formed
    # every product twice)
    calls = _count_normalize(monkeypatch)
    code, _ = run_main(tmp_path, "check", "--suite", "cocycle",
                       "--group", "surface:2", "--radius", "2")
    assert code == 0
    assert len(calls) <= 12_000
