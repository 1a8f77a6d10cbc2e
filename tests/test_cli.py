import dataclasses
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from hyperlab import boundary, cli, cocycles, crossed, groups, metrics, suites
from hyperlab.errors import ResourceLimitError


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
    assert check["details"]["quadruples"] == 457 ** 3
    assert check["details"]["basepoint"] == "identity"
    witness = check["witness"]
    assert witness["defect"] == pytest.approx(0.49678527559194496, abs=1e-12)
    assert set(witness) == {"x", "y", "z", "defect"}


@pytest.mark.parametrize("group,radius,mode,raw", [
    # rows x n^2 entries at the identity, under the cap 1.2e9: 6 x 485^2,
    # 110 x 218^2, 115 x 457^2, 5 x 937^2, 7 x 1457^2 and 267 x 1597^2
    pytest.param("free:2", 5, "exhaustive", -0.00673794699909,
                 id="free:2-5-exhaustive"),
    pytest.param("modular", 10, "exhaustive", -4.53999297625e-05,
                 id="modular-10-exhaustive"),
    pytest.param("surface:2", 3, "exhaustive", 0.496785275592,
                 id="surface:2-3-exhaustive"),
    pytest.param("free:3", 4, "exhaustive", -0.0183156388887,
                 id="free:3-4-exhaustive"),
    pytest.param("free:2", 6, "exhaustive", -0.00247875217667,
                 id="free:2-6-exhaustive"),
    pytest.param("surface:3", 3, "exhaustive", -0.0497870683679,
                 id="surface:3-3-exhaustive"),
    # 800 x 3193^2 = 8.2e9 over it
    pytest.param("surface:2", 4, "refused", None, id="surface:2-4-refused"),
])
def test_four_point_mode_follows_the_computed_quadruples(tmp_path, capsys,
                                                         group, radius, mode,
                                                         raw):
    # every verdict is exhaustive or refused, by the entries the scan
    # computes
    code, payload = run_main(tmp_path, "check", "--suite", "strong-hyp",
                             "--group", group, "--radius", str(radius))
    if mode == "refused":
        assert (code, payload) == (2, b"")
        assert "needs 800 rows x 3193^2" in capsys.readouterr().err
        return
    details = json.loads(payload)["reports"][0]["checks"][0]["details"]
    assert details["quadruples"] == details["elements"] ** 3
    assert details["raw"] == raw


@pytest.mark.parametrize("group", ["free:3", "free:4"])
def test_green_suite_scans_large_free_balls_by_sphere(tmp_path, group):
    # B(3) holds 187 and 457 elements: n^4 passes the cap, but the n^3
    # triples at the identity, one x row per sphere, do not
    code, payload = run_main(tmp_path, "check", "--suite", "green",
                             "--group", group)
    assert code == 0
    assert json.loads(payload)["passed"] is True


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
                     "--radius", "3", "--depth", "3"]) == 2
    assert "depth" in capsys.readouterr().err


def test_kms_default_depth_follows_the_radius(tmp_path):
    # the scan needs depth > radius, so the default is max(3, radius + 1)
    code, payload = run_main(tmp_path, "check", "--suite", "all",
                             "--group", "free:2", "--radius", "3")
    assert code == 0
    kms = json.loads(payload)["reports"][-1]
    assert (kms["suite"], kms["settings"]["depth"]) == ("kms", 4)


@pytest.mark.parametrize("suite", ["cocycle", "properness"])
def test_empty_band_exit_two(capsys, suite):
    # green distances on free:2 are multiples of log 3, so the band
    # [K-C, K+C] around the default K = 1 holds no pair of the ball
    assert cli.main(["check", "--suite", suite, "--group", "free:2",
                     "--metric", "green"]) == 2
    assert "[K-C, K+C]" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (("--seed", "-1"), "seed must be nonnegative"),
    (("--p", "inf", "--g", "a"), "finite and at least 1, got inf"),
    (("--p", "nan"), "finite and at least 1, got nan"),
    (("--p", "1,-inf"), "got -inf"),
    # radius 0 leaves the band empty: only the refusal can fail this run
    (("--C", "-1", "--radius", "0"), "C must be nonnegative, got C=-1"),
])
def test_bad_seed_or_p_exit_two(capsys, flags, message):
    assert cli.main(["check", "--suite", "cocycle", "--group", "free:2",
                     *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["strong-hyp", "green", "cocycle",
                                   "properness", "boundary", "kms"])
def test_every_suite_ends_promptly_on_the_integers(suite):
    # free:1 is Z: two boundary points and a recurrent walk, so the suites
    # that need a boundary measure refuse it, and the others run
    proc = subprocess.run(
        [sys.executable, "-m", "hyperlab.cli", "check", "--suite", suite,
         "--group", "free:1"], capture_output=True, timeout=10)
    assert proc.returncode in (0, 2), proc.stderr
    if suite in ("green", "boundary", "kms"):
        assert proc.returncode == 2
        assert b"free:1 is elementary" in proc.stderr


def test_identity_scan_sample_leaves_numpy_random_unloaded(tmp_path):
    # the scan's seeded sample draws with the standard library; importing
    # numpy.random would cost every cocycle run about 15 ms
    code = ("import sys; from hyperlab import cli; "
            "cli.main(['check', '--suite', 'cocycle', '--group', "
            "'surface:2', '--radius', '2', '--out', sys.argv[1]]); "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "out.json")],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"


def test_green_suite_at_radius_zero(tmp_path):
    # the closed-form check reads the one-letter passage at every radius
    code, payload = run_main(tmp_path, "check", "--suite", "green",
                             "--group", "free:2", "--radius", "0")
    assert code == 0
    report = json.loads(payload)["reports"][0]
    assert report["counts"] == {"checks": 3, "failures": 0}


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
    # words at once would take about 4.4 GiB with the per-word arrays, so
    # it is refused up front
    started = time.perf_counter()
    assert cli.main(["check", "--suite", "cocycle", "--group", "free:2",
                     "--radius", "9", "--g", "abababab"]) == 2
    assert time.perf_counter() - started < 10
    err = capsys.readouterr().err
    assert "39365 x 39365" in err and "4.4 GiB" in err


def test_oversized_min_rule_scan_exit_two(capsys):
    # the free:4 radius-5 tree oracle would hold 22409^2 pairs of its ball
    # at the identity; the ball's size refuses it before the distance
    # matrix is built
    started = time.perf_counter()
    assert cli.main(["check", "--suite", "strong-hyp", "--group", "free:4",
                     "--radius", "5"]) == 2
    assert time.perf_counter() - started < 10
    err = capsys.readouterr().err
    assert "over 22409^2 pairs needs 15.0 GiB" in err
    assert "cap 2 GiB" in err


def test_min_rule_refusal_precedes_the_distance_matrix(monkeypatch):
    # strong-hyp runs the min-rule oracle before the float scan, so the
    # free:4 radius-5 refusal comes before any n x n matrix is built
    def build(*args):
        raise AssertionError("distance matrix built before the refusal")

    monkeypatch.setattr(metrics, "bulk_product_lengths", build)
    cfg = suites.ScenarioConfig(suite="strong-hyp", group="free:4", radius=5)
    with pytest.raises(ResourceLimitError,
                       match=r"22409\^2 pairs needs 15\.0 GiB"):
        suites.run_scenario(cfg)


def test_all_suites_on_free2_stay_under_twelve_megabytes():
    # the properness suite's 1456 x 1456 word distances set the peak;
    # stored as int64, with int64 temporaries, the peak was 49 MB
    cfg = suites.ScenarioConfig(suite="all", group="free:2", seed=7)
    tracemalloc.start()
    try:
        suites.run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


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
    # at a float p the count is exact only where every jump is 1: K = 1
    for K, expected in (("1", [4, 4]), ("2", [None, 28])):
        code, payload = run_main(tmp_path, "check", "--suite", "cocycle",
                                 "--group", "free:2", "--g", "ab",
                                 "--p", "1.5,2", "--K", K)
        assert code == 0
        checks = json.loads(payload)["reports"][0]["checks"]
        assert [c["details"]["expected"] for c in checks] == expected


@pytest.mark.parametrize("args,norms,expected", [
    # inside radius 4 (|g| + hi - 1 <= 4) the truncated norm is the count
    (("free:2", "--K", "2", "--g", "ab"), None, [24, 28, 36]),
    (("free:2", "--K", "3", "--g", "a"), None, [54, 54, 54]),
    (("free:3", "--K", "2", "--g", "ab"), None, [40, 44, 52]),
    # past it the count lies within the tail bound above the norm
    (("free:2", "--K", "3", "--g", "abab"), ["150/1", "218/1", "378/1"],
     [216, 296, 480]),
])
def test_norm_rows_expect_the_count(tmp_path, monkeypatch, args, norms,
                                    expected):
    code, payload = run_main(tmp_path, "check", "--suite", "cocycle",
                             "--group", *args)
    assert code == 0
    details = [c["details"] for c in json.loads(payload)["reports"][0][
        "checks"]]
    assert [d["expected"] for d in details] == expected
    if norms is not None:
        assert [d["norm_p"] for d in details] == norms
        return
    assert all(d["tail_bound"] == 0 for d in details)
    assert [d["norm_p"] for d in details] == [f"{e}/1" for e in expected]
    # a count one off either way fails its row
    count = cocycles.free_norm_count
    for off in (1, -1):
        monkeypatch.setattr(cocycles, "free_norm_count",
                            lambda *a: count(*a) + off)
        code, _ = run_main(tmp_path, "check", "--suite", "cocycle",
                           "--group", *args)
        assert code == 1


def test_edge_norm_law_reads_the_count(tmp_path, monkeypatch):
    # K = 5/2, C = 1/2: hi = 3, so radius 5 holds the count's pairs for
    # the 53 elements of length 3 or less
    args = ("check", "--suite", "cocycle", "--group", "free:2", "--radius",
            "5", "--K", "5/2", "--C", "1/2")
    code, payload = run_main(tmp_path, *args)
    assert code == 0
    checks = json.loads(payload)["reports"][0]["checks"]
    edge = next(c for c in checks if c["name"] == "edge-norm-law")
    assert edge["passed"] and edge["details"]["elements"] == 53
    count = cocycles.free_norm_count
    monkeypatch.setattr(cocycles, "free_norm_count",
                        lambda *a: count(*a) + 1)
    code, payload = run_main(tmp_path, *args)
    assert code == 1
    checks = json.loads(payload)["reports"][0]["checks"]
    edge = next(c for c in checks if c["name"] == "edge-norm-law")
    assert edge["witness"] == {"g": "1", "p": 1, "norm_p": "0/1",
                               "expected": 1}


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
     "a75cea9084f26600e988fbe185f683ecacb011625f3b0d379032b44c76bcd5f0"),
    (("--suite", "green", "--group", "modular", "--radius", "2"),
     "2928ebbc75621de4ac117a9f58e9a3daa0b73b3d7d995b972d650a266c532701"),
    (("--suite", "cocycle", "--group", "surface:2", "--radius", "2"),
     "96e53fd7cbb733acf3b8d13e14dc2dc8c48951e1ffa6ffa3c8a4de7404d895db"),
    (("--suite", "cocycle", "--group", "free:2", "--g", "abab",
      "--format", "csv"),
     "3347c1f5cd42301615b7b74986a44f2e9e6a7afe2d2bc2198973acc062aeb02f"),
    # min_count_margin reads d(e, g) in Green units
    (("--suite", "properness", "--group", "modular", "--metric", "green",
      "--radius", "3", "--K", "12"),
     "fbed6284aa34bd66cff48e53a95bbb97c42ef8d28e5ca1fa90d0d81c3e666c06"),
    (("--suite", "green", "--group", "modular"),
     "ae26f97759336cc6ab19fd8988822e02b7c570d2b1fd4248927b27480397d5a0"),
    (("--suite", "strong-hyp", "--group", "modular", "--metric", "green"),
     "a266281aac081482ce043cd549eeef2804a9ea101102297fd045a4645def3dbb"),
    (("--suite", "strong-hyp", "--group", "free:2", "--radius", "4"),
     "f816f129b2fe01874393190e324bfffb3c7cb6ce190e17cef825d812cdb42e45"),
    (("--suite", "strong-hyp", "--group", "modular", "--radius", "6"),
     "4ace4d12880e9ab9e3b0b9fec10b814b4af8cc869060f101e0ebc1ecec878d8f"),
    # nonzero C: partition targets fall halfway between path points
    (("--suite", "properness", "--group", "free:2", "--radius", "5",
      "--K", "5/2", "--C", "1/2"),
     "ea17a9496866044a79038c3c9e0c75fbeb338afd734fadda0935e98b6dfe35c2"),
    (("--suite", "properness", "--group", "modular"),
     "48ff636816d8d8da0a078641bf26e8e3510834d610f25d08d79b032e23c07c6d"),
    # products up to 7 letters: relator windows at several starts
    (("--suite", "cocycle", "--group", "surface:2", "--radius", "3"),
     "02b2ba6104fa1799557911d75e6be0bfccd4d1ce544574d85825da106379f0cc"),
    # the kms scan at depth 4: 1,836 monomials, 198,288 checked pairs
    (("--suite", "kms", "--group", "free:2", "--seed", "3", "--depth", "4"),
     "529537873652e095fa772e97c9200fdd10e44b79051eefcc858a519e35fbe59e"),
    # the boundary suite alone: rank 3, a --depth above |g| + 1, radius 4
    (("--suite", "boundary", "--group", "free:3", "--seed", "1"),
     "3f69f4c5e5abc0cf88f8375bd1ac32490a7bfaf14008966dc3fbf923d9d1479a"),
    (("--suite", "boundary", "--group", "free:2", "--depth", "5",
      "--seed", "2"),
     "c6c96c511fc100ba4da14f8d0d43da724e783514f4a6fdacbbe0297acca1b6c1"),
    (("--suite", "boundary", "--group", "free:2", "--radius", "4",
      "--seed", "0"),
     "3f6b40fa0a78187240ecb18f86f8c590d8bee6a20c26859155b48f08eca41177"),
]


@pytest.mark.parametrize("args,digest", PINNED_REPORTS,
                         ids=[" ".join(a) for a, _ in PINNED_REPORTS])
def test_report_bytes_are_pinned(tmp_path, args, digest):
    code, payload = run_main(tmp_path, "check", *args)
    assert code == 0
    assert hashlib.sha256(payload).hexdigest() == digest
    if "csv" not in args:
        passed = _passed_values(json.loads(payload))
        assert passed and all(type(v) is bool for v in passed)


def _passed_values(node):
    """Every value under a "passed" key in a JSON document."""
    if isinstance(node, list):
        return [v for item in node for v in _passed_values(item)]
    if not isinstance(node, dict):
        return []
    return [v for key, item in node.items()
            for v in ([item] if key == "passed" else _passed_values(item))]


def _count_calls(monkeypatch, owner, name):
    """List that collects the arguments of every call to owner.name from
    now on."""
    calls = []
    method = getattr(owner, name)

    def counting(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("args,limit", [
    # below one call per ball element (1,457 at the default radius 6)
    (("--suite", "properness", "--group", "free:2"), 1457),
    # 0 measured: `Ball.symmetries` finds every image in the ball index
    (("--suite", "all", "--group", "free:2", "--seed", "7"), 500),
], ids=["properness", "all"])
def test_free_runs_rarely_normalize(tmp_path, monkeypatch, args, limit):
    # free-kind distances come from the common prefix of the two words,
    # so the properness certificates renormalize no product
    calls = _count_calls(monkeypatch, groups.GroupPresentation, "normalize")
    code, _ = run_main(tmp_path, "check", *args)
    assert code == 0
    assert len(calls) < limit


def test_properness_reads_the_band_matrix(tmp_path, monkeypatch):
    # parameters and Gromov products come from two rows of the band's
    # matrix: 9,476 gromov_product and 37,904 left_quotient calls when
    # each partition point took one scalar product
    products = _count_calls(monkeypatch, metrics.MetricStructure,
                            "gromov_product")
    quotients = _count_calls(monkeypatch, groups.GroupPresentation,
                             "left_quotient")
    code, _ = run_main(tmp_path, "check", "--suite", "properness",
                       "--group", "free:2")
    assert code == 0
    assert len(products) == 0
    assert len(quotients) <= 1456       # one per non-identity element


def test_all_free2_certifies_the_ball_in_one_pass(tmp_path, monkeypatch):
    # 1,456 certificate and 483 norm calls when each element was certified
    # and normed on its own; one block each now
    calls = {"properness_certificates": 0, "cocycle_norms": 0, "lp_norms": 0}
    for name in calls:
        def counted(*args, _call=getattr(cocycles, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(cocycles, name, counted)
    code, _ = run_main(tmp_path, "check", "--suite", "all", "--group",
                       "free:2", "--seed", "7")
    assert code == 0
    assert calls == {"properness_certificates": 1, "cocycle_norms": 3,
                     "lp_norms": 0}


def test_properness_block_builds_fractions_per_distinct_value(
        tmp_path, monkeypatch):
    # a work count, not a timer: the ball's 1,456 norms take 6 distinct
    # values, as do their partition counts; one Fraction norm and bound
    # per element built 2,918 Fractions in the block, per value 18
    made, inside = [0], [False]
    real_new, certify = Fraction.__new__, cocycles.properness_certificates

    def counted(cls, *args, **kwargs):
        made[0] += inside[0]
        return real_new(cls, *args, **kwargs)

    def traced(*args):
        inside[0] = True
        try:
            return certify(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(cocycles, "properness_certificates", traced)
    monkeypatch.setattr(Fraction, "__new__", counted)
    code, _ = run_main(tmp_path, "check", "--suite", "all", "--group",
                       "free:2", "--seed", "7")
    monkeypatch.undo()
    assert code == 0
    assert 0 < made[0] <= 32


def test_single_element_certificate_bytes_and_failure(tmp_path, capsys):
    code, payload = run_main(tmp_path, "check", "--suite", "properness",
                             "--group", "free:2", "--g", "abab'")
    assert code == 0
    assert hashlib.sha256(payload).hexdigest() == (
        "fa3d27bae7c4859f6d7fac6481a0fc224bb5395e1de292dfae1e8139434b52f3")
    capsys.readouterr()
    # abab' leaves the radius-2 ball: its block's message, exit 1
    code, payload = run_main(tmp_path / "small", "check", "--suite",
                             "properness", "--group", "free:2", "--g",
                             "abab'", "--radius", "2")
    assert (code, payload) == (1, b"")
    assert capsys.readouterr().err == (
        "check failed: partition pair (aba, ab) left the coarse edge set; "
        "the rough constant C=0 is too small or the band radius is too "
        "small\n")


@pytest.mark.parametrize("args, bound", [
    (("--group", "free:2"), "0/1"),
    # a float (K-2C)^p still leaves the identity an exact 0
    (("--group", "free:2", "--p", "2.5"), "0/1"),
    (("--group", "modular", "--metric", "green", "--radius", "3", "--K",
      "12"), 0),
])
def test_identity_certificate_lower_bound(tmp_path, args, bound):
    code, payload = run_main(tmp_path, "check", "--suite", "properness",
                             "--g", "1", *args)
    assert code == 0
    details = json.loads(payload)["reports"][0]["checks"][0]["details"]
    assert (details["n"], details["lower_bound"]) == (0, bound)


@pytest.mark.parametrize("args", [
    ("--suite", "all", "--group", "free:2", "--seed", "7"),
    ("--suite", "kms", "--group", "free:2", "--seed", "3", "--depth", "4"),
], ids=["all-free2", "kms-free2-depth4"])
def test_kms_suite_scans_once(tmp_path, monkeypatch, args):
    # temperature-sensitivity ran a second whole scan at lambda^2; it now
    # reads the forcing pairs of the one scan
    calls = []

    def counted(*a, _scan=crossed.kms_monomial_scan, **kw):
        calls.append(a)
        return _scan(*a, **kw)

    monkeypatch.setattr(crossed, "kms_monomial_scan", counted)
    code, _ = run_main(tmp_path, "check", *args)
    assert code == 0
    assert len(calls) == 1


def test_kms_translates_through_cached_maps(tmp_path, monkeypatch):
    # one product per word of the deeper partition on every translate
    # made 176,322 multiply calls; each (g^-1, depth) map is built once
    calls = _count_calls(monkeypatch, groups.GroupPresentation, "multiply")
    code, _ = run_main(tmp_path, "check", "--suite", "kms", "--group",
                       "free:2", "--seed", "3", "--depth", "4")
    assert code == 0
    assert len(calls) <= 30_000


def test_boundary_suite_acts_once_per_argument(tmp_path, monkeypatch):
    # 14,272 act calls when the action law re-evaluated each action, and
    # 4,933 when it evaluated each distinct one once; the law scan and the
    # conformal identity now read every action from array windows
    calls = _count_calls(monkeypatch, boundary, "act")
    code, _ = run_main(tmp_path, "check", "--suite", "boundary", "--group",
                       "free:2")
    assert code == 0
    assert calls == []


def test_norm_table_reads_one_distance_row(tmp_path, monkeypatch):
    # d(g, .) for a g outside the band's ball is one product-length row
    # for the whole p grid (one call per p before)
    calls = []
    lengths = cocycles.bulk_product_lengths
    monkeypatch.setattr(cocycles, "bulk_product_lengths",
                        lambda *args: calls.append(args) or lengths(*args))
    code, _ = run_main(tmp_path, "check", "--suite", "cocycle", "--group",
                       "free:2", "--g", "abababa")
    # the radius-4 band truncates the norm of a 7-letter g, 8 of 14, and
    # the tail bound covers the rest
    assert code == 0
    assert len(calls) == 1


def test_green_norm_bound_is_a_float(tmp_path):
    # (K-2C)^p * n is exact only on exact metrics; on Green bands the csv
    # prints it as a float, as properness certificates report it (it was
    # a Fraction of 30 to 100 digits)
    code, payload = run_main(tmp_path, "check", "--suite", "cocycle",
                             "--group", "free:2", "--metric", "green",
                             "--g", "abab", "--radius", "4",
                             "--K", "1.0986122886681098", "--format", "csv")
    assert code == 0
    lines = payload.decode().splitlines()
    assert lines[0].endswith(",n,lower_bound")
    bounds = [line.split(",")[-1] for line in lines[1:]]
    assert bounds == ["2.19722457332", "2.41389791279", "2.65193790574"]


def test_cocycle_scan_forms_each_product_once(tmp_path, monkeypatch):
    # the identity scan reads each g*h of the outer ball from the row kept
    # when it was first formed (16,048 normalize calls when it formed
    # every product twice)
    calls = _count_calls(monkeypatch, groups.GroupPresentation, "normalize")
    code, _ = run_main(tmp_path, "check", "--suite", "cocycle",
                       "--group", "surface:2", "--radius", "2")
    assert code == 0
    assert len(calls) <= 12_000


def test_properness_counts_every_failure(tmp_path, monkeypatch):
    certify = cocycles.properness_certificates

    def failing(band, gs, p):
        block = certify(band, gs, p)
        return dataclasses.replace(
            block, errors=[f"no certificate for {g.spelled()}" for g in gs])

    monkeypatch.setattr(cocycles, "properness_certificates", failing)
    code, payload = run_main(tmp_path, "check", "--suite", "properness",
                             "--group", "free:2")
    assert code == 1
    check = json.loads(payload)["reports"][0]["checks"][0]
    assert check["details"]["elements"] == 1456
    assert check["details"]["failures"] == 1456
    assert check["witness"] == {"g": "a", "error": "no certificate for a"}


def test_kms_worked_pair_on_the_first_generator(tmp_path):
    # free:27 spells its generators x0, ..., x26; at radius 0 the scan has
    # no beta-dependence, so temperature-sensitivity fails by design
    code, payload = run_main(tmp_path, "check", "--suite", "kms",
                             "--group", "free:27", "--radius", "0",
                             "--depth", "1")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(payload)["reports"][0]["checks"]}
    worked = checks["worked-monomial-pair"]
    assert worked["passed"] is True
    assert worked["details"]["expected"] == "1/151686"
    assert checks["temperature-sensitivity"]["passed"] is False
