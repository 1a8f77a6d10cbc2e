"""Acceptance suite: one test and one printed verdict line per criterion."""
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hyperlab import boundary, cocycles, crossed, groups, metrics


def _verdict(number, ok, label):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number}: {label}"


@pytest.fixture(scope="module")
def free2():
    return groups.free_group(2)


@pytest.fixture(scope="module")
def word2(free2):
    return metrics.word_metric(free2)


@pytest.fixture(scope="module")
def ball4(free2):
    return groups.enumerate_ball(free2, 4)


def test_criterion_01_four_point_exhaustive(free2, word2, ball4):
    started = time.perf_counter()
    rep = metrics.check_strong_hyperbolicity(word2, ball4)
    elapsed = time.perf_counter() - started
    ok = (rep.mode == "exhaustive"
          and rep.quadruples == len(ball4.elements) ** 4
          and rep.defect == 0.0
          and elapsed < 30.0)
    _verdict(1, ok, f"defect {rep.defect} over {rep.quadruples} quadruples "
                    f"in {elapsed:.2f}s")


def test_criterion_02_green_closed_form(free2, ball4):
    data = metrics.solve_green(free2, radius_hint=4)
    green = metrics.green_metric(free2, radius_hint=4)
    tree = metrics.tree_metric(free2)
    worst = 0.0
    for x in ball4.elements:
        for y in ball4.elements[::7]:
            dev = abs(green.distance(x, y)
                      - math.log(3) * tree.distance(x, y))
            worst = max(worst, dev)
    passage_err = abs(data.passage(free2.element("a").word) - Fraction(1, 3))
    ok = (data.truncation >= 12 and worst <= 1e-6 and passage_err <= 1e-9)
    _verdict(2, ok, f"max deviation {worst:.3e}, first-passage error "
                    f"{passage_err:.3e}, truncation {data.truncation}")


def test_criterion_03_norm_law(free2, word2, ball4):
    band = cocycles.build_pair_band(word2, 1, 4, C=0)
    wide = cocycles.build_pair_band(word2, 1, 6, C=0)
    bad = 0
    for g in ball4.elements:
        for p in (1, 2, 3):
            rep = cocycles.lp_norm(band, g, p)
            if rep.norm_p != 2 * g.length():
                bad += 1
    # widening the window does not change any norm: the truncated sums
    # above already carry the full support
    stable = all(
        cocycles.lp_norm(wide, g, 2).norm_p ==
        cocycles.lp_norm(band, g, 2).norm_p
        for g in ball4.elements[::9])
    _verdict(3, bad == 0 and stable,
             f"norm law checked for {len(ball4.elements)} elements at "
             f"p in (1, 2, 3); {bad} mismatches; window-stable: {stable}")


def test_criterion_04_cocycle_identity(free2, word2):
    band = cocycles.build_pair_band(word2, 1, 3, C=0)
    scan = cocycles.cocycle_identity_scan(band, 2)
    surface = groups.surface_group(2)
    sband = cocycles.build_pair_band(metrics.word_metric(surface), 3, 3)
    sscan = cocycles.cocycle_identity_scan(sband, 2)
    ok = (scan.mismatches == 0 and scan.max_sample_defect == 0
          and sscan.mismatches == 0 and sscan.max_sample_defect == 0)
    _verdict(4, ok, f"free {scan.length_checks} checks, "
                    f"{scan.mismatches} mismatches; surface "
                    f"{sscan.length_checks} checks, {sscan.mismatches}")


def test_criterion_05_properness(free2, word2):
    band = cocycles.build_pair_band(word2, 1, 6, C=0)
    ball = groups.enumerate_ball(free2, 6)
    failures = 0
    weak = 0
    for g in ball.elements:
        try:
            cert = cocycles.properness_check(band, g, 1)
        except Exception:
            failures += 1
            continue
        if not g.is_identity() and cert.n < g.length() - 1:
            weak += 1
    ok = failures == 0 and weak == 0
    _verdict(5, ok, f"{len(ball.elements)} certificates, "
                    f"{failures} failures, {weak} weak partitions")


def test_criterion_06_summability_threshold(free2, word2):
    band = cocycles.build_pair_band(word2, 1, 6, C=0)
    grid = (1.0, 1.05, 1.1, 2.0, 3.0, 40.0)
    rows = cocycles.critical_exponent_scan(band, grid)
    ratio_ok = all(
        abs(row.ratios[-1] - 3 * math.exp(-row.p)) <= 1e-9 for row in rows)
    verdict_ok = all(
        (row.verdict == "converges") == (row.p > math.log(3))
        for row in rows)
    diverge_ok = all(row.verdict == "diverges"
                     for row in rows if row.p <= 1.0)
    ok = ratio_ok and verdict_ok and diverge_ok
    _verdict(6, ok, "tail ratio 3 e^-p and threshold at log 3 on grid "
                    f"{grid}")


def test_criterion_07_conformality(free2):
    ball = groups.enumerate_ball(free2, 3)
    started = time.perf_counter()
    cylinders = 0
    failures = 0
    for g in ball.elements:
        if g.is_identity():
            continue
        rep = boundary.conformality_check(g, g.length() + 1)
        cylinders += len(rep.records)
        failures += len(rep.failures())
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    _verdict(7, ok, f"{cylinders} cylinder ratios, {failures} failures, "
                    f"{elapsed:.2f}s")


def test_criterion_08_conformal_metric_identity(free2):
    family = boundary.seeded_family(free2, count=30, seed=8)
    ball = groups.enumerate_ball(free2, 2)
    els = [g for g in ball.elements if not g.is_identity()]
    triples = 0
    bad = 0
    i = 0
    while triples < 200:
        xi = family[i % len(family)]
        eta = family[(i * 7 + 3) % len(family)]
        g = els[i % len(els)]
        i += 1
        if xi == eta:
            continue
        triples += 1
        if not boundary.conformal_identity_check(g, xi, eta).ok:
            bad += 1
    _verdict(8, bad == 0, f"{triples} seeded triples, {bad} failures")


def test_criterion_09_kms_at_dimension(free2):
    D = math.log(3)
    a = free2.element("a")
    A = crossed.CrossedElement.monomial(free2, "a", a)
    B = crossed.CrossedElement.monomial(free2, "aa", a.inverse())
    worked = crossed.kms_check(A, B, D)
    worked_ok = (worked.lhs == worked.rhs == Fraction(1, 36))

    scan = crossed.kms_monomial_scan(free2, 2, 3, D)
    hot = crossed.kms_monomial_scan(free2, 2, 3, D + math.log(3))
    ok = worked_ok and scan.equal and not hot.equal
    _verdict(9, ok, f"worked pair {worked.lhs} = {worked.rhs}; "
                    f"{scan.pairs} pairs equal at dimension; "
                    f"{len(hot.failures)} unequal witnesses at higher beta")


def test_criterion_10_nonvanishing(free2):
    ball = groups.enumerate_ball(free2, 3)
    bad = 0
    for g in ball.elements:
        if g.is_identity():
            continue
        plus, minus, ell = boundary.fixed_points(g)
        if not (boundary.busemann_boundary(g, plus) == ell > 0
                and boundary.busemann_boundary(g, minus) == -ell):
            bad += 1
    cert = crossed.nonvanishing_certificate(ball)
    ok = bad == 0 and cert.all_ok
    _verdict(10, ok, f"{len(ball.elements) - 1} elements, {bad} failures; "
                     f"independent growth oracle agrees: {cert.all_ok}")


def test_criterion_11_affine_action(free2, word2):
    band = cocycles.build_pair_band(word2, 1, 5, C=0)
    ball = groups.enumerate_ball(free2, 2)
    rep = cocycles.affine_action_check(band, ball.elements, 2)
    ok = rep.identity_exact and rep.isometry_exact \
        and rep.pairs_checked == len(ball.elements) ** 2
    _verdict(11, ok, f"{rep.pairs_checked} composition pairs, "
                     f"identity exact {rep.identity_exact}, isometry exact "
                     f"{rep.isometry_exact}")


def test_criterion_12_determinism(tmp_path):
    argv = [sys.executable, "-m", "hyperlab.cli", "check", "--suite", "all",
            "--group", "free:2", "--seed", "7"]
    one = subprocess.run(argv, capture_output=True, check=True)
    two = subprocess.run(argv, capture_output=True, check=True)
    ok = one.stdout == two.stdout and len(one.stdout) > 0
    _verdict(12, ok, f"two runs, {len(one.stdout)} bytes each, "
                     f"identical: {one.stdout == two.stdout}")
