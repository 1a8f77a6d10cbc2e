"""Acceptance suite: one test and one printed verdict line per criterion."""
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hyperlab import boundary, cocycles, crossed, groups, metrics
from oracles import busemann_boundary, conformal_identity_sides


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
    ok = (rep.quadruples == len(ball4.elements) ** 3
          and rep.defect == 0.0
          and elapsed < 30.0)
    _verdict(1, ok, f"defect {rep.defect} over {rep.quadruples} quadruples "
                    f"in {elapsed:.2f}s")


def test_criterion_02_green_closed_form(free2, ball4):
    data = metrics.solve_green(free2, radius_hint=4)
    green = metrics.green_metric(free2, radius_hint=4)
    word = metrics.word_metric(free2)
    worst = 0.0
    for x in ball4.elements:
        for y in ball4.elements[::7]:
            dev = abs(green.distance(x, y)
                      - math.log(3) * word.distance(x, y))
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
        for rep in cocycles.lp_norms(band, g, (1, 2, 3)):
            if rep.norm_p != 2 * g.length():
                bad += 1
    # widening the window does not change any norm: the truncated sums
    # above already carry the full support
    sample = ball4.elements[::9]
    stable = (cocycles.cocycle_norms(wide, sample, 2)
              == cocycles.cocycle_norms(band, sample, 2))
    # wider windows against the count over the whole group: equal while
    # the radius-4 ball holds |g| + hi - 1, strictly below one step past
    cases = 0
    for spec in ("free:2", "free:3"):
        pres = groups.preset(spec)
        for K, C in ((2, 0), (3, 0), (Fraction(5, 2), Fraction(1, 2))):
            wband = cocycles.build_pair_band(metrics.word_metric(pres), K, 4,
                                             C=C)
            hi = wband.window[1]
            for n in (5 - hi, 6 - hi):
                g = pres.element("abab"[:n])
                for p in (1, 2, 3):
                    norm = cocycles.cocycle_norms(wband, [g], p)[0]
                    count = cocycles.free_norm_count(pres, n, p, wband.window)
                    bad += not (norm == count if n + hi - 1 <= 4
                                else norm < count)
                    cases += 1
    _verdict(3, bad == 0 and stable,
             f"norm law checked for {len(ball4.elements)} elements at "
             f"p in (1, 2, 3) and {cases} count cases at K = 2, 3, 5/2; "
             f"{bad} mismatches; window-stable: {stable}")


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
    block = cocycles.properness_certificates(band, ball.elements, 1)
    failures = sum(error is not None for error in block.errors)
    weak = sum(int(n) < g.length() - 1
               for g, n in zip(ball.elements[1:], block.n[1:]))
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
    measure = boundary.BoundaryMeasure(free2)
    cylinders = 0
    failures = 0
    for g in ball.elements[1:]:
        ok, _ = boundary._conformality_block(measure, [g], g.length() + 1)
        cylinders += ok.size
        failures += int((~ok).sum())
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    _verdict(7, ok, f"{cylinders} cylinder ratios, {failures} failures, "
                    f"{elapsed:.2f}s")


def test_criterion_08_conformal_metric_identity(free2):
    family = boundary.seeded_family(free2, count=30, seed=8)
    ball = groups.enumerate_ball(free2, 2)
    els = [g for g in ball.elements if not g.is_identity()]
    triples = []
    i = 0
    while len(triples) < 200:
        xi = family[i % len(family)]
        eta = family[(i * 7 + 3) % len(family)]
        g = els[i % len(els)]
        i += 1
        if xi != eta:
            triples.append((g, xi, eta))
    # the scalar route counts failures; the window scan names the first
    bad = sum(lhs != rhs for lhs, rhs in (conformal_identity_sides(*t)
                                          for t in triples))
    first = boundary.conformal_identity_scan(triples)
    _verdict(8, bad == 0 and first is None,
             f"{len(triples)} seeded triples, {bad} failures")


def test_criterion_09_kms_at_dimension(free2):
    lam = Fraction(1, 3)     # e^(-beta) at beta = log 3, the dimension
    a = free2.element("a")
    A = crossed.CrossedElement.monomial(free2, "a", a)
    B = crossed.CrossedElement.monomial(free2, "aa", a.inverse())
    worked = crossed.kms_check(A, B, lam)
    worked_ok = (worked.lhs == worked.rhs == Fraction(1, 36))

    # one scan solves for lam; every pair that forces it fails at lam^2,
    # as the engine shows on the first
    scan = crossed.kms_monomial_scan(free2, 2, 3)
    *_, hot_lhs, hot_rhs = crossed.monomial_pair_kms(*scan.first_forcing,
                                                     lam ** 2)
    ok = (worked_ok and scan.lam == lam and scan.equal
          and scan.forcing_pairs == 864 and hot_lhs != hot_rhs)
    _verdict(9, ok, f"worked pair {worked.lhs} = {worked.rhs}; "
                    f"{scan.pairs} pairs equal at solved lambda {scan.lam}; "
                    f"{scan.forcing_pairs} forcing pairs, the first unequal "
                    f"at higher beta")


def test_criterion_10_nonvanishing(free2):
    ball = groups.enumerate_ball(free2, 3)
    bad = 0
    for g in ball.elements:
        if g.is_identity():
            continue
        plus, minus, ell = boundary.fixed_points(g)
        if not (busemann_boundary(g, plus) == ell > 0
                and busemann_boundary(g, minus) == -ell):
            bad += 1
    cert = crossed.nonvanishing_certificate(ball)
    ok = bad == 0 and cert.all_ok
    _verdict(10, ok, f"{len(ball.elements) - 1} elements, {bad} failures; "
                     f"independent growth oracle agrees: {cert.all_ok}")


def test_criterion_11_affine_action(free2, word2):
    # A_g(v) = g.v + c_g composes as the group does exactly when
    # c_gh = c_g + g.c_h, and g.v only permutes pairs; its displacements
    # |c_g|_2^2 are the counted norms over the whole group
    band = cocycles.build_pair_band(word2, 1, 5, C=0)
    scan = cocycles.cocycle_identity_scan(band, 2)
    gs = groups.enumerate_ball(free2, 2).elements
    norms = cocycles.cocycle_norms(band, gs, 2)
    counted = norms == [cocycles.free_norm_count(free2, g.length(), 2,
                                                 band.window) for g in gs]
    ok = scan.mismatches == 0 and scan.max_sample_defect == 0 and counted
    _verdict(11, ok, f"{scan.product_pairs} composition pairs, "
                     f"{scan.mismatches} mismatches, sample defect "
                     f"{scan.max_sample_defect}; {len(gs)} displacements "
                     f"equal the count: {counted}")


def test_criterion_12_determinism(tmp_path):
    argv = [sys.executable, "-m", "hyperlab.cli", "check", "--suite", "all",
            "--group", "free:2", "--seed", "7"]
    one = subprocess.run(argv, capture_output=True, check=True)
    two = subprocess.run(argv, capture_output=True, check=True)
    ok = one.stdout == two.stdout and len(one.stdout) > 0
    _verdict(12, ok, f"two runs, {len(one.stdout)} bytes each, "
                     f"identical: {one.stdout == two.stdout}")
