import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperlab import cocycles, groups, kernels, metrics
from hyperlab.errors import InputError, ResourceLimitError
from hyperlab.suites import ScenarioConfig, run_scenario

from oracles import (all_basepoint_four_point, all_basepoint_min_rule_margin,
                     rough_geodesic)


def test_word_metric_is_exact_and_equivariant():
    f2 = groups.free_group(2)
    wm = metrics.word_metric(f2)
    a, b, g = f2.element("ab'a"), f2.element("ba"), f2.element("ba'")
    assert wm.exact
    assert wm.distance(a, b) == 5
    assert wm.distance(g * a, g * b) == wm.distance(a, b)
    assert wm.distance(a, a) == 0


def test_gromov_product_tree_dual_route():
    # distance formula vs longest-common-prefix count
    f2 = groups.free_group(2)
    wm = metrics.word_metric(f2)
    ball = groups.enumerate_ball(f2, 3)
    for x in ball.elements:
        for y in ball.elements[::7]:
            lcp = 0
            for s, t in zip(x.word, y.word):
                if s != t:
                    break
                lcp += 1
            assert wm.gromov_product(x, y) == lcp


def test_four_point_exact_zero_free_tree():
    f2 = groups.free_group(2)
    ball = groups.enumerate_ball(f2, 3)
    rep = metrics.check_strong_hyperbolicity(metrics.word_metric(f2), ball)
    assert rep.quadruples == 53 ** 3
    assert rep.defect == 0.0


def test_word_distance_matrix_is_kept_on_the_ball():
    f2 = groups.free_group(2)
    ball = groups.enumerate_ball(f2, 2)
    dist = metrics.word_distance_matrix(ball)
    assert ball.distances is dist
    assert metrics.word_distance_matrix(ball) is dist
    assert groups.enumerate_ball(f2, 2).distances is None


def test_four_point_min_rule_oracle():
    # exact integer route: 2(x|y) >= 2 min((x|z),(z|y)) on the tree
    f2 = groups.free_group(2)
    ball = groups.enumerate_ball(f2, 3)
    assert metrics.four_point_min_rule_margin(ball) >= 0


def _cube_margin(g):
    # the whole (x, y, z) cube of min(g[x,z], g[z,y]) at once, in int64
    g = g.astype(np.int64)
    cube = np.minimum(g[:, None, :], g.T[None, :, :])
    return int((g - cube.max(axis=2)).min())


def _cube_oracle(ball):
    # the cube at the identity, and every row at every basepoint
    dist = metrics.word_distance_matrix(ball)
    return (_cube_margin(dist[0][:, None] + dist[0][None, :] - dist),
            all_basepoint_min_rule_margin(dist, range(len(ball))))


@pytest.mark.parametrize("make,radius,margin", [
    (lambda: groups.free_group(2), 3, 0),
    (lambda: groups.free_group(2), 4, 0),
    (groups.modular_group, 6, 0),
    (lambda: groups.surface_group(2), 2, 0),
    (lambda: groups.cyclic_free_product([3, 4]), 3, -2),
    (lambda: groups.cyclic_free_product([3, 4]), 4, -2),
    (lambda: groups.cyclic_free_product([4, 4]), 3, -2),
])
def test_min_rule_margin_matches_the_cube_oracle(make, radius, margin):
    ball = groups.enumerate_ball(make(), radius)
    assert metrics.four_point_min_rule_margin(ball) == margin
    assert _cube_oracle(ball) == (margin, margin)


def test_min_rule_margin_past_int8():
    rng = np.random.default_rng(7)
    g = rng.integers(0, 9, size=(23, 23))
    for dtype in (np.int8, np.int16, np.int64):
        assert metrics._min_rule_margin(g.astype(dtype)) == _cube_margin(g)
    # distances scaled by 100 give doubled products up to 1600, past
    # int8, and a margin scaled by 100
    for pres, margin in [(groups.free_group(2), 0),
                         (groups.cyclic_free_product([3, 4]), -2)]:
        ball = groups.enumerate_ball(pres, 4)
        ball.distances = 100 * metrics.word_distance_matrix(ball).astype(
            np.int64)
        assert metrics.four_point_min_rule_margin(ball) == 100 * margin


def test_min_rule_margin_works_in_a_few_n_squared_bytes():
    ball = groups.enumerate_ball(groups.free_group(2), 4)
    n = len(ball)
    metrics.word_distance_matrix(ball)
    # the first np.unique call imports numpy.ma, about 0.5 MB traced
    import numpy.ma  # noqa: F401
    tracemalloc.start()
    try:
        assert metrics.four_point_min_rule_margin(ball) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n^3 int32 cube would be 16.7 MB
    assert peak < 6 * n * n


def test_min_rule_scan_past_its_cap_is_refused(monkeypatch):
    # free:2 radius 5 scans 6 rows x 485^2 entries; the rows are known
    # once the distances and their labels are, so the refusal comes
    # before the n x n doubled products are built
    ball = groups.enumerate_ball(groups.free_group(2), 5)
    n = len(ball)
    assert metrics.four_point_min_rule_margin(ball) == 0
    monkeypatch.setattr(metrics, "SCAN_ENTRY_CAP", 6 * n * n - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=r"needs 6 rows x 485\^2 = 1\.41e\+06 "
                                 r"entries"):
            metrics.four_point_min_rule_margin(ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int8 products alone would take n^2 bytes
    assert peak < n * n // 4


def test_min_rule_scan_on_free3_radius5():
    # 4687^3 = 1.0e11 triples, which the n^3 cap refused; the scan
    # computes 6 rows x 4687^2 = 1.3e8 entries
    ball = groups.enumerate_ball(groups.free_group(3), 5)
    assert len(ball) == 4687
    assert metrics.four_point_min_rule_margin(ball) == 0


@pytest.mark.parametrize("spec,radius,kind", [
    ("free:2", 5, "word"),
    ("surface:2", 3, "word"),
    ("free:2", 3, "green"),
    ("modular", 3, "green"),
])
def test_scan_charge_bounds_the_traced_peak(spec, radius, kind):
    # the charge a refusal reads from n alone: int8 distances, products
    # and float64 buffers, on word, radial and table Green metrics
    pres = groups.preset(spec)
    metric = _metric(pres, kind, radius)
    if kind == "green":
        assert metric.green.mode == ("radial" if pres.kind == "free"
                                     else "table")
    ball = groups.enumerate_ball(pres, radius)
    # the first np.unique call imports numpy.ma, about 0.5 MB traced
    import numpy.ma  # noqa: F401
    tracemalloc.start()
    try:
        metrics.check_strong_hyperbolicity(metric, ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= metrics._scan_bytes(len(ball))


@pytest.mark.parametrize("orders,radius,witness", [
    ([3, 4], 3, ("t", "t'", "tt")),
    ([3, 4], 4, ("t", "t'", "tt")),
    ([4, 4], 3, ("s", "s'", "ss")),
])
def test_exhaustive_failing_witness_is_pinned(orders, radius, witness):
    # in an order-4 factor t and t' are 2 apart and both 1 from tt, so at
    # the identity (t|t') = 0 and (t|tt) = (tt|t') = 1: the defect is
    # 1 - 2/e, and the lex-first failing quadruple is pinned bit for bit
    pres = groups.cyclic_free_product(orders)
    ball = groups.enumerate_ball(pres, radius)
    rep = metrics.check_strong_hyperbolicity(metrics.word_metric(pres), ball)
    assert rep.raw == 0.26424111765711533
    assert rep.witness == witness


def test_surface_ball_fails_at_the_identity():
    # 115 rows x 457^2 = 2.4e7 entries at the identity, under the cap
    s = groups.surface_group(2)
    ball = groups.enumerate_ball(s, 3)
    rep = metrics.check_strong_hyperbolicity(metrics.word_metric(s), ball)
    assert rep.quadruples == 457 ** 3
    assert rep.raw == 0.49678527559194496
    assert rep.witness == ("a", "b'cd", "ab'a'")


def test_four_point_green_metric():
    f2 = groups.free_group(2)
    ball = groups.enumerate_ball(f2, 3)
    gm = metrics.green_metric(f2, radius_hint=3)
    rep = metrics.check_strong_hyperbolicity(gm, ball)
    assert rep.defect == 0.0
    assert rep.raw < 0  # strict inequality away from ties


def test_four_point_surface_small_ball():
    s = groups.surface_group(2)
    ball = groups.enumerate_ball(s, 2)
    rep = metrics.check_strong_hyperbolicity(metrics.word_metric(s), ball)
    assert rep.defect == 0.0


ORBIT_CASES = [
    (lambda: groups.free_group(2), 3, "word", False),
    (lambda: groups.free_group(3), 2, "word", False),
    (groups.modular_group, 3, "word", False),
    (groups.modular_group, 5, "word", False),
    (groups.modular_group, 6, "word", False),
    (lambda: groups.cyclic_free_product([3, 3]), 4, "word", False),
    (lambda: groups.cyclic_free_product([2, 3, 3]), 3, "word", False),
    (lambda: groups.cyclic_free_product([4, 4]), 3, "word", True),
    (groups.modular_group, 3, "green", False),
    pytest.param(lambda: groups.free_group(2), 4, "word", False,
                 id="free2-r4-word"),
    pytest.param(lambda: groups.free_group(2), 4, "green", False,
                 id="free2-r4-green"),
    pytest.param(lambda: groups.free_group(3), 3, "word", False,
                 id="free3-r3-word"),
    pytest.param(lambda: groups.surface_group(2), 2, "word", False,
                 id="surface2-r2-word"),
    pytest.param(lambda: groups.surface_group(3), 1, "word", False,
                 id="surface3-r1-word"),
]


def _metric(pres, kind, radius):
    if kind == "word":
        return metrics.word_metric(pres)
    return metrics.green_metric(pres, radius_hint=radius)


@pytest.mark.parametrize("make,radius,kind,fails", ORBIT_CASES)
def test_orbit_reduced_scans_equal_the_full_scan(monkeypatch, make, radius,
                                                 kind, fails):
    pres = make()
    ball = groups.enumerate_ball(pres, radius)
    metric = _metric(pres, kind, radius)
    reduced = (metrics.check_strong_hyperbolicity(metric, ball),
               metrics.four_point_min_rule_margin(ball))
    # with no symmetries every row at the identity is scanned; a new ball
    # keeps no labels from the reduced scans
    monkeypatch.setattr(groups.Ball, "symmetries", lambda self: iter(()))
    ball = groups.enumerate_ball(pres, radius)
    assert np.array_equal(metrics._orbit_labels(ball, None),
                          np.arange(len(ball)))
    full = (metrics.check_strong_hyperbolicity(metric, ball),
            metrics.four_point_min_rule_margin(ball))
    assert reduced == full
    assert (reduced[0].witness is not None) == fails


@pytest.mark.parametrize("make,radius", [
    (lambda: groups.free_group(2), 2),
    (groups.modular_group, 4),
    (lambda: groups.cyclic_free_product([3, 4]), 2),
    (lambda: groups.surface_group(2), 1),
])
def test_identity_scans_nest_the_all_basepoint_scan(make, radius):
    # S_e(R) <= S(R) <= S_e(2R): a quadruple of B(R) at basepoint w has
    # the value of its translate by w^-1, which lies in B(2R), at e; the
    # min-rule margins nest the other way
    pres = make()
    metric = metrics.word_metric(pres)
    small, large = (groups.enumerate_ball(pres, r)
                    for r in (radius, 2 * radius))
    d = metrics.word_distance_matrix(small)
    every = range(len(small))
    at_e, at_e2 = (metrics.check_strong_hyperbolicity(metric, b).raw
                   for b in (small, large))
    assert at_e <= all_basepoint_four_point(d, every)[0] <= at_e2
    assert (metrics.four_point_min_rule_margin(small)
            >= all_basepoint_min_rule_margin(d, every)
            >= metrics.four_point_min_rule_margin(large))


@pytest.mark.parametrize("make,radius,kind,count", [
    (lambda: groups.free_group(2), 4, "word", 5),
    (lambda: groups.surface_group(2), 2, "word", 17),
    # the table Green metric is not bitwise symmetric under t <-> t'
    (groups.modular_group, 3, "green", 14),
])
def test_basepoint_representatives(make, radius, kind, count):
    # every kept symmetry fixes the identity, so the rows scanned there
    # are also one basepoint per orbit of the ball's symmetries
    pres = make()
    ball = groups.enumerate_ball(pres, radius)
    d = metrics.metric_distance_matrix(_metric(pres, kind, radius), ball)
    labels = metrics._orbit_labels(ball, d)
    assert labels.dtype == np.min_scalar_type(len(ball))
    assert len(metrics._least_points(labels)) == count


def test_strong_hyp_seeks_the_orbits_once(monkeypatch):
    # the float scan and the min-rule oracle read one orbit search
    searches = []
    symmetries = groups.Ball.symmetries

    def recorded(ball):
        searches.append(len(ball))
        return symmetries(ball)

    monkeypatch.setattr(groups.Ball, "symmetries", recorded)
    reports = run_scenario(ScenarioConfig(suite="strong-hyp", group="free:2",
                                          radius=4))
    assert [c.passed for r in reports for c in r.checks] == [True, True]
    assert searches == [161]


@pytest.mark.parametrize("make,radius", [
    (lambda: groups.free_group(2), 3),
    (lambda: groups.free_group(3), 2),
    (groups.modular_group, 5),
    (lambda: groups.cyclic_free_product([3, 3]), 4),
    (lambda: groups.cyclic_free_product([2, 3, 3]), 3),
    (lambda: groups.cyclic_free_product([4, 4]), 3),
    (lambda: groups.surface_group(2), 2),
    (lambda: groups.surface_group(3), 1),
])
def test_ball_symmetries_are_isometries(make, radius):
    ball = groups.enumerate_ball(make(), radius)
    d = metrics.word_distance_matrix(ball)
    count = 0
    for img in ball.symmetries():
        assert sorted(img) == list(range(len(ball)))
        assert np.array_equal(ball.lengths[img], ball.lengths)
        assert np.array_equal(d[img][:, img], d)
        count += 1
    assert count > 0


@pytest.mark.parametrize("rank,radius", [
    (2, r) for r in range(1, 6)] + [(3, r) for r in range(1, 4)])
def test_free_representatives_are_the_first_of_each_sphere(rank, radius):
    # branch swaps make each free sphere one orbit
    ball = groups.enumerate_ball(groups.free_group(rank), radius)
    labels = metrics._orbit_labels(ball, metrics.word_distance_matrix(ball))
    rows = metrics._least_points(labels).tolist()
    assert rows == np.cumsum([0] + ball.sphere_sizes()[:-1]).tolist()
    assert [ball.elements[i].word for i in rows] == [
        (0,) * k for k in range(radius + 1)]


@pytest.mark.parametrize("make,radius", [
    (lambda: groups.free_group(2), 4),
    (groups.modular_group, 6),
    (lambda: groups.cyclic_free_product([4, 4]), 3),
    (lambda: groups.surface_group(2), 2),
])
def test_row_labels_are_closed_under_the_stabilizer(make, radius):
    # every kept symmetry, and every product of two, fixes the identity
    # and maps x to a point with x's label; a label is a point in x's
    # orbit, so it has x's length
    ball = groups.enumerate_ball(make(), radius)
    d = metrics.word_distance_matrix(ball)
    labels = metrics._orbit_labels(ball, d)
    kept = [np.array(img) for img in ball.symmetries()
            if np.array_equal(d[img][:, img], d)]
    maps = kept + [s[t] for s in kept for t in kept]
    assert np.array_equal(d[0][labels], d[0])
    for img in maps:
        assert img[0] == 0
        assert np.array_equal(labels[img], labels)


def test_strong_hyp_scans_one_row_per_stabilizer_orbit(monkeypatch):
    # free:2 radius 4: 161 rows at the identity in a full scan, and one
    # per sphere up to symmetries
    filled, reduced = [], []
    scan, margin = kernels.fourpoint_scan, metrics._min_rule_margin

    # a call without rows takes every row
    def scan_rows(e, *rows):
        filled.append(len(rows[0] if rows else e))
        return scan(e, *rows)

    def margin_rows(g, *rows):
        reduced.append(len(rows[0] if rows else g))
        return margin(g, *rows)

    monkeypatch.setattr(kernels, "fourpoint_scan", scan_rows)
    monkeypatch.setattr(metrics, "_min_rule_margin", margin_rows)
    reports = run_scenario(ScenarioConfig(suite="strong-hyp", group="free:2",
                                          radius=4))
    assert [c.passed for r in reports for c in r.checks] == [True, True]
    assert filled == [5] and reduced == [5]
    assert reports[0].checks[0].details["quadruples"] == 161 ** 3


def test_green_passage_closed_form():
    # radial birth-death solve vs u(d) = (q^-d - q^-(T+1)) / (1 - q^-(T+1))
    f2 = groups.free_group(2)
    gd = metrics.solve_green(f2, radius_hint=4)
    assert gd.mode == "radial"
    q = 3.0
    T = gd.truncation
    for d in range(1, 6):
        u = (q ** -d - q ** -(T + 1)) / (1 - q ** -(T + 1))
        assert gd.passage((0,) * d) == pytest.approx(u, abs=1e-12)


def test_green_first_passage_value():
    for rank in (2, 3):
        pres = groups.free_group(rank)
        gd = metrics.solve_green(pres, radius_hint=4)
        F = gd.passage(pres.element("a").word)
        assert abs(F - 1 / (2 * rank - 1)) <= 1e-9


def test_green_matches_scaled_tree():
    f2 = groups.free_group(2)
    gm = metrics.green_metric(f2, radius_hint=4)
    wm = metrics.word_metric(f2)
    ball = groups.enumerate_ball(f2, 4)
    worst = 0.0
    for x in ball.elements[::5]:
        for y in ball.elements[::13]:
            dev = abs(gm.distance(x, y) - math.log(3) * wm.distance(x, y))
            worst = max(worst, dev)
    assert worst <= 1e-6


def test_green_table_solve_never_normalizes_on_a_free_product(monkeypatch):
    # neighbours in the table come from the ball's edges and multiply,
    # which on a free product only cancels and merges letters
    m = groups.modular_group()
    calls = []
    normalize = groups.GroupPresentation.normalize

    def counting(self, word):
        calls.append(word)
        return normalize(self, word)

    monkeypatch.setattr(groups.GroupPresentation, "normalize", counting)
    metrics.solve_green(m, radius_hint=2)
    assert calls == []


@pytest.mark.parametrize("make,truncation", [
    (groups.modular_group, 12),
    (lambda: groups.surface_group(2), 2),
], ids=["modular-t12", "surface2-t2"])
def test_green_table_multiplies_only_on_the_outer_sphere(monkeypatch, make,
                                                         truncation):
    # inside the outer sphere the neighbour rows are the ball's edges
    pres = make()
    ball = groups.enumerate_ball(pres, truncation)
    monkeypatch.setattr(metrics, "enumerate_ball", lambda p, r: ball)
    calls = []
    multiply = groups.GroupPresentation.multiply

    def counting(self, u, v):
        calls.append(v)
        return multiply(self, u, v)

    monkeypatch.setattr(groups.GroupPresentation, "multiply", counting)
    metrics._table_passage(pres, truncation)
    assert len(calls) == len(pres.alphabet.symbols) * len(ball.spheres[-1])


def _modular_simple():
    return metrics.solve_green(groups.modular_group(), radius_hint=4)


def _z3_z4_simple():
    return metrics.solve_green(groups.cyclic_free_product([3, 4]),
                               truncation=5)


# Green tables bit for bit: the table iteration must add the same
# products in the same order whatever layout it keeps them in.
@pytest.mark.parametrize("solve,digest,gap", [
    pytest.param(
        _modular_simple,
        "a1f66aebcb32eada72b4a182667e23abd87fdc21e4bea628c39e0e59971da622",
        "1.3629015705088694", id="modular-r4"),
    pytest.param(
        _z3_z4_simple,
        "811b1a6c2894686a8ccd22a11d7cc3301ad2c929c0fc52a6ebed552bf63ab89a",
        "0.7286923333344557", id="z3-z4-t5"),
])
def test_green_tables_are_pinned(monkeypatch, solve, digest, gap):
    solved = _record_table_solves(monkeypatch)
    data = solve()
    assert data.mode == "table"
    assert hashlib.sha256(data._u.tobytes()).hexdigest() == digest
    t = data.truncation
    assert solved == [t]
    # the doubling gap is solved on first read, once
    assert repr(data.gap) == gap
    assert repr(data.gap) == gap
    assert solved == [t, 2 * t]


def _record_table_solves(monkeypatch):
    solved = []
    passage = metrics._table_passage

    def recording(pres, truncation):
        solved.append(truncation)
        return passage(pres, truncation)

    monkeypatch.setattr(metrics, "_table_passage", recording)
    return solved


@pytest.mark.parametrize("config,truncation", [
    ({"suite": "green", "group": "modular"}, 12),
    ({"suite": "strong-hyp", "group": "modular", "metric": "green"}, 10),
], ids=["green-modular", "strong-hyp-modular-green"])
def test_unread_green_gap_is_not_solved(monkeypatch, config, truncation):
    solved = _record_table_solves(monkeypatch)
    run_scenario(ScenarioConfig(**config).validated())
    assert solved == [truncation]


def test_refused_gap_ball_is_an_error_where_the_gap_is_read(monkeypatch):
    monkeypatch.setattr(groups, "ELEMENT_CAP", 5000)
    # the radius-12 ball holds 442 elements, the radius-24 ball 28,666
    metric = metrics.green_metric(groups.modular_group(), radius_hint=4)
    with pytest.raises(ResourceLimitError, match=r"cap of 5000.*--C"):
        cocycles.build_pair_band(metric, 1.0, 2)
    solved = _record_table_solves(monkeypatch)
    band = cocycles.build_pair_band(metric, 1.0, 2, C=0.25)
    assert band.C == 0.25
    assert solved == []


def test_green_default_truncation_floor():
    gd = metrics.solve_green(groups.free_group(2), radius_hint=4)
    assert gd.truncation >= 12
    assert gd.usable >= 8
    assert gd.gap <= 1e-9


def test_low_truncation_degrades_honestly():
    # absorbing boundary too close: deviation from log3 x tree grows to
    # about q^(d-T-1), far beyond the acceptance tolerance
    f2 = groups.free_group(2)
    wm = metrics.word_metric(f2)
    gm = metrics.green_metric(f2, radius_hint=4, truncation=12)
    ball = groups.enumerate_ball(f2, 3)
    dev = max(abs(gm.distance(x, f2.identity)
                  - math.log(3) * wm.distance(x, f2.identity))
              for x in ball.elements)
    assert dev > 1e-6
    assert dev < 1e-4


def test_green_usable_range_guard():
    f2 = groups.free_group(2)
    gm = metrics.green_metric(f2, radius_hint=4, truncation=5)
    with pytest.raises(InputError):
        gm.distance(f2.element("aaa"), f2.element("b'b'b'"))


def test_rough_geodesic_endpoints_and_steps():
    f2 = groups.free_group(2)
    wm = metrics.word_metric(f2)
    x, y = f2.element("ab'a"), f2.element("ba")
    path = rough_geodesic(wm, x, y)
    assert path[0] == (0, x)
    assert path[-1][1] == y
    assert path[-1][0] == wm.distance(x, y)
    times = [t for t, _ in path]
    assert times == sorted(times)
    for (t0, g0), (t1, g1) in zip(path, path[1:]):
        assert wm.distance(g0, g1) == t1 - t0


def test_metric_rejects_foreign_elements():
    f2 = groups.free_group(2)
    f3 = groups.free_group(3)
    wm = metrics.word_metric(f2)
    with pytest.raises(InputError):
        wm.distance(f2.element("a"), f3.element("a"))


def _product_distance(metric, x, y):
    # the route distance took before the common prefix: renormalize x^-1 y
    w = metric.pres.normalize(x.inverse().word + y.word)
    if metric.exact:
        return len(w)
    return metric.green.value(w)


def _product_gromov(metric, x, y, o):
    dx = _product_distance(metric, o, x)
    dy = _product_distance(metric, o, y)
    dxy = _product_distance(metric, x, y)
    if metric.exact:
        return Fraction(dx + dy - dxy, 2)
    return 0.5 * (dx + dy - dxy)


_QUOTIENT_CASES = [
    pytest.param("free:2", 3, "word", id="free2-r3-word"),
    pytest.param("free:2", 3, "green", id="free2-r3-green"),
    pytest.param("free:3", 2, "word", id="free3-r2-word"),
    pytest.param("free:3", 2, "green", id="free3-r2-green"),
    pytest.param("modular", 3, "word", id="modular-r3-word"),
]


def _quotient_case(spec, radius, kind):
    pres = groups.preset(spec)
    if kind == "word":
        metric = metrics.word_metric(pres)
    else:
        metric = metrics.green_metric(pres, radius_hint=radius)
        assert metric.green.mode == "radial"
    return metric, groups.enumerate_ball(pres, radius).elements


@pytest.mark.parametrize("spec,radius,kind", _QUOTIENT_CASES)
def test_distances_equal_the_product_route(spec, radius, kind):
    metric, els = _quotient_case(spec, radius, kind)
    pres = metric.pres
    for x in els:
        for y in els:
            assert pres.left_quotient(x.word, y.word) == pres.normalize(
                x.inverse().word + y.word)
            d = metric.distance(x, y)
            assert d == _product_distance(metric, x, y)
            assert type(d) is type(_product_distance(metric, x, y))
            g = metric.gromov_product(x, y)
            assert g == _product_gromov(metric, x, y, pres.identity)
            assert type(g) is type(_product_gromov(metric, x, y,
                                                   pres.identity))


@pytest.mark.parametrize("spec,radius,kind", _QUOTIENT_CASES)
def test_rough_geodesic_equals_the_product_route(spec, radius, kind):
    metric, els = _quotient_case(spec, radius, kind)
    pres = metric.pres
    for x in els:
        for y in els[::2]:
            letters = pres.normalize(x.inverse().word + y.word)
            expected = []
            for k in range(len(letters) + 1):
                g = x * groups.GroupElement(pres, letters[:k])
                expected.append((_product_distance(metric, x, g), g))
            assert rough_geodesic(metric, x, y) == expected
