import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperlab import cocycles, groups, metrics
from hyperlab.errors import InputError, InvariantViolation, ResourceLimitError
from hyperlab.suites import ScenarioConfig, run_scenario

from oracles import busemann_group, rough_geodesic


def _lp_norm(band, g, p):
    """The norm report of g at one exponent."""
    return cocycles.lp_norms(band, g, [p])[0]


def _certificate(band, g, p):
    """The certificate block of g alone."""
    return cocycles.properness_certificates(band, [g], p)


def _element_pairs(band):
    """The band's pairs (x, y) as ball elements, read from `band.index`."""
    els = band.ball.elements
    return [(els[i], els[j]) for i, j in band.index]


@pytest.fixture(scope="module")
def free2():
    return groups.free_group(2)


@pytest.fixture(scope="module")
def word2(free2):
    return metrics.word_metric(free2)


@pytest.fixture(scope="module")
def band6(word2):
    return cocycles.build_pair_band(word2, 1, 6, C=0)


def test_band_pair_count(word2):
    band = cocycles.build_pair_band(word2, 1, 2, C=0)
    assert len(band) == 32
    assert not band.empty


def test_band_membership(band6, free2):
    a, ab = band6.ball.walk([0], [free2.element(t).word
                                  for t in ("a", "ab")])[0]
    assert band6.holds(a, 0)
    assert not band6.holds(ab, 0)


@pytest.mark.parametrize("K,C,radius", [
    (1, 0, 3), (Fraction(5, 2), Fraction(1, 2), 3), (Fraction(7, 3), 0, 3),
    (3, 1, 2),
], ids=["integral", "two-ends", "empty-window", "wide"])
def test_band_membership_is_one_rule(word2, K, C, radius):
    # `index` lists exactly the positions whose pair `holds`, and `holds`
    # is the rule K - C <= d(x, y) <= K + C, x != y, of the metric
    band = cocycles.build_pair_band(word2, K, radius, C=C)
    n = len(band.ball)
    i, j = np.indices((n, n))
    holds = band.holds(i, j)
    assert np.array_equal(np.argwhere(holds), band.index)
    els = band.ball.elements
    for x in range(0, n, 5):
        for y in range(0, n, 3):
            d = word2.distance(els[x], els[y])
            assert holds[x, y] == (x != y and K - C <= d <= K + C)


def test_green_band_membership_is_one_rule(green_band):
    n = len(green_band.ball)
    i, j = np.indices((n, n))
    assert np.array_equal(np.argwhere(green_band.holds(i, j)),
                          green_band.index)


def test_a_band_keeps_no_square_mask(band6, word2):
    # the 1457 x 1457 int8 distances are built; the band compares them
    # with its upper end once (d <= 1), a 2.02 MiB bool whose entries it
    # narrows to the pairs that hold, and keeps only the index
    d = band6.distances
    tracemalloc.start()
    try:
        band = cocycles.PairBand(word2, 1, 0, band6.ball, d)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(band.index, band6.index)
    assert band.window == (1, 1)
    assert peak <= 2.2 * 2 ** 20
    assert held <= 0.1 * 2 ** 20
    squares = [name for name, value in vars(band).items()
               if isinstance(value, np.ndarray) and value.size >= d.size]
    assert squares == ["distances"]


def test_band_requires_k_above_2c(word2):
    with pytest.raises(InputError):
        cocycles.build_pair_band(word2, 1, 3, C=0.5)


def test_band_refuses_a_negative_c(word2):
    # [K-C, K+C] would be turned inside out
    with pytest.raises(InputError, match="C must be nonnegative, got C=-1"):
        cocycles.build_pair_band(word2, 1, 3, C=-1)


def test_band_can_be_empty_without_error(word2):
    band = cocycles.build_pair_band(word2, 5, 2, C=0)
    assert band.empty
    assert len(band) == 0


def test_haagerup_values_on_edges(word2, free2):
    a = free2.element("a")
    e = free2.identity
    assert cocycles.haagerup_value(word2, a, a, e) == 1
    assert cocycles.haagerup_value(word2, a, e, a) == -1
    assert cocycles.haagerup_value(word2, a, free2.element("b"),
                                   free2.element("ba")) == 0


def test_haagerup_antisymmetry(word2, free2):
    ball = groups.enumerate_ball(free2, 2).elements
    rng = random.Random(1)
    for _ in range(30):
        g, x, y = (rng.choice(ball) for _ in range(3))
        v = cocycles.haagerup_value(word2, g, x, y)
        assert cocycles.haagerup_value(word2, g, y, x) == -v


def test_cocycle_identity_pointwise(word2, free2):
    # c(gh) = c(g) + translate-by-g of c(h), checked value by value
    ball = groups.enumerate_ball(free2, 2).elements
    rng = random.Random(2)
    for _ in range(40):
        g, h, x, y = (rng.choice(ball) for _ in range(4))
        lhs = cocycles.haagerup_value(word2, g * h, x, y)
        rhs = cocycles.haagerup_value(word2, g, x, y) + \
            cocycles.haagerup_value(word2, h, g.inverse() * x,
                                    g.inverse() * y)
        assert lhs == rhs


def test_busemann_group_matches_haagerup_at_identity(word2, free2):
    # b(g)(x) = |x| - |g^-1 x| = 2 (g|x) - |g|
    ball = groups.enumerate_ball(free2, 2).elements
    for g in ball:
        for x in ball[::3]:
            twice_product = 2 * cocycles.haagerup_value(word2, g, x,
                                                        free2.identity)
            assert busemann_group(g, x) == \
                twice_product - g.length()


def test_identity_scan_free(word2):
    band = cocycles.build_pair_band(word2, 2, 6, C=0)
    scan = cocycles.cocycle_identity_scan(band, 2)
    assert scan.mismatches == 0
    assert scan.product_pairs == 17 ** 2
    assert scan.pair_count == 5820
    assert scan.max_sample_defect == 0


def test_identity_scan_surface():
    s = groups.surface_group(2)
    band = cocycles.build_pair_band(metrics.word_metric(s), 3, 2)
    scan = cocycles.cocycle_identity_scan(band, 1)
    assert scan.mismatches == 0
    assert scan.max_sample_defect == 0


@pytest.mark.parametrize("spec,K,radius,outer", [
    ("free:2", 2, 3, 2),
    ("surface:2", 3, 2, 1),
])
def test_identity_scan_sees_a_broken_edge(monkeypatch, spec, K, radius,
                                          outer):
    # gh and g^-1 x are read off the ball's edges: swapping two of them
    # must show as mismatches
    pres = groups.preset(spec)
    band = cocycles.build_pair_band(metrics.word_metric(pres), K, radius)
    enumerate_ball = groups.enumerate_ball

    def broken(pres, radius):
        ball = enumerate_ball(pres, radius)
        edges = ball.edges
        edges[0, 1], edges[0, 2] = edges[0, 2], edges[0, 1]
        return ball

    monkeypatch.setattr(cocycles, "enumerate_ball", broken)
    assert cocycles.cocycle_identity_scan(band, outer).mismatches > 0


@pytest.mark.parametrize("spec,radius,outer,cap", [
    # B(max(2o, o+r)): 485 elements on free:2, 65 on surface:2
    ("free:2", 3, 2, 400),
    ("surface:2", 1, 1, 50),
])
def test_identity_scan_ball_is_capped(monkeypatch, spec, radius, outer, cap):
    pres = groups.preset(spec)
    band = cocycles.build_pair_band(metrics.word_metric(pres), 1, radius)
    monkeypatch.setattr(groups, "ELEMENT_CAP", cap)
    products = []
    monkeypatch.setattr(groups.GroupElement, "__mul__",
                        lambda self, other: products.append(other))
    with pytest.raises(ResourceLimitError):
        cocycles.cocycle_identity_scan(band, outer)
    assert products == []


def _two_block_counts(band, outer):
    # the identity scan's (length_checks, mismatches) with both length
    # blocks computed by bulk_product_lengths
    ball = groups.enumerate_ball(band.metric.pres,
                                 max(2 * outer, outer + band.ball.radius))
    ends = np.cumsum(ball.sphere_sizes()).tolist()
    gs = ball.elements[: ends[outer]]
    pair_rows = ball.walk(range(len(gs)), [h.word for h in gs])
    moved = ball.walk((pair_rows == 0).argmax(axis=1),
                      [x.word for x in band.ball.elements])
    prod = groups.bulk_product_lengths(
        band.metric.pres, ball.elements[: ends[2 * outer]],
        band.ball.elements)
    trans = groups.bulk_product_lengths(
        band.metric.pres, gs, ball.elements[: ends[outer + band.ball.radius]])
    checks = mismatches = 0
    for i in range(len(gs)):
        checks += trans[:, moved[i]].size
        mismatches += int((trans[:, moved[i]] != prod[pair_rows[i]]).sum())
    return checks, mismatches


@pytest.mark.parametrize("spec,K,radius,outer,calls", [
    # outer = radius: both blocks are B(2o) x B(o), one call
    ("surface:2", 3, 2, 2, 1),
    ("free:2", 2, 1, 1, 1),
    ("free:2", 2, 4, 2, 2),
])
def test_identity_scan_shares_one_length_block(monkeypatch, spec, K, radius,
                                               outer, calls):
    band = cocycles.build_pair_band(metrics.word_metric(groups.preset(spec)),
                                    K, radius)
    made = []
    bulk = cocycles.bulk_product_lengths

    def counted(pres, lefts, rights):
        made.append((len(lefts), len(rights)))
        return bulk(pres, lefts, rights)

    monkeypatch.setattr(cocycles, "bulk_product_lengths", counted)
    scan = cocycles.cocycle_identity_scan(band, outer)
    assert len(made) == calls
    assert (scan.length_checks, scan.mismatches) == _two_block_counts(
        band, outer)


def test_identity_scan_normalizes_no_products(monkeypatch):
    # only the ball's enumeration and the 200-triple sample normalize:
    # 3,728 and 3,164 calls
    calls = []
    normalize = groups.GroupPresentation.normalize

    def counted(self, word):
        calls.append(word)
        return normalize(self, word)

    monkeypatch.setattr(groups.GroupPresentation, "normalize", counted)
    run_scenario(ScenarioConfig(suite="cocycle", group="surface:2",
                                radius=2))
    assert len(calls) <= 7500


def test_edge_norm_law(band6, free2):
    # every positive-length jump on a length-1 band contributes value 1,
    # and there are exactly 2|g| of them, at any exponent
    for text in ("a", "ab", "ab'a", "abab"):
        g = free2.element(text)
        for p in (1, 2, 3, Fraction(3, 2)):
            rep = _lp_norm(band6, g, p)
            assert rep.norm_p == 2 * g.length()
            assert rep.tail_bound == 0.0
        assert [cocycles.free_norm_count(free2, g.length(), p, (1, 1))
                for p in (1, 2, 3)] == [2 * g.length()] * 3


def test_lp_norm_matches_literal_sum(word2, free2):
    # g = ab' reads its row off the band's distance matrix; ababab lies
    # outside the radius-2 ball and goes through bulk_product_lengths
    band = cocycles.build_pair_band(word2, 2, 2, C=0)
    for text in ("ab'", "ababab"):
        g = free2.element(text)
        for p in (1, 2, 3):
            literal = sum(abs(cocycles.haagerup_value(word2, g, x, y)) ** p
                          for x, y in _element_pairs(band))
            assert _lp_norm(band, g, p).norm_p == literal


def _gromov_sums(band, gs, ps):
    """Sum of |c_g(x, y)|^p over the band for each g in gs and p in ps, on
    an exact metric, with c_g(x, y) = (g|x) - (g|y) as haagerup_value
    forms it from the metric's scalar Gromov products, each evaluated
    once per g and x; only the sum over the pairs is numpy's."""
    metric = band.metric
    xi, yi = band.index[:, 0], band.index[:, 1]
    sums = {p: [] for p in ps}
    for g in gs:
        doubled = np.array([int(2 * metric.gromov_product(g, x))
                            for x in band.ball.elements])
        mags = np.abs(doubled[xi] - doubled[yi])
        for p in ps:
            sums[p].append(Fraction(int((mags ** p).sum()), 2 ** p))
    return sums


def _one_dimensional_norm(band, i, p):
    """|c_g|_p^p for g the ball's i-th element from its own band vector."""
    b = band.distances[0] - band.distances[i]
    mags = np.abs(b[band.index[:, 0]] - b[band.index[:, 1]])
    if band.metric.exact and p == int(p):
        return Fraction(int((mags.astype(np.int64) ** p).sum()), 2 ** p)
    return float(((mags * 0.5) ** float(p)).sum())


@pytest.mark.parametrize("spec,radius,K,C,literal", [
    # literal sums on B(3) and 60 seeded elements: all 1,457 take ~10 s
    ("free:2", 6, 1, 0, 60),
    ("free:2", 5, Fraction(5, 2), Fraction(1, 2), None),
    ("modular", 6, 1, 0, None),
    ("surface:2", 2, 1, 0, None),
])
def test_block_norms_equal_the_literal_sums(spec, radius, K, C, literal):
    pres = groups.preset(spec)
    band = cocycles.build_pair_band(metrics.word_metric(pres), K, radius,
                                    C=C)
    els = band.ball.elements
    norms = {p: cocycles.cocycle_norms(band, els, p) for p in (1, 2, 3)}
    for p in (1, 2, 3):
        assert norms[p] == [_one_dimensional_norm(band, i, p)
                            for i in range(len(els))]
    picked = range(len(els))
    if literal is not None:
        inner = sum(band.ball.sphere_sizes()[:4])
        picked = list(range(inner)) + random.Random(8).sample(
            range(inner, len(els)), literal)
    sums = _gromov_sums(band, [els[i] for i in picked], (1, 2, 3))
    for p in (1, 2, 3):
        assert [norms[p][i] for i in picked] == sums[p]


def test_float_block_norms_are_the_one_dimensional_sums(green_band, band6):
    # bit for bit: each element's values reduce as one contiguous row
    for band, ps in ((green_band, (1, 2, 2.5, 3)), (band6, (1.5, 2.5))):
        els = band.ball.elements
        for p in ps:
            assert cocycles.cocycle_norms(band, els, p) == [
                _one_dimensional_norm(band, i, p) for i in range(len(els))]


def test_exact_band_keeps_the_ball_matrix(band6):
    assert band6.distances is band6.ball.distances
    surface = groups.surface_group(2)
    band = cocycles.build_pair_band(metrics.word_metric(surface), 3, 2)
    assert band.distances is band.ball.distances


@pytest.fixture(scope="module")
def green_band(free2):
    # Green distances on free:2 are multiples of log 3: the band around
    # K = log 3 holds the Cayley edges; radius hint 8 makes distances up
    # to 16 usable, so elements of length 12 outside the radius-3 ball
    # have their rows too
    metric = metrics.green_metric(free2, radius_hint=8)
    band = cocycles.build_pair_band(metric, Fraction(math.log(3)), 3)
    assert len(band) == 104
    return band


def test_green_band_keeps_the_metric_matrix(green_band):
    expected = metrics.metric_distance_matrix(green_band.metric,
                                              green_band.ball)
    assert np.array_equal(green_band.distances, expected)


@pytest.mark.parametrize("text,n", [("a", 0), ("ab'", 0), ("ababa", 3),
                                    # word units would give n = 9
                                    ("ab" * 6, 10)])
def test_green_lp_norm_matches_the_scalar_route(green_band, free2, text, n):
    metric = green_band.metric
    g = free2.element(text)
    for p in (1, 2, 3):
        literal = sum(abs(cocycles.haagerup_value(metric, g, x, y)) ** p
                      for x, y in _element_pairs(green_band))
        rep = _lp_norm(green_band, g, p)
        assert rep.norm_p == pytest.approx(literal, rel=1e-12)
        # n = floor((d(e, g) - K - C) / K) with d(e, g) = |g| log 3
        assert rep.n == n


def test_green_cocycle_vector_matches_the_scalar_route(green_band, free2):
    metric = green_band.metric
    g = free2.element("ab'")
    # 2 c_g(x, y) = b(x) - b(y) with b = d(e, .) - d(g, .)
    b = (green_band.distances[0]
         - cocycles._distance_rows(green_band, [g])[0])
    xi, yi = green_band.index.T
    values = (0.5 * (b[xi] - b[yi])).tolist()
    for (x, y), v in zip(_element_pairs(green_band), values):
        value = cocycles.haagerup_value(metric, g, x, y)
        assert v == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_green_exponent_scan_weighs_green_products(green_band):
    metric = green_band.metric
    grid = (1.0, 2.0)
    rows = cocycles.critical_exponent_scan(green_band, grid)
    for p, row in zip(grid, rows):
        by_shell = {}
        for x, y in _element_pairs(green_band):
            shell = max(x.length(), y.length())
            weight = math.exp(-p * metric.gromov_product(x, y))
            by_shell[shell] = by_shell.get(shell, 0.0) + weight
        assert row.shells == sorted(by_shell)
        assert row.increments == pytest.approx(
            [by_shell[s] for s in row.shells], rel=1e-12)


def test_lp_norm_sum_stays_exact_at_large_p(band6, free2):
    # |2 c_ab| is 2 on four band pairs and 0 elsewhere: at p = 61 each
    # term 2^61 fits in int64, but their sum 2^63 does not
    g = free2.element("ab")
    for p in (60, 61, 62):
        assert _lp_norm(band6, g, p).norm_p == 4


def test_tail_bound_too_large_for_a_float_is_infinite(word2, free2):
    band = cocycles.build_pair_band(word2, 1, 4, C=0)
    rep = _lp_norm(band, free2.element("abababab"), 1000)
    assert rep.tail_bound == math.inf


def test_norm_report_fields(band6, free2):
    rep = _lp_norm(band6, free2.element("ab"), 2)
    assert (rep.p, rep.K, rep.C, rep.radius) == (2, 1, 0, 6)
    assert rep.norm_p == Fraction(4)
    assert rep.n == 1
    assert rep.lower_bound == Fraction(1)


def test_properness_certificate_examples(band6, free2, word2):
    block = _certificate(band6, free2.element("ababab"), 1)
    assert (int(block.n[0]), block.lower[0], block.actual[0]) == (6, 6, 12)
    assert block.errors == [None]

    band2 = cocycles.build_pair_band(word2, 2, 6, C=0)
    block2 = _certificate(band2, free2.element("abab"), 2)
    assert (int(block2.n[0]), block2.lower[0], block2.actual[0]) == (2, 8, 60)


def test_properness_partition_points_line_up(band6, free2):
    n, points, values, _ = _block_row(
        band6, _certificate(band6, free2.element("ababab"), 1), 0)
    assert len(points) == n + 1
    assert points[0] == 0
    assert points[-1] == n * band6.K
    assert len(values) == n
    for value in values:
        assert value >= band6.K - 2 * band6.C


def test_properness_whole_ball(band6, free2):
    gs = groups.enumerate_ball(free2, 4).elements[1:]
    block = cocycles.properness_certificates(band6, gs, 1)
    assert block.errors == [None] * len(gs)
    for g, n, lower, actual in zip(gs, block.n.tolist(), block.lower,
                                   block.actual):
        assert n >= g.length() - 1
        assert actual >= lower


def test_properness_needs_room(word2, free2):
    small = cocycles.build_pair_band(word2, 1, 2, C=0)
    # "aba" is outside the radius-2 ball, so no pair holds it
    message = ("partition pair (aba, ab) left the coarse edge set; the rough "
               "constant C=0 is too small or the band radius is too small")
    assert _certificate(small, free2.element("ababab"), 1).errors == [message]
    # a single-element report raises the block's message
    with pytest.raises(InvariantViolation) as caught:
        run_scenario(ScenarioConfig(suite="properness", radius=2,
                                    g="ababab"))
    assert str(caught.value) == message


def test_a_short_segment_names_its_value(word2, free2):
    # with d(a, ab) read as 2, the segment (e, a) of ab rises by 1/2
    band = cocycles.build_pair_band(word2, 1, 2, C=0)
    i, j = band.ball.walk([0], [free2.element(t).word for t in ("a", "ab")])[0]
    d = band.distances.copy()
    d[i, j] = d[j, i] = 2
    bent = cocycles.PairBand(word2, 1, 0, band.ball, d)
    message = "segment value 1/2 below K-2C=1 at t=0"
    assert _certificate(bent, free2.element("ab"), 1).errors == [message]
    block = cocycles.properness_certificates(bent, band.ball.elements[1:], 1)
    assert block.errors[j - 1] == message


def test_a_norm_below_its_bound_fails_last(band6, free2, monkeypatch):
    monkeypatch.setattr(cocycles, "_cocycle_norm",
                        lambda band, rows, p: [Fraction(0)] * len(rows))
    assert _certificate(band6, free2.element("abab"), 1).errors == [
        "truncated norm 0 below certificate bound 4"]


def test_certificate_pass_stays_under_two_megabytes(band6):
    # the band's 1457 x 1457 int8 distances are built; the pass over its
    # 1456 elements gathers 128 band pairs of them at a time
    gs = band6.ball.elements[1:]
    tracemalloc.start()
    try:
        block = cocycles.properness_certificates(band6, gs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.errors == [None] * len(gs)
    assert peak <= 2_000_000


def _scalar_certificate(band, g, n):
    """Partition points and segment values by the scalar route: the
    rough geodesic's points and one Gromov product per point."""
    metric = band.metric
    path = rough_geodesic(metric, metric.pres.identity, g)
    chosen = _literal_nearest(path, [i * band.K for i in range(n + 1)])
    values = [metric.gromov_product(g, x1) - metric.gromov_product(g, x0)
              for (_, x0), (_, x1) in zip(chosen, chosen[1:])]
    return [t for t, _ in chosen], values


def _block_row(band, block, k):
    """Row k of a certificate block as a certificate's fields."""
    n = int(block.n[k])
    rises = block.rises[k, :n].tolist()
    if band.metric.exact:
        rises = [Fraction(v, 2) for v in rises]
    return n, block.points[k, :n + 1].tolist(), rises, block.actual[k]


@pytest.mark.parametrize("spec,radius,K,C", [
    ("free:2", 6, 1, 0),
    ("free:2", 5, Fraction(5, 2), Fraction(1, 2)),
    # scaled by u = 10^20, parameters pass int64: Python integers
    ("free:2", 4, 2 + Fraction(1, 10 ** 20), Fraction(2, 10 ** 20)),
    ("free:3", 4, 2, 0),
    ("modular", 6, 1, 0),
    ("surface:2", 2, 1, 0),
])
def test_properness_matches_the_scalar_route(spec, radius, K, C):
    # the block of the whole ball, row by row, and the block of one
    pres = groups.preset(spec)
    band = cocycles.build_pair_band(metrics.word_metric(pres), K, radius,
                                    C=C)
    gs = band.ball.elements[1:]
    block = cocycles.properness_certificates(band, gs, 1)
    assert block.errors == [None] * len(gs)
    for k, g in enumerate(gs):
        n, points, values, actual = _block_row(band, _certificate(band, g, 1),
                                               0)
        assert (points, values) == _scalar_certificate(band, g, n)
        assert all(type(t) is int for t in points)
        assert all(type(v) is Fraction for v in values)
        assert _block_row(band, block, k) == (n, points, values, actual)


def test_green_properness_matches_the_scalar_route(green_band):
    gs = green_band.ball.elements[1:]
    block = cocycles.properness_certificates(green_band, gs, 1)
    assert block.errors == [None] * len(gs)
    for k, g in enumerate(gs):
        row = _block_row(green_band, _certificate(green_band, g, 1), 0)
        points, values = _scalar_certificate(green_band, g, row[0])
        assert row[1] == pytest.approx(points, rel=1e-12)
        assert row[2] == pytest.approx(values, rel=1e-12)
        assert _block_row(green_band, block, k) == row


def test_one_rule_for_the_certificate_bound(band6, green_band, free2):
    # (K-2C)^p * n: exact on exact metrics at integral p, else a float,
    # for lp norms and properness certificates alike
    g = free2.element("aba")
    for band, exact in ((band6, True), (green_band, False)):
        gap = Fraction(band.K) - 2 * Fraction(band.C)
        for p in (1, 2, 2.5):
            rep = _lp_norm(band, g, p)
            block = _certificate(band, g, p)
            for lower, n in ((rep.lower_bound, rep.n),
                             (block.lower[0], int(block.n[0]))):
                if exact and p == int(p):
                    assert lower == gap ** p * n
                    assert type(lower) is Fraction
                else:
                    assert lower == float(gap) ** p * n
                    assert type(lower) is float


def test_exponent_scan_ratios_and_verdicts(band6):
    rows = cocycles.critical_exponent_scan(band6, (1.0, 1.2, 2.0, 40.0))
    for row in rows:
        assert row.ratios[-1] == pytest.approx(3 * math.exp(-row.p),
                                               rel=1e-12)
    verdicts = {row.p: row.verdict for row in rows}
    assert verdicts[1.0] == "diverges"
    assert verdicts[1.2] == "converges"
    assert verdicts[2.0] == "converges"
    assert verdicts[40.0] == "converges"


def test_exponent_scan_large_p_limit(band6):
    # at huge p only the eight single-letter jumps survive
    row = cocycles.critical_exponent_scan(band6, (40.0,))[0]
    assert row.partial_sums[-1] == 8.0


def test_exponent_scan_rejects_p_below_one(band6):
    with pytest.raises(InputError):
        cocycles.critical_exponent_scan(band6, (0.5,))


def test_pointwise_bound(word2, free2):
    # on the K=1 band the cocycle takes values in {-1, 0, 1}
    band = cocycles.build_pair_band(word2, 1, 3, C=0)
    ball = groups.enumerate_ball(free2, 2).elements
    for g in ball:
        for x, y in _element_pairs(band)[::5]:
            assert abs(cocycles.haagerup_value(word2, g, x, y)) <= 1


@pytest.mark.parametrize("spec,radius", [("free:2", 3), ("free:3", 2),
                                         ("modular", 3)])
def test_busemann_group_equals_the_product_route(spec, radius):
    pres = groups.preset(spec)
    els = groups.enumerate_ball(pres, radius).elements
    for g in els:
        for x in els:
            assert (busemann_group(g, x)
                    == x.length() - len(pres.normalize(g.inverse().word
                                                       + x.word)))


def _literal_nearest(path, targets):
    return [min(path, key=lambda pt: (abs(pt[0] - target), pt[0]))
            for target in targets]


def _chosen_points(path, targets):
    # one row; Fractions make object arrays, whose arithmetic is Python's
    picks = cocycles._min_rule(np.array([[t for t, _ in path]]),
                               np.array(targets))
    return [path[i] for i in picks[0]]


@pytest.mark.parametrize("times,targets", [
    # exact ties: K = 5/2 on an integer path, ties go to the smaller t
    ([Fraction(t) for t in range(8)], [i * Fraction(5, 2) for i in range(4)]),
    # the same path and targets in units of 1/2, as properness compares them
    ([2 * t for t in range(8)], [5 * i for i in range(4)]),
    # repeated parameters: the earlier point wins
    ([0, 1, 1, 2, 2, 2, 3, 3], [Fraction(i, 2) for i in range(8)]),
    # floats, not monotone, with repeats and targets past both ends
    ([0.0, 0.7, 0.3, 1.1, 0.7, 0.9, 2.0, 1.6, 0.3],
     [-1.0, 0.0, 0.5, 0.8, 1.0, 1.35, 1.8, 2.5]),
    # rounding ties: every distance below the target rounds to 1e16
    ([0.2, 0.1, 0.3, 2e16], [1e16]),
    ([0.2, 0.1, 0.3], [1e16]),
])
def test_partition_points_follow_the_min_rule(times, targets):
    path = [(t, k) for k, t in enumerate(times)]
    assert (_chosen_points(path, targets)
            == _literal_nearest(path, targets))


def test_partition_points_follow_the_min_rule_on_random_paths():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 12)
        kind = rng.random()
        if kind < 0.25:
            times = [Fraction(rng.randint(0, 8), 2) for _ in range(n)]
            targets = [Fraction(rng.randint(-2, 20), 4) for _ in range(5)]
        elif kind < 0.5:
            # integer-scaled K = 5/2 in units of 1/2: targets 5i fall
            # halfway between the even parameters 2t
            times = [2 * rng.randint(0, 8) for _ in range(n)]
            targets = [5 * i for i in range(5)]
        else:
            times = [rng.choice((0.1, 0.2, 0.3)) * rng.randint(0, 9)
                     for _ in range(n)]
            targets = [rng.uniform(-0.5, 3.0) for _ in range(5)]
        path = [(t, k) for k, t in enumerate(times)]
        assert (_chosen_points(path, targets)
                == _literal_nearest(path, targets))


@pytest.mark.parametrize("spec, left, right, radius", [
    ("free:2", 6, 6, 6),
    ("modular", 12, 12, 8),
    ("surface:2", 4, 3, 3),
])
def test_narrow_distances_read_as_int64(spec, left, right, radius):
    # product lengths are stored in the narrowest dtype holding twice
    # max |l| + max |r|; every consumer reads the integers an int64
    # matrix holds, and cubes of doubled cocycle values past int8 stay
    # exact on a band with K the ball's radius
    pres = groups.preset(spec)
    lefts = groups.enumerate_ball(pres, left).elements
    rights = groups.enumerate_ball(pres, right).elements
    bulk = groups.bulk_product_lengths(pres, lefts, rights)
    assert bulk.dtype == groups.distance_dtype(left + right) == np.int8
    rows = random.Random(5).sample(range(len(lefts)), 120)
    ref = np.array([[len(pres.left_quotient(lefts[i].word, r.word))
                     for r in rights] for i in rows], dtype=np.int64)
    assert np.array_equal(bulk[rows], ref)

    metric = metrics.word_metric(pres)
    band = cocycles.build_pair_band(metric, Fraction(radius), radius)
    wide = cocycles.PairBand(metric, band.K, band.C, band.ball,
                             band.distances.astype(np.int64))
    assert band.distances.dtype == np.int8 and len(band)
    outer = band.ball.spheres[-1]
    gs = random.Random(6).sample(outer, 10) + [lefts[-1]]
    for p in (1, 2, 3):
        assert (cocycles.cocycle_norms(band, gs, p)
                == cocycles.cocycle_norms(wide, gs, p))
    grid = [1.0, 1.5, 2.0]
    assert (cocycles.critical_exponent_scan(band, grid)
            == cocycles.critical_exponent_scan(wide, grid))
