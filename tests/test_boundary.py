import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperlab import boundary, groups, suites
from hyperlab.errors import InputError, UnsupportedElementError
from oracles import (boundary_gromov, busemann_boundary,
                     conformal_identity_sides, conformality_record,
                     first_action_law_failures, first_conformality_failure,
                     reference_act, visual_distance)


@pytest.fixture(scope="module")
def free2():
    return groups.free_group(2)


@pytest.fixture(scope="module")
def measure(free2):
    return boundary.BoundaryMeasure(free2)


def test_canonical_form_absorbs_loop(free2):
    # a followed by (ba)^inf is the same ray as (ab)^inf
    p = boundary.boundary_point(free2, "a", "ba")
    assert p.spelled() == "1|ab"


def test_canonical_form_primitive_root(free2):
    p = boundary.boundary_point(free2, "", "abab")
    assert p.spelled() == "1|ab"
    assert p == boundary.boundary_point(free2, "", "ab")


def test_point_equality_and_hash(free2):
    p = boundary.boundary_point(free2, "a", "ba")
    q = boundary.boundary_point(free2, "", "ab")
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_point_prefix(free2):
    p = boundary.boundary_point(free2, "b", "ab")
    assert p.prefix(4) == free2.element("baba").word
    assert p.prefix(0) == ()
    assert p.prefix(7) == free2.element("bababab").word


def test_point_validation(free2):
    with pytest.raises(InputError):
        boundary.boundary_point(free2, "", "")       # no period
    with pytest.raises(InputError):
        boundary.boundary_point(free2, "", "aa'")    # not reduced
    with pytest.raises(InputError):
        boundary.boundary_point(free2, "", "ab'a'")  # not cyclically reduced


def test_parse_spelled_round_trip(free2):
    # 'u|c', with '1' for an empty u, spells both parts as words
    for u, c in (("", "ab"), ("b", "a"), ("a'a'", "ba")):
        p = boundary.boundary_point(free2, u, c)
        assert boundary.boundary_point(free2, *p.spelled().split("|")) == p


def test_rejects_non_free_presentation():
    s = groups.surface_group(2)
    with pytest.raises(UnsupportedElementError):
        boundary.boundary_point(s, "", "ab")


def test_action_on_rays(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    assert boundary.act(free2.element("a"), xi).spelled() == "a|ab"
    assert boundary.act(free2.element("a'"), xi).spelled() == "1|ba"
    assert boundary.act(free2.element("b'"), xi).spelled() == "b'|ab"


def test_action_is_a_group_action(free2):
    ball = groups.enumerate_ball(free2, 2).elements
    family = boundary.seeded_family(free2, count=8, seed=1)
    for xi in family:
        assert boundary.act(free2.identity, xi) == xi
        for g in ball[1:]:
            for h in ball[1::3]:
                assert boundary.act(g * h, xi) == \
                    boundary.act(g, boundary.act(h, xi))


@pytest.mark.parametrize("rank", [2, 3])
def test_action_matches_the_reduced_prefix(rank):
    # reference: freely reduce g followed by a long prefix of the ray; g
    # cancels at most |g| letters, so the rest spells the start of g.xi
    pres = groups.free_group(rank)
    for xi in boundary.seeded_family(pres, count=30, seed=5):
        for g in groups.enumerate_ball(pres, 3).elements:
            moved = boundary.act(g, xi)
            window = 4 * (g.length() + len(xi.preperiod)
                          + len(xi.period)) + 8
            assert moved.prefix(window) == pres.normalize(
                g.word + xi.prefix(window + g.length()))[:window]
            assert moved.period in {xi.period[i:] + xi.period[:i]
                                    for i in range(len(xi.period))}


def test_gromov_product_values(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    assert boundary_gromov(boundary.boundary_point(free2, "ab", "b"), xi) == 2
    assert boundary_gromov(xi, boundary.boundary_point(free2, "aba",
                                                       "a")) == 3
    eta = boundary.boundary_point(free2, "", "ab'")
    assert boundary_gromov(xi, eta) == 1
    assert boundary_gromov(xi, xi) == math.inf
    same = boundary.boundary_point(free2, "ab", "ab")
    assert boundary_gromov(xi, same) == math.inf


def test_visual_distance(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    eta = boundary.boundary_point(free2, "", "ab'")
    assert visual_distance(xi, eta) == math.exp(-1)
    assert visual_distance(xi, xi) == 0.0
    d = math.exp(-1)
    assert boundary.visual_distances([xi, eta, xi]).tolist() == [
        [0.0, d, 0.0], [d, 0.0, d], [0.0, d, 0.0]]


def _short_points(pres):
    """Every point u c^inf with |u| <= 1 and |c| <= 3: pairs such as
    (ab)^inf and (aba)^inf agree on as many letters as two periods of 2
    and 3 allow (Fine-Wilf)."""
    cover = [w for n in range(4) for w in boundary.reduced_words(pres, n)]
    points = {}
    for u in cover[:1 + len(pres.alphabet)]:
        for c in cover[1:]:
            try:
                x = boundary.BoundaryPoint(pres, u, c)
            except InputError:
                continue
            points.setdefault((x.preperiod, x.period), x)
    return list(points.values())


@pytest.mark.parametrize("rank,seed", [(2, 0), (2, 5), (3, 1), (3, 4),
                                       (2, None)])
def test_visual_distances_match_the_scalar_route_bit_for_bit(rank, seed):
    pres = groups.free_group(rank)
    family = (_short_points(pres) if seed is None
              else boundary.seeded_family(pres, 40, seed))
    # repeated points are equal points: distance 0.0
    points = family + family[:5]
    d = boundary.visual_distances(points)
    assert d.dtype == np.float64
    assert d.tolist() == [[visual_distance(x, y) for y in points]
                          for x in points]
    assert np.diagonal(d[:, len(family):]).tolist() == [0.0] * 5


def test_visual_four_point(free2):
    # ultrametric-style bound survives on sampled triples
    family = boundary.seeded_family(free2, count=20, seed=4)
    d = boundary.visual_distances(family)
    assert (d[:, :, None] <= d[:, None, :] + d.T[None, :, :] + 1e-12).all()


def test_busemann_boundary_values(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    assert busemann_boundary(free2.element("a"), xi) == 1
    assert busemann_boundary(free2.element("a'"), xi) == -1
    assert busemann_boundary(free2.element("b"), xi) == -1


def _rays_through(pres, w):
    """Two eventually periodic rays through the reduced word w that
    differ right after it."""
    inv = pres.alphabet.inverse
    ext = [s for s in range(len(pres.alphabet)) if not w or s != inv[w[-1]]]
    return [boundary.BoundaryPoint(pres, w, (s,)) for s in ext[:2]]


def test_busemann_on_word_matches_rays(free2):
    # every g of the radius-3 ball against every reduced w of length
    # |g| + 1 and every shorter w that is not a prefix of g
    for g in groups.enumerate_ball(free2, 3).elements:
        n = g.length()
        words = list(boundary.reduced_words(free2, n + 1)) + [
            w for m in range(n) for w in boundary.reduced_words(free2, m)
            if g.word[:m] != w]
        for w in words:
            for xi in _rays_through(free2, w):
                assert boundary.busemann_on_word(g, w) == \
                    busemann_boundary(g, xi)


def test_busemann_cocycle_identity(free2):
    # b(gh)(xi) = b(g)(xi) + b(h)(g^-1 xi)
    ball = groups.enumerate_ball(free2, 2).elements
    family = boundary.seeded_family(free2, count=6, seed=2)
    for xi in family:
        for g in ball[1::2]:
            for h in ball[1::3]:
                lhs = busemann_boundary(g * h, xi)
                rhs = busemann_boundary(g, xi) + busemann_boundary(
                    h, boundary.act(g.inverse(), xi))
                assert lhs == rhs


def test_fixed_points_examples(free2):
    plus, minus, ell = boundary.fixed_points(free2.element("ab"))
    assert plus.spelled() == "1|ab"
    assert minus.spelled() == "1|b'a'"
    assert ell == 2

    plus, minus, ell = boundary.fixed_points(free2.element("aba'"))
    assert plus.spelled() == "a|b"
    assert minus.spelled() == "a|b'"
    assert ell == 1

    # the core of abab is the whole word, not its primitive root
    plus, minus, ell = boundary.fixed_points(free2.element("abab"))
    assert plus.spelled() == "1|ab"
    assert ell == 4


def test_fixed_points_are_fixed(free2):
    ball = groups.enumerate_ball(free2, 3).elements
    for g in ball:
        if g.is_identity():
            continue
        plus, minus, ell = boundary.fixed_points(g)
        assert boundary.act(g, plus) == plus
        assert boundary.act(g, minus) == minus
        assert ell > 0


def test_fixed_points_translation_vs_busemann(free2):
    # acceptance shape: b(g)(g+) = translation length, b(g)(g-) = -length
    ball = groups.enumerate_ball(free2, 2).elements
    for g in ball:
        if g.is_identity():
            continue
        plus, minus, ell = boundary.fixed_points(g)
        assert busemann_boundary(g, plus) == ell
        assert busemann_boundary(g, minus) == -ell


def test_fixed_points_identity_rejected(free2):
    with pytest.raises(InputError):
        boundary.fixed_points(free2.identity)


def test_measure_masses(free2, measure):
    assert measure.word_mass(free2.element("a").word) == Fraction(1, 4)
    assert measure.word_mass(free2.element("ab").word) == Fraction(1, 12)
    assert measure.word_mass(()) == 1
    total = sum(measure.word_mass((s,)) for s in range(4))
    assert total == 1
    assert measure.base() == 3
    assert measure.dimension == math.log(3)


def test_measure_splits_over_children(free2, measure):
    for depth in (1, 2):
        for word in boundary.reduced_words(free2, depth):
            children = [w for w in boundary.reduced_words(free2, depth + 1)
                        if w[:depth] == word]
            assert len(children) == 3
            assert sum(measure.word_mass(w) for w in children) == \
                measure.word_mass(word)


def test_conformality_single_cylinders(free2, measure):
    ok, record = boundary._conformality_block(measure, [free2.element("a")], 2)
    records = {r.cylinder: r for r in map(
        lambda j: record(0, j), range(ok.shape[1]))}
    rec = records["aa"]
    assert rec.ratio == 3
    assert rec.busemann == 1
    assert rec.ok

    rec = records["ba"]
    assert rec.ratio == Fraction(1, 3)
    assert rec.busemann == -1
    assert rec.ok


def test_conformality_needs_constant_busemann(free2):
    # a requested depth at most |g| is raised to |g| + 1, where the
    # busemann value is constant on every cylinder; a depth below 1 is
    # refused with the rest of the configuration
    g = free2.element("ab")
    assert boundary.conformality_scan(free2, [g], 2) == (
        len(boundary.reduced_words(free2, 3)), None)
    with pytest.raises(InputError, match="at least 1"):
        suites.ScenarioConfig(suite="boundary", depth=0).validated()


def test_conformality_full_scan(free2):
    # acceptance shape at radius 3 lives in the acceptance suite
    gs = [free2.element(text) for text in ("a", "b'", "ab", "ba'")]
    assert boundary.conformality_scan(free2, gs) == (sum(
        len(boundary.reduced_words(free2, g.length() + 1)) for g in gs), None)


@pytest.mark.parametrize("rank,radius", [(2, 3), (3, 2)])
@pytest.mark.parametrize("depth", [None, 5])
def test_conformality_block_matches_the_scalar_route(rank, radius, depth):
    # each block holds the ball's elements of one scan depth, as the suite
    # groups them; its records equal the one-word-at-a-time route's
    pres = groups.free_group(rank)
    measure = boundary.BoundaryMeasure(pres)
    blocks = {}
    for g in groups.enumerate_ball(pres, radius).elements[1:]:
        blocks.setdefault(max(g.length() + 1, depth or 0), []).append(g)
    for d, gs in blocks.items():
        ok, record = boundary._conformality_block(measure, gs, d)
        words = boundary.reduced_words(pres, d)
        assert ok.shape == (len(gs), len(words))
        for i, g in enumerate(gs):
            assert [record(i, j) for j in range(len(words))] == [
                conformality_record(measure, g, w) for w in words]
        # a block of one gives the same records
        ok, record = boundary._conformality_block(measure, gs[:1], d)
        assert [record(0, j) for j in range(len(words))] == [
            conformality_record(measure, gs[0], w) for w in words]


@pytest.mark.parametrize("wrong", [3, 4, 5])
@pytest.mark.parametrize("depth", [None, 5])
def test_conformality_witness_is_the_first_scalar_failure(monkeypatch, wrong,
                                                          depth):
    # one wrong cylinder mass: a wrong |g^-1 w| mass fails some cylinders
    # of a block, a wrong depth mass all of them
    mass = boundary._cylinder_mass
    monkeypatch.setattr(boundary, "_cylinder_mass", lambda rank, n: (
        2 * mass(rank, n) if n == wrong else mass(rank, n)))
    pres = groups.free_group(2)
    ball = groups.enumerate_ball(pres, 3)
    g, rec = first_conformality_failure(pres, ball.elements[1:], depth)
    assert boundary.conformality_scan(pres, ball.elements[1:], depth) == (
        sum(len(boundary.reduced_words(pres, max(h.length() + 1, depth or 0)))
            for h in ball.elements[1:]), (g, rec))
    report = suites.run_scenario(suites.ScenarioConfig(
        suite="boundary", group="free:2", depth=depth))[0]
    check = next(c for c in report.checks if c.name == "measure-conformality")
    assert not check.passed
    assert check.witness == {"g": g.spelled(), "cylinder": rec.cylinder,
                             "ratio": rec.ratio, "busemann": rec.busemann}


@pytest.mark.parametrize("rank", [2, 3])
def test_action_law_scan_matches_the_scalar_loop(monkeypatch, rank):
    pres = groups.free_group(rank)
    ball = groups.enumerate_ball(pres, 2)
    points = boundary.seeded_family(pres, 50, rank)[:12]
    assert boundary.action_law_scan(ball, points) == (None, None)
    assert first_action_law_failures(ball, points) == (None, None)
    # one wrong product: both laws fail, first where the loop fails them
    multiply = groups.GroupPresentation.multiply
    bad = (pres.element("b").word, pres.element("a'").word)
    monkeypatch.setattr(groups.GroupPresentation, "multiply", lambda self, u, w: (
        multiply(self, u, w) + w if (u, w) == bad else multiply(self, u, w)))
    action, cocycle = boundary.action_law_scan(ball, points)
    assert (action, cocycle) == first_action_law_failures(ball, points)
    assert action[:2] == cocycle[:2] == ("b", "a'")


@pytest.mark.parametrize("rank,seed", [(2, 0), (3, 1)])
def test_windows_decide_equality_of_moved_points(rank, seed):
    # g.(u c^inf) is |c|-periodic from |g| + |u|, so two moved points are
    # both lcm(|c|, |c'|)-periodic from P, the larger of the two starts:
    # equal exactly when their first P + lcm letters agree
    pres = groups.free_group(rank)
    pairs = [(g, xi) for g in groups.enumerate_ball(pres, 2).elements
             for xi in boundary.seeded_family(pres, 50, seed)]
    start = np.array([g.length() + len(xi.preperiod) for g, xi in pairs])
    period = np.array([len(xi.period) for _, xi in pairs])
    need = (np.maximum.outer(start, start) + np.lcm.outer(period, period))
    width = int(need.max())
    windows = np.array([pres.normalize(g.word + xi.prefix(width + g.length()))
                        [:width] for g, xi in pairs], dtype=np.int8)
    agree = np.zeros(need.shape, dtype=np.int16)
    alive = np.ones(need.shape, dtype=bool)
    for i in range(width):
        alive &= windows[:, None, i] == windows[None, :, i]
        agree += alive
    moved = [boundary.act(g, xi) for g, xi in pairs]
    ids = {}
    canonical = np.array([ids.setdefault((p.preperiod, p.period), len(ids))
                          for p in moved])
    equal = canonical[:, None] == canonical[None, :]
    assert np.array_equal(agree >= need, equal)
    assert 0 < equal.sum() - len(pairs) and not equal.all()
    # act's windows are those of free reduction
    assert all(p == reference_act(g, xi) for p, (g, xi) in zip(moved, pairs))


def test_conformal_identity_example(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    eta = boundary.boundary_point(free2, "", "b'a")
    g = free2.element("ab")
    assert conformal_identity_sides(g, xi, eta) == (2, 2)
    assert boundary.conformal_identity_scan([(g, xi, eta)]) is None


def test_conformal_identity_seeded_triples(free2):
    family = boundary.seeded_family(free2, count=12, seed=9)
    ball = groups.enumerate_ball(free2, 2).elements
    triples = [(g, xi, eta) for i, xi in enumerate(family)
               for eta in family[i + 1:] for g in ball[1::4]]
    assert boundary.conformal_identity_scan(triples) is None
    for g, xi, eta in triples:
        lhs, rhs = conformal_identity_sides(g, xi, eta)
        assert lhs == rhs


def _seeded_triples(pres, radius, count, seed):
    family = list(dict.fromkeys(boundary.seeded_family(pres, 50, seed)
                                + _short_points(pres)))
    els = groups.enumerate_ball(pres, radius).elements
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        xi, eta = rng.sample(family, 2)
        triples.append((els[rng.randrange(len(els))], xi, eta))
    return triples


@pytest.mark.parametrize("rank,radius,seed", [(2, 4, 0), (2, 3, 2),
                                              (3, 2, 1)])
def test_conformal_identity_scan_matches_the_scalar_route(monkeypatch, rank,
                                                          radius, seed):
    # |g| up to 4 moves each point's periodic part past the window's shift
    pres = groups.free_group(rank)
    triples = _seeded_triples(pres, radius, 300, seed)
    assert max(g.length() for g, _, _ in triples) == radius
    sides = [conformal_identity_sides(*t) for t in triples]
    assert all(lhs == rhs for lhs, rhs in sides)
    assert boundary.conformal_identity_scan(triples) is None
    # one Busemann value b(g^-1)(x) off by one: the scan names the first
    # triple that reads it, with its right side one lower
    k = len(triples) // 2
    g0, x0 = triples[k][0], triples[k][1 + seed % 2]
    g0_inverse = groups._letters(pres, [g0.inverse().word], radius)[0]
    busemann = boundary._busemann

    def shifted(elements, windows):
        out = busemann(elements, windows)
        rows = (elements[0] == g0_inverse[:elements[0].shape[1]]).all(axis=1)
        cols = (windows == groups._letters(
            pres, [x0.prefix(windows.shape[1])], windows.shape[1])).all(axis=1)
        out[np.ix_(rows, cols)] += 1
        return out
    monkeypatch.setattr(boundary, "_busemann", shifted)
    first = next(t for t, (g, xi, eta) in enumerate(triples)
                 if g == g0 and x0 in (xi, eta))
    g, xi, eta = triples[first]
    lhs, rhs = sides[first]
    assert boundary.conformal_identity_scan(triples) == (
        g.spelled(), xi.spelled(), eta.spelled(), lhs, rhs - 1)


def test_empty_inputs_give_empty_results():
    assert boundary.conformal_identity_scan([]) is None
    assert boundary.visual_distances([]).shape == (0, 0)


def test_conformal_identity_rejects_equal_points(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    with pytest.raises(InputError):
        boundary.conformal_identity_scan([(free2.element("a"), xi, xi)])


def test_boundary_suite_builds_few_boundary_points(monkeypatch):
    # the seeded family and the fixed points; no moved point is built
    built = []
    init = boundary.BoundaryPoint.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(boundary.BoundaryPoint, "__init__", counted)
    suites.run_scenario(suites.ScenarioConfig(suite="boundary",
                                              group="free:2"))
    assert len(built) <= 200


def test_seeded_family_deterministic(free2):
    one = boundary.seeded_family(free2, count=10, seed=3)
    two = boundary.seeded_family(free2, count=10, seed=3)
    assert [p.spelled() for p in one] == [p.spelled() for p in two]
    assert len({p.spelled() for p in one}) == 10


def test_reduced_words_counts(free2):
    assert [len(boundary.reduced_words(free2, d)) for d in range(4)] == \
        [1, 4, 12, 36]


@pytest.mark.parametrize("rank", [2, 3])
def test_reduced_words_match_a_brute_force_filter(rank):
    pres = groups.free_group(rank)
    inv = pres.alphabet.inverse
    for depth in range(6):
        expected = tuple(
            w for w in itertools.product(range(2 * rank), repeat=depth)
            if all(b != inv[a] for a, b in zip(w, w[1:])))
        words = boundary.reduced_words(pres, depth)
        assert words == expected
        # one immutable partition per (presentation, depth)
        assert boundary.reduced_words(pres, depth) is words


def test_partition_cache_is_bounded():
    size = boundary.PARTITION_CACHE_SIZE
    for _ in range(size + 1):
        boundary.reduced_words(groups.free_group(2), 1)
    info = boundary.reduced_words.cache_info()
    assert info.maxsize == size
    assert info.currsize == size
