import math
from fractions import Fraction

import pytest

from hyperlab import boundary, groups
from hyperlab.errors import InputError, UnsupportedElementError


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
    assert p.starts_with(free2.element("bab").word)
    assert not p.starts_with(free2.element("bb").word)


def test_point_validation(free2):
    with pytest.raises(InputError):
        boundary.boundary_point(free2, "", "")       # no period
    with pytest.raises(InputError):
        boundary.boundary_point(free2, "", "aa'")    # not reduced
    with pytest.raises(InputError):
        boundary.boundary_point(free2, "", "ab'a'")  # not cyclically reduced


def test_parse_spelled_round_trip(free2):
    for u, c in (("", "ab"), ("b", "a"), ("a'a'", "ba")):
        p = boundary.boundary_point(free2, u, c)
        assert boundary.parse_boundary_point(free2, p.spelled()) == p
    with pytest.raises(InputError):
        boundary.parse_boundary_point(free2, "ab")
    with pytest.raises(InputError):
        boundary.parse_boundary_point(free2, "a|b|c")


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
    assert boundary.boundary_gromov(free2.element("abb"), xi) == 2
    assert boundary.boundary_gromov(free2.element("aba"), xi) == 3
    eta = boundary.boundary_point(free2, "", "ab'")
    assert boundary.boundary_gromov(xi, eta) == 1
    assert boundary.boundary_gromov(xi, xi) == boundary.INFINITE_PRODUCT
    same = boundary.boundary_point(free2, "ab", "ab")
    assert boundary.boundary_gromov(xi, same) == math.inf


def test_visual_distance(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    eta = boundary.boundary_point(free2, "", "ab'")
    assert boundary.visual_distance(xi, eta) == math.exp(-1)
    assert boundary.visual_distance(xi, xi) == 0.0


def test_visual_four_point(free2):
    # ultrametric-style bound survives on sampled triples
    family = boundary.seeded_family(free2, count=20, seed=4)
    for x in family:
        for y in family[::3]:
            for z in family[::5]:
                dxy = boundary.visual_distance(x, y)
                assert dxy <= boundary.visual_distance(x, z) + \
                    boundary.visual_distance(z, y) + 1e-12


def test_busemann_boundary_values(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    assert boundary.busemann_boundary(free2.element("a"), xi) == 1
    assert boundary.busemann_boundary(free2.element("a'"), xi) == -1
    assert boundary.busemann_boundary(free2.element("b"), xi) == -1


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
        words = boundary.reduced_words(free2, n + 1) + [
            w for m in range(n) for w in boundary.reduced_words(free2, m)
            if g.word[:m] != w]
        for w in words:
            for xi in _rays_through(free2, w):
                assert boundary.busemann_on_word(g, w) == \
                    boundary.busemann_boundary(g, xi)


def test_busemann_cocycle_identity(free2):
    # b(gh)(xi) = b(g)(xi) + b(h)(g^-1 xi)
    ball = groups.enumerate_ball(free2, 2).elements
    family = boundary.seeded_family(free2, count=6, seed=2)
    for xi in family:
        for g in ball[1::2]:
            for h in ball[1::3]:
                lhs = boundary.busemann_boundary(g * h, xi)
                rhs = boundary.busemann_boundary(g, xi) + \
                    boundary.busemann_boundary(
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
        assert boundary.busemann_boundary(g, plus) == ell
        assert boundary.busemann_boundary(g, minus) == -ell


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


def test_conformality_single_cylinders(free2):
    a = free2.element("a")
    rec = boundary.conformality_ratio(a, boundary.cylinder(free2, "aa"))
    assert rec.ratio == 3
    assert rec.busemann == 1
    assert rec.ok

    rec = boundary.conformality_ratio(a, boundary.cylinder(free2, "ba"))
    assert rec.ratio == Fraction(1, 3)
    assert rec.busemann == -1
    assert rec.ok


def test_conformality_on_own_cylinder():
    # pulling C_g back by g covers everything except one letter's worth:
    # mass (2k-1)/(2k) against the 1/(2k(2k-1)^(|g|-1)) of C_g
    for k, spelled in ((2, "a"), (3, "ab'c")):
        pres = groups.free_group(k)
        g = pres.element(spelled)
        rec = boundary.conformality_ratio(g, boundary.cylinder(pres, spelled))
        n = g.length()
        own_mass = Fraction(1, 2 * k * (2 * k - 1) ** (n - 1))
        assert rec.ratio == Fraction(2 * k - 1, 2 * k) / own_mass
        assert rec.busemann == n
        assert rec.ok


def test_conformality_needs_constant_busemann(free2):
    g = free2.element("ab")
    with pytest.raises(InputError):
        boundary.conformality_ratio(g, boundary.cylinder(free2, "a"))
    with pytest.raises(InputError):
        boundary.conformality_check(g, 2)


def test_conformality_full_scan(free2):
    # acceptance shape at radius 3 lives in the acceptance suite
    for text in ("a", "b'", "ab", "ba'"):
        g = free2.element(text)
        rep = boundary.conformality_check(g, g.length() + 1)
        assert rep.all_equal
        assert rep.failures() == []
        assert len(rep.records) == len(
            boundary.reduced_words(free2, g.length() + 1))


def test_conformal_identity_example(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    eta = boundary.boundary_point(free2, "", "b'a")
    rep = boundary.conformal_identity_check(free2.element("ab"), xi, eta)
    assert rep.lhs == rep.rhs == 2
    assert rep.ok


def test_conformal_identity_seeded_triples(free2):
    family = boundary.seeded_family(free2, count=12, seed=9)
    ball = groups.enumerate_ball(free2, 2).elements
    for i, xi in enumerate(family):
        for eta in family[i + 1:]:
            for g in ball[1::4]:
                assert boundary.conformal_identity_check(g, xi, eta).ok


def test_conformal_identity_rejects_equal_points(free2):
    xi = boundary.boundary_point(free2, "", "ab")
    with pytest.raises(InputError):
        boundary.conformal_identity_check(free2.element("a"), xi, xi)


def test_seeded_family_deterministic(free2):
    one = boundary.seeded_family(free2, count=10, seed=3)
    two = boundary.seeded_family(free2, count=10, seed=3)
    assert [p.spelled() for p in one] == [p.spelled() for p in two]
    assert len({p.spelled() for p in one}) == 10


def test_cylinder_contains(free2):
    cyl = boundary.cylinder(free2, "ab")
    assert cyl.depth() == 2
    assert cyl.contains(boundary.boundary_point(free2, "", "ab"))
    assert not cyl.contains(boundary.boundary_point(free2, "", "ba"))
    with pytest.raises(InputError):
        boundary.cylinder(free2, "1")


def test_reduced_words_counts(free2):
    assert [len(boundary.reduced_words(free2, d)) for d in range(4)] == \
        [1, 4, 12, 36]
