import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperlab import groups
from hyperlab.errors import InputError, ResourceLimitError

letters2 = st.lists(st.sampled_from("abAB"), max_size=12)
letters_surface = st.lists(st.sampled_from("abcdABCD"), max_size=10)


def _spell(chars):
    return "".join(c.lower() + "'" if c.isupper() else c for c in chars)


def test_free_sphere_sizes():
    f2 = groups.free_group(2)
    ball = groups.enumerate_ball(f2, 6)
    assert ball.sphere_sizes() == [1, 4, 12, 36, 108, 324, 972]
    assert len(ball.elements) == 1457


def test_free_sphere_sizes_match_closed_form():
    f3 = groups.free_group(3)
    ball = groups.enumerate_ball(f3, 4)
    expected = [groups.free_sphere_size(3, n) for n in range(5)]
    assert ball.sphere_sizes() == expected


def test_modular_sphere_sizes():
    m = groups.modular_group()
    ball = groups.enumerate_ball(m, 4)
    assert ball.sphere_sizes() == [1, 3, 4, 6, 8]


def test_surface_sphere_sizes():
    s = groups.surface_group(2)
    ball = groups.enumerate_ball(s, 4)
    assert ball.sphere_sizes() == [1, 8, 56, 392, 2736]


def test_pairwise_enumeration_agrees_with_canonical():
    # dual route: is_trivial-based dedup vs canonical normal forms
    for pres in (groups.free_group(2), groups.surface_group(2)):
        radius = 3 if pres.kind == "free" else 2
        raw = groups.enumerate_ball_pairwise(pres, radius)
        ball = groups.enumerate_ball(pres, radius)
        assert [len(layer) for layer in raw] == ball.sphere_sizes()
        for layer, sphere in zip(raw, ball.spheres):
            assert sorted(pres.normalize(w) for w in layer) == \
                sorted(g.word for g in sphere)


def test_parse_word_round_trip():
    f2 = groups.free_group(2)
    for text in ("a", "ab'a", "b'b'b'", "1"):
        g = f2.element(text)
        assert f2.element(g.spelled()) == g
    assert f2.identity.spelled() == "1"
    assert f2.element("").is_identity()
    assert f2.element("aa'").is_identity()


def test_parse_word_rejects_unknown_symbol():
    f2 = groups.free_group(2)
    with pytest.raises(InputError):
        f2.element("axb")


def test_group_axioms_free():
    f2 = groups.free_group(2)
    ball = groups.enumerate_ball(f2, 2)
    els = ball.elements
    for g in els:
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()
        assert g * f2.identity == g
    for g in els[:6]:
        for h in els[:6]:
            for k in els[:6]:
                assert (g * h) * k == g * (h * k)


def test_relator_insertion_is_invisible():
    s = groups.surface_group(2)
    rel = s.element("aba'b'cdc'd'")
    assert rel.is_identity()
    for text in ("ab", "c'd", "abab"):
        w = s.element(text)
        assert w * rel == w
        assert rel * w == w


def test_surface_inverse_and_powers():
    s = groups.surface_group(2)
    g = s.element("abc")
    assert (g * g.inverse()).is_identity()
    assert g ** 3 == g * g * g
    assert g ** 0 == s.identity
    assert g ** -2 == (g.inverse()) ** 2


def test_cyclic_reduction():
    f2 = groups.free_group(2)
    g = f2.element("abab'a'")
    u, c = groups.cyclically_reduce(g)
    assert u.spelled() == "ab"
    assert c.spelled() == "a"
    assert u * c * u.inverse() == g

    u2, c2 = groups.cyclically_reduce(f2.element("abab"))
    assert u2.is_identity()
    assert c2.spelled() == "abab"


def test_small_cancellation_rejects_short_relator():
    with pytest.raises(InputError):
        groups.small_cancellation_group(("a", "b"), ("aba'b'",))


def test_presentation_text_round_trip(tmp_path):
    text = "generators: a b c d\naba'b'cdc'd'\n"
    p = groups.parse_presentation(text)
    assert p.kind == "small-cancellation"
    assert len(groups.enumerate_ball(p, 2).elements) == 65

    path = tmp_path / "surface.txt"
    path.write_text(text)
    q = groups.load_presentation(str(path))
    assert q.kind == p.kind
    assert groups.enumerate_ball(q, 2).sphere_sizes() == [1, 8, 56]


def test_presentation_text_free_when_no_relators():
    p = groups.parse_presentation("generators: x y z\n")
    assert p.kind == "free"
    assert p.rank == 3


def test_presentation_text_errors():
    with pytest.raises(InputError):
        groups.parse_presentation("a b\n")
    with pytest.raises(InputError):
        groups.parse_presentation("generators:\n")


def test_preset_specs():
    assert groups.preset("free:3").rank == 3
    assert groups.preset("modular").kind == "free-product"
    assert len(groups.preset("surface:3").generators()) == 6
    with pytest.raises(InputError):
        groups.preset("nosuch:9")


def test_ball_cap():
    f2 = groups.free_group(2)
    with pytest.raises(ResourceLimitError):
        groups.enumerate_ball(f2, 40)


def test_ball_word_length():
    f2 = groups.free_group(2)
    ball = groups.enumerate_ball(f2, 3)
    assert ball.word_length(f2.element("ab'")) == 2
    assert ball.word_length(f2.identity) == 0
    assert ball.word_length(f2.element("abab")) is None


def _free2_corner():
    f2 = groups.free_group(2)
    els = groups.enumerate_ball(f2, 3).elements
    return f2, els[:25], els[-25:]


def _surface2_sample():
    s = groups.surface_group(2)
    els = groups.enumerate_ball(s, 2).elements
    rng = random.Random(3)
    return s, rng.sample(els, 12), rng.sample(els, 12)


def _modular_ball():
    m = groups.modular_group()
    els = groups.enumerate_ball(m, 4).elements
    return m, els, els


def _surface2_ball():
    # the square input that word_distance_matrix passes
    s = groups.surface_group(2)
    els = groups.enumerate_ball(s, 2).elements
    return s, els, els


def _surface2_relator_length():
    # raw products such as (abab)^-1 cdcd reach the relator length 8, so
    # the vectorized Dehn route steps aside for the scalar one
    s = groups.surface_group(2)
    lefts = [s.element(w) for w in ("1", "abab", "ab'a'", "cd'c'd")]
    rights = [s.element(w) for w in ("cdcd", "b'cdc'", "a'b'cd", "ba")]
    return s, lefts, rights


@pytest.mark.parametrize("case", [
    pytest.param(_free2_corner, id="free2-corner"),
    pytest.param(_surface2_sample, id="surface2-sample"),
    pytest.param(_modular_ball, id="modular-ball"),
    pytest.param(_surface2_ball, id="surface2-ball"),
    pytest.param(_surface2_relator_length, id="surface2-relator-length"),
])
def test_bulk_product_lengths_matches_scalar(case):
    pres, lefts, rights = case()
    bulk = groups.bulk_product_lengths(pres, lefts, rights)
    scalar = [[(x.inverse() * y).length() for y in rights] for x in lefts]
    assert np.array_equal(bulk, np.asarray(scalar))


@given(letters2)
def test_free_normalize_round_trip(chars):
    f2 = groups.free_group(2)
    g = f2.element(_spell(chars))
    assert f2.element(g.spelled()) == g
    assert (g * g.inverse()).is_identity()


@given(letters2, letters2)
def test_free_triangle_inequality(one, two):
    f2 = groups.free_group(2)
    g, h = f2.element(_spell(one)), f2.element(_spell(two))
    assert (g * h).length() <= g.length() + h.length()
    assert (g * h).length() >= abs(g.length() - h.length())


@given(letters_surface, st.integers(0, 10))
def test_surface_relator_insertion_anywhere(chars, cut):
    s = groups.surface_group(2)
    rel = "aba'b'cdc'd'"
    cut = min(cut, len(chars))
    spliced = s.element(_spell(chars[:cut])) * s.element(rel) * \
        s.element(_spell(chars[cut:]))
    assert spliced == s.element(_spell(chars))


def test_modular_torsion():
    m = groups.modular_group()
    gens = m.generators()
    orders = []
    for g in gens:
        k = 1
        h = g
        while not h.is_identity():
            h = h * g
            k += 1
        orders.append(k)
    assert sorted(orders) == [2, 3]
