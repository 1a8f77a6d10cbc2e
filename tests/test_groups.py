import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperlab import groups
from hyperlab.errors import (InputError, ResourceLimitError,
                             UnsupportedElementError)

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

    for pres, spelled in ((groups.modular_group(), "st"),
                          (groups.surface_group(2), "ab")):
        with pytest.raises(UnsupportedElementError):
            groups.cyclically_reduce(pres.element(spelled))


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


def test_ball_is_a_prefix_of_larger_balls():
    # the Green table gap compares the radius-t and radius-2t solutions
    # position by position
    for pres, small, big in ((groups.modular_group(), 2, 4),
                             (groups.surface_group(2), 1, 2)):
        inner = groups.enumerate_ball(pres, small)
        outer = groups.enumerate_ball(pres, big)
        assert outer.elements[: len(inner)] == inner.elements
        assert [outer.index[g.word] for g in inner.elements] == list(
            range(len(inner)))
        assert outer.lengths.tolist() == [g.length() for g in outer.elements]


_PRODUCT_BALLS = [
    pytest.param(lambda: groups.free_group(2), 3, id="free2-r3"),
    pytest.param(lambda: groups.free_group(3), 2, id="free3-r2"),
    pytest.param(groups.modular_group, 5, id="modular-r5"),
    pytest.param(lambda: groups.cyclic_free_product([3, 4]), 4,
                 id="z3-z4-r4"),
    pytest.param(lambda: groups.cyclic_free_product([4, 4]), 3,
                 id="z4-z4-r3"),
    pytest.param(lambda: groups.cyclic_free_product([5, 2]), 4,
                 id="z5-z2-r4"),
    pytest.param(lambda: groups.cyclic_free_product([2, 3, 3]), 3,
                 id="z2-z3-z3-r3"),
    pytest.param(lambda: groups.surface_group(2), 2, id="surface2-r2"),
]


@pytest.mark.parametrize("make,radius", _PRODUCT_BALLS)
def test_multiply_matches_normalize(make, radius):
    pres = make()
    els = groups.enumerate_ball(pres, radius).elements
    for g in els:
        for h in els:
            assert pres.multiply(g.word, h.word) == pres.normalize(
                g.word + h.word)
        for s in range(len(pres.alphabet)):
            assert pres.multiply(g.word, (s,)) == pres.normalize(
                g.word + (s,))


@pytest.mark.parametrize("make,radius", _PRODUCT_BALLS)
def test_invert_matches_normalize(make, radius):
    pres = make()
    inv = pres.alphabet.inverse
    for g in groups.enumerate_ball(pres, radius).elements:
        assert pres.invert(g.word) == pres.normalize(
            tuple(inv[s] for s in reversed(g.word)))


def test_multiply_spells_the_z4_tie_plain():
    # t^2 = t'^2 in Z/4; the canonical spelling is the plain "tt"
    pres = groups.cyclic_free_product([3, 4])
    s, s_inv, t, t_inv = (pres.alphabet.index(x)
                          for x in ("s", "s'", "t", "t'"))
    assert pres.multiply((t,), (t,)) == (t, t)
    assert pres.multiply((t_inv,), (t_inv,)) == (t, t)
    assert pres.multiply((t, t), (t,)) == (t_inv,)
    assert pres.multiply((t, t), (t_inv,)) == (t,)
    # whole syllables cancel at the junction, then the next two merge
    assert pres.multiply((s, t), (t, s)) == (s, t, t, s)
    assert pres.multiply((s, t, t), (t, t, s)) == (s_inv,)
    assert pres.multiply((s, t), (t_inv, s_inv)) == ()
    assert pres.invert((t, t)) == (t, t)


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


def _modular_rectangle():
    # distinct lists, so the scalar loop fills every entry
    m = groups.modular_group()
    els = groups.enumerate_ball(m, 4).elements
    return m, els[:10], els[5:]


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


def _window_pairs(pres, cut):
    # l^-1 r spells the first len // 2 + 1 letters of a rotation, l^-1
    # its first `cut` letters: a relator window the walk has to find
    inv = pres.alphabet.inverse
    lefts, rights = [], []
    for rot in pres._rotations:
        head, tail = rot[:cut], rot[cut : len(rot) // 2 + 1]
        lefts.append(pres.element(tuple(inv[s] for s in reversed(head))))
        rights.append(pres.element(tail))
    return lefts, rights


def _surface3_sample():
    s = groups.surface_group(3)
    els = groups.enumerate_ball(s, 2).elements
    rng = random.Random(5)
    lefts, rights = _window_pairs(s, 2)
    return s, rng.sample(els, 20) + lefts, rng.sample(els, 20) + rights


def _two_relator_file():
    # relators of lengths 7 and 9: windows of 4 and 5 letters, and every
    # piece one letter long, so the walk decides
    pres = groups.parse_presentation(
        "generators: a b c d e f g\nabcdefg\nacegbdfa'c'\n")
    els = groups.enumerate_ball(pres, 2).elements
    rng = random.Random(7)
    lefts, rights = _window_pairs(pres, 1)
    return pres, rng.sample(els, 20) + lefts, rng.sample(els, 20) + rights


def _surface2_far_sample():
    # products up to 7 letters long hold 5-letter windows starting at
    # letters 0, 1 and 2
    s = groups.surface_group(2)
    rng = random.Random(11)
    return (s, rng.sample(groups.enumerate_ball(s, 4).elements, 25),
            groups.enumerate_ball(s, 3).elements)


@pytest.mark.parametrize("case", [
    pytest.param(_free2_corner, id="free2-corner"),
    pytest.param(_surface2_sample, id="surface2-sample"),
    pytest.param(_modular_ball, id="modular-ball"),
    pytest.param(_modular_rectangle, id="modular-rectangle"),
    pytest.param(_surface2_ball, id="surface2-ball"),
    pytest.param(_surface2_relator_length, id="surface2-relator-length"),
    pytest.param(_surface3_sample, id="surface3-sample"),
    pytest.param(_two_relator_file, id="two-relator-file"),
    pytest.param(_surface2_far_sample, id="surface2-far-sample"),
])
def test_bulk_product_lengths_matches_scalar(case):
    pres, lefts, rights = case()
    bulk = groups.bulk_product_lengths(pres, lefts, rights)
    scalar = [[len(pres.normalize(x.inverse().word + y.word)) for y in rights]
              for x in lefts]
    assert np.array_equal(bulk, np.asarray(scalar))


def test_free_distance_matrix_peak_memory():
    # common prefixes are counted one depth at a time in a narrow array;
    # no array of n^2 w entries is built
    f2 = groups.free_group(2)
    els = groups.enumerate_ball(f2, 5).elements
    n = len(els)
    tracemalloc.start()
    try:
        groups.bulk_product_lengths(f2, els, els)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * n * 8


@pytest.mark.parametrize("pres, left, right", [
    pytest.param(groups.free_group(2), 6, 6, id="free2-r6"),
    pytest.param(groups.modular_group(), 12, 12, id="modular-r12"),
    pytest.param(groups.surface_group(2), 4, 3, id="surface2-r4xr3"),
])
def test_distance_estimate_bounds_the_traced_peak(monkeypatch, pres, left,
                                                  right):
    # a cap just under the traced peak must refuse the call up front
    lefts = groups.enumerate_ball(pres, left).elements
    rights = groups.enumerate_ball(pres, right).elements
    tracemalloc.start()
    try:
        groups.bulk_product_lengths(pres, lefts, rights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(groups, "DISTANCE_BYTES_CAP", peak - 1)
    with pytest.raises(ResourceLimitError):
        groups.bulk_product_lengths(pres, lefts, rights)


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


def _scan_all_rotations(pres, word):
    """(i, rot, m) over every position and every rotation, as Dehn's
    algorithm reads without a first-letter lookup; m counts the letters
    of rot matching word from i on."""
    for i in range(len(word)):
        for rot in pres._rotations:
            m = 0
            while m < min(len(rot), len(word) - i) and word[i + m] == rot[m]:
                m += 1
            yield i, rot, m


def _literal_sc_moves(pres, word):
    inv = pres.alphabet.inverse
    reduced = groups._free_reduce(inv, word)
    if reduced != word:
        return [reduced]
    return [groups._free_reduce(
                inv, word[:i] + groups._invert_word(inv, rot[take:])
                + word[i + take:])
            for i, rot, m in _scan_all_rotations(pres, word)
            for take in range((len(rot) + 1) // 2, m + 1)]


def _literal_dehn_reduce(pres, word):
    inv = pres.alphabet.inverse
    word = groups._free_reduce(inv, tuple(word))
    while True:
        for i, rot, m in _scan_all_rotations(pres, word):
            if 2 * m > len(rot):
                word = groups._free_reduce(
                    inv, word[:i] + groups._invert_word(inv, rot[m:])
                    + word[i + m:])
                break
        else:
            return word


@pytest.mark.parametrize("genus,radius", [(2, 3), (3, 2)])
def test_relator_lookup_matches_full_rotation_scan(genus, radius):
    # the first-letter buckets give the moves and Dehn steps, in order,
    # of a scan over every rotation at every letter
    pres = groups.surface_group(genus)
    for g in groups.enumerate_ball(pres, radius).elements:
        for s in range(len(pres.alphabet)):
            word = g.word + (s,)
            assert list(pres._sc_moves(word)) == _literal_sc_moves(pres, word)
            assert pres.dehn_reduce(word) == _literal_dehn_reduce(pres, word)


@given(letters_surface)
def test_dehn_reduce_matches_full_rotation_scan(chars):
    s = groups.surface_group(2)
    word = s.parse_word(_spell(chars))
    assert s.dehn_reduce(word) == _literal_dehn_reduce(s, word)


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
