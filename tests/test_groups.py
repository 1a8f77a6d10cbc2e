import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperlab import boundary, groups, metrics
from hyperlab.errors import (InputError, ResourceLimitError,
                             UnsupportedElementError)

from oracles import (enumerate_ball_pairwise, holds_move_window,
                     move_closure_normal_form, multiply_ball,
                     random_small_cancellation)

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
    expected = [groups.free_sphere_size(f3, n) for n in range(5)]
    assert ball.sphere_sizes() == expected
    assert expected == [1, 6, 30, 150, 750]


@pytest.mark.parametrize("spec", ["modular", "surface:2"])
def test_free_sphere_size_bounds_other_kinds(spec):
    pres = groups.preset(spec)
    sizes = groups.enumerate_ball(pres, 4).sphere_sizes()
    assert all(size <= groups.free_sphere_size(pres, n)
               for n, size in enumerate(sizes))


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
        raw = enumerate_ball_pairwise(pres, radius)
        ball = groups.enumerate_ball(pres, radius)
        assert [len(layer) for layer in raw] == ball.sphere_sizes()
        for layer, sphere in zip(raw, ball.spheres):
            assert sorted(pres.normalize(w) for w in layer) == \
                sorted(g.word for g in sphere)


def _surface_ball_and_green_table():
    pres = groups.surface_group(2)
    ball = groups.enumerate_ball(pres, 4)
    data = metrics.solve_green(pres, truncation=4)
    return pres, [g.word for g in ball.elements], data._u.tobytes()


def test_canonical_form_cache_is_bounded(monkeypatch):
    # the oldest words go once the cache passes its cap, and the normal
    # forms do not change: the same ball and the same Green table bytes
    pres, words, table = _surface_ball_and_green_table()
    assert len(pres._canon_cache) > 50
    sizes = []
    search = groups.GroupPresentation._canonical_sc

    def recorded(self, word):
        out = search(self, word)
        sizes.append(len(self._canon_cache))
        return out

    monkeypatch.setattr(groups, "CANON_CACHE_ENTRIES", 50)
    monkeypatch.setattr(groups.GroupPresentation, "_canonical_sc", recorded)
    _, bounded_words, bounded_table = _surface_ball_and_green_table()
    assert max(sizes) == 50
    assert bounded_words == words
    assert bounded_table == table


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
    assert len(groups.preset("surface:3").alphabet.symbols) == 12
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


def _two_relator_presentation():
    # relators of lengths 7 and 9: windows of 4 and 5 letters, and every
    # piece one letter long
    return groups.parse_presentation(
        "generators: a b c d e f g\nabcdefg\nacegbdfa'c'\n")


@pytest.mark.parametrize("make,radius", [
    pytest.param(lambda: groups.free_group(2), 4, id="free2-r4"),
    pytest.param(groups.modular_group, 6, id="modular-r6"),
    pytest.param(lambda: groups.cyclic_free_product([3, 4]), 4,
                 id="z3-z4-r4"),
    pytest.param(lambda: groups.surface_group(2), 3, id="surface2-r3"),
    # the radius-4 ball's last products reach surface:2's move windows
    pytest.param(lambda: groups.surface_group(2), 4, id="surface2-r4"),
    pytest.param(lambda: groups.surface_group(3), 2, id="surface3-r2"),
    pytest.param(lambda: groups.surface_group(3), 3, id="surface3-r3"),
    pytest.param(_two_relator_presentation, 2, id="two-relator-file"),
])
def test_ball_edges_are_the_products_by_one_letter(make, radius):
    pres = make()
    ball = groups.enumerate_ball(pres, radius)
    inner = len(ball) - len(ball.spheres[-1])
    assert ball.edges.shape == (len(pres.alphabet), inner)
    words, expected = multiply_ball(pres, radius)
    assert [g.word for g in ball.elements] == words
    assert ball.edges.tolist() == expected
    # a walk from the identity along each canonical word ends on it
    assert ball.walk([0], [g.word for g in ball.elements]).tolist() == [
        list(range(len(ball)))]


@pytest.mark.parametrize("make,radius", [
    pytest.param(groups.modular_group, 6, id="modular-r6"),
    pytest.param(lambda: groups.surface_group(2), 3, id="surface2-r3"),
    pytest.param(lambda: groups.free_group(2), 4, id="free2-r4"),
])
def test_walk_steps_visit_every_prefix(make, radius):
    # one walk from the identity keeps every step: step j of a word's
    # trail is the position of its first j letters, and past the word's
    # end the walk stays put
    pres = make()
    ball = groups.enumerate_ball(pres, radius)
    words = [g.word for g in ball.elements]
    trails = np.stack(list(ball._steps([0], words)), axis=-1)[0]
    assert trails.tolist() == [
        [ball.index[pres.normalize(w[:j])] for j in range(radius + 1)]
        for w in words]


@pytest.mark.parametrize("make,radius", [
    pytest.param(lambda: groups.surface_group(2), 3, id="surface2-r3"),
    pytest.param(lambda: groups.surface_group(3), 2, id="surface3-r2"),
])
def test_window_walk_states_match_the_scalar_walk(monkeypatch, make, radius):
    # the relator-window walk over each l^-1 that bulk_product_lengths
    # takes is the scalar walk over every prefix of l^-1
    pres = make()
    els = groups.enumerate_ball(pres, radius).elements
    table, _ = pres._relator_windows
    walk, walks = groups._walk, []

    def kept(*args):
        walks.append(list(walk(*args)))
        return iter(walks[-1])
    monkeypatch.setattr(groups, "_walk", kept)
    groups.bulk_product_lengths(pres, els, els)
    steps, = walks
    for k, g in enumerate(els):
        inverse = groups._invert_word(pres.alphabet.inverse, g.word)
        assert [int(steps[j][k]) for j in range(len(g.word) + 1)] == [
            groups._window_state(table, inverse[:j])
            for j in range(len(g.word) + 1)]


def _seeded_words(rng, letters, count, width):
    # a few letters keep many common prefixes
    return [tuple(rng.choice(letters) for _ in range(rng.randrange(width + 1)))
            for _ in range(count)]


@pytest.mark.parametrize("rank,letters,nl,nr,wl,wr", [
    pytest.param(2, (0, 1, 3), 40, 30, 6, 3, id="unequal-widths"),
    pytest.param(2, (0, 2), 30, 30, 4, 4, id="equal-widths"),
    pytest.param(151, (7, 200, 301), 25, 20, 3, 5, id="302-symbols"),
    pytest.param(2, (0, 1), 0, 5, 3, 3, id="no-left-rows"),
    pytest.param(2, (0, 1), 6, 0, 3, 2, id="no-right-rows"),
    pytest.param(2, (0, 1), 5, 7, 0, 3, id="width-0"),
])
def test_common_prefix_kernel_matches_the_scalar_oracle(rank, letters, nl, nr,
                                                        wl, wr):
    pres = groups.free_group(rank)
    rng = random.Random(nl * 31 + nr)
    lw = _seeded_words(rng, letters, nl, wl)
    rw = _seeded_words(rng, letters, nr, wr)
    left = groups._letters(pres, lw, wl)
    right = groups._letters(pres, rw, wr)
    assert left.dtype == (np.int16 if rank > 64 else np.int8)
    lcp = groups._common_prefix_lengths(left, right)
    assert lcp.shape == (nl, nr)
    assert lcp.dtype == groups.distance_dtype(min(wl, wr))
    assert lcp.tolist() == [[groups.common_prefix_len(u, w) for w in rw]
                            for u in lw]
    # padded on both sides, an equal word gives its own length, not the
    # width, against the same array and against a copy
    own = [len(u) for u in lw]
    for other in (left, left.copy()):
        assert np.diagonal(
            groups._common_prefix_lengths(left, other)).tolist() == own


def test_ball_edges_cost_no_normalization(monkeypatch):
    # the products enumeration forms anyway are the edges, and a canonical
    # word with no move window drops its last letter or gains one as it
    # stands: only the 16 products whose window walk accepts normalize
    calls = []
    normalize = groups.GroupPresentation.normalize

    def counted(self, word):
        calls.append(word)
        return normalize(self, word)

    monkeypatch.setattr(groups.GroupPresentation, "normalize", counted)
    groups.enumerate_ball(groups.surface_group(2), 4)
    assert len(calls) == 16


def _window_words(pres, length):
    """Every freely reduced word u W v of at most `length` letters around
    a move window W, the first ceil(|r|/2) letters of a rotation."""
    letters = range(len(pres.alphabet))
    out = set()
    for rot in pres._rotations:
        window = rot[: (len(rot) + 1) // 2]
        room = length - len(window)
        for a in range(room + 1):
            for b in range(room - a + 1):
                for u in itertools.product(letters, repeat=a):
                    for v in itertools.product(letters, repeat=b):
                        out.add(u + window + v)
    inv = pres.alphabet.inverse
    return [w for w in out if groups._free_reduce(inv, w) == w]


# every reduced word up to the first length, and every one holding a move
# window up to the second (all reduced words of 6 letters over the file's
# 14 would be 5.2 million)
_WORD_SETS = [
    pytest.param(lambda: groups.surface_group(2), 5, 6, id="surface2"),
    pytest.param(lambda: groups.surface_group(3), 4, 7, id="surface3"),
    pytest.param(_two_relator_presentation, 4, 6, id="two-relator-file"),
]


def _word_set(pres, every, windowed):
    # the free group on the same alphabet spells every reduced word
    cover = groups.GroupPresentation(pres.alphabet, "free")
    words = {w for n in range(every + 1)
             for w in boundary.reduced_words(cover, n)}
    words.update(_window_words(pres, windowed))
    return sorted(words, key=groups._shortlex_key)


@pytest.mark.parametrize("make,every,windowed", _WORD_SETS)
def test_move_windows_accept_exactly_the_words_holding_one(make, every,
                                                           windowed):
    pres = make()
    table, accept = pres._move_windows
    seen = set()
    for w in _word_set(pres, every, windowed):
        holds = holds_move_window(pres, w)
        assert accept[groups._window_state(table, w)] == holds, w
        seen.add(holds)
    assert seen == {False, True}


@pytest.mark.parametrize("make,every,windowed", _WORD_SETS)
def test_normalize_equals_the_full_move_closure(make, every, windowed):
    pres = make()
    words = _word_set(pres, every, windowed)
    assert ([pres.normalize(w) for w in words]
            == [move_closure_normal_form(pres, w) for w in words])


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


def _free2_ball():
    # one list on both sides: its prefix ids are built once
    f2 = groups.free_group(2)
    els = groups.enumerate_ball(f2, 3).elements
    return f2, els, els


def _long_words(pres, count, steps, seed):
    rng = random.Random(seed)
    letters = len(pres.alphabet)
    return [groups.GroupElement(pres, pres.normalize(
        tuple(rng.randrange(letters) for _ in range(steps))))
        for _ in range(count)]


def _free2_long_words():
    # products past 127 letters: stored in int16, not int8
    f2 = groups.free_group(2)
    words = _long_words(f2, 20, 160, 3)
    return f2, words, words


def _modular_long_words():
    # the syllable route past 127 letters
    m = groups.modular_group()
    words = _long_words(m, 15, 400, 4)
    return m, words, words


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
    # distinct, overlapping lists
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
    # every piece is one letter long, so the walk decides
    pres = _two_relator_presentation()
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


def _surface2_far_sample_transposed():
    # more rights than lefts: the walk reads r^-1 l
    s, lefts, rights = _surface2_far_sample()
    return s, rights, lefts


def _surface2_wide():
    s = groups.surface_group(2)
    return (s, groups.enumerate_ball(s, 2).elements,
            groups.enumerate_ball(s, 4).elements)


def _surface2_r4_squared():
    # one list on both sides, products up to 8 letters: past the relator
    # length, so the move-window walk flags the products to normalize and
    # one of each pair is finished
    s = groups.surface_group(2)
    els = random.Random(13).sample(groups.enumerate_ball(s, 4).elements, 150)
    return s, els, els


def _surface2_dehn_irreducible_detour():
    # a'd'b'a'dc.cd'c'ba' holds no relator window, so Dehn's algorithm
    # leaves its 11 letters, but moves through half relators shorten it
    # to 9: past the relator length only the move windows decide
    s = groups.surface_group(2)
    lefts = [s.element(w) for w in ("c'd'abda", "1", "ab")]
    rights = [s.element(w) for w in ("cd'c'ba'", "a'd'b'a'dccd'c'ba'")]
    assert len(s.normalize(lefts[0].inverse().word + rights[0].word)) == 9
    return s, lefts, rights


def _two_relator_past_relators():
    # products up to 12 letters, past both relator lengths 7 and 9, with
    # relator windows spelled across the junction
    pres = _two_relator_presentation()
    lefts, rights = _window_pairs(pres, 2)
    return (pres, _long_words(pres, 30, 6, 17) + lefts,
            _long_words(pres, 50, 6, 18) + rights)


def _two_letter_pieces():
    # pieces of two letters take the scalar route, square and mirrored,
    # here past the relator length 13
    pres = groups.small_cancellation_group(["a", "b"], ["aaab'a'bab'b'aabb"])
    assert pres._max_piece == 2
    els = random.Random(17).sample(groups.enumerate_ball(pres, 7).elements,
                                   40)
    return pres, els, els


def _modular_r12_square():
    m = groups.modular_group()
    els = groups.enumerate_ball(m, 12).elements
    return m, els, els


def _free_product_ball(orders, radius, third):
    # syllable merges within one factor, and Z/4's tt tie, on a square
    # call and on a third of the ball against the ball
    pres = groups.cyclic_free_product(orders)
    els = groups.enumerate_ball(pres, radius).elements
    return pres, els[: len(els) // 3] if third else els, els


def _large_order_rectangle():
    # a factor of order 100: the right rows are far wider than the left,
    # and their syllable codes pass what the left width alone would hold
    pres = groups.cyclic_free_product((100, 2))
    lefts = groups.enumerate_ball(pres, 4).elements
    rights = [pres.element(w) for w in
              ("t" + "s" * 44, "s" * 50, "s'" * 49 + "ts" * 3,
               "s" * 44 + "t" + "s'" * 30, "tst" + "s" * 45)]
    return pres, lefts, rights


_FREE_PRODUCT_CASES = [
    pytest.param(functools.partial(_free_product_ball, orders, radius, third),
                 id=f"{name}-{'third' if third else 'square'}")
    for name, orders, radius in [("z3-z4", (3, 4), 5), ("z4-z4", (4, 4), 5),
                                 ("z5-z2", (5, 2), 6),
                                 ("z2-z3-z3", (2, 3, 3), 4)]
    for third in (False, True)]


@pytest.mark.parametrize("case", [
    pytest.param(_free2_corner, id="free2-corner"),
    pytest.param(_free2_ball, id="free2-ball"),
    pytest.param(_free2_long_words, id="free2-long-words"),
    pytest.param(_modular_long_words, id="modular-long-words"),
    pytest.param(_surface2_sample, id="surface2-sample"),
    pytest.param(_modular_ball, id="modular-ball"),
    pytest.param(_modular_rectangle, id="modular-rectangle"),
    pytest.param(_surface2_ball, id="surface2-ball"),
    pytest.param(_surface2_relator_length, id="surface2-relator-length"),
    pytest.param(_surface3_sample, id="surface3-sample"),
    pytest.param(_two_relator_file, id="two-relator-file"),
    pytest.param(_surface2_far_sample, id="surface2-far-sample"),
    pytest.param(_surface2_far_sample_transposed,
                 id="surface2-far-sample-transposed"),
    pytest.param(_surface2_wide, id="surface2-wide"),
    pytest.param(_surface2_r4_squared, id="surface2-r4-squared"),
    pytest.param(_surface2_dehn_irreducible_detour,
                 id="surface2-dehn-irreducible-detour"),
    pytest.param(_two_relator_past_relators,
                 id="two-relator-file-past-relators"),
    pytest.param(_two_letter_pieces, id="two-letter-pieces"),
    pytest.param(_modular_r12_square, id="modular-r12-square"),
    *_FREE_PRODUCT_CASES,
    pytest.param(_large_order_rectangle, id="z100-z2-rectangle"),
])
def test_bulk_product_lengths_matches_scalar(monkeypatch, case):
    pres, lefts, rights = case()
    bulk = groups.bulk_product_lengths(pres, lefts, rights)
    scalar = [[len(pres.normalize(x.inverse().word + y.word)) for y in rights]
              for x in lefts]
    assert np.array_equal(bulk, np.asarray(scalar))
    # window searches of many blocks, some of them one row, agree
    monkeypatch.setattr(groups, "WINDOW_BLOCK_PAIRS", 50)
    assert np.array_equal(groups.bulk_product_lengths(pres, lefts, rights),
                          bulk)
    top = max(map(len, (x.word for x in lefts))) + max(
        map(len, (y.word for y in rights)))
    assert bulk.dtype == groups.distance_dtype(top)


def test_free_product_lengths_take_no_scalar_quotient(monkeypatch):
    calls = []
    left_quotient = groups.GroupPresentation.left_quotient

    def counted(self, u, w):
        calls.append((u, w))
        return left_quotient(self, u, w)

    monkeypatch.setattr(groups.GroupPresentation, "left_quotient", counted)
    m = groups.modular_group()
    els = groups.enumerate_ball(m, 6).elements
    groups.bulk_product_lengths(m, els, els)
    assert calls == []


def _padded(words, width):
    return [list(w[:width]) + [-1] * (width - len(w[:width])) for w in words]


@pytest.mark.parametrize("spec,radius", [
    ("free:2", 4), ("free:3", 3), ("modular", 8), ("surface:2", 3),
    ("surface:3", 2),
])
def test_letter_arrays_spell_the_words_and_their_inverses(spec, radius):
    pres = groups.preset(spec)
    words = [g.word for g in groups.enumerate_ball(pres, radius).elements]
    # at the longest word's width, and cut shorter as boundary windows are
    for width in (radius, radius - 1):
        assert groups._letters(pres, words, width).tolist() == _padded(
            words, width)
    letters = groups._letters(pres, words, radius)
    lengths = np.array([len(w) for w in words],
                       dtype=groups.distance_dtype(radius))
    inverse = [groups._invert_word(pres.alphabet.inverse, w) for w in words]
    assert groups._inverse_letters(pres, letters, lengths).tolist() == \
        _padded(inverse, radius)
    empty = groups._letters(pres, [], radius)
    assert empty.shape == (0, radius)
    assert groups._inverse_letters(pres, empty, lengths[:0]).shape == (
        0, radius)


def _corpus_presentation(seed):
    # one relator of 7 to 9 letters on three or four generators: every
    # piece is one letter, so bulk lengths take the window routes
    pres = random_small_cancellation(seed, 3 + seed % 2, 1, (7, 8, 9))
    assert pres._max_piece == 1
    return pres


def test_seeded_small_cancellation_corpus():
    # 20 seeded C'(1/6) presentations, each checked four ways; a failure
    # names the presentation by its relator
    for seed in range(20):
        pres = _corpus_presentation(seed)
        name = groups._spell(pres.alphabet, pres.relators[0])
        rng = random.Random(seed)
        # the ball against dedup by Dehn's algorithm alone, at radius 4 on
        # seed 0, where its 7-letter relator first identifies two words
        # (5 s of the quadratic oracle), and at radius 3 or 2 elsewhere;
        # and against the normal forms of every reduced word, up to the
        # radius whose products pass the relator length
        radius = (pres._min_relator + 2) // 2
        ball = groups.enumerate_ball(pres, radius)
        raw = enumerate_ball_pairwise(pres, 4 if seed == 0 else 3 - seed % 2)
        for layer, sphere in zip(raw, ball.spheres):
            assert sorted(pres.normalize(w) for w in layer) == sorted(
                g.word for g in sphere), name
        cover = groups.GroupPresentation(pres.alphabet, "free")
        assert {pres.normalize(w) for n in range(radius + 1)
                for w in boundary.reduced_words(cover, n)} == {
            g.word for g in ball.elements}, name
        # normal forms: the full move closure, unchanged by inserting a
        # relator rotation anywhere
        for g in rng.sample(ball.elements, 20):
            word = g.word
            rot = rng.choice(pres._rotations)
            at = rng.randrange(len(word) + 1)
            padded = word[:at] + rot + word[at:]
            assert pres.normalize(padded) == word == move_closure_normal_form(
                pres, padded) == move_closure_normal_form(pres, word), name
        # bulk lengths past the relator length, both walk orientations and
        # a square call, against left_quotient
        els = rng.sample(ball.elements, 60)
        lengths = [[len(pres.left_quotient(x.word, y.word)) for y in els]
                   for x in els]
        assert max(map(max, lengths)) >= pres._min_relator, name
        assert groups.bulk_product_lengths(pres, els, els).tolist() == \
            lengths, name
        assert groups.bulk_product_lengths(pres, els[:15], els).tolist() == \
            lengths[:15], name
        assert groups.bulk_product_lengths(pres, els, els[:15]).tolist() == [
            row[:15] for row in lengths], name
        # the windowless shortcut: a word holding no move window is its
        # own normal form, found by one table walk
        table, accept = pres._move_walk
        for w in _word_set(pres, 3, 6 - seed % 2):
            holds = holds_move_window(pres, w)
            assert accept[groups._window_state(table, w)] == holds, name
            if not holds:
                assert pres.normalize(w) == w, name


def test_free_distance_matrix_peak_memory():
    # common prefixes are counted one depth at a time in a narrow array,
    # and lengths are built in place in one byte a pair; no array of
    # n^2 w entries and no n^2 int64 array is built
    f2 = groups.free_group(2)
    els = groups.enumerate_ball(f2, 5).elements
    n = len(els)
    # the first np.unique call imports numpy.ma, about 0.5 MB traced
    import numpy.ma  # noqa: F401
    tracemalloc.start()
    try:
        groups.bulk_product_lengths(f2, els, els)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n


@pytest.mark.parametrize("pres, left, right, shared", [
    pytest.param(groups.free_group(2), 6, 6, False, id="free2-r6"),
    pytest.param(groups.modular_group(), 12, 12, False, id="modular-r12"),
    pytest.param(groups.surface_group(2), 4, 3, False, id="surface2-r4xr3"),
    # skinny calls: the per-word arrays outweigh the few pairs
    pytest.param(groups.free_group(2), 6, 2, False, id="free2-r6xr2"),
    pytest.param(groups.surface_group(2), 3, 1, False, id="surface2-r3xr1"),
    # calls of a few dozen words: numpy's fixed buffers (CALL_BYTES)
    # outweigh the pairs
    pytest.param(groups.surface_group(2), 1, 1, False, id="surface2-r1xr1"),
    pytest.param(groups.free_group(2), 1, 1, False, id="free2-r1xr1"),
    # one list on both sides: the square routes finish one word of each
    # pair; on surface:2, the move-window search over 10 million pairs, a
    # block at a time
    pytest.param(groups.modular_group(), 12, 12, True,
                 id="modular-r12-square"),
    pytest.param(groups.surface_group(2), 4, 4, True, id="surface2-r4xr4"),
    # the free-product syllable route, square and skinny
    pytest.param(groups.cyclic_free_product((3, 4)), 6, 6, True,
                 id="z3-z4-r6-square"),
    pytest.param(groups.modular_group(), 12, 2, False, id="modular-r12xr2"),
    # a factor of order 1000: the merge table grows with the words of the
    # call, not with the order
    pytest.param(groups.cyclic_free_product((1000, 2)), 3, 3, True,
                 id="z1000-z2-r3-square"),
])
def test_distance_estimate_bounds_the_traced_peak(monkeypatch, pres, left,
                                                  right, shared):
    # a cap just under the traced peak must refuse the call up front
    lefts = groups.enumerate_ball(pres, left).elements
    rights = lefts if shared else groups.enumerate_ball(pres, right).elements
    if (pres.kind == "small-cancellation"
            and left + right >= pres._min_relator):
        # the canonical forms a first call caches (a bounded cache of
        # its own) are found untraced, which is five times faster
        groups.bulk_product_lengths(pres, lefts, rights)
    # the first np.unique call imports numpy.ma, about 0.5 MB traced
    import numpy.ma  # noqa: F401
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


@pytest.mark.parametrize("genus,count", [(2, 3), (3, 5)])
def test_relator_symmetries_match_a_search_of_all_permutations(genus, count):
    # every permutation that commutes with inversion: a permutation of the
    # generators, each sent to its image or to its image's inverse
    pres = groups.surface_group(genus)
    inv = pres.alphabet.inverse
    gens = [s for s in range(len(inv)) if s < inv[s]]
    rots = set(pres._rotations)
    found = set()
    for order in itertools.permutations(gens):
        for flips in itertools.product((False, True), repeat=len(gens)):
            perm = [0] * len(inv)
            for s, t, flip in zip(gens, order, flips):
                perm[s], perm[inv[s]] = (inv[t], t) if flip else (t, inv[t])
            if {tuple(perm[x] for x in r) for r in rots} == rots:
                found.add(tuple(perm))
    found.discard(tuple(range(len(inv))))
    assert set(pres.symmetry_generators()) == found
    assert len(found) == count


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
    gens = [m.element("s"), m.element("t")]
    orders = []
    for g in gens:
        k = 1
        h = g
        while not h.is_identity():
            h = h * g
            k += 1
        orders.append(k)
    assert sorted(orders) == [2, 3]
