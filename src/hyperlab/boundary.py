"""Exact boundary model for free groups.

Boundary points of a free group are infinite reduced words.  This module
works with the eventually periodic ones, stored as a preperiod plus a
repeating block in canonical form, so equality, the left action, Gromov
products, the Busemann cocycle, cylinder measures and conformality are
all exact integer or rational computations.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, UnsupportedElementError
from .groups import (GroupElement, _common_prefix_lengths, _inverse_letters,
                     _letters, _spell, bulk_product_lengths,
                     common_prefix_len, cyclically_reduce, distance_dtype)


def _require_free(pres):
    if pres.kind != "free":
        raise UnsupportedElementError(
            f"the exact boundary model needs a free presentation, got {pres.kind!r}")


def _require_nonelementary(pres):
    _require_free(pres)
    if pres.rank < 2:
        raise UnsupportedElementError(f"free:{pres.rank} is elementary: at "
                                      "most two boundary points")


def _check_reduced(pres, word, what):
    inv = pres.alphabet.inverse
    for a, b in zip(word, word[1:]):
        if b == inv[a]:
            raise InputError(f"{what} {_spell(pres.alphabet, word)!r} is not reduced")


def _primitive_root(word):
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


class BoundaryPoint:
    """Eventually periodic infinite reduced word, canonical (u, c) form.

    The canonical form keeps the shortest possible preperiod and a
    primitive repeating block; with those two constraints the block and
    its phase are forced by the infinite word itself.
    """

    __slots__ = ("pres", "preperiod", "period")

    def __init__(self, pres, preperiod, period):
        _require_free(pres)
        preperiod = tuple(preperiod)
        period = tuple(period)
        if not period:
            raise InputError("boundary point needs a nonempty repeating block")
        inv = pres.alphabet.inverse
        _check_reduced(pres, preperiod, "preperiod")
        _check_reduced(pres, period, "period")
        if period[0] == inv[period[-1]]:
            raise InputError(
                f"period {_spell(pres.alphabet, period)!r} is not cyclically reduced")
        if preperiod and period[0] == inv[preperiod[-1]]:
            raise InputError("preperiod and period cancel at the junction")
        period = list(_primitive_root(period))
        preperiod = list(preperiod)
        while preperiod and preperiod[-1] == period[-1]:
            preperiod.pop()
            period.insert(0, period.pop())
        self.pres = pres
        self.preperiod = tuple(preperiod)
        self.period = tuple(period)

    def prefix(self, n):
        """First n letters of the infinite word."""
        u, c = self.preperiod, self.period
        if n <= len(u):
            return u[:n]
        reps = (n - len(u)) // len(c) + 1
        return (u + c * reps)[:n]

    def spelled(self):
        alph = self.pres.alphabet
        return f"{_spell(alph, self.preperiod)}|{_spell(alph, self.period)}"

    def __eq__(self, other):
        if not isinstance(other, BoundaryPoint):
            return NotImplemented
        return (self.pres is other.pres
                and self.preperiod == other.preperiod
                and self.period == other.period)

    def __hash__(self):
        return hash((id(self.pres), self.preperiod, self.period))

    def __repr__(self):
        return f"<{self.spelled()}>"


def boundary_point(pres, preperiod, period):
    """Build a point from word spellings or raw tuples."""
    return BoundaryPoint(pres, pres.parse_word(preperiod), pres.parse_word(period))


def _element_letters(pres, words):
    """Letter arrays of the words and of their inverses, and the lengths."""
    width = max(map(len, words), default=0)
    letters = _letters(pres, words, width)
    n = np.array([len(w) for w in words], dtype=distance_dtype(width))
    return letters, _inverse_letters(pres, letters, n), n


def _windows(pres, points, width):
    """The first `width` letters of each point, as a letter array."""
    return _letters(pres, [x.prefix(width) for x in points], width)


def _busemann(elements, windows):
    """2 lcp(g, x) - |g| for each g of `elements` and row x of `windows`."""
    letters, _, n = elements
    return 2 * _common_prefix_lengths(letters, windows) - n[:, None]


def _act_windows(elements, points, width):
    """windows[a, b]: the first `width` letters of g.x for g the a-th of
    `elements` and x the word whose first width + |g| letters are row b
    of `points`.  The first k = lcp(g^-1, x) letters of x cancel against
    the end of g and what is left is reduced: g.x = g[:|g| - k] + x[k:]."""
    g, ginv, n = elements
    k = _common_prefix_lengths(ginv, points)
    kept = n[:, None] - k
    # letter i past the kept part of g is x[i + 2k - |g|]
    shift, rows = (k - kept).astype(np.intp), np.arange(len(points))
    head = np.full((len(g), width), -1, dtype=g.dtype)
    head[:, :g.shape[1]] = g[:, :width]
    out = np.empty(k.shape + (width,), dtype=points.dtype)
    # a column at a time, so no index array spans elements x points x width
    for i in range(width):
        out[:, :, i] = np.where(i < kept, head[:, i, None],
                                points[rows, np.maximum(shift + i, 0)])
    return out


def _presentation(gs, points):
    """The presentation that the elements gs and the points share."""
    pres = points[0].pres
    if any(x.pres is not pres for x in gs + points):
        raise InputError("elements and boundary points live in different "
                         "presentations")
    return pres


def act(g, xi):
    """Left action of the group on its boundary, read off one window:
    g.(u c^inf) is |c|-periodic from P = |g| + |u|, so its first P
    letters are a preperiod and the next |c| a block."""
    pres = _presentation([g], [xi])
    start = g.length() + len(xi.preperiod)
    width = start + len(xi.period)
    w = _act_windows(_element_letters(pres, [g.word]),
                     _windows(pres, [xi], width + g.length()), width)[0, 0]
    return BoundaryPoint(pres, w[:start].tolist(), w[start:].tolist())


def action_law_scan(ball, points):
    """The action law g.(h.xi) = (gh).xi and the Busemann cocycle identity
    b(gh)(xi) = b(g)(xi) + b(h)(g^-1 xi) for all g, h of the ball and xi
    of points, on prefix windows: the first failure of each in (g, h, xi)
    order, spelled, the cocycle's with its two sides, or None.

    The windows decide exactly.  xi = u c^inf is |c|-periodic from |u|,
    so g.xi = g[:|g| - k] + xi[k:] is |c|-periodic from |g| + |u| at the
    latest, and both g.(h.xi) and (gh).xi are from P = |g| + |h| + |u|.
    Two words |c|-periodic from P are equal iff they agree on their first
    P + |c| letters, and every window compared is at least that long.
    The ball is closed under inversion, so g^-1 xi windows are h.xi rows.
    """
    pres, els, m = ball.pres, ball.elements, ball.radius
    shape = (len(els), len(els), len(points))
    width = 2 * m + max(len(x.preperiod) + len(x.period) for x in points)
    gs = _element_letters(pres, [g.word for g in els])
    gh = _element_letters(pres, [(g * h).word for g in els for h in els])
    xs = _windows(pres, points, width + 2 * m)
    moved = _act_windows(gs, xs, width + m)
    left = _act_windows(gs, moved.reshape(-1, width + m), width)
    same = (left.reshape(-1, len(points), width)
            == _act_windows(gh, xs, width)).all(axis=2).reshape(shape)
    inverse = [ball.index[pres.invert(g.word)] for g in els]
    lhs = _busemann(gh, xs).reshape(shape)
    rhs = _busemann(gs, xs)[:, None, :] + _busemann(
        gs, moved[inverse].reshape(-1, width + m)).reshape(shape).swapaxes(0, 1)

    def first(bad, *sides):
        for g, h, x in np.argwhere(bad)[:1].tolist():
            return ((els[g].spelled(), els[h].spelled(), points[x].spelled())
                    + tuple(int(v[g, h, x]) for v in sides))
    return first(~same), first(lhs != rhs, lhs, rhs)


def busemann_on_word(g, w):
    """Busemann value 2 lcp(g, w) - |g| on the cylinder over the reduced word w.

    Every ray through w takes this value unless w is a proper prefix of
    g's word, where the value still depends on the letters past w.
    """
    return 2 * common_prefix_len(g.word, w) - g.length()


def fixed_points(g):
    """Attracting and repelling endpoints of g plus its translation length.

    Splitting g = u c u^-1 with c cyclically reduced gives the endpoints
    u c c c... and u c^-1 c^-1 ...; the translation length is |c|.
    """
    _require_free(g.pres)
    if g.is_identity():
        raise InputError("the identity fixes the whole boundary")
    u, core = cyclically_reduce(g)
    if core.is_identity():
        raise UnsupportedElementError("torsion element has no axis")
    plus = BoundaryPoint(g.pres, u.word, core.word)
    minus = BoundaryPoint(g.pres, u.word, core.inverse().word)
    return plus, minus, core.length()


# (presentation, length) partitions kept by reduced_words; the free:2
# depth-8 partition holds 8,748 words
PARTITION_CACHE_SIZE = 64


@functools.lru_cache(maxsize=PARTITION_CACHE_SIZE)
def reduced_words(pres, length):
    """All reduced words of the given length, in symbol order, as a tuple
    built once per (presentation, length)."""
    _require_free(pres)
    if length < 0:
        raise InputError("length must be nonnegative")
    inv = pres.alphabet.inverse
    letters = range(len(pres.alphabet))
    words = [()] if length == 0 else [(s,) for s in letters]
    for _ in range(max(0, length - 1)):
        words = [w + (s,) for w in words for s in letters if s != inv[w[-1]]]
    return tuple(words)


# cylinder masses kept by (rank, length): `all free:2 --seed 7` asks
# for 2,095 and keeps 6, `kms free:3 --seed 3` asks for 19,633 and keeps
# 3 (about 1.5 and 14 ms of exact arithmetic uncached), nearly all for
# the KMS binomials; a conformality scan at depth n reads n masses
MASS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=MASS_CACHE_SIZE)
def _cylinder_mass(rank, length):
    if not length:
        return Fraction(1)
    return Fraction(1, 2 * rank * (2 * rank - 1) ** (length - 1))


class BoundaryMeasure:
    """Uniform cylinder measure, normalised to total mass one."""

    __slots__ = ("pres", "rank")

    def __init__(self, pres):
        _require_nonelementary(pres)
        self.pres = pres
        self.rank = pres.rank

    @property
    def dimension(self):
        """Exponential growth rate log(2k-1) of the free group of rank k."""
        return math.log(self.base())

    def base(self):
        return 2 * self.rank - 1

    def word_mass(self, word):
        """Mass of the cylinder over a reduced word; the empty word is everything."""
        return _cylinder_mass(self.rank, len(word))

    def __repr__(self):
        return f"<BoundaryMeasure rank={self.rank}>"


@dataclass(frozen=True)
class ConformalityRecord:
    cylinder: str
    ratio: Fraction
    busemann: int
    ok: bool


def _conformality_block(measure, gs, depth):
    """Verdicts, a (len(gs), words) bool array, of the measure ratio of
    g^-1 C_w to C_w against (2k-1)^b for each g of gs and w of the depth
    partition, each w longer than every g; and (i, j) -> their record.

    Both sides read `groups._common_prefix_lengths`: the ratio through
    |g^-1 w| and the mass formula, the busemann exponent b = 2 lcp(g, w)
    - |g| (constant on C_w as |w| > |g|) on the letters; the second route
    is the scalar `conformality_record` of tests/oracles.py.  Each
    distinct (|g^-1 w|, b) pair is compared once, in exact Fractions.
    """
    pres, span = measure.pres, 2 * depth + 1
    words = reduced_words(pres, depth)
    lengths = bulk_product_lengths(
        pres, gs, [GroupElement(pres, w) for w in words]).astype(np.int32)
    b = _busemann(_element_letters(pres, [g.word for g in gs]),
                  _letters(pres, words, depth))
    keys, pair = np.unique(lengths * span + b + depth, return_inverse=True)
    pair = pair.reshape(b.shape)
    ratios = [_cylinder_mass(measure.rank, q)
              / _cylinder_mass(measure.rank, depth)
              for q in (keys // span).tolist()]
    ok = np.array([r == Fraction(measure.base()) ** (e - depth) for r, e
                   in zip(ratios, (keys % span).tolist())])[pair]

    def record(i, j):
        return ConformalityRecord(cylinder=_spell(pres.alphabet, words[j]),
                                  ratio=ratios[pair[i, j]],
                                  busemann=int(b[i, j]), ok=bool(ok[i, j]))
    return ok, record


def conformality_scan(pres, gs, depth=None):
    """Conformality under each g of gs over the cylinders at depth
    max(|g| + 1, depth), one block per run of equal depths: the number of
    records and the first failing (g, record) in order, or None."""
    measure = BoundaryMeasure(pres)
    scanned, bad = 0, None
    for d, block in itertools.groupby(
            gs, lambda g: max(g.length() + 1, depth or 0)):
        block = list(block)
        ok, record = _conformality_block(measure, block, d)
        scanned += ok.size
        for i, j in np.argwhere(~ok)[:1].tolist():
            bad = bad or (block[i], record(i, j))
    return scanned, bad


def _separating_width(points, shift=0):
    """Letters within which distinct points, moved by elements of length
    at most shift, disagree: g.(u c^inf) is |c|-periodic from |g| + |u|,
    and words p- and q-periodic from P agree on P + p + q letters only if
    equal (Fine-Wilf)."""
    return (shift + max(len(x.preperiod) for x in points)
            + 4 * max(len(x.period) for x in points) + 2)


def visual_distances(points):
    """The matrix of visual distances e^-(x|y) of the points, 0.0 between
    equal ones: (x|y) is the common prefix length of windows that separate
    distinct points, and each distinct value goes through `math.exp` once."""
    if not points:
        return np.zeros((0, 0))
    pres = _presentation([], points)
    width = _separating_width(points)
    lcp = _common_prefix_lengths(*[_windows(pres, points, width)] * 2)
    keys, at = np.unique(lcp, return_inverse=True)
    values = np.array([0.0 if k == width else math.exp(-k)
                       for k in keys.tolist()])
    return values[at].reshape(lcp.shape)


def conformal_identity_scan(triples):
    """The exponent form of the visual-metric transformation rule,
    2 (g xi | g eta) = -b(g^-1)(xi) - b(g^-1)(eta) + 2 (xi | eta), for
    each (g, xi, eta) of triples, in exact integers on prefix windows:
    the first failure, spelled, with its two sides, or None.

    Every g.xi comes from one `_act_windows` pass over the distinct
    elements and points, b(g^-1)(x) = 2 lcp(g^-1, x) - |g| from the
    common-prefix kernel, and each Gromov product is a common prefix
    length of windows that separate distinct moved points.
    """
    if any(xi == eta for _, xi, eta in triples):
        raise InputError("boundary points must be distinct")
    if not triples:
        return None
    gs = list({g.word: g for g, _, _ in triples}.values())
    points = list(dict.fromkeys(x for t in triples for x in t[1:]))
    pres = _presentation(gs, points)
    m = max(g.length() for g in gs)
    width = _separating_width(points, m)
    g_letters, inverse_letters, n = _element_letters(pres, [g.word for g in gs])
    xs = _windows(pres, points, width + m)
    moved = _act_windows((g_letters, inverse_letters, n), xs, width)
    b = _busemann((inverse_letters, g_letters, n), xs)
    row = {g.word: a for a, g in enumerate(gs)}
    col = {x: k for k, x in enumerate(points)}
    a, i, j = np.array([(row[g.word], col[xi], col[eta])
                        for g, xi, eta in triples]).T
    # moved windows are unpadded: count each row's leading matches
    lhs = 2 * (moved[a, i] == moved[a, j]).cumprod(axis=1).sum(axis=1)
    products = _common_prefix_lengths(*[xs[:, :width]] * 2)
    rhs = 2 * products[i, j].astype(int) - b[a, i] - b[a, j]
    for t in np.flatnonzero(lhs != rhs)[:1].tolist():
        g, xi, eta = triples[t]
        return (g.spelled(), xi.spelled(), eta.spelled(),
                int(lhs[t]), int(rhs[t]))


def seeded_family(pres, count=50, seed=0):
    """Deterministic family of distinct eventually periodic points."""
    _require_nonelementary(pres)
    rng = random.Random(seed)
    inv = pres.alphabet.inverse
    letters = list(range(len(pres.alphabet)))
    out = []
    seen = set()
    while len(out) < count:
        ulen = rng.randrange(0, 4)
        clen = rng.randrange(1, 4)
        word = []
        for _ in range(ulen + clen):
            choices = [s for s in letters if not word or s != inv[word[-1]]]
            word.append(rng.choice(choices))
        try:
            pt = BoundaryPoint(pres, word[:ulen], word[ulen:])
        except InputError:
            # junction or cyclic-reducedness rejected this draw; try again
            continue
        key = (pt.preperiod, pt.period)
        if key not in seen:
            seen.add(key)
            out.append(pt)
    return out
