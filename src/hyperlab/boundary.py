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

from .errors import InputError, InvariantViolation, UnsupportedElementError
from .groups import (GroupElement, _common_prefix_lengths, _letters, _spell,
                     bulk_product_lengths, common_prefix_len,
                     cyclically_reduce, distance_dtype)

INFINITE_PRODUCT = math.inf


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
    return (_letters(pres, words, width),
            _letters(pres, [pres.invert(w) for w in words], width),
            np.array([len(w) for w in words], dtype=distance_dtype(width)))


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


def _moved_points(gs, points):
    """(a, b) -> gs[a].points[b] in canonical form, from one window pass:
    g.(u c^inf) is |c|-periodic from P = |g| + |u|, so its first P letters
    are a preperiod and the next |c| a block."""
    pres = points[0].pres
    if any(g.pres is not pres for g in gs):
        raise InputError("element and boundary point live in different presentations")
    m = max(g.length() for g in gs)
    width = m + max(len(x.preperiod) + len(x.period) for x in points)
    windows = _act_windows(
        _element_letters(pres, [g.word for g in gs]),
        _letters(pres, [x.prefix(width + m) for x in points], width + m),
        width)

    def point(a, b):
        start = gs[a].length() + len(points[b].preperiod)
        w = windows[a, b].tolist()
        return BoundaryPoint(pres, w[:start],
                             w[start:start + len(points[b].period)])
    return point


def act(g, xi):
    """Left action of the group on its boundary."""
    return _moved_points([g], [xi])(0, 0)


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
    xs = _letters(pres, [x.prefix(width + 2 * m) for x in points],
                  width + 2 * m)
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


def boundary_gromov(x, y):
    """Gromov product of two boundary points based at the identity, the
    length of their longest common prefix; INFINITE_PRODUCT when x == y."""
    if x.pres is not y.pres:
        raise InputError("arguments live in different presentations")
    if x == y:
        return INFINITE_PRODUCT
    # distinct eventually periodic words must disagree inside this window
    window = (max(len(x.preperiod), len(y.preperiod))
              + 2 * (len(x.period) + len(y.period)) + 2)
    m = common_prefix_len(x.prefix(window), y.prefix(window))
    if m == window:
        raise InvariantViolation("distinct canonical forms agree beyond the window")
    return m


def visual_distance(xi, eta):
    """e^(-gromov product); vanishes exactly on the diagonal."""
    return math.exp(-boundary_gromov(xi, eta))


def busemann_on_word(g, w):
    """Busemann value 2 lcp(g, w) - |g| on the cylinder over the reduced word w.

    Every ray through w takes this value unless w is a proper prefix of
    g's word, where the value still depends on the letters past w.
    """
    return 2 * common_prefix_len(g.word, w) - g.length()


def busemann_boundary(g, xi):
    """Horofunction value 2<g, xi> - |g|; integer, between -|g| and |g|."""
    if g.pres is not xi.pres:
        raise InputError("arguments live in different presentations")
    return busemann_on_word(g, xi.prefix(g.length()))


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
# translation maps kept by crossed.StepFunction, by (presentation, word
# of g^-1, depth); each holds one position per word of the deeper
# partition.  Refinement needs no map: it repeats values in place
TRANSLATE_CACHE_SIZE = 128


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


# cylinder masses kept by (rank, length) and powers of 2k-1 by (base,
# exponent); a conformality scan at depth n reads n masses and at most
# 2n + 1 powers
MASS_CACHE_SIZE = 64
POWER_CACHE_SIZE = 64


@functools.lru_cache(maxsize=MASS_CACHE_SIZE)
def _cylinder_mass(rank, length):
    if not length:
        return Fraction(1)
    return Fraction(1, 2 * rank * (2 * rank - 1) ** (length - 1))


@functools.lru_cache(maxsize=POWER_CACHE_SIZE)
def _base_power(base, exponent):
    return Fraction(base) ** exponent


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


@dataclass(frozen=True)
class ConformalityReport:
    g: str
    depth: int
    records: tuple
    all_equal: bool


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
    ok = np.array([r == _base_power(measure.base(), e - depth) for r, e
                   in zip(ratios, (keys % span).tolist())])[pair]

    def record(i, j):
        return ConformalityRecord(cylinder=_spell(pres.alphabet, words[j]),
                                  ratio=ratios[pair[i, j]],
                                  busemann=int(b[i, j]), ok=bool(ok[i, j]))
    return ok, record


def conformality_check(g, depth):
    """Conformality ratios over every cylinder at the given depth.

    The depth must exceed the word length of g so that the busemann value
    is constant on every scanned cylinder, and the scan shares one measure.
    """
    pres = g.pres
    _require_free(pres)
    n = g.length()
    if depth < 1:
        raise InputError("depth must be at least 1")
    if depth < n + 1:
        offending = _spell(pres.alphabet, g.word[:depth])
        raise InputError(
            f"depth {depth} does not determine the busemann value of "
            f"{g.spelled()!r}: not constant on cylinder {offending!r}; "
            f"need depth >= {n + 1}")
    ok, record = _conformality_block(BoundaryMeasure(pres), [g], depth)
    return ConformalityReport(
        g=g.spelled(), depth=depth, all_equal=bool(ok.all()),
        records=tuple(record(0, j) for j in range(ok.shape[1])))


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


@dataclass(frozen=True)
class ConformalIdentityReport:
    g: str
    lhs: int
    rhs: int
    ok: bool


def conformal_identity_check(g, xi, eta):
    """Exponent form of the visual-metric transformation rule.

    Checks 2<g xi, g eta> = -b(g^-1)(xi) - b(g^-1)(eta) + 2<xi, eta>
    in exact integers.
    """
    return conformal_identity_scan([(g, xi, eta)])[0]


def conformal_identity_scan(triples):
    """`conformal_identity_check` of each (g, xi, eta), with every g.xi
    from one window pass over the distinct elements and points."""
    gs = list({g.word: g for g, _, _ in triples}.values())
    points = list(dict.fromkeys(x for t in triples for x in t[1:]))
    moved = _moved_points(gs, points)
    row = {g.word: a for a, g in enumerate(gs)}
    col = {x: b for b, x in enumerate(points)}
    reports = []
    for g, xi, eta in triples:
        if boundary_gromov(xi, eta) == INFINITE_PRODUCT:
            raise InputError("boundary points must be distinct")
        a, gi = row[g.word], g.inverse()
        lhs = 2 * boundary_gromov(moved(a, col[xi]), moved(a, col[eta]))
        rhs = (-busemann_boundary(gi, xi) - busemann_boundary(gi, eta)
               + 2 * boundary_gromov(xi, eta))
        reports.append(ConformalIdentityReport(g=g.spelled(), lhs=lhs,
                                               rhs=rhs, ok=lhs == rhs))
    return reports


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
