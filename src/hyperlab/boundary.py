"""Exact boundary model for free groups.

Boundary points of a free group are infinite reduced words.  This module
works with the eventually periodic ones, stored as a preperiod plus a
repeating block in canonical form, so equality, the left action, Gromov
products, the Busemann cocycle, cylinder measures and conformality are
all exact integer or rational computations.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantViolation, UnsupportedElementError
from .groups import GroupElement, _spell, common_prefix_len, cyclically_reduce

INFINITE_PRODUCT = math.inf


def _require_free(pres):
    if pres.kind != "free":
        raise UnsupportedElementError(
            f"the exact boundary model needs a free presentation, got {pres.kind!r}")


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

    def starts_with(self, word):
        word = tuple(word)
        return self.prefix(len(word)) == word

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


def parse_boundary_point(pres, text):
    """Inverse of BoundaryPoint.spelled: 'u|c' with '1' for an empty u."""
    if text.count("|") != 1:
        raise InputError(f"boundary point text {text!r} must look like 'u|c'")
    left, right = text.split("|")
    return boundary_point(pres, left, right)


def act(g, xi):
    """Left action of the group on its boundary."""
    if g.pres is not xi.pres:
        raise InputError("element and boundary point live in different presentations")
    # the product cancels at most |g| <= q|c| letters of the head, so the
    # periods after the head stay as they are
    c = xi.period
    q = -(-g.length() // len(c))
    head = xi.prefix(len(xi.preperiod) + q * len(c))
    return BoundaryPoint(g.pres, g.pres.multiply(g.word, head), c)


def boundary_gromov(x, y):
    """Gromov product based at the identity; INFINITE_PRODUCT when x == y on the boundary.

    Accepts group elements, boundary points, or one of each; in a tree the
    product is the length of the longest common prefix.
    """
    if isinstance(x, GroupElement) and isinstance(y, GroupElement):
        if x.pres is not y.pres:
            raise InputError("arguments live in different presentations")
        _require_free(x.pres)
        return common_prefix_len(x.word, y.word)
    if isinstance(x, GroupElement):
        x, y = y, x
    if isinstance(y, GroupElement):
        if x.pres is not y.pres:
            raise InputError("arguments live in different presentations")
        return common_prefix_len(y.word, x.prefix(len(y.word)))
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


class Cylinder:
    """Boundary points whose infinite word starts with a fixed prefix."""

    __slots__ = ("pres", "prefix")

    def __init__(self, pres, prefix):
        _require_free(pres)
        prefix = tuple(prefix)
        if not prefix:
            raise InputError("cylinder prefix must be nonempty")
        _check_reduced(pres, prefix, "cylinder prefix")
        self.pres = pres
        self.prefix = prefix

    def depth(self):
        return len(self.prefix)

    def contains(self, xi):
        return xi.starts_with(self.prefix)

    def spelled(self):
        return _spell(self.pres.alphabet, self.prefix)

    def __eq__(self, other):
        if not isinstance(other, Cylinder):
            return NotImplemented
        return self.pres is other.pres and self.prefix == other.prefix

    def __hash__(self):
        return hash((id(self.pres), self.prefix))

    def __repr__(self):
        return f"<C_{self.spelled()}>"


def cylinder(pres, spec):
    if isinstance(spec, Cylinder):
        return spec
    return Cylinder(pres, pres.parse_word(spec))


def reduced_words(pres, length):
    """All reduced words of the given length, in symbol order."""
    _require_free(pres)
    if length < 0:
        raise InputError("length must be nonnegative")
    inv = pres.alphabet.inverse
    letters = range(len(pres.alphabet))
    words = [()] if length == 0 else [(s,) for s in letters]
    for _ in range(max(0, length - 1)):
        words = [w + (s,) for w in words for s in letters if s != inv[w[-1]]]
    return words


class BoundaryMeasure:
    """Uniform cylinder measure, normalised to total mass one."""

    __slots__ = ("pres", "rank")

    def __init__(self, pres):
        _require_free(pres)
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
        if not word:
            return Fraction(1)
        k = self.rank
        return Fraction(1, 2 * k * (2 * k - 1) ** (len(word) - 1))

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

    def failures(self):
        return [r for r in self.records if not r.ok]


def conformality_ratio(g, cyl):
    """Measure ratio of g^-1 C_w to C_w against the predicted power of 2k-1.

    The two sides come from independent routes: group multiplication plus
    the mass formula for the ratio, prefix matching for the busemann
    exponent.  The busemann value must be constant on the cylinder, which
    fails exactly when the prefix is a proper prefix of g's word.
    """
    pres = g.pres
    cyl = cylinder(pres, cyl)
    measure = BoundaryMeasure(pres)
    w = cyl.prefix
    t = common_prefix_len(g.word, w)
    if t == len(w) and len(w) < g.length():
        raise InputError(
            f"busemann value of {g.spelled()!r} is not constant on "
            f"cylinder {cyl.spelled()!r}; need a deeper cylinder")
    if t == len(w) == g.length():
        # w is exactly g's word: the pullback misses only the cylinder
        # over the inverse of g's last letter
        pulled_mass = 1 - measure.word_mass((pres.alphabet.inverse[w[-1]],))
    else:
        pulled_mass = measure.word_mass(pres.left_quotient(g.word, w))
    ratio = pulled_mass / measure.word_mass(w)
    b = busemann_on_word(g, w)
    return ConformalityRecord(
        cylinder=cyl.spelled(),
        ratio=ratio,
        busemann=b,
        ok=ratio == Fraction(measure.base()) ** b,
    )


def conformality_check(g, depth):
    """Run conformality_ratio over every cylinder at the given depth.

    The depth must exceed the word length of g so that the busemann value
    is constant on every scanned cylinder.
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
    records = [conformality_ratio(g, Cylinder(pres, w))
               for w in reduced_words(pres, depth)]
    return ConformalityReport(
        g=g.spelled(),
        depth=depth,
        records=tuple(records),
        all_equal=all(r.ok for r in records),
    )


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
    if boundary_gromov(xi, eta) == INFINITE_PRODUCT:
        raise InputError("boundary points must be distinct")
    gi = g.inverse()
    lhs = 2 * boundary_gromov(act(g, xi), act(g, eta))
    rhs = (-busemann_boundary(gi, xi) - busemann_boundary(gi, eta)
           + 2 * boundary_gromov(xi, eta))
    return ConformalIdentityReport(g=g.spelled(), lhs=lhs, rhs=rhs, ok=lhs == rhs)


def seeded_family(pres, count=50, seed=0):
    """Deterministic family of distinct eventually periodic points."""
    _require_free(pres)
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
