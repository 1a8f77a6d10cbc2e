"""Exact crossed-product algebra over the free-group boundary.

Elements are finite sums of group terms with cylinder step-function
coefficients.  A step function is its support: the nonzero values keyed
by position in `reduced_words(pres, depth)`.  Zeros are never stored, so
no operation multiplies, tests or integrates them: refinement sends
position i to the m positions i*m ... i*m + m - 1 of its extensions,
products multiply only positions in both supports, and translation
spreads each value over a cached list of preimage positions.  Products,
adjoints, the modular flow at an exact rational lambda = e^(-beta), the
canonical state, and KMS comparisons are all exact rational computations.
"""

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantViolation
from .groups import GroupElement, _spell, enumerate_ball
from .boundary import (
    PARTITION_CACHE_SIZE,
    BoundaryMeasure,
    _check_reduced,
    _cylinder_mass,
    _require_free,
    busemann_on_word,
    fixed_points,
    reduced_words,
)


# preimage lists kept by StepFunction.translate, by (presentation,
# word of g^-1, depth): one per cylinder of the partition, a range of
# deeper positions once depth > |g|.  `kms free:3 --seed 3` keeps 63 in
# about 0.6 MB (1.0 MB as the forward position maps they replaced).
# Refinement needs none: position i maps to a run of deeper positions
TRANSLATE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _cylinder_index(pres, depth):
    """Position of each word in the depth-`depth` partition."""
    return {w: i for i, w in enumerate(reduced_words(pres, depth))}


@functools.lru_cache(maxsize=TRANSLATE_CACHE_SIZE)
def _preimages(pres, h, depth):
    """For each position i of the depth-`depth` partition, the positions
    of the depth-(depth + |h|) words w with (hw)[:depth] at i: where the
    translate by h^-1 takes cylinder i's value.  One product per word.
    When depth > |h| they are the cylinder over h^-1 u, u the i-th word,
    so one run of positions, kept as a range."""
    index = _cylinder_index(pres, depth)
    lists = [[] for _ in index]
    for j, w in enumerate(reduced_words(pres, depth + len(h))):
        lists[index[pres.multiply(h, w)[:depth]]].append(j)
    return tuple(range(js[0], js[-1] + 1) if js[-1] - js[0] < len(js)
                 else tuple(js) for js in lists)


def _ratio(pres, deep, shallow):
    """How many depth-`deep` cylinders each depth-`shallow` one holds."""
    return len(reduced_words(pres, deep)) // len(reduced_words(pres, shallow))


class StepFunction:
    """Locally constant function on the boundary, constant on each
    cylinder of a fixed-depth partition: `support[i]` is the nonzero
    value on the cylinder over `reduced_words(pres, depth)[i]`, and every
    cylinder missing from `support` carries zero."""

    __slots__ = ("pres", "depth", "support")

    def __init__(self, pres, depth, support):
        _require_free(pres)
        if depth < 0:
            raise InputError("depth must be nonnegative")
        size = len(reduced_words(pres, depth))
        support = dict(support)
        if not all(i.__class__ is int and 0 <= i < size for i in support):
            raise InputError(
                f"step function support is keyed by position 0..{size - 1} "
                f"in reduced_words(pres, {depth}), not by word")
        self.pres = pres
        self.depth = depth
        self.support = {i: v for i, v in support.items() if v}

    @classmethod
    def _of(cls, pres, depth, support):
        """A step function on valid positions, with no zero value."""
        phi = cls.__new__(cls)
        phi.pres, phi.depth, phi.support = pres, depth, support
        return phi

    @classmethod
    def constant(cls, pres, value):
        return cls(pres, 0, {0: value})

    @classmethod
    def indicator(cls, pres, word):
        word = pres.parse_word(word)
        _check_reduced(pres, word, "cylinder word")
        return cls._of(pres, len(word),
                       {_cylinder_index(pres, len(word))[word]: Fraction(1)})

    def refine(self, depth):
        if depth < self.depth:
            raise InputError("refinement can only go deeper")
        if depth == self.depth:
            return self
        # the extensions of a word are contiguous and equally many in the
        # deeper partition
        m = _ratio(self.pres, depth, self.depth)
        return StepFunction._of(self.pres, depth, {
            j: v for i, v in self.support.items()
            for j in range(i * m, i * m + m)})

    def _aligned(self, other):
        if not isinstance(other, StepFunction) or other.pres is not self.pres:
            raise InputError("operands live on different boundaries")
        return max(self.depth, other.depth)

    def __add__(self, other):
        d = self._aligned(other)
        total = dict(self.refine(d).support)
        for j, v in other.refine(d).support.items():
            if j in total:
                v = total.pop(j) + v
                if not v:
                    continue
            total[j] = v
        return StepFunction._of(self.pres, d, total)

    def __mul__(self, other):
        if not isinstance(other, StepFunction):
            return self.scale(other)
        d = self._aligned(other)
        # each value of the deeper factor meets the shallower factor's on
        # the cylinder that holds it; products of exact nonzeros are nonzero
        fine, coarse = (self, other) if self.depth == d else (other, self)
        m, near = _ratio(self.pres, d, coarse.depth), coarse.support
        return StepFunction._of(self.pres, d, {
            j: v * near[j // m] for j, v in fine.support.items()
            if j // m in near})

    def scale(self, scalar):
        return StepFunction._of(self.pres, self.depth, {
            i: scalar * v for i, v in self.support.items()} if scalar else {})

    def translate(self, g):
        """Pushforward by g: the function xi -> value at g^-1 xi."""
        if g.pres is not self.pres:
            raise InputError("element lives in a different presentation")
        if g.is_identity() or self.depth == 0:
            return self
        preimages = _preimages(self.pres, self.pres.invert(g.word),
                               self.depth)
        return StepFunction._of(self.pres, self.depth + g.length(), {
            j: v for i, v in self.support.items() for j in preimages[i]})

    def integral(self):
        """Exact integral against the presentation's boundary measure."""
        # every cylinder of one depth has the same mass, and the start
        # keeps the Fraction type when the support is empty
        mass = _cylinder_mass(BoundaryMeasure(self.pres).rank, self.depth)
        return mass * sum(self.support.values(), start=Fraction(0))

    def is_zero(self):
        return not self.support

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        if other.pres is not self.pres:
            return False
        d = max(self.depth, other.depth)
        return self.refine(d).support == other.refine(d).support

    def __hash__(self):
        raise TypeError("step functions are not hashable")

    def __repr__(self):
        return f"<StepFunction depth={self.depth}>"


class CrossedElement:
    """Finite formal sum of step-function coefficients times group elements."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        _require_free(pres)
        clean = {}
        for g, phi in dict(terms).items():
            if not isinstance(g, GroupElement) or g.pres is not pres:
                raise InputError("term keys must be elements of the same group")
            if phi.pres is not pres:
                raise InputError("coefficient lives on a different boundary")
            if not phi.is_zero():
                clean[g] = phi
        self.pres = pres
        self.terms = clean

    @classmethod
    def monomial(cls, pres, coefficient, g):
        """coefficient * g; the coefficient may be a word/cylinder spelling,
        in which case it means that cylinder's indicator."""
        if not isinstance(coefficient, StepFunction):
            coefficient = StepFunction.indicator(pres, coefficient)
        return cls(pres, {g: coefficient})

    @classmethod
    def unit(cls, pres):
        return cls.monomial(pres, StepFunction.constant(pres, Fraction(1)),
                            pres.identity)

    def __add__(self, other):
        if not isinstance(other, CrossedElement) or other.pres is not self.pres:
            return NotImplemented
        terms = dict(self.terms)
        for g, phi in other.terms.items():
            terms[g] = terms[g] + phi if g in terms else phi
        return CrossedElement(self.pres, terms)

    def __mul__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return cp_multiply(self, other)

    def adjoint(self):
        return cp_adjoint(self)

    def __eq__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return (self.pres is other.pres
                and set(self.terms) == set(other.terms)
                and all(self.terms[g] == other.terms[g] for g in self.terms))

    def __hash__(self):
        raise TypeError("crossed-product elements are not hashable")

    def __repr__(self):
        body = " + ".join(f"[{g.spelled()}]" for g in sorted(self.terms))
        return f"<CrossedElement {body or '0'}>"


def cp_multiply(a, b):
    """(phi g)(psi h) = phi (g.psi) gh, extended bilinearly."""
    if a.pres is not b.pres:
        raise InputError("operands live over different groups")
    out = {}
    for g, phi in a.terms.items():
        for h, psi in b.terms.items():
            gh = g * h
            addend = phi * psi.translate(g)
            out[gh] = out[gh] + addend if gh in out else addend
    return CrossedElement(a.pres, out)


def cp_adjoint(a):
    """(phi g)* = (g^-1 . phi) g^-1, extended additively; coefficients are
    exact rationals, so each is its own complex conjugate."""
    out = {}
    for g, phi in a.terms.items():
        gi = g.inverse()
        psi = phi.translate(gi)
        out[gi] = out[gi] + psi if gi in out else psi
    return CrossedElement(a.pres, out)


def busemann_step(pres, g):
    """b(g) as an integer step function at depth |g|+1."""
    n = g.length()
    return StepFunction(pres, n + 1, enumerate(
        busemann_on_word(g, w) for w in reduced_words(pres, n + 1)))


def _lambda_powers(lam, reach):
    """lam ** b for every integer b with |b| <= reach, as exact rationals:
    the Busemann values of an element of length at most reach."""
    exact = lam.__class__ is int or isinstance(lam, Fraction)
    if not exact or lam <= 0:
        raise InputError(
            f"lambda = e^(-beta) must be a positive int or Fraction, got "
            f"{lam!r}")
    return _power_table(Fraction(lam), reach)


@functools.lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _power_table(lam, reach):
    """`_lambda_powers` of a Fraction, built once per (lam, reach), of
    which a run reads a few per depth, and shared: callers only read it."""
    return {b: lam ** b for b in range(-reach, reach + 1)}


def apply_flow(a, lam):
    """Flow automorphism at imaginary time i*beta, lam = e^(-beta) > 0 an
    int or Fraction: multiply the g term by the exact rational
    lam^b(g) = e^(-beta b(g)), b the Busemann step function, read only at
    the term's support positions (lam^b is 1 off b's own support)."""
    pres = a.pres
    powers = _lambda_powers(lam, max((g.length() for g in a.terms),
                                     default=0))
    terms = {}
    for g, phi in a.terms.items():
        b = busemann_step(pres, g)
        phi = phi.refine(max(phi.depth, b.depth))
        m = _ratio(pres, phi.depth, b.depth)
        terms[g] = StepFunction._of(pres, phi.depth, {
            j: v * powers[b.support.get(j // m, 0)]
            for j, v in phi.support.items()})
    return CrossedElement(pres, terms)


def state_omega(a):
    """Integrate the identity-term coefficient; the canonical state."""
    phi = a.terms.get(a.pres.identity)
    if phi is None:
        return Fraction(0)
    return phi.integral()


@dataclass(frozen=True)
class KmsReport:
    lam: Fraction
    lhs: Fraction
    rhs: Fraction
    equal: bool


def kms_check(a, b, lam):
    """Compare omega(b sigma_{i beta}(a)) with omega(a b) exactly, at
    lam = e^(-beta)."""
    flowed = apply_flow(a, lam)
    lhs = state_omega(cp_multiply(b, flowed))
    rhs = state_omega(cp_multiply(a, b))
    return KmsReport(lam=lam, lhs=lhs, rhs=rhs, equal=lhs == rhs)


@dataclass(frozen=True)
class KmsScanReport:
    lam: Fraction           # the solved lam, None when no pair forces one
    monomials: int
    pairs: int
    zero_pairs: int
    checked_pairs: int
    crosschecked: int
    forcing_pairs: int      # meeting pairs with b != 0, each forcing lam
    first_forcing: tuple    # (g, w, v) of the first of them, or None
    neutral_pairs: int      # meeting pairs with b == 0
    failures: tuple
    equal: bool


# monomial pairs the scan re-runs through the generic engine
KMS_CROSSCHECKS = 50


def monomial_pair_kms(g, w, v, lam):
    """The generic engine's KMS comparison at lam for the pair 1_{C_w} g,
    1_{C_v} g^-1, spelled (g, w, v, lhs, rhs)."""
    rep = kms_check(CrossedElement.monomial(g.pres, w, g),
                    CrossedElement.monomial(g.pres, v, g.inverse()), lam)
    return (g.spelled(), _spell(g.pres.alphabet, w),
            _spell(g.pres.alphabet, v), rep.lhs, rep.rhs)


def _engine_check(g, w, v, lam, lhs, rhs):
    """`monomial_pair_kms`, raising unless it gives lhs, rhs."""
    pair = monomial_pair_kms(g, w, v, lam)
    if pair[3:] != (lhs, rhs):
        raise InvariantViolation(
            f"closed-form KMS values disagree with the generic engine "
            f"for g={pair[0]!r} w={pair[1]!r} v={pair[2]!r}")
    return pair


def kms_monomial_scan(pres, radius, depth, seed=0):
    """Solve for the lam = e^(-beta) at which every monomial pair
    1_{C_w} g, 1_{C_v} h meets the KMS condition, and check it there.

    Both state values vanish unless h = g^-1, since only products landing
    on the identity survive the expectation; those pairs are counted as
    zero_pairs in bulk.  The others give binomials lam^b * mass(C_(g^-1 z))
    = mass(C_z); the first with |b| = 1 gives lam, each distinct one is
    checked at it, and its failures and a seeded sample of pairs are
    rerun through the generic product/flow/state machinery.
    """
    measure = BoundaryMeasure(pres)
    if depth < radius + 1:
        raise InputError("scan needs depth > radius so translated cylinders "
                         "stay cylinders")
    ball = enumerate_ball(pres, radius)
    words = reduced_words(pres, depth)
    monomials = len(ball) * len(words)
    pairs = monomials * monomials
    checked = len(ball) * len(words) ** 2
    binomials = []
    for g in ball.elements:
        # pair A = 1_{C_w} g, B = 1_{C_v} g^-1: both state values vanish
        # unless C_w meets g C_v = C_{gv}, that is unless w starts with
        # gv[:depth], a word of depth - |g| to depth letters
        meets = {}
        for i, v in enumerate(words):
            gv = pres.multiply(g.word, v)
            meets.setdefault(gv[:depth], []).append((i, v, gv))
        for w in words:
            hits = sorted(hit for n in range(depth - g.length(), depth + 1)
                          for hit in meets.get(w[:n], ()))
            for _, v, gv in hits:
                z = gv if len(gv) >= depth else w    # the deeper cylinder
                binomials.append((
                    g, w, v, busemann_on_word(g, z),
                    measure.word_mass(pres.left_quotient(g.word, z)),
                    measure.word_mass(z)))
    # each distinct equation with its first pair, in scan order; the
    # masses are keyed as int pairs, which hash far faster than Fractions
    equations = {}
    for pair in binomials:
        equations.setdefault((pair[3], pair[4].as_integer_ratio(),
                              pair[5].as_integer_ratio()), pair)
    # a generator's Busemann values are +-1, so |b| = 1 occurs whenever
    # some b != 0; with none, any value checks b = 0, and 1 is used
    lam = next(((rhs / below) ** b for *_, b, below, rhs in
                equations.values() if abs(b) == 1), None)
    at = lam or 1
    rng = random.Random(seed)
    sample = rng.sample(binomials, min(KMS_CROSSCHECKS, len(binomials)))
    for g, w, v, b, below, rhs in sample:
        _engine_check(g, w, v, at, at ** b * below, rhs)
    failures = tuple(_engine_check(g, w, v, at, at ** b * below, rhs)
                     for g, w, v, b, below, rhs in equations.values()
                     if at ** b * below != rhs)
    forcing = [pair[:3] for pair in binomials if pair[3]]
    return KmsScanReport(
        lam=lam,
        monomials=monomials,
        pairs=pairs,
        zero_pairs=pairs - checked,
        checked_pairs=checked,
        crosschecked=len(sample),
        forcing_pairs=len(forcing),
        first_forcing=forcing[0] if forcing else None,
        neutral_pairs=len(binomials) - len(forcing),
        failures=failures,
        equal=not failures,
    )


@dataclass(frozen=True)
class NonvanishingRecord:
    g: str
    translation: int
    at_plus: int
    at_minus: int
    ok: bool


@dataclass(frozen=True)
class NonvanishingReport:
    radius: int
    records: tuple
    all_ok: bool


def nonvanishing_certificate(ball):
    """Busemann values at both fixed points of every non-identity element.

    The value at the attracting point must be the translation length,
    strictly positive, with its negative at the repelling point.  The
    translation length is re-derived from word lengths of powers as an
    independent route.
    """
    _require_free(ball.pres)
    records = []
    for g in ball.elements:
        if g.is_identity():
            continue
        plus, minus, ell = fixed_points(g)
        at_plus = busemann_on_word(g, plus.prefix(g.length()))
        at_minus = busemann_on_word(g, minus.prefix(g.length()))
        growth = (g ** 4).length() - (g ** 3).length()
        ok = (at_plus == ell == growth and at_plus > 0 and at_minus == -at_plus)
        records.append(NonvanishingRecord(
            g=g.spelled(), translation=ell,
            at_plus=at_plus, at_minus=at_minus, ok=ok))
    return NonvanishingReport(
        radius=ball.radius,
        records=tuple(records),
        all_ok=all(r.ok for r in records),
    )

