"""Exact crossed-product algebra over the free-group boundary.

Elements are finite sums of group terms with cylinder step-function
coefficients.  A step function is the tuple of its values in the order
of `reduced_words(pres, depth)`, so a cylinder's position is its key:
refinement repeats each value, pointwise operations map over aligned
tuples, and translation gathers through a cached position map.  Products,
adjoints, the modular flow at an exact rational lambda = e^(-beta), the
canonical state, and KMS comparisons are all exact rational computations.
"""

import functools
import operator
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantViolation
from .groups import GroupElement, _spell, enumerate_ball
from .boundary import (
    PARTITION_CACHE_SIZE,
    TRANSLATE_CACHE_SIZE,
    BoundaryMeasure,
    _check_reduced,
    _cylinder_mass,
    _require_free,
    busemann_on_word,
    fixed_points,
    reduced_words,
)


@functools.lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _cylinder_index(pres, depth):
    """Position of each word in the depth-`depth` partition."""
    return {w: i for i, w in enumerate(reduced_words(pres, depth))}


@functools.lru_cache(maxsize=TRANSLATE_CACHE_SIZE)
def _translate_map(pres, h, depth):
    """For each word w of the depth-(depth + |h|) partition, the position
    of (hw)[:depth] in the depth-`depth` partition; one product per word."""
    index = _cylinder_index(pres, depth)
    return tuple([index[pres.multiply(h, w)[:depth]]
                  for w in reduced_words(pres, depth + len(h))])


def _times(x, y):
    """x * y; a zero Fraction factor times a Fraction is returned as is,
    with no Fraction arithmetic.  Other types multiply as Python does."""
    if x.__class__ is Fraction and y.__class__ is Fraction:
        if not x:
            return x
        if not y:
            return y
    return x * y


class StepFunction:
    """Locally constant function on the boundary, one value per cylinder
    of a fixed-depth partition: `values[i]` is the value on the cylinder
    over `reduced_words(pres, depth)[i]`."""

    __slots__ = ("pres", "depth", "values")

    def __init__(self, pres, depth, values):
        _require_free(pres)
        if depth < 0:
            raise InputError("depth must be nonnegative")
        if isinstance(values, Mapping):
            raise InputError(
                "step function values are a sequence, one per cylinder in "
                "reduced_words(pres, depth) order, not a mapping from words")
        values = tuple(values)
        if len(values) != len(reduced_words(pres, depth)):
            raise InputError(
                f"step function values must cover the depth-{depth} partition")
        self.pres = pres
        self.depth = depth
        self.values = values

    @classmethod
    def constant(cls, pres, value):
        return cls(pres, 0, (value,))

    @classmethod
    def indicator(cls, pres, word):
        word = pres.parse_word(word)
        _check_reduced(pres, word, "cylinder word")
        values = [Fraction(0)] * len(reduced_words(pres, len(word)))
        values[_cylinder_index(pres, len(word))[word]] = Fraction(1)
        return cls(pres, len(word), values)

    def refine(self, depth):
        if depth < self.depth:
            raise InputError("refinement can only go deeper")
        if depth == self.depth:
            return self
        # the extensions of a word are contiguous and equally many in the
        # deeper partition, so each value repeats in place
        n = len(reduced_words(self.pres, depth)) // len(self.values)
        return StepFunction(self.pres, depth,
                            [v for v in self.values for _ in range(n)])

    def _binary(self, other, fn):
        if not isinstance(other, StepFunction) or other.pres is not self.pres:
            raise InputError("operands live on different boundaries")
        d = max(self.depth, other.depth)
        return StepFunction(self.pres, d, map(fn, self.refine(d).values,
                                              other.refine(d).values))

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._binary(other, _times)
        return self.scale(other)

    def scale(self, scalar):
        return StepFunction(self.pres, self.depth,
                            [scalar * v for v in self.values])

    def translate(self, g):
        """Pushforward by g: the function xi -> value at g^-1 xi."""
        if g.pres is not self.pres:
            raise InputError("element lives in a different presentation")
        if g.is_identity() or self.depth == 0:
            return self
        positions = _translate_map(self.pres, self.pres.invert(g.word),
                                   self.depth)
        return StepFunction(self.pres, self.depth + g.length(),
                            map(self.values.__getitem__, positions))

    def integral(self):
        """Exact integral against the presentation's boundary measure."""
        # every cylinder of one depth has the same mass; zero cylinders add
        # nothing to the exact sum, and the start keeps the Fraction type
        # when every value is zero
        mass = _cylinder_mass(BoundaryMeasure(self.pres).rank, self.depth)
        return sum((mass * v for v in self.values if v), start=Fraction(0))

    def is_zero(self):
        return not any(self.values)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        if other.pres is not self.pres:
            return False
        d = max(self.depth, other.depth)
        return self.refine(d).values == other.refine(d).values

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
    return StepFunction(pres, n + 1, [busemann_on_word(g, w)
                                      for w in reduced_words(pres, n + 1)])


def _lambda_powers(lam, reach):
    """lam ** b for every integer b with |b| <= reach, as exact rationals:
    the Busemann values of an element of length at most reach."""
    exact = lam.__class__ is int or isinstance(lam, Fraction)
    if not exact or lam <= 0:
        raise InputError(
            f"lambda = e^(-beta) must be a positive int or Fraction, got "
            f"{lam!r}")
    lam = Fraction(lam)
    return {b: lam ** b for b in range(-reach, reach + 1)}


def apply_flow(a, lam):
    """Flow automorphism at imaginary time i*beta, lam = e^(-beta) > 0 an
    int or Fraction: multiply the g term by the exact rational
    lam^b(g) = e^(-beta b(g)), b the Busemann step function."""
    pres = a.pres
    powers = _lambda_powers(lam, max((g.length() for g in a.terms),
                                     default=0))
    terms = {}
    for g, phi in a.terms.items():
        c = busemann_step(pres, g)
        terms[g] = phi * StepFunction(pres, c.depth,
                                      map(powers.__getitem__, c.values))
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
    lam: Fraction
    radius: int
    depth: int
    monomials: int
    pairs: int
    zero_pairs: int
    checked_pairs: int
    crosschecked: int
    failures: tuple
    equal: bool
    # (g, w, v, b, mass C_(g^-1 z), mass C_z) per meeting pair, in scan
    # order: its KMS equation at any lam is lam^b * the first = the second
    binomials: tuple

    def failures_at(self, lam):
        """The first KMS_WITNESSES meeting pairs whose binomial fails at
        lam, spelled (g, w, v, lhs, rhs), each confirmed by the engine."""
        return _kms_failures(self.binomials, lam, self.radius)


# monomial pairs the scan re-runs through the generic engine, and failing
# pairs it keeps as witnesses
KMS_CROSSCHECKS = 50
KMS_WITNESSES = 5


def _engine_check(g, w, v, lam, lhs, rhs):
    """Raise unless the generic engine gives lhs, rhs at lam for the pair
    1_{C_w} g, 1_{C_v} g^-1."""
    rep = kms_check(CrossedElement.monomial(g.pres, w, g),
                    CrossedElement.monomial(g.pres, v, g.inverse()), lam)
    if (rep.lhs, rep.rhs) != (lhs, rhs):
        raise InvariantViolation(
            f"closed-form KMS values disagree with the generic engine "
            f"for g={g.spelled()!r} w={_spell(g.pres.alphabet, w)!r} "
            f"v={_spell(g.pres.alphabet, v)!r}")


def _kms_failures(binomials, lam, reach):
    """`KmsScanReport.failures_at` for binomials of a radius-reach ball."""
    powers = _lambda_powers(lam, reach)
    failures = []
    for g, w, v, b, below, rhs in binomials:
        lhs = powers[b] * below
        if lhs != rhs and len(failures) < KMS_WITNESSES:
            _engine_check(g, w, v, lam, lhs, rhs)
            failures.append((g.spelled(), _spell(g.pres.alphabet, w),
                             _spell(g.pres.alphabet, v), lhs, rhs))
    return tuple(failures)


def kms_monomial_scan(pres, radius, depth, lam, seed=0):
    """KMS comparison at lam = e^(-beta) over every monomial pair
    1_{C_w} g, 1_{C_v} h.

    Both state values vanish unless h = g^-1, since only products landing
    on the identity survive the expectation; those pairs are counted as
    zero_pairs in bulk.  The surviving pairs are kept as binomials in lam
    from closed cylinder formulas, and a seeded sample of them is checked
    at lam against the generic product/flow/state machinery.
    """
    measure = BoundaryMeasure(pres)
    if depth < radius + 1:
        raise InputError("scan needs depth > radius so translated cylinders "
                         "stay cylinders")
    powers = _lambda_powers(lam, radius)
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
    rng = random.Random(seed)
    sample = rng.sample(binomials, min(KMS_CROSSCHECKS, len(binomials)))
    for g, w, v, b, below, rhs in sample:
        _engine_check(g, w, v, lam, powers[b] * below, rhs)
    failures = _kms_failures(binomials, lam, radius)
    return KmsScanReport(
        lam=lam,
        radius=radius,
        depth=depth,
        monomials=monomials,
        pairs=pairs,
        zero_pairs=pairs - checked,
        checked_pairs=checked,
        crosschecked=len(sample),
        failures=failures,
        equal=not failures,
        binomials=tuple(binomials),
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

