"""Exact crossed-product algebra over the free-group boundary.

Elements are finite sums of group terms with cylinder step-function
coefficients.  Products, adjoints, the modular flow at integer multiples
of log(2k-1), the canonical state, and KMS comparisons are all exact
rational computations; real-time flow is the only float path.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantViolation
from .groups import GroupElement, _spell, enumerate_ball
from .boundary import (
    BoundaryMeasure,
    _require_free,
    busemann_boundary,
    busemann_on_word,
    fixed_points,
    reduced_words,
)


class StepFunction:
    """Locally constant function on the boundary, one value per cylinder
    of a fixed-depth partition."""

    __slots__ = ("pres", "depth", "values")

    def __init__(self, pres, depth, values):
        _require_free(pres)
        if depth < 0:
            raise InputError("depth must be nonnegative")
        values = dict(values)
        expected = set(reduced_words(pres, depth))
        if set(values) != expected:
            raise InputError(
                f"step function values must cover the depth-{depth} partition")
        self.pres = pres
        self.depth = depth
        self.values = values

    @classmethod
    def constant(cls, pres, value):
        return cls(pres, 0, {(): value})

    @classmethod
    def indicator(cls, pres, word):
        word = pres.parse_word(word)
        if not word:
            return cls.constant(pres, Fraction(1))
        vals = {w: Fraction(1) if w == word else Fraction(0)
                for w in reduced_words(pres, len(word))}
        return cls(pres, len(word), vals)

    def refine(self, depth):
        if depth < self.depth:
            raise InputError("refinement can only go deeper")
        if depth == self.depth:
            return self
        return StepFunction(self.pres, depth,
                            {w: self.values[w[:self.depth]]
                             for w in reduced_words(self.pres, depth)})

    def _binary(self, other, fn):
        if not isinstance(other, StepFunction) or other.pres is not self.pres:
            raise InputError("operands live on different boundaries")
        d = max(self.depth, other.depth)
        a, b = self.refine(d), other.refine(d)
        return StepFunction(self.pres, d,
                            {w: fn(a.values[w], b.values[w]) for w in a.values})

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._binary(other, lambda x, y: x * y)
        return self.scale(other)

    def scale(self, scalar):
        return StepFunction(self.pres, self.depth,
                            {w: scalar * v for w, v in self.values.items()})

    def conjugate(self):
        return StepFunction(self.pres, self.depth,
                            {w: v.conjugate() if isinstance(v, complex) else v
                             for w, v in self.values.items()})

    def translate(self, g):
        """Pushforward by g: the function xi -> value at g^-1 xi."""
        if g.pres is not self.pres:
            raise InputError("element lives in a different presentation")
        if g.is_identity() or self.depth == 0:
            return self
        pres, d = self.pres, self.depth + g.length()
        h = pres.invert(g.word)
        return StepFunction(pres, d,
                            {w: self.values[pres.multiply(h, w)[:self.depth]]
                             for w in reduced_words(pres, d)})

    def evaluate(self, xi):
        return self.values[xi.prefix(self.depth)]

    def integral(self):
        """Exact integral against the presentation's boundary measure."""
        measure = BoundaryMeasure(self.pres)
        # zero cylinders add nothing to the exact sum; the start keeps the
        # Fraction type when every value is zero
        return sum((measure.word_mass(w) * v for w, v in self.values.items()
                    if v != 0), start=Fraction(0))

    def is_zero(self):
        return all(v == 0 for v in self.values.values())

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
    """(phi g)* = (g^-1 . conj phi) g^-1, extended additively."""
    out = {}
    for g, phi in a.terms.items():
        gi = g.inverse()
        psi = phi.conjugate().translate(gi)
        out[gi] = out[gi] + psi if gi in out else psi
    return CrossedElement(a.pres, out)


@dataclass(frozen=True)
class FlowParameter:
    """Flow time: kind 'real' for unitary time t, 'imaginary' for inverse
    temperature beta (the exact, rational regime)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("real", "imaginary"):
            raise InputError("flow kind must be 'real' or 'imaginary'")
        if not math.isfinite(self.value):
            raise InputError("flow parameter must be finite")

    @classmethod
    def real(cls, t):
        return cls("real", t)

    @classmethod
    def imaginary(cls, beta):
        return cls("imaginary", beta)


def busemann_step(pres, g):
    """b(g) as an integer step function at depth |g|+1."""
    n = g.length()
    return StepFunction(pres, n + 1,
                        {w: busemann_on_word(g, w)
                         for w in reduced_words(pres, n + 1)})


def _temperature_exponent(measure, beta):
    """beta as an integer multiple of log(2k-1), or an input error."""
    base = measure.base()
    m = beta / math.log(base)
    if abs(m - round(m)) > 1e-9:
        raise InputError(
            f"inverse temperature {beta!r} is not an integer multiple of "
            f"log({base}); exact flow values would be irrational, use a "
            f"real-time flow (kind 'real') instead")
    return round(m)


def apply_flow(a, flow):
    """Flow automorphism: multiply the g term by e^(i t b(g)), b the
    Busemann step function.

    At imaginary time i*beta with beta an integer multiple m of log(2k-1)
    the factor is the exact rational (2k-1)^(-m b(g)); any other beta is
    rejected.  Real time gives unit-modulus complex factors.
    """
    pres = a.pres
    if flow.kind == "imaginary":
        measure = BoundaryMeasure(pres)
        m = _temperature_exponent(measure, flow.value)
        base = Fraction(measure.base())

        def weight(b):
            return base ** (-m * b)
    else:
        t = flow.value

        def weight(b):
            return cmath.exp(1j * t * b)
    terms = {}
    for g, phi in a.terms.items():
        c = busemann_step(pres, g)
        terms[g] = phi * StepFunction(pres, c.depth,
                                      {w: weight(v)
                                       for w, v in c.values.items()})
    return CrossedElement(pres, terms)


def state_omega(a):
    """Integrate the identity-term coefficient; the canonical state."""
    phi = a.terms.get(a.pres.identity)
    if phi is None:
        return Fraction(0)
    return phi.integral()


@dataclass(frozen=True)
class KmsReport:
    beta: float
    lhs: Fraction
    rhs: Fraction
    equal: bool


def kms_check(a, b, beta):
    """Compare omega(b sigma_{i beta}(a)) with omega(a b), exactly."""
    flowed = apply_flow(a, FlowParameter.imaginary(beta))
    lhs = state_omega(cp_multiply(b, flowed))
    rhs = state_omega(cp_multiply(a, b))
    return KmsReport(beta=beta, lhs=lhs, rhs=rhs, equal=lhs == rhs)


@dataclass(frozen=True)
class KmsScanReport:
    beta: float
    radius: int
    depth: int
    monomials: int
    pairs: int
    zero_pairs: int
    checked_pairs: int
    crosschecked: int
    failures: tuple
    equal: bool


# monomial pairs the scan re-runs through the generic engine, and failing
# pairs it keeps as witnesses
KMS_CROSSCHECKS = 50
KMS_WITNESSES = 5


def _intersect_prefixes(w, v):
    """Common refinement of two cylinders: the deeper word, or None."""
    if len(w) > len(v):
        w, v = v, w
    return v if v[:len(w)] == w else None


def kms_monomial_scan(pres, radius, depth, beta, seed=0):
    """KMS comparison over every monomial pair 1_{C_w} g, 1_{C_v} h.

    Both state values vanish unless h = g^-1, since only products landing
    on the identity survive the expectation; those pairs are counted as
    zero_pairs in bulk.  The surviving pairs are evaluated through closed
    cylinder formulas, and a seeded sample of them is re-verified through
    the generic product/flow/state machinery.
    """
    measure = BoundaryMeasure(pres)
    if depth < radius + 1:
        raise InputError("scan needs depth > radius so translated cylinders "
                         "stay cylinders")
    m = _temperature_exponent(measure, beta)
    base = Fraction(measure.base())
    ball = enumerate_ball(pres, radius)
    words = reduced_words(pres, depth)
    monomials = len(ball) * len(words)
    pairs = monomials * monomials
    checked = 0
    failures = []
    nonzero = []
    for g in ball.elements:
        gv_words = {v: pres.multiply(g.word, v) for v in words}
        for w in words:
            for v in words:
                # pair A = 1_{C_w} g, B = 1_{C_v} g^-1
                z = _intersect_prefixes(w, gv_words[v])
                if z is None:
                    lhs = rhs = Fraction(0)
                else:
                    rhs = measure.word_mass(z)
                    b = busemann_on_word(g, z)
                    lhs = base ** (-m * b) * measure.word_mass(
                        pres.left_quotient(g.word, z))
                checked += 1
                if lhs != rhs and len(failures) < KMS_WITNESSES:
                    failures.append((
                        g.spelled(), _spell(pres.alphabet, w),
                        _spell(pres.alphabet, v), lhs, rhs))
                if lhs != 0 or rhs != 0:
                    nonzero.append((g, w, v, lhs, rhs))
    rng = random.Random(seed)
    sample = rng.sample(nonzero, min(KMS_CROSSCHECKS, len(nonzero)))
    for g, w, v, lhs, rhs in sample:
        a = CrossedElement.monomial(pres, w, g)
        b_el = CrossedElement.monomial(pres, v, g.inverse())
        rep = kms_check(a, b_el, beta)
        if (rep.lhs, rep.rhs) != (lhs, rhs):
            raise InvariantViolation(
                f"closed-form KMS values disagree with the generic engine "
                f"for g={g.spelled()!r} w={_spell(pres.alphabet, w)!r} "
                f"v={_spell(pres.alphabet, v)!r}")
    return KmsScanReport(
        beta=beta,
        radius=radius,
        depth=depth,
        monomials=monomials,
        pairs=pairs,
        zero_pairs=pairs - checked,
        checked_pairs=checked,
        crosschecked=len(sample),
        failures=tuple(failures),
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
        at_plus = busemann_boundary(g, plus)
        at_minus = busemann_boundary(g, minus)
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


def crossed_records(a):
    """Deterministic serializable form: (group word, [(cylinder, value)])."""
    out = []
    for g in sorted(a.terms):
        phi = a.terms[g]
        rows = [(_spell(a.pres.alphabet, w), phi.values[w])
                for w in sorted(phi.values, key=lambda w: (len(w), w))]
        out.append((g.spelled(), rows))
    return out
