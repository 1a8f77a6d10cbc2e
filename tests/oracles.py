"""Reference routes that tests compare the library against."""
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np

from hyperlab import boundary, groups, kernels, metrics
from hyperlab.errors import (InputError, InvariantViolation,
                             ResourceLimitError)
from hyperlab.groups import (GroupElement, _free_reduce, _invert_word, _spell,
                             common_prefix_len)

# largest ball the quadratic pairwise enumeration builds
PAIRWISE_ELEMENT_CAP = 20_000


def is_trivial(pres, word):
    """Dehn's algorithm: the element is trivial iff greedy replacement
    of more-than-half relator subwords empties the word."""
    if pres.kind != "small-cancellation":
        return pres.normalize(word) == ()
    return pres.dehn_reduce(word) == ()


def enumerate_ball_pairwise(pres, radius):
    """Ball enumeration deduplicating with is_trivial(g h^-1) only.

    Quadratic, and independent of the canonical-form route.  Returns the
    spheres as lists of freely reduced (not canonicalized) words.
    """
    inv = pres.alphabet.inverse
    spheres = [[()]]
    known = [()]
    for _ in range(radius):
        layer = []
        for w in spheres[-1]:
            for s in range(len(pres.alphabet.symbols)):
                cand = _free_reduce(inv, w + (s,))
                dup = False
                for v in itertools.chain(known, layer):
                    if is_trivial(pres, cand + _invert_word(inv, v)):
                        dup = True
                        break
                if not dup:
                    layer.append(cand)
                    if len(known) + len(layer) > PAIRWISE_ELEMENT_CAP:
                        raise ResourceLimitError("pairwise ball cap exceeded")
        known.extend(layer)
        spheres.append(layer)
    return spheres


def busemann_group(g, x):
    """b(g)(x) = |x| - |g^-1 x|, an exact integer."""
    if g.pres is not x.pres:
        raise InputError("elements live in different presentations")
    return x.length() - len(g.pres.left_quotient(g.word, x.word))


def rough_geodesic(metric, x, y):
    """Canonical-word path from x to y parametrized by distance from x."""
    metric._check(x, y)
    pres = metric.pres
    letters = pres.left_quotient(x.word, y.word)
    points = [(0 if metric.exact else 0.0, x)]
    g = x
    for sym in letters:
        g = GroupElement(pres, pres.multiply(g.word, (sym,)))
        points.append((metric.distance(x, g), g))
    return points


def holds_move_window(pres, word):
    """Whether word holds the first ceil(|r|/2) letters of a relator
    rotation, the subwords that Dehn moves replace, by a scan of every
    subword."""
    windows = {rot[: (len(rot) + 1) // 2] for rot in pres._rotations}
    return any(word[i:j] in windows
               for i in range(len(word)) for j in range(i + 1, len(word) + 1))


def move_closure_normal_form(pres, word):
    """Shortlex-least word of the Dehn-move closure of word, searched in
    full on every call: no cache, and no shortcut for words without a
    move window."""
    word = _free_reduce(pres.alphabet.inverse, tuple(word))
    seen = {word}
    frontier = [word]
    while frontier:
        new = []
        for w in frontier:
            for w2 in pres._sc_moves(w):
                if w2 not in seen:
                    seen.add(w2)
                    new.append(w2)
        frontier = new
    return min(seen, key=lambda w: (len(w), w))


def _doubled_products(d, o):
    """2 (x|y)_o over a distance matrix, in its dtype."""
    return d[o][:, None] + d[o][None, :] - d


def all_basepoint_four_point(d, basepoints):
    """The float four-point scan at each of `basepoints` (ascending), every
    x row at each: the maximum of (E[x,y]-E[x,z])-E[z,y] with
    E = exp(-(.|.)_o), and its lex-first (x, y, z, o), at the first
    basepoint that reaches it.  The library scans the identity alone;
    this is the scan over every quadruple of a ball."""
    best, at = -math.inf, None
    for o in basepoints:
        e = np.exp(-0.5 * _doubled_products(d, o))
        r, x, y, z = kernels.fourpoint_scan(e)
        if r > best:
            best, at = r, (x, y, z, int(o))
    return best, at


def all_basepoint_min_rule_margin(d, basepoints):
    """The least min-rule margin over `basepoints`, every x row at each,
    on int64 doubled products."""
    d = d.astype(np.int64)
    return min(metrics._min_rule_margin(_doubled_products(d, o))
               for o in basepoints)


def multiply_ball(pres, radius):
    """Ball words in sphere order, each sphere sorted, and edges[s][i],
    the position of word i times letter s for i inside the outer sphere;
    every product is formed with `multiply`."""
    letters = range(len(pres.alphabet))
    spheres = [[()]]
    known = {()}
    for _ in range(radius):
        layer = {pres.multiply(w, (s,)) for w in spheres[-1]
                 for s in letters} - known
        known |= layer
        spheres.append(sorted(layer))
    words = [w for sphere in spheres for w in sphere]
    index = {w: i for i, w in enumerate(words)}
    inner = words[: len(words) - len(spheres[-1])]
    edges = [[index[pres.multiply(w, (s,))] for w in inner] for s in letters]
    return words, edges


def conformality_record(measure, g, w):
    """The conformality record of g on the cylinder over w, one word at a
    time: the measure ratio from `left_quotient` and the mass formula,
    the busemann exponent from `busemann_on_word`."""
    pres = g.pres
    ratio = (measure.word_mass(pres.left_quotient(g.word, w))
             / measure.word_mass(w))
    b = boundary.busemann_on_word(g, w)
    return boundary.ConformalityRecord(
        cylinder=_spell(pres.alphabet, w), ratio=ratio, busemann=b,
        ok=ratio == Fraction(measure.base()) ** b)


def first_conformality_failure(pres, gs, depth=None):
    """The per-element loop: the first failing (g, record) over gs in
    order, each g at depth max(|g| + 1, depth), then in partition order."""
    measure = boundary.BoundaryMeasure(pres)
    for g in gs:
        for w in boundary.reduced_words(pres, max(g.length() + 1, depth or 0)):
            rec = conformality_record(measure, g, w)
            if not rec.ok:
                return g, rec
    return None


def reference_act(g, xi):
    """g.xi by free reduction of g times a head of xi that ends a period
    past the |g| letters g can cancel."""
    c = xi.period
    head = xi.prefix(len(xi.preperiod) + -(-g.length() // len(c)) * len(c))
    return boundary.BoundaryPoint(g.pres, g.pres.normalize(g.word + head), c)


def first_action_law_failures(ball, points):
    """The scalar loop over (g, h, xi): the first failure of the action
    law and of the Busemann cocycle identity, spelled, the cocycle's with
    its two sides, or None."""
    action = cocycle = None
    for g in ball.elements:
        for h in ball.elements:
            gh = g * h
            for xi in points:
                spelled = (g.spelled(), h.spelled(), xi.spelled())
                if action is None and (reference_act(g, reference_act(h, xi))
                                       != reference_act(gh, xi)):
                    action = spelled
                lhs = busemann_boundary(gh, xi)
                rhs = (busemann_boundary(g, xi)
                       + busemann_boundary(h, reference_act(g.inverse(), xi)))
                if cocycle is None and lhs != rhs:
                    cocycle = spelled + (lhs, rhs)
    return action, cocycle


def boundary_gromov(x, y):
    """Gromov product of two boundary points based at the identity, the
    length of their longest common prefix, one pair at a time; math.inf
    when x == y."""
    if x.pres is not y.pres:
        raise InputError("arguments live in different presentations")
    if x == y:
        return math.inf
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


def busemann_boundary(g, xi):
    """Horofunction value 2<g, xi> - |g| on one point."""
    if g.pres is not xi.pres:
        raise InputError("arguments live in different presentations")
    return boundary.busemann_on_word(g, xi.prefix(g.length()))


def conformal_identity_sides(g, xi, eta):
    """The two sides 2 (g xi | g eta) and -b(g^-1)(xi) - b(g^-1)(eta) +
    2 (xi | eta) of the conformal identity, with moved points from
    `reference_act` and scalar Gromov products and Busemann values."""
    gi = g.inverse()
    return (2 * boundary_gromov(reference_act(g, xi), reference_act(g, eta)),
            -busemann_boundary(gi, xi) - busemann_boundary(gi, eta)
            + 2 * boundary_gromov(xi, eta))


def random_small_cancellation(seed, generators, relators, lengths):
    """A seeded C'(1/6) presentation on `generators` letters: `relators`
    cyclically reduced relators drawn with lengths from `lengths`, drawn
    again until the presentation passes the piece check."""
    rng = random.Random(seed)
    names = "abcdefgh"[:generators]
    symbols = [c for n in names for c in (n, n + "'")]
    inverse = {c: c[:-1] if c.endswith("'") else c + "'" for c in symbols}
    while True:
        spellings = []
        for _ in range(relators):
            word = []
            n = rng.choice(lengths)
            while len(word) < n:
                s = rng.choice(symbols)
                if word and s == inverse[word[-1]]:
                    continue
                if len(word) == n - 1 and inverse[s] == word[0]:
                    continue
                word.append(s)
            spellings.append("".join(word))
        try:
            return groups.small_cancellation_group(list(names), spellings,
                                                   label=f"seed{seed}")
        except InputError:
            continue


class DenseStep:
    """Step function as the tuple of its values on every cylinder of
    `reduced_words(pres, depth)`, zeros included: the reference for the
    sparse `crossed.StepFunction`.  Refinement repeats values, operations
    map over aligned tuples, and a translate reads the value at
    normalize(g^-1 w)[:depth] for every deeper word w."""

    def __init__(self, pres, depth, values):
        self.pres, self.depth, self.values = pres, depth, tuple(values)

    @classmethod
    def of(cls, phi):
        """The dense form of a sparse step function."""
        size = len(boundary.reduced_words(phi.pres, phi.depth))
        return cls(phi.pres, phi.depth,
                   [phi.support.get(i, Fraction(0)) for i in range(size)])

    def support(self):
        return {i: v for i, v in enumerate(self.values) if v}

    def refine(self, depth):
        n = len(boundary.reduced_words(self.pres, depth)) // len(self.values)
        return DenseStep(self.pres, depth,
                         [v for v in self.values for _ in range(n)])

    def _binary(self, other, fn):
        d = max(self.depth, other.depth)
        return DenseStep(self.pres, d, map(fn, self.refine(d).values,
                                           other.refine(d).values))

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __mul__(self, other):
        return self._binary(other, operator.mul)

    def translate(self, g):
        if g.is_identity() or self.depth == 0:
            return self
        pres, gi = self.pres, g.inverse().word
        index = {w: i for i, w in
                 enumerate(boundary.reduced_words(pres, self.depth))}
        deeper = boundary.reduced_words(pres, self.depth + g.length())
        return DenseStep(pres, self.depth + g.length(), [
            self.values[index[pres.normalize(gi + w)[:self.depth]]]
            for w in deeper])


def dense_element(x):
    """A crossed-product element's terms as dense step functions."""
    return {g: DenseStep.of(phi) for g, phi in x.terms.items()}


def _accumulate(out, g, phi):
    out[g] = out[g] + phi if g in out else phi


def dense_multiply(a, b):
    """(phi g)(psi h) = phi (g.psi) gh over dense terms."""
    out = {}
    for g, phi in a.items():
        for h, psi in b.items():
            _accumulate(out, g * h, phi * psi.translate(g))
    return out


def dense_adjoint(a):
    out = {}
    for g, phi in a.items():
        _accumulate(out, g.inverse(), phi.translate(g.inverse()))
    return out


def dense_flow(a, lam):
    """Each g term times lam^b(g), with b(g) = |w| - |g^-1 w| on the
    cylinder over each word w of length |g| + 1."""
    out = {}
    for g, phi in a.items():
        pres, gi = g.pres, g.inverse().word
        words = boundary.reduced_words(pres, g.length() + 1)
        out[g] = phi * DenseStep(pres, g.length() + 1, [
            Fraction(lam) ** (len(w) - len(pres.normalize(gi + w)))
            for w in words])
    return out


def dense_state(a, pres):
    """The identity term integrated against the uniform measure, each
    depth-n cylinder weighing 1 / (number of depth-n cylinders)."""
    phi = a.get(pres.identity)
    if phi is None:
        return Fraction(0)
    return sum(phi.values, Fraction(0)) / len(phi.values)


def same_element(x, dense):
    """The sparse element x has exactly the dense terms that are not all
    zero, each at the same depth with the same nonzero values."""
    kept = {g: phi for g, phi in dense.items() if any(phi.values)}
    return set(x.terms) == set(kept) and all(
        (x.terms[g].depth, x.terms[g].support) == (phi.depth, phi.support())
        for g, phi in kept.items())
