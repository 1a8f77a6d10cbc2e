"""Left-invariant metrics on group models and the four-point check.

Three metric kinds:

* "word": canonical word length, exact integers times a rational scale,
  read from `GroupPresentation.left_quotient` (the common prefix on free
  groups).
* "tree": same values on free groups; its Gromov product is the common
  prefix of the products o^-1 x and o^-1 y, not a sum of three distances,
  so the two routes can be checked against each other.
* "green": minus the log of first-passage probabilities of a symmetric
  random walk, solved with an absorbing truncation.

The four-point quantity for a basepoint o and points x, y, z is

    exp(-(x|y)_o) - exp(-(x|z)_o) - exp(-(z|y)_o)

evaluated in floats with a fixed association order; a metric passes when
the maximum over all quadruples is nonpositive up to tolerance.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import InputError, NumericError, ResourceLimitError
from .groups import (GroupElement, bulk_product_lengths, common_prefix_len,
                     enumerate_ball)

FOURPOINT_TOLERANCE = 1e-9
# most quadruples an exhaustive four-point scan covers
QUADRUPLE_CAP = 1_200_000_000
# the table iteration stops once no first-passage value moves this much
GREEN_ITERATION_STOP = 1e-12


class GreenWalk:
    """Finitely supported symmetric probability measure driving a walk."""

    def __init__(self, pres, steps):
        if not steps:
            raise InputError("walk needs at least one step")
        clean = {}
        for g, p in steps.items():
            if g.pres is not pres:
                raise InputError("walk steps live in a different presentation")
            if g.is_identity():
                raise InputError("walk steps must avoid the identity")
            if p <= 0:
                raise InputError("walk probabilities must be positive")
            clean[g] = p
        for g, p in clean.items():
            q = clean.get(g.inverse())
            if q is None or q != p:
                raise InputError("walk is not symmetric")
        total = sum(clean.values())
        if any(isinstance(p, float) for p in clean.values()):
            if abs(total - 1.0) > 1e-12:
                raise InputError("walk probabilities must sum to 1")
        elif Fraction(total) != 1:
            raise InputError("walk probabilities must sum to 1")
        self.pres = pres
        self.steps = clean

    @classmethod
    def simple(cls, pres):
        support = pres.symmetric_generators()
        p = Fraction(1, len(support))
        return cls(pres, {g: p for g in support})

    def is_radial(self):
        """True when the radial distance reduction applies exactly."""
        if self.pres.kind != "free":
            return False
        if set(self.steps) != set(self.pres.symmetric_generators()):
            return False
        return len(set(self.steps.values())) == 1


def _radial_passage(rank, truncation):
    # simple walk on a rank-k free group seen from the root: distance is a
    # birth-death chain with 1 step down, 2k-1 steps up, absorbed past T
    k = rank
    down = 1.0 / (2 * k)
    up = (2 * k - 1.0) / (2 * k)
    t = truncation
    a = np.zeros((t, t))
    b = np.zeros(t)
    for d in range(1, t + 1):
        i = d - 1
        a[i, i] = 1.0
        if d > 1:
            a[i, i - 1] = -down
        else:
            b[i] = down
        if d < t:
            a[i, i + 1] = -up
    u = np.linalg.solve(a, b)
    return np.concatenate([[1.0], u])


def _table_passage(pres, walk, truncation):
    ball = enumerate_ball(pres, truncation)
    n = len(ball)
    steps = sorted(walk.steps.items(), key=lambda it: it[0].word)
    probs = np.array([float(p) for _, p in steps])[:, None]
    # one row per step: numpy sums the columns fast and adds each element's
    # products in step order
    nbr = np.empty((len(steps), n), dtype=np.int64)
    for j, (s, _) in enumerate(steps):
        for i, g in enumerate(ball.elements):
            nbr[j, i] = ball.index.get(pres.multiply(g.word, s.word), n)
    u = np.zeros(n + 1)
    u[0] = 1.0
    vals = np.empty(nbr.shape)
    for _ in range(20_000):
        np.take(u, nbr, out=vals)
        vals *= probs
        nxt = vals.sum(axis=0)
        nxt[0] = 1.0
        change = np.abs(nxt - u[:n]).max()
        u[:n] = nxt
        if change < GREEN_ITERATION_STOP:
            break
    else:
        raise NumericError("first-passage iteration did not converge")
    return ball, u[:n]


class GreenData:
    """Solved first-passage probabilities with an explicit usable range:
    one per distance (radial), or `u` in the order of a ball (table)."""

    def __init__(self, pres, walk, mode, truncation, usable, gap,
                 radial=None, ball=None, u=None):
        self.pres = pres
        self.walk = walk
        self.mode = mode
        self.truncation = truncation
        self.usable = usable
        self.gap = gap
        self._radial = radial
        self._ball = ball
        self._u = u

    def passage(self, word):
        """First-passage probability from the identity to the word."""
        if self.mode == "radial":
            n = len(word)
            if n > self.usable:
                raise InputError(
                    f"distance {n} exceeds the usable range {self.usable}")
            f = self._radial[n]
        else:
            i = self._ball.index.get(word)
            if i is None:
                raise InputError("element is outside the solved truncation")
            f = self._u[i]
        if f <= 0:
            raise NumericError("nonpositive first-passage probability")
        return f

    def value(self, word):
        return -math.log(self.passage(word))

    def log_table(self):
        """Vector of -log passage for distances 0..usable (radial only)."""
        if self.mode != "radial":
            raise InputError("log table needs the radial solver")
        return -np.log(self._radial[: self.usable + 1])


def solve_green(pres, walk=None, radius_hint=4, truncation=None):
    """Solve the truncated first-passage problem for a walk.

    The radial reduction (simple walk on a free group) costs nothing, so
    its default truncation is generous; the generic ball solver pays for
    elements and keeps the truncation tight, reporting its doubling gap
    honestly instead.
    """
    if walk is None:
        walk = GreenWalk.simple(pres)
    if walk.pres is not pres:
        raise InputError("walk belongs to a different presentation")
    if walk.is_radial():
        t = truncation if truncation is not None else max(21, 4 * radius_hint + 16)
        usable = min(2 * radius_hint, t)
        u1 = _radial_passage(pres.rank, t)
        u2 = _radial_passage(pres.rank, 2 * t)
        top = min(usable, t)
        gap = float(np.abs(np.log(u2[: top + 1]) - np.log(u1[: top + 1])).max())
        return GreenData(pres, walk, "radial", t, usable, gap, radial=u1)
    t = truncation if truncation is not None else 2 * radius_hint + 4
    ball, u = _table_passage(pres, walk, t)
    gap = None
    try:
        _, u2 = _table_passage(pres, walk, 2 * t)
    except ResourceLimitError:
        pass
    else:
        # the radius-t ball is a prefix of the radius-2t ball: spheres are
        # built the same way and each is sorted by word
        diffs = [abs(math.log(f2) - math.log(f))
                 for f, f2 in zip(u, u2[: len(u)]) if f > 0 and f2 > 0]
        gap = max(diffs) if diffs else 0.0
    return GreenData(pres, walk, "table", t, t, gap, ball=ball, u=u)


class MetricStructure:
    """A left-invariant metric: d(x, y) is a function of x^-1 y."""

    def __init__(self, pres, kind="word", scale=1, green=None):
        if kind not in ("word", "tree", "green"):
            raise InputError(f"unknown metric kind {kind!r}")
        if kind == "tree" and pres.kind != "free":
            raise InputError("tree metrics need a free presentation")
        if kind == "green":
            if green is None:
                raise InputError("green metrics need solved walk data")
            if green.pres is not pres:
                raise InputError("walk data belongs to a different presentation")
            self.scale = float(scale)
        else:
            if isinstance(scale, float):
                raise InputError("exact metric kinds take a rational scale")
            self.scale = Fraction(scale)
        if self.scale <= 0:
            raise InputError("metric scale must be positive")
        self.pres = pres
        self.kind = kind
        self.green = green

    @property
    def exact(self):
        return self.kind != "green"

    def _check(self, *elements):
        for g in elements:
            if g.pres is not self.pres:
                raise InputError("element lives in a different presentation")

    def distance(self, x, y):
        self._check(x, y)
        if self.kind == "tree":
            lcp = common_prefix_len(x.word, y.word)
            return (len(x.word) + len(y.word) - 2 * lcp) * self.scale
        w = self.pres.left_quotient(x.word, y.word)
        if self.kind == "word":
            return len(w) * self.scale
        return self.green.value(w) * self.scale

    def gromov_product(self, x, y, base=None):
        """(x|y)_base = (d(base,x) + d(base,y) - d(x,y)) / 2."""
        self._check(x, y)
        o = self.pres.identity if base is None else base
        self._check(o)
        if self.kind == "tree":
            q = self.pres.left_quotient
            return common_prefix_len(q(o.word, x.word),
                                     q(o.word, y.word)) * self.scale
        if self.kind == "word":
            # integer lengths, halved and scaled in one Fraction
            q = self.pres.left_quotient
            n = (len(q(o.word, x.word)) + len(q(o.word, y.word))
                 - len(q(x.word, y.word)))
            return Fraction(n * self.scale.numerator, 2 * self.scale.denominator)
        dx = self.distance(o, x)
        dy = self.distance(o, y)
        dxy = self.distance(x, y)
        return 0.5 * (dx + dy - dxy)

    @property
    def rough_constant(self):
        """Additivity defect bound along canonical-word paths."""
        if self.exact:
            return Fraction(0)
        if self.green.gap is None:
            return None
        return 4.0 * self.green.gap + 1e-9


def word_metric(pres, scale=1):
    return MetricStructure(pres, "word", scale)


def tree_metric(pres, scale=1):
    return MetricStructure(pres, "tree", scale)


def green_metric(pres, walk=None, radius_hint=4, truncation=None, scale=1.0):
    data = solve_green(pres, walk, radius_hint=radius_hint,
                       truncation=truncation)
    return MetricStructure(pres, "green", scale, green=data)


def word_distance_matrix(ball):
    """Pairwise canonical word lengths over a ball, exact int64.

    The matrix is `groups.bulk_product_lengths` of the ball's elements
    against themselves, the single route from canonical words to word
    distances.  It is computed on first use and kept on the ball, so it
    is freed along with the ball.
    """
    if ball.distances is None:
        ball.distances = bulk_product_lengths(ball.pres, ball.elements,
                                              ball.elements)
    return ball.distances


def metric_distance_matrix(metric, ball):
    """Pairwise scaled distances as float64."""
    if ball.pres is not metric.pres:
        raise InputError("ball and metric use different presentations")
    dint = word_distance_matrix(ball)
    if metric.exact:
        return dint.astype(np.float64) * float(metric.scale)
    green = metric.green
    if green.mode == "radial":
        top = int(dint.max()) if dint.size else 0
        if top > green.usable:
            raise InputError(
                f"ball needs green distances up to {top}, usable range is "
                f"{green.usable}; solve with a larger radius hint")
        return green.log_table()[dint] * metric.scale
    els = ball.elements
    n = len(els)
    d = np.zeros((n, n))
    for i, g in enumerate(els):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = green.value(
                metric.pres.left_quotient(g.word, els[j].word))
    return d * metric.scale


def _basepoint_representatives(ball, d):
    """Least index of each orbit of the ball's basepoints, ascending.

    The orbits are those of the presentation's symmetry generators that
    map the ball onto itself and leave the matrix `d` unchanged bit for
    bit; any other generator is dropped.  A four-point scan at an image
    basepoint sees the same table with rows and columns permuted, so it
    finds the same maximum, and the least index of an orbit is the first
    basepoint of that orbit in a full scan.
    """
    pres = ball.pres
    root = list(range(len(ball)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for perm in pres.symmetry_generators():
        img = [ball.index.get(pres.normalize([perm[s] for s in g.word]))
               for g in ball.elements]
        if None in img or not np.array_equal(d[np.ix_(img, img)], d):
            continue
        for i, j in enumerate(img):
            a, b = find(i), find(j)
            root[max(a, b)] = min(a, b)
    return [i for i in range(len(root)) if find(i) == i]


@dataclass
class FourPointReport:
    defect: float
    raw: float
    witness: tuple | None
    quadruples: int
    elements: int
    mode: str
    threshold: float


def check_strong_hyperbolicity(metric, ball, mode="exhaustive", seed=0,
                               samples=200_000):
    """Scan four-point defects over a ball.

    Exhaustive mode covers every (basepoint, x, y, z) quadruple, scanning
    one basepoint per symmetry orbit (`_basepoint_representatives`);
    sampled mode draws quadruples with a seeded generator.  The reported
    defect clamps at zero; the signed maximum is kept in `raw`.
    """
    d = metric_distance_matrix(metric, ball)
    n = d.shape[0]
    els = ball.elements
    if mode == "exhaustive":
        total = n ** 4
        if total > QUADRUPLE_CAP:
            raise ResourceLimitError(
                f"{total} quadruples exceed the cap {QUADRUPLE_CAP}; "
                "use sampled mode")
        best = -math.inf
        at = None
        for o in _basepoint_representatives(ball, d):
            two_g = d[o][:, None] + d[o][None, :] - d
            e = np.ascontiguousarray(np.exp(-0.5 * two_g))
            r, x, y, z = kernels.fourpoint_scan(e)
            if r > best:
                best = r
                at = (x, y, z, o)
        quadruples = total
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, n, size=(4, samples))
        oo, xx, yy, zz = draws
        exy = np.exp(-0.5 * (d[oo, xx] + d[oo, yy] - d[xx, yy]))
        exz = np.exp(-0.5 * (d[oo, xx] + d[oo, zz] - d[xx, zz]))
        ezy = np.exp(-0.5 * (d[oo, zz] + d[oo, yy] - d[zz, yy]))
        vals = (exy - exz) - ezy
        i = int(np.argmax(vals))
        best = float(vals[i])
        at = (int(xx[i]), int(yy[i]), int(zz[i]), int(oo[i]))
        quadruples = samples
    else:
        raise InputError(f"unknown scan mode {mode!r}")
    witness = None
    if best > FOURPOINT_TOLERANCE:
        witness = tuple(els[i].spelled() for i in at)
    return FourPointReport(
        defect=max(best, 0.0),
        raw=float(best),
        witness=witness,
        quadruples=quadruples,
        elements=n,
        mode=mode,
        threshold=FOURPOINT_TOLERANCE,
    )


def four_point_min_rule_margin(ball):
    """Exact integer margin of the tree rule (x|y) >= min((x|z), (z|y)).

    Works on doubled Gromov products so everything stays integral.  A
    nonnegative margin proves the float four-point defect clamps to zero
    exactly: the exponential of the smaller product dominates one of the
    two right-hand terms bit for bit.  One basepoint per symmetry orbit
    is scanned, as in `check_strong_hyperbolicity`.
    """
    dist = word_distance_matrix(ball).astype(np.int32)
    worst = None
    for o in _basepoint_representatives(ball, dist):
        g = dist[o][:, None] + dist[o][None, :] - dist
        cube = np.minimum(g[:, None, :], g.T[None, :, :])
        margin = int((g - cube.max(axis=2)).min())
        if worst is None or margin < worst:
            worst = margin
    return worst


def rough_geodesic(metric, x, y):
    """Canonical-word path from x to y parametrized by distance from x."""
    metric._check(x, y)
    pres = metric.pres
    letters = pres.left_quotient(x.word, y.word)
    zero = Fraction(0) if metric.exact else 0.0
    points = [(zero, x)]
    g = x
    for sym in letters:
        g = GroupElement(pres, pres.multiply(g.word, (sym,)))
        points.append((metric.distance(x, g), g))
    return points


def growth_exponent(ball):
    """Least-squares slope of log sphere sizes against the radius."""
    sizes = ball.sphere_sizes()
    if len(sizes) < 4:
        raise InputError("growth fit needs radius >= 3")
    if any(s == 0 for s in sizes[1:]):
        raise NumericError("empty sphere inside the ball")
    ns = np.arange(1, len(sizes), dtype=np.float64)
    ys = np.log(np.array(sizes[1:], dtype=np.float64))
    return float(np.polyfit(ns, ys, 1)[0])
