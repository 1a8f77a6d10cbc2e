"""Left-invariant metrics on group models and the four-point check.

Three metric kinds:

* "word": canonical word length, exact integers times a rational scale.
* "tree": same values on free groups, but computed through common
  prefixes so the two routes can be checked against each other.
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
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import InputError, NumericError, ResourceLimitError
from .groups import DEFAULT_ELEMENT_CAP, bulk_product_lengths, enumerate_ball

FOURPOINT_TOLERANCE = 1e-9
DEFAULT_QUADRUPLE_CAP = 1_200_000_000


def _common_prefix_len(u, w):
    n = 0
    for a, b in zip(u, w):
        if a != b:
            break
        n += 1
    return n


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


def _table_passage(pres, walk, truncation, tolerance, max_elements):
    ball = enumerate_ball(pres, truncation, max_elements=max_elements)
    els = ball.elements
    n = len(els)
    index = {g.word: i for i, g in enumerate(els)}
    steps = sorted(walk.steps.items(), key=lambda it: it[0].word)
    probs = np.array([float(p) for _, p in steps])
    nbr = np.empty((n, len(steps)), dtype=np.int64)
    for i, g in enumerate(els):
        for j, (s, _) in enumerate(steps):
            nbr[i, j] = index.get((g * s).word, n)
    u = np.zeros(n + 1)
    u[0] = 1.0
    stop = max(tolerance * 1e-2, 1e-15)
    for _ in range(20_000):
        nxt = (u[nbr] * probs).sum(axis=1)
        nxt[0] = 1.0
        change = np.abs(nxt - u[:n]).max()
        u[:n] = nxt
        if change < stop:
            break
    else:
        raise NumericError("first-passage iteration did not converge")
    return ball, u[:n]


class GreenData:
    """Solved first-passage probabilities with an explicit usable range."""

    def __init__(self, pres, walk, mode, truncation, usable, gap,
                 radial=None, table=None):
        self.pres = pres
        self.walk = walk
        self.mode = mode
        self.truncation = truncation
        self.usable = usable
        self.gap = gap
        self._radial = radial
        self._table = table

    def passage(self, word):
        """First-passage probability from the identity to the word."""
        if self.mode == "radial":
            n = len(word)
            if n > self.usable:
                raise InputError(
                    f"distance {n} exceeds the usable range {self.usable}")
            f = self._radial[n]
        else:
            f = self._table.get(word)
            if f is None:
                raise InputError("element is outside the solved truncation")
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


def solve_green(pres, walk=None, radius_hint=4, truncation=None,
                tolerance=1e-10, max_elements=DEFAULT_ELEMENT_CAP):
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
    ball, u = _table_passage(pres, walk, t, tolerance, max_elements)
    table = {g.word: u[i] for i, g in enumerate(ball.elements)}
    gap = None
    try:
        ball2, u2 = _table_passage(pres, walk, 2 * t, tolerance, max_elements)
    except ResourceLimitError:
        pass
    else:
        index2 = {g.word: i for i, g in enumerate(ball2.elements)}
        diffs = [abs(math.log(u2[index2[w]]) - math.log(f))
                 for w, f in table.items() if f > 0 and u2[index2[w]] > 0]
        gap = max(diffs) if diffs else 0.0
    return GreenData(pres, walk, "table", t, t, gap, table=table)


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
            # dual route: through the common prefix instead of the product
            lcp = _common_prefix_len(x.word, y.word)
            return (len(x.word) + len(y.word) - 2 * lcp) * self.scale
        w = (x.inverse() * y).word
        if self.kind == "word":
            return len(w) * self.scale
        return self.green.value(w) * self.scale

    def gromov_product(self, x, y, base=None):
        """(x|y)_base = (d(base,x) + d(base,y) - d(x,y)) / 2."""
        self._check(x, y)
        o = self.pres.identity if base is None else base
        self._check(o)
        if self.kind == "tree":
            u = (o.inverse() * x).word
            w = (o.inverse() * y).word
            return _common_prefix_len(u, w) * self.scale
        dx = self.distance(o, x)
        dy = self.distance(o, y)
        dxy = self.distance(x, y)
        if self.exact:
            return (dx + dy - dxy) / 2
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


def green_metric(pres, walk=None, radius_hint=4, truncation=None, scale=1.0,
                 tolerance=1e-10, max_elements=DEFAULT_ELEMENT_CAP):
    data = solve_green(pres, walk, radius_hint=radius_hint,
                       truncation=truncation, tolerance=tolerance,
                       max_elements=max_elements)
    return MetricStructure(pres, "green", scale, green=data)


@lru_cache(maxsize=8)
def word_distance_matrix(ball):
    """Pairwise canonical word lengths over a ball, exact int64.

    The matrix is `groups.bulk_product_lengths` of the ball's elements
    against themselves, the single route from canonical words to word
    distances.
    """
    els = ball.elements
    return bulk_product_lengths(ball.pres, els, els)


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
        gi = g.inverse()
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = green.value((gi * els[j]).word)
    return d * metric.scale


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
                               samples=200_000,
                               quadruple_cap=DEFAULT_QUADRUPLE_CAP):
    """Scan four-point defects over a ball.

    Exhaustive mode covers every (basepoint, x, y, z) quadruple, sampled
    mode draws them with a seeded generator.  The reported defect clamps
    at zero; the signed maximum is kept in `raw`.
    """
    d = metric_distance_matrix(metric, ball)
    n = d.shape[0]
    els = ball.elements
    if mode == "exhaustive":
        total = n ** 4
        if total > quadruple_cap:
            raise ResourceLimitError(
                f"{total} quadruples exceed the cap {quadruple_cap}; "
                "use sampled mode or raise the cap")
        best = -math.inf
        at = None
        for o in range(n):
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
    two right-hand terms bit for bit.
    """
    dist = word_distance_matrix(ball).astype(np.int32)
    n = dist.shape[0]
    worst = None
    for o in range(n):
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
    letters = (x.inverse() * y).word
    zero = Fraction(0) if metric.exact else 0.0
    points = [(zero, x)]
    g = x
    for sym in letters:
        g = g * pres.element_from_symbol(sym)
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
