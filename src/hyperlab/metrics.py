"""Left-invariant metrics on group models and the four-point check.

Two metrics:

* the word metric: canonical word length, an exact integer read from
  `GroupPresentation.left_quotient` (the common prefix on free groups).
* the Green metric: minus the log of first-passage probabilities of the
  simple random walk, solved with an absorbing truncation.

The four-point quantity for points x, y, z, based at the identity e, is

    exp(-(x|y)_e) - exp(-(x|z)_e) - exp(-(z|y)_e)

evaluated in floats with a fixed association order; a metric passes when
the maximum over all triples is nonpositive up to tolerance.  By left
invariance a quadruple (x, y, z, w) of the group has the value of
(w^-1 x, w^-1 y, w^-1 z) at e.
"""
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels
from .errors import InputError, NumericError, ResourceLimitError
from .groups import (CALL_BYTES, DISTANCE_BYTES_CAP, bulk_product_lengths,
                     enumerate_ball)

FOURPOINT_TOLERANCE = 1e-9
# most (x, y, z) entries a four-point scan computes: its x rows times n^2
SCAN_ENTRY_CAP = 1_200_000_000
# bytes a pair a four-point scan is charged.  The float scan holds the
# int8 word distances and doubled products, e^(-(x|y)) and its transpose
# in float64, and one x row's n x n float64 differences: 26 a pair.
# Traced peaks a pair at n >= 457: 26.0-27.0 on word metrics, 25.1-25.5
# on radial and 25.8 on table Green metrics (37.3 on a process's first
# free-product call, as CPython's tuple free lists fill with freed
# words); 3.1-8.7 in the min-rule oracle.  On small balls the
# word-distance call's fixed `CALL_BYTES` dominates
SCAN_PAIR_BYTES = 32
# the table iteration stops once no first-passage value moves this much
GREEN_ITERATION_STOP = 1e-12


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


def _table_passage(pres, truncation):
    ball = enumerate_ball(pres, truncation)
    n = len(ball)
    letters = range(len(pres.alphabet.symbols))
    # one row per letter, in symbol order: numpy sums the columns fast and
    # adds each element's products in letter order.  Inside the outer
    # sphere the rows are the ball's Cayley edges; only the outer sphere
    # forms products, which may leave the ball (position n)
    outer = [[ball.index.get(pres.multiply(g.word, (s,)), n)
              for g in ball.elements[ball.edges.shape[1]:]] for s in letters]
    nbr = np.hstack([ball.edges, np.array(outer, dtype=np.int64)])
    prob = 1.0 / len(letters)
    u = np.zeros(n + 1)
    u[0] = 1.0
    vals = np.empty(nbr.shape)
    for _ in range(20_000):
        np.take(u, nbr, out=vals)
        vals *= prob
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
    one per distance (radial), or `u` in ball order (table); lazy `gap`."""

    def __init__(self, pres, mode, truncation, usable,
                 radial=None, ball=None, u=None):
        self.pres = pres
        self.mode = mode
        self.truncation = truncation
        self.usable = usable
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

    @cached_property
    def gap(self):
        """Largest |log f_2t - log f_t| over the usable range: the walk is
        solved again at twice the truncation on first read."""
        if self.mode == "radial":
            u, top = self._radial, self.usable + 1
            u2 = _radial_passage(self.pres.rank, 2 * self.truncation)
            return float(np.abs(np.log(u2[:top]) - np.log(u[:top])).max())
        _, u2 = _table_passage(self.pres, 2 * self.truncation)
        # the radius-t ball is a prefix of the radius-2t ball: spheres are
        # built the same way and each is sorted by word
        diffs = [abs(math.log(f2) - math.log(f))
                 for f, f2 in zip(self._u, u2) if f > 0 and f2 > 0]
        return max(diffs) if diffs else 0.0


def solve_green(pres, radius_hint=4, truncation=None):
    """Solve the truncated first-passage problem of the simple random walk,
    which steps by each letter with probability 1/|alphabet|.

    On free kinds the walk seen from the root is a birth-death chain on
    the distance (the radial solver), which costs nothing, so its default
    truncation is generous; every other kind iterates a first-passage
    table over the ball, which pays for elements and keeps the truncation
    tight.  Only truncation t is solved here; `GreenData.gap` solves 2t,
    the doubling gap, when first read.
    """
    if pres.kind == "free":
        t = truncation if truncation is not None else max(21, 4 * radius_hint + 16)
        # the one-letter passage is always usable, even at radius 0
        usable = min(max(1, 2 * radius_hint), t)
        return GreenData(pres, "radial", t, usable,
                         radial=_radial_passage(pres.rank, t))
    t = truncation if truncation is not None else 2 * radius_hint + 4
    ball, u = _table_passage(pres, t)
    return GreenData(pres, "table", t, t, ball=ball, u=u)


class MetricStructure:
    """A left-invariant metric: d(x, y) is a function of x^-1 y.  The
    word metric without `green`, the Green metric of its solved walk data
    with it."""

    def __init__(self, pres, green=None):
        if green is not None and green.pres is not pres:
            raise InputError("walk data belongs to a different presentation")
        self.pres = pres
        self.green = green

    @property
    def exact(self):
        return self.green is None

    def _check(self, *elements):
        for g in elements:
            if g.pres is not self.pres:
                raise InputError("element lives in a different presentation")

    def distance(self, x, y):
        self._check(x, y)
        w = self.pres.left_quotient(x.word, y.word)
        if self.exact:
            return len(w)
        return self.green.value(w)

    def gromov_product(self, x, y):
        """(x|y) = (|x| + |y| - d(x,y)) / 2, based at the identity."""
        e = self.pres.identity
        n = self.distance(e, x) + self.distance(e, y) - self.distance(x, y)
        return Fraction(n, 2) if self.exact else 0.5 * n

    @property
    def rough_constant(self):
        """Additivity defect bound along canonical-word paths."""
        if self.exact:
            return Fraction(0)
        try:
            return 4.0 * self.green.gap + 1e-9
        except ResourceLimitError as exc:
            raise ResourceLimitError(
                f"truncation gap: {exc}; pass --C explicitly") from exc


def word_metric(pres):
    return MetricStructure(pres)


def green_metric(pres, radius_hint=4, truncation=None):
    data = solve_green(pres, radius_hint=radius_hint, truncation=truncation)
    return MetricStructure(pres, data)


def word_distance_matrix(ball):
    """Pairwise canonical word lengths over a ball, exact integers in
    `groups.distance_dtype` of twice its longest word, which bounds every
    entry: the narrowest signed dtype that holds twice that bound, int8
    on every preset ball.

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
    """Pairwise distances: on the word metric the ball's own narrow integer
    word distances (not a copy), on Green metrics a float64 table."""
    if ball.pres is not metric.pres:
        raise InputError("ball and metric use different presentations")
    dint = word_distance_matrix(ball)
    if metric.exact:
        return dint
    green = metric.green
    if green.mode == "radial":
        top = int(dint.max()) if dint.size else 0
        if top > green.usable:
            raise InputError(
                f"ball needs green distances up to {top}, usable range is "
                f"{green.usable}; solve with a larger radius hint")
        return -np.log(green._radial[:green.usable + 1])[dint]
    els = ball.elements
    n = len(els)
    d = np.zeros((n, n))
    for i, g in enumerate(els):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = green.value(
                metric.pres.left_quotient(g.word, els[j].word))
    return d


def _least_in_orbit(n, gens):
    """Least point of each point's orbit under the permutations in the
    (k, n) array `gens`: each pass moves every label to the least label
    one step along each permutation, then to its label's label, until a
    pass changes nothing."""
    labels = np.arange(n, dtype=np.min_scalar_type(n))
    while True:
        before = labels
        labels = np.minimum(labels, labels[gens].min(axis=0, initial=n))
        labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


def _least_points(labels):
    """The points that are their own label: one per orbit, ascending."""
    return np.flatnonzero(labels == np.arange(len(labels)))


def _orbit_labels(ball, d):
    """Labels of the x rows at the identity: the least point of x's orbit
    under the ball's `symmetries` that leave `d` unchanged bit for bit.

    Every symmetry keeps word length, so it fixes the identity, and a
    scan over the `_least_points` finds the maximum and the lex-first
    maximizer of a scan over every row.  The labels of the ball's own
    word distances are sought once and kept on `Ball.representatives`,
    for the float scan and the min-rule oracle.
    """
    own = d is not None and d is ball.distances
    if own and ball.representatives is not None:
        return ball.representatives
    n = len(ball)
    dtype = np.min_scalar_type(n)
    imgs = (np.array(img, dtype=dtype) for img in ball.symmetries())
    gens = np.array([g for g in imgs if np.array_equal(
        d.take(g, 0).take(g, 1), d)], dtype=dtype).reshape(-1, n)
    labels = _least_in_orbit(n, gens)
    if own:
        ball.representatives = labels
    return labels


def _scan_bytes(n):
    """Bytes a four-point scan over n points is charged: `SCAN_PAIR_BYTES`
    a pair, and the fixed cost of the word-distance call on a cold ball."""
    return n * n * SCAN_PAIR_BYTES + CALL_BYTES


def _doubled_products(metric, ball):
    """The doubled Gromov products 2(x|y)_e of the ball's points, and the
    x rows a scan at the identity visits, one per orbit (`_orbit_labels`).

    The one cost model of both scans raises ResourceLimitError: from n
    alone, before any n x n array, past `DISTANCE_BYTES_CAP` bytes
    (`_scan_bytes`); once the rows are known, past `SCAN_ENTRY_CAP`
    entries, rows x n^2.  Exact products are integers in the dtype of the
    ball's word distances, which holds twice the longest word (int8 on
    every preset ball).
    """
    n = len(ball)
    need = _scan_bytes(n)
    if need > DISTANCE_BYTES_CAP:
        raise ResourceLimitError(
            f"four-point scan over {n}^2 pairs needs {need / 2**30:.1f} GiB "
            f"(cap {DISTANCE_BYTES_CAP / 2**30:g} GiB)")
    d = metric_distance_matrix(metric, ball)
    rows = _least_points(_orbit_labels(ball, d))
    entries = len(rows) * n * n
    if entries > SCAN_ENTRY_CAP:
        raise ResourceLimitError(
            f"four-point scan needs {len(rows)} rows x {n}^2 = {entries:.2e} "
            f"entries, over the cap {SCAN_ENTRY_CAP:.1e}")
    g = np.add(d[0][:, None], d[0])
    g -= d
    return g, rows


@dataclass
class FourPointReport:
    defect: float
    raw: float
    witness: tuple | None
    quadruples: int
    elements: int
    threshold: float


def check_strong_hyperbolicity(metric, ball):
    """Scan four-point defects over a ball, at the identity.

    Every metric here is left-invariant, so (x, y, z, w) has the defect
    of (w^-1 x, w^-1 y, w^-1 z, e), and the identity is the one basepoint
    scanned.  The scan covers all n^3 (x, y, z) triples there, the
    `quadruples` reported, one x row per orbit of the symmetries; a ball
    past the cost model of `_doubled_products` is refused.  The reported
    defect clamps at zero; the signed maximum is kept in `raw`.
    """
    g, rows = _doubled_products(metric, ball)
    # e^(-(x|y)), in place over float products
    e = np.multiply(g, -0.5, out=g if g.dtype == np.float64 else None)
    best, *at = kernels.fourpoint_scan(np.exp(e, out=e), rows)
    witness = (tuple(ball.elements[i].spelled() for i in at)
               if best > FOURPOINT_TOLERANCE else None)
    n = len(ball)
    return FourPointReport(
        defect=max(best, 0.0), raw=float(best), witness=witness,
        quadruples=n ** 3, elements=n, threshold=FOURPOINT_TOLERANCE)


def _min_rule_margin(g, rows=None):
    """min over x in `rows` (every row by default) and y of
    g[x,y] - max_z min(g[x,z], g[z,y]), in g's dtype.

    One x row at a time, so the working memory is one more n x n
    buffer of g's dtype.  g must be nonnegative, so that every
    difference of two entries fits that dtype.
    """
    s = np.empty_like(g)
    best = np.empty_like(g[0])
    margins = []
    for x in range(len(g)) if rows is None else rows:
        np.minimum(g[x][:, None], g, out=s)
        s.max(axis=0, out=best)
        margins.append(int(np.subtract(g[x], best, out=best).min()))
    return min(margins)


def four_point_min_rule_margin(ball):
    """Exact integer margin of the tree rule (x|y) >= min((x|z), (z|y)).

    Works on doubled Gromov products of the word metric, so everything
    stays integral.  A nonnegative margin proves the float four-point
    defect clamps to zero exactly: the exponential of the smaller product
    dominates one of the two right-hand terms bit for bit.  As in
    `check_strong_hyperbolicity` the basepoint is the identity, with one x
    row per orbit and the same cost model, in O(n^2) working memory.
    """
    return _min_rule_margin(*_doubled_products(word_metric(ball.pres), ball))
