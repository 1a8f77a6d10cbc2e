"""Cocycles from differences of Gromov products on coarse edge sets.

The group-level translation cocycle is b(g)(x) = |x| - |g^-1 x|; the
pair cocycle is c_g(x,y) = (g|x) - (g|y) restricted to the coarse edge
set of ordered pairs whose distance lies in [K-C, K+C].  Both are exact
integers (or half-integers) for word metrics, and read from two rows of
the band's distance matrix.  lp norms are truncated to a ball and carry
analytic tail bounds; properness certificates follow the
partition-of-a-geodesic argument and read the same two rows, d(e, .)
and d(g, .), comparing integers on exact metrics.  On free groups with
word metrics, `free_norm_count` gives the untruncated norms exactly.
"""
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError
from .groups import (GroupElement, bulk_product_lengths, enumerate_ball,
                     free_sphere_size)
from .metrics import metric_distance_matrix


def haagerup_value(metric, g, x, y):
    """c_g(x,y) = (g|x) - (g|y) in the given metric."""
    return metric.gromov_product(g, x) - metric.gromov_product(g, y)


class PairBand:
    """Ordered pairs from a ball with distance in [K-C, K+C] (inclusive).

    `distances` is the metric's n x n matrix over ball.elements (the
    ball's own word distances on exact kinds), `window` its (lo, hi),
    integral on exact kinds, and `index` the (pairs, 2) array of the
    positions whose pair `holds`.
    """

    def __init__(self, metric, K, C, ball, distances):
        self.metric = metric
        self.K = K
        self.C = C
        self.ball = ball
        self.distances = distances
        lo, hi = K - C, K + C
        if metric.exact:
            lo, hi = math.ceil(lo), math.floor(hi)
        self.window = lo, hi
        near = np.argwhere(distances <= hi)    # one n x n bool array
        self.index = near[self.holds(*near.T)]

    def holds(self, i, j):
        """i != j and lo <= d(i, j) <= hi, elementwise on index arrays."""
        lo, hi = self.window
        d = self.distances[i, j]
        return (i != j) & (d >= lo) & (d <= hi)

    def __len__(self):
        return len(self.index)

    @property
    def empty(self):
        return not len(self.index)

    @cached_property
    def integer_window(self):
        """(u, K*u, C*u) as ints, u the least common denominator of K and
        C: on exact metrics, lengths times u are integers, so properness
        certificates compare no Fraction."""
        K, C = Fraction(self.K), Fraction(self.C)
        unit = math.lcm(K.denominator, C.denominator)
        return unit, int(K * unit), int(C * unit)


def build_pair_band(metric, K, radius, C=None):
    """Collect the coarse edge set inside a ball.

    C defaults to the metric's rough constant (0 for exact kinds).  An
    empty band is a warning condition, not an error; callers can read
    the `empty` flag.
    """
    if C is None:
        C = metric.rough_constant
    if K <= 0:
        raise InputError("K must be positive")
    if C < 0:
        raise InputError(f"C must be nonnegative, got C={C}")
    if not K > 2 * C:
        raise InputError(f"need K > 2C, got K={K}, C={C}")
    ball = enumerate_ball(metric.pres, radius)
    return PairBand(metric, K, C, ball, metric_distance_matrix(metric, ball))


def _distance_rows(band, gs):
    """d(g, .) over the band's ball for each g: rows of the band's matrix
    when every g is in the ball (a view for consecutive ones; on exact
    metrics its columns d(., g), as word distances are symmetric), else
    product lengths (exact kinds) or one distance a pair."""
    if any(g.pres is not band.metric.pres for g in gs):
        raise InputError("element lives in a different presentation")
    ball = band.ball
    if gs and max(len(g.word) for g in gs) <= ball.radius:
        pos = ball.walk([0], [g.word for g in gs])[0].tolist()
        if pos == list(range(pos[0], pos[0] + len(pos))):
            pos = slice(pos[0], pos[0] + len(pos))
        return (band.distances[:, pos].T if band.metric.exact
                else band.distances[pos])
    if band.metric.exact:
        return bulk_product_lengths(ball.pres, gs, ball.elements)
    return np.array([[band.metric.distance(g, x) for x in ball.elements]
                     for g in gs]).reshape(len(gs), len(ball))


# band pairs per step of an exact norm sum, two (pairs x elements) gathers
NORM_PAIR_CHUNK = 128


def _cocycle_norm(band, rows, p):
    """Sum of |c_g|^p over the band for each row d(g, .) of `rows`: exact
    Fractions on exact metrics at integral p, summed over chunks of band
    pairs in int64 while the largest |2 c_g|^p times the pair count fits,
    else in Python integers; else floats, each the 1-D sum of one
    contiguous row of band values."""
    xi, yi = band.index[:, 0], band.index[:, 1]
    d0 = band.distances[0]
    if band.metric.exact and p == int(p):
        ip = int(p)
        rise = d0[xi] - d0[yi]
        totals = np.zeros(len(rows), dtype=np.int64)
        for lo in range(0, len(xi), NORM_PAIR_CHUNK):
            hi = lo + NORM_PAIR_CHUNK
            # -2 c_g(x, y) = d(g, x) - d(g, y) - (d(e, x) - d(e, y))
            mags = rows.T[xi[lo:hi]]
            mags -= rows.T[yi[lo:hi]] + rise[lo:hi, None]
            np.abs(mags, out=mags)
            top = int(mags.max(initial=0)) ** ip
            if totals.dtype == object or top * len(xi) >= 2 ** 63:
                totals, acc = totals.astype(object), object
            else:
                acc = np.int32 if top * NORM_PAIR_CHUNK < 2 ** 31 else np.int64
            totals += ((mags.astype(acc) ** ip).sum(axis=0) if ip > 1
                       else mags.sum(axis=0, dtype=acc))
        # one Fraction per distinct sum, shared by the rows that have it
        halves = {t: Fraction(int(t), 2 ** ip) for t in set(totals.tolist())}
        return [halves[t] for t in totals.tolist()]
    step = max(1, (1 << 16) // max(1, len(xi)))
    out = []
    for lo in range(0, len(rows), step):
        b = d0 - rows[lo:lo + step]
        mags = np.abs(b.take(xi, axis=1) - b.take(yi, axis=1))
        # in C order each row reduces as that element's 1-D sum does
        vals = np.ascontiguousarray((mags * 0.5) ** float(p))
        out += vals.sum(axis=1).tolist()
    return out


@dataclass
class LpNormReport:
    p: object
    K: object
    C: object
    radius: int
    norm_p: object          # truncated sum of |c_g|^p, exact when possible
    tail_bound: object
    n: int
    lower_bound: object


def _tail_bound(band, g, p):
    """Bound on the lp mass of pairs outside the truncation ball.

    Uses |c_g(x,y)| <= e^{|g|} e^{-(x|y)} and (x|y) >= |x| - (K+C) on the
    band, summed against sphere-count upper bounds.  Exact zero on free
    groups once the ball holds every pair of `free_norm_count`.
    """
    pres = band.metric.pres
    kc = float(band.K) + float(band.C)
    if (pres.kind == "free" and band.metric.exact
            and band.ball.radius >= g.length() + band.window[1] - 1):
        return 0.0
    growth = free_sphere_size(pres, 2) / max(1, free_sphere_size(pres, 1))
    q = growth * math.exp(-float(p))
    if q >= 1.0:
        return math.inf
    r = band.ball.radius
    per_point = sum(free_sphere_size(pres, n) for n in range(math.floor(kc) + 1))
    lead = free_sphere_size(pres, r + 1) * math.exp(-float(p) * (r + 1))
    series = lead / (1.0 - q)
    try:
        spread = math.exp(float(p) * (kc + g.length()))
    except OverflowError:
        return math.inf
    return 2.0 * per_point * spread * series


def _norm_unit_bound(band, p):
    """(K-2C)^p: exact on exact metrics at integral p, else a float."""
    unit, k, c = band.integer_window
    gap = Fraction(k - 2 * c, unit)
    if band.metric.exact and p == int(p):
        return gap ** int(p)
    return float(gap) ** float(p)


def cocycle_norms(band, gs, p):
    """Truncated sums of |c_g|^p over the band, one per g in gs."""
    return _cocycle_norm(band, _distance_rows(band, gs), p)


def free_norm_count(pres, length, p, window):
    """|c_g|_p^p over the whole free group, for every g with |g| = length,
    on the ordered pairs at word distance lo..hi, window = (lo, hi), at
    integral p: Haagerup's tree cocycle.  c_g(x, y) = i - j, where x and
    y leave the geodesic [e, g] at positions i and j; the points at
    distance a from position i that leave there number 1 at a = 0, else
    q^a at the ends and (q-1) q^(a-1) inside, q = 2k-1.  A ball's
    truncated norm equals it once radius >= length + hi - 1."""
    q = 2 * pres.rank - 1
    lo, hi = window

    def leaving(i, a):
        if a == 0:
            return 1
        return q ** a if i in (0, length) else (q - 1) * q ** (a - 1)

    return sum(abs(i - j) ** p * leaving(i, a) * leaving(j, D - abs(i - j) - a)
               for D in range(lo, hi + 1) for i in range(length + 1)
               for j in range(max(0, i - D), min(length, i + D) + 1)
               if j != i for a in range(D - abs(i - j) + 1))


def lp_norms(band, g, grid):
    """Truncated sums of |c_g|^p over the band, with tail bounds, one per
    p of grid, all from one row d(g, .)."""
    if any(p < 1 for p in grid):
        raise InputError("p must be >= 1")
    row = _distance_rows(band, [g])[0]
    kc = Fraction(band.K) + Fraction(band.C)
    # d(e, g) in the band's unit
    n = max(0, math.floor((Fraction(row[0].item()) - kc) / Fraction(band.K)))
    return [LpNormReport(
        p=p,
        K=band.K,
        C=band.C,
        radius=band.ball.radius,
        norm_p=_cocycle_norm(band, row[None], p)[0],
        tail_bound=_tail_bound(band, g, p),
        n=n,
        lower_bound=_norm_unit_bound(band, p) * n,
    ) for p in grid]


def _min_rule(params, targets):
    """Per row of params and target, the i that min(range(L), key=lambda
    i: (abs(params[i] - target), params[i])) picks: the first minimum of
    the distances over the stably sorted (not monotone) parameters."""
    order = np.argsort(params, axis=1, kind="stable")
    ts = np.take_along_axis(params, order, axis=1)
    picks = [np.abs(ts - target).argmin(axis=1) for target in targets]
    return np.take_along_axis(order, np.stack(picks, axis=1), axis=1)


@dataclass
class CertificateBlock:
    """Row k: element k's partition count n, parameters (first n + 1) and
    rises of c_g (first n; doubled if exact), norm, its certified lower
    bound (K-2C)^p * n, first failure or None."""
    n: np.ndarray
    points: np.ndarray
    rises: np.ndarray
    actual: list
    lower: list
    errors: list


def properness_certificates(band, gs, p):
    """Certificates that truncated |c_g|_p^p >= (K-2C)^p * n for a block:
    the points of g's canonical path nearest to 0, K, ..., nK in d(e, .)
    (`_min_rule`) pair up in the band, c_g rising by K - 2C or more along
    each pair, with 2 (g|x) = d(e, g) + d(e, x) - d(g, x) read from the
    band's matrix, in integers (units of 1/u) on exact metrics."""
    exact, pres = band.metric.exact, band.metric.pres
    rows = _distance_rows(band, gs)
    words = [g.word for g in gs]
    # each prefix's position, one walk; -1 off the ball
    pos = np.stack(list(band.ball._steps([0], words)), axis=-1)[0].astype(int)
    pos[pos == len(band.ball)] = -1
    T = band.distances[0][pos].astype(np.int64 if exact else np.float64)
    for k, j in np.argwhere(pos < 0).tolist():
        T[k, j] = band.metric.distance(pres.identity, GroupElement(
            pres, pres.normalize(words[k][:j])))
    T[:, 0] = 0     # d(e, e); the Green table's -log 1 would read -0.0
    if exact:
        unit, step, c = band.integer_window
        # K or C with a huge denominator: scaled values in Python integers
        if max(unit, step) * (2 * int(T.max(initial=0)) + 2) >= 2 ** 62:
            T = T.astype(object)
        n = (T[:, -1] * unit // step).astype(np.int64)
        floor2 = 2 * (step - 2 * c)
        targets = np.arange(n.max(initial=0) + 1).astype(T.dtype) * step
    else:
        unit, floor2 = 1, 2 * (band.K - 2 * band.C)
        # the least float that compares >= 2(K - 2C)
        floor2 = (float(floor2) if float(floor2) >= floor2
                  else np.nextafter(float(floor2), np.inf))
        n = np.maximum(0, np.floor(T[:, -1] / float(band.K))).astype(int)
        targets = np.array([float(j * band.K)
                            for j in range(n.max(initial=0) + 1)])
    chosen = _min_rule(T * unit, targets)
    where = np.take_along_axis(pos, chosen, axis=1)
    points = np.take_along_axis(T, chosen, axis=1)
    # 2 (g|x) at each chosen x (unread off the ball: its pair fails)
    dp = (rows[:, :1] + points) - np.take_along_axis(rows, where, axis=1)
    i0, i1 = where[:, :-1], where[:, 1:]
    in_band = (i0 >= 0) & (i1 >= 0) & band.holds(i1, i0)
    doubled = dp[:, 1:] - dp[:, :-1]
    rises = doubled if exact else 0.5 * dp[:, 1:] - 0.5 * dp[:, :-1]
    bad = (np.arange(len(targets) - 1) < n[:, None]) & ~(
        in_band & (doubled * unit >= floor2).astype(bool))
    errors = [None] * len(gs)
    for k in np.flatnonzero(bad.any(axis=1)).tolist():
        j = int(bad[k].argmax())
        x0, x1 = (GroupElement(pres, pres.normalize(gs[k].word[:i])).spelled()
                  for i in chosen[k, j:j + 2])
        v = Fraction(int(rises[k, j]), 2) if exact else rises[k, j].item()
        errors[k] = (
            f"segment value {v} below K-2C={band.K - 2 * band.C} at "
            f"t={points[k].tolist()[j]}" if in_band[k, j] else
            f"partition pair ({x1}, {x0}) left the coarse edge set; the "
            f"rough constant C={band.C} is too small or the band radius is "
            "too small")
    actual = _cocycle_norm(band, rows, p)
    unit_bound = _norm_unit_bound(band, p)
    bounds = {k: unit_bound * k for k in set(n.tolist())}
    lower = [bounds[k] for k in n.tolist()]
    tested = {}
    for k, (a, b) in enumerate(zip(actual, lower)):
        # each distinct exact norm, and each bound, is one object
        key = id(a), id(b)
        if key not in tested:
            tested[key] = a >= b
        if errors[k] is None and not tested[key]:
            errors[k] = f"truncated norm {a} below certificate bound {b}"
    return CertificateBlock(n=n, points=points, rises=rises, actual=actual,
                            lower=lower, errors=errors)


@dataclass
class ExponentScanRow:
    p: float
    shells: list
    increments: list
    partial_sums: list
    ratios: list
    verdict: str


def critical_exponent_scan(band, p_grid):
    """Truncated sums of e^{-p (x|y)} over the band, by shell.

    Gromov products are read from the band's distance matrix; the shell
    of a pair is max(|x|, |y|).  The verdict compares successive shell
    increments geometrically.  For free groups the predicted convergence
    threshold is the growth exponent log(2k-1).
    """
    for p in p_grid:
        if p < 1:
            raise InputError("grid values must be >= 1")
    rows = []
    if band.empty:
        return [ExponentScanRow(float(p), [], [], [], [], "empty")
                for p in p_grid]
    lens = band.ball.lengths
    dist = band.distances
    xi, yi = band.index[:, 0], band.index[:, 1]
    doubled = dist[0, xi] + dist[0, yi] - dist[xi, yi]     # 2 (x|y)
    shell = np.maximum(lens[xi], lens[yi])
    shells = sorted(set(shell.tolist()))
    for p in p_grid:
        weights = np.exp(-float(p) * 0.5 * doubled)
        increments = [float(weights[shell == s].sum()) for s in shells]
        partials = np.cumsum(increments).tolist()
        ratios = [increments[i + 1] / increments[i]
                  for i in range(len(increments) - 1) if increments[i] > 0]
        if not ratios:
            verdict = "converges"
        else:
            verdict = "converges" if ratios[-1] < 1.0 else "diverges"
        rows.append(ExponentScanRow(
            p=float(p), shells=list(shells), increments=increments,
            partial_sums=partials, ratios=ratios, verdict=verdict,
        ))
    return rows


@dataclass
class IdentityScanReport:
    outer_elements: int
    pair_count: int
    product_pairs: int
    length_checks: int
    mismatches: int
    sampled_triples: int
    max_sample_defect: object


# triples the identity scan also evaluates literally
IDENTITY_SAMPLES = 200


def cocycle_identity_scan(band, outer_radius, seed=0):
    """Exhaustive check of c_{gh}(x,y) = c_g(x,y) + c_h(g^-1 x, g^-1 y).

    The defect at (g,h,x,y) equals half the difference of two length
    discrepancies |h^-1 (g^-1 x)| - |(gh)^-1 x| (same at y), so verifying
    every such discrepancy vanishes covers every band pair exactly.  The
    products gh and g^-1 x, for g, h in the outer ball B(o) and x in the
    band's ball B(r), are read off the edges of one ball B(max(2o, o+r)),
    whose sphere-order prefixes B(o), B(2o) and B(o+r) hold g and h, gh
    and g^-1 x.  A seeded sample of triples is also evaluated literally
    through haagerup_value, with element products, as an independent
    route: `IDENTITY_SAMPLES` of them, drawn from a generator seeded by
    `seed`.  When o = r the two blocks of lengths are B(2o) x B(o) and
    its transpose, as |l^-1 r| = |r^-1 l|: one call gives both.
    """
    metric = band.metric
    pres = metric.pres
    ball_els = band.ball.elements
    ball = enumerate_ball(pres, max(2 * outer_radius,
                                    outer_radius + band.ball.radius))
    ends = np.cumsum(ball.sphere_sizes()).tolist()
    outer = ball.elements[: ends[outer_radius]]
    # row of lens_prod for each (g, h): g along axis 0, h along axis 1
    pair_rows = ball.walk(range(len(outer)), [h.word for h in outer])
    # g^-1 is the h of the outer ball with gh = e
    g_inv = (pair_rows == 0).argmax(axis=1)
    # column of lens_trans for each (g, x): g^-1 x
    trans_tables = ball.walk(g_inv, [x.word for x in ball_els])

    lens_prod = bulk_product_lengths(
        pres, ball.elements[: ends[2 * outer_radius]], ball_els)
    wide = ball.elements[: ends[outer_radius + band.ball.radius]]
    lens_trans = (lens_prod.T if outer_radius == band.ball.radius
                  else bulk_product_lengths(pres, outer, wide))

    mismatches = 0
    checks = 0
    for i in range(len(outer)):
        # row k compares |h_k^-1 (g^-1 x)| with |(g h_k)^-1 x| over x
        rows_h = lens_trans[:, trans_tables[i]]
        rows_gh = lens_prod[pair_rows[i]]
        checks += rows_h.size
        mismatches += int((rows_h != rows_gh).sum())

    draw = random.Random(seed).randrange
    max_defect = Fraction(0) if metric.exact else 0.0
    n_pairs = len(band)
    sampled = 0
    if n_pairs:
        for _ in range(IDENTITY_SAMPLES):
            g = outer[draw(len(outer))]
            h = outer[draw(len(outer))]
            i, j = band.index[draw(n_pairs)]
            x, y = ball_els[i], ball_els[j]
            gi = g.inverse()
            lhs = haagerup_value(metric, g * h, x, y)
            rhs = (haagerup_value(metric, g, x, y)
                   + haagerup_value(metric, h, gi * x, gi * y))
            defect = abs(lhs - rhs)
            if defect > max_defect:
                max_defect = defect
            sampled += 1
    return IdentityScanReport(
        outer_elements=len(outer),
        pair_count=n_pairs,
        product_pairs=len(outer) ** 2,
        length_checks=checks,
        mismatches=mismatches,
        sampled_triples=sampled,
        max_sample_defect=max_defect,
    )
