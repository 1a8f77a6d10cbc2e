"""Cocycles from differences of Gromov products on coarse edge sets.

The group-level translation cocycle is b(g)(x) = |x| - |g^-1 x|; the
pair cocycle is c_g(x,y) = (g|x) - (g|y) restricted to the coarse edge
set of ordered pairs whose distance lies in [K-C, K+C].  Both are exact
integers (or half-integers) for word metrics, and read from two rows of
the band's distance matrix.  lp norms are truncated to a ball and carry
analytic tail bounds; properness certificates follow the
partition-of-a-geodesic argument and read the same two rows, d(e, .)
and d(g, .), comparing integers on exact metrics.
"""
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError, InvariantViolation, ResourceLimitError
from .groups import (GroupElement, bulk_product_lengths, enumerate_ball,
                     free_sphere_size)
from .metrics import metric_distance_matrix


def haagerup_value(metric, g, x, y):
    """c_g(x,y) = (g|x) - (g|y) in the given metric."""
    return metric.gromov_product(g, x) - metric.gromov_product(g, y)


class PairBand:
    """Ordered pairs from a ball with distance in [K-C, K+C] (inclusive).

    `distances` is the metric's n x n matrix over ball.elements (the
    ball's own word distances on exact kinds), `mask` the boolean
    membership matrix and `index` the (pairs, 2) array of its entries.
    """

    def __init__(self, metric, K, C, ball, distances, mask):
        self.metric = metric
        self.K = K
        self.C = C
        self.ball = ball
        self.distances = distances
        self.mask = mask
        self.index = np.argwhere(mask)

    def __len__(self):
        return len(self.index)

    @property
    def empty(self):
        return not len(self.index)

    def element_pairs(self):
        els = self.ball.elements
        return [(els[i], els[j]) for i, j in self.index]

    def contains_pair(self, x, y):
        i = self.ball.index.get(x.word)
        j = self.ball.index.get(y.word)
        return i is not None and j is not None and bool(self.mask[i, j])

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
    if not K > 2 * C:
        raise InputError(f"need K > 2C, got K={K}, C={C}")
    ball = enumerate_ball(metric.pres, radius)
    d = metric_distance_matrix(metric, ball)
    lo, hi = K - C, K + C
    if metric.exact:
        # integer distances: the window's integer ends bound the same pairs
        lo, hi = math.ceil(lo), math.floor(hi)
    mask = (d >= lo) & (d <= hi)
    np.fill_diagonal(mask, False)
    return PairBand(metric, K, C, ball, d, mask)


def _distance_row(band, g):
    """d(g, x) over the band's ball: a row of its matrix when g is in the
    ball, else product lengths (exact kinds) or one distance an element."""
    ball = band.ball
    i = ball.index.get(g.word)
    if i is not None:
        return band.distances[i]
    if band.metric.exact:
        return bulk_product_lengths(ball.pres, [g], ball.elements)[0]
    return np.array([band.metric.distance(g, x) for x in ball.elements])


def _band_cocycle_doubled(band, row):
    """2*c_g over the band's pairs from row = d(g, .): b(x) - b(y) with
    b = d(e, .) - d(g, .), exact integers on exact metrics."""
    b_vec = band.distances[0] - row
    return b_vec[band.index[:, 0]] - b_vec[band.index[:, 1]]


def _cocycle_norm(band, row, p):
    """Sum of |c_g|^p over the band, given row = d(g, .) over the ball;
    an exact Fraction on exact metrics at integral p."""
    mags = np.abs(_band_cocycle_doubled(band, row))
    if band.metric.exact and p == int(p):
        ip = int(p)
        top = int(mags.max()) if mags.size else 0
        if top ** ip * len(mags) < 2 ** 63:    # the int64 sum fits
            total = int((mags.astype(np.int64) ** ip).sum())
        else:
            total = sum(int(v) ** ip for v in mags)
        return Fraction(total, 2 ** ip)
    return float(((mags * 0.5) ** float(p)).sum())


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
    groups once the ball swallows the geodesic's K+C neighborhood.
    """
    pres = band.metric.pres
    kc = float(band.K) + float(band.C)
    if pres.kind == "free" and band.metric.exact:
        reach = math.ceil(Fraction(band.K) + Fraction(band.C))
        if band.ball.radius >= g.length() + reach:
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


def _norm_lower_bound(band, n, p):
    """(K-2C)^p * n: exact on exact metrics at integral p, else a float."""
    unit, k, c = band.integer_window
    gap = Fraction(k - 2 * c, unit)
    if band.metric.exact and p == int(p):
        return gap ** int(p) * n
    return float(gap) ** float(p) * n


def lp_norm(band, g, p):
    """Truncated sum of |c_g|^p over the band, with tail bound."""
    if p < 1:
        raise InputError("p must be >= 1")
    if g.pres is not band.metric.pres:
        raise InputError("element lives in a different presentation")
    row = _distance_row(band, g)
    kc = Fraction(band.K) + Fraction(band.C)
    # d(e, g) in the band's unit
    n = max(0, math.floor((Fraction(row[0].item()) - kc) / Fraction(band.K)))
    return LpNormReport(
        p=p,
        K=band.K,
        C=band.C,
        radius=band.ball.radius,
        norm_p=_cocycle_norm(band, row, p),
        tail_bound=_tail_bound(band, g, p),
        n=n,
        lower_bound=_norm_lower_bound(band, n, p),
    )


@dataclass
class PropernessCertificate:
    g: str
    n: int
    points: list            # partition parameters t_i
    segment_values: list    # c_g along consecutive partition pairs
    lower_bound: object
    actual: object


def _nearest_points(path, targets):
    """For each target, the path point that min(path, key=lambda pt:
    (abs(pt[0] - target), pt[0])) picks: the nearest parameter, ties to
    the smaller one, then to the earlier point.

    The parameters are sorted once, stably, and each target is bisected.
    Parameters need not be monotone along the path.
    """
    order = sorted(range(len(path)), key=lambda i: path[i][0])
    ts = [path[i][0] for i in order]
    out = []
    for target in targets:
        i = bisect_left(ts, target)        # ts[:i] < target <= ts[i:]
        best = i
        if i:
            d = abs(ts[i - 1] - target)
            if i == len(ts) or d <= abs(ts[i] - target):
                # rounded distances can tie below the target; the smaller
                # parameter wins, then the earlier point
                best = i - 1
                while best and abs(ts[best - 1] - target) == d:
                    best -= 1
        out.append(path[order[best]])
    return out


def _canonical_path(band, g):
    """(t, x, i) along the canonical word of g from the identity: the
    point x after each prefix, its parameter t = d(e, x) and its ball
    index i.  Prefixes that are canonical words are read from the ball;
    others are formed by one product, and a point outside the ball (None
    for i) takes its parameter from the metric."""
    metric = band.metric
    pres = metric.pres
    els, index = band.ball.elements, band.ball.index
    e_row = band.distances[0]
    x = pres.identity
    # d(e, e) = 0; the Green table's -log 1 would read -0.0
    path = [(0 if metric.exact else 0.0, x, 0)]
    for k in range(1, len(g.word) + 1):
        i = index.get(g.word[:k])
        if i is None:
            x = GroupElement(pres, pres.multiply(x.word, g.word[k - 1:k]))
            i = index.get(x.word)
        else:
            x = els[i]
        t = e_row.item(i) if i is not None else metric.distance(
            pres.identity, x)
        path.append((t, x, i))
    return path


def properness_check(band, g, p):
    """Certificate that truncated |c_g|_p^p >= (K-2C)^p * n.

    Walks the canonical path from the identity to g, picks points spaced
    K apart in the path parameter, and checks every consecutive pair
    stays in the band with cocycle value at least K - 2C.  Parameters
    and Gromov products come from the rows d(e, .) and d(g, .) of the
    band's matrix; on exact metrics they are compared as integers, in
    units of 1/u for the u of `PairBand.integer_window`.
    """
    metric = band.metric
    if g.pres is not metric.pres:
        raise InputError("element lives in a different presentation")
    row = _distance_row(band, g)
    actual = _cocycle_norm(band, row, p)
    if g.is_identity():
        return PropernessCertificate(
            g=g.spelled(), n=0, points=[], segment_values=[],
            lower_bound=0 * Fraction(band.K), actual=actual,
        )
    path = _canonical_path(band, g)
    span = path[-1][0]
    if metric.exact:
        unit, step, c = band.integer_window
        n = span * unit // step
        floor2 = 2 * (step - 2 * c)
    else:
        unit, step = 1, band.K
        n = max(0, math.floor(float(span) / float(band.K)))
        floor2 = 2 * (band.K - 2 * band.C)
    keyed = [(t * unit, t, x, i) for t, x, i in path]
    chosen = _nearest_points(keyed, [j * step for j in range(n + 1)])
    # 2 (g|x) = d(e, g) + d(e, x) - d(g, x), read only for points in the
    # ball: a pair with a point outside it fails before its value
    d_eg = row.item(0)
    values = []
    for (_, t0, x0, i0), (_, t1, x1, i1) in zip(chosen, chosen[1:]):
        if i0 is None or i1 is None or not band.mask[i1, i0]:
            raise InvariantViolation(
                f"partition pair ({x1.spelled()}, {x0.spelled()}) left the "
                f"coarse edge set; the rough constant C={band.C} is too small "
                "or the band radius is too small")
        dp0 = d_eg + t0 - row.item(i0)
        dp1 = d_eg + t1 - row.item(i1)
        v = Fraction(dp1 - dp0, 2) if metric.exact else 0.5 * dp1 - 0.5 * dp0
        if not (dp1 - dp0) * unit >= floor2:
            raise InvariantViolation(
                f"segment value {v} below K-2C={band.K - 2 * band.C} "
                f"at t={t0}")
        values.append(v)
    lower = _norm_lower_bound(band, n, p)
    if not actual >= lower:
        raise InvariantViolation(
            f"truncated norm {actual} below certificate bound {lower}")
    return PropernessCertificate(
        g=g.spelled(),
        n=n,
        points=[t for _, t, _, _ in chosen],
        segment_values=values,
        lower_bound=lower,
        actual=actual,
    )


@dataclass
class AffineActionReport:
    elements: int
    pairs_checked: int
    identity_exact: bool
    isometry_exact: bool
    displacements: list     # (spelled g, |c_g|_p^p over the band)


def _translate_vector(g, vec):
    return {(g * x, g * y): v for (x, y), v in vec.items()}


def _cocycle_vector(band, g):
    """c_g as a sparse map from band pairs (x, y) to its nonzero values."""
    doubled = _band_cocycle_doubled(band, _distance_row(band, g))
    nonzero = np.flatnonzero(doubled)
    els = band.ball.elements.__getitem__
    xi, yi = band.index[nonzero].T.tolist()
    # an object array keeps exact halves as Fractions
    half = Fraction(1, 2) if band.metric.exact else 0.5
    values = (doubled[nonzero].astype(object) * half).tolist()
    return dict(zip(zip(map(els, xi), map(els, yi)), values))


def _add_vectors(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _power_sum(vec, p):
    if p == int(p):
        return sum(abs(v) ** int(p) for v in vec.values())
    return sum(float(abs(v)) ** float(p) for v in vec.values())


def affine_action_check(band, gs, p):
    """Exact check of A_g(v) = g.v + c_g being an action by isometries.

    Vectors are sparse maps on ordered pairs; the cocycle part lives on
    the band, so A_g(A_h(v)) and A_{gh}(v) are compared on the common
    window: band pairs whose g-preimage pair is also in the band.  The
    finitely supported v itself must stay inside the band under every
    composed translate, otherwise the window cannot certify anything.
    v is the indicator of the band's first pair.
    """
    if band.empty:
        raise InputError("cannot pick a support from an empty band")
    x, y = band.element_pairs()[0]
    support = {(x, y): Fraction(1)}

    cvecs = {}

    def cvec(g):
        if g.word not in cvecs:
            cvecs[g.word] = _cocycle_vector(band, g)
        return cvecs[g.word]

    def act(g, vec):
        return _add_vectors(_translate_vector(g, vec), cvec(g))

    for g in gs:
        for h in gs:
            for (x, y) in support:
                gh = g * h
                if not band.contains_pair(gh * x, gh * y):
                    need = max((gh * x).length(), (gh * y).length())
                    raise ResourceLimitError(
                        "support escapes the pair window; need radius >= "
                        f"{need}")

    identity_exact = True
    isometry_exact = True
    base_power = _power_sum(support, p)
    for g in gs:
        if _power_sum(_translate_vector(g, support), p) != base_power:
            isometry_exact = False
    pairs_checked = 0
    for g in gs:
        for h in gs:
            lhs = act(g, act(h, support))
            rhs = act(g * h, support)
            # discrepancies are meaningful only where the g-translate of
            # the band still lies in the band
            for key in set(lhs) | set(rhs):
                if lhs.get(key, 0) == rhs.get(key, 0):
                    continue
                kx, ky = key
                gi = g.inverse()
                if (band.contains_pair(kx, ky)
                        and band.contains_pair(gi * kx, gi * ky)):
                    identity_exact = False
            pairs_checked += 1
    displacements = [(g.spelled(), _power_sum(cvec(g), p)) for g in gs]
    return AffineActionReport(
        elements=len(gs),
        pairs_checked=pairs_checked,
        identity_exact=identity_exact,
        isometry_exact=isometry_exact,
        displacements=displacements,
    )


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
    `seed`.
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
    lens_trans = bulk_product_lengths(
        pres, outer, ball.elements[: ends[outer_radius + band.ball.radius]])

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
