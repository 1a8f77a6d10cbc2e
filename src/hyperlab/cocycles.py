"""Cocycles from differences of Gromov products on coarse edge sets.

The group-level translation cocycle is b(g)(x) = |x| - |g^-1 x|; the
pair cocycle is c_g(x,y) = (g|x) - (g|y) restricted to the coarse edge
set of ordered pairs whose distance lies in [K-C, K+C].  Both are exact
integers (or half-integers) for word metrics.  lp norms are truncated to
a ball and carry analytic tail bounds; properness certificates follow
the partition-of-a-geodesic argument.
"""
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantViolation, ResourceLimitError
from .groups import bulk_product_lengths, enumerate_ball
from .metrics import (
    metric_distance_matrix,
    rough_geodesic,
    word_distance_matrix,
)


def busemann_group(g, x):
    """b(g)(x) = |x| - |g^-1 x|, an exact integer."""
    if g.pres is not x.pres:
        raise InputError("elements live in different presentations")
    return x.length() - len(g.pres.left_quotient(g.word, x.word))


def haagerup_value(metric, g, x, y):
    """c_g(x,y) = (g|x) - (g|y) in the given metric."""
    return metric.gromov_product(g, x) - metric.gromov_product(g, y)


class PairBand:
    """Ordered pairs from a ball with distance in [K-C, K+C] (inclusive).

    `mask` is the boolean n x n membership matrix over ball.elements and
    `index` the (pairs, 2) int64 array of its true entries.  Elements,
    lengths and distances are read from the ball.
    """

    def __init__(self, metric, K, C, ball, mask):
        self.metric = metric
        self.K = K
        self.C = C
        self.ball = ball
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


def build_pair_band(metric, K, radius, C=None):
    """Collect the coarse edge set inside a ball.

    C defaults to the metric's rough constant (0 for exact kinds).  An
    empty band is a warning condition, not an error; callers can read
    the `empty` flag.
    """
    if C is None:
        C = metric.rough_constant
        if C is None:
            raise InputError("metric has no rough constant; pass C explicitly")
    if K <= 0:
        raise InputError("K must be positive")
    if not K > 2 * C:
        raise InputError(f"need K > 2C, got K={K}, C={C}")
    ball = enumerate_ball(metric.pres, radius)
    dint = word_distance_matrix(ball)
    if metric.exact:
        scale = Fraction(metric.scale)
        lo = Fraction(K) - Fraction(C)
        hi = Fraction(K) + Fraction(C)
        lo_n = math.ceil(lo / scale)
        hi_n = math.floor(hi / scale)
        mask = (dint >= lo_n) & (dint <= hi_n)
    else:
        d = metric_distance_matrix(metric, ball)
        mask = (d >= K - C) & (d <= K + C)
    np.fill_diagonal(mask, False)
    return PairBand(metric, K, C, ball, mask)


def _band_cocycle_doubled(band, g):
    """2*c_g over the band's pairs as an exact integer array."""
    i = band.ball.index.get(g.word)
    if i is None:
        prod = bulk_product_lengths(band.ball.pres, [g], band.ball.elements)[0]
    else:
        prod = word_distance_matrix(band.ball)[i]  # |g^-1 x|, g in the ball
    b_vec = band.ball.lengths - prod               # b(g)(x) per ball element
    return b_vec[band.index[:, 0]] - b_vec[band.index[:, 1]]


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


def _sphere_upper(pres, n):
    """Upper bound on sphere sizes: exact for free, free-cover otherwise."""
    k2 = len(pres.alphabet.symbols)
    if n == 0:
        return 1
    return k2 * (k2 - 1) ** (n - 1)


def _tail_bound(band, g, p):
    """Bound on the lp mass of pairs outside the truncation ball.

    Uses |c_g(x,y)| <= e^{|g|} e^{-(x|y)} and (x|y) >= |x| - (K+C) on the
    band, summed against sphere-count upper bounds.  Exact zero on free
    groups once the ball swallows the geodesic's K+C neighborhood.
    """
    pres = band.metric.pres
    kc = float(band.K) + float(band.C)
    if pres.kind == "free" and band.metric.exact:
        if band.ball.radius >= g.length() + math.ceil(kc):
            return 0.0
    growth = _sphere_upper(pres, 2) / max(1, _sphere_upper(pres, 1))
    q = growth * math.exp(-float(p))
    if q >= 1.0:
        return math.inf
    r = band.ball.radius
    per_point = sum(_sphere_upper(pres, n) for n in range(math.floor(kc) + 1))
    lead = _sphere_upper(pres, r + 1) * math.exp(-float(p) * (r + 1))
    series = lead / (1.0 - q)
    try:
        spread = math.exp(float(p) * (kc + g.length()))
    except OverflowError:
        return math.inf
    return 2.0 * per_point * spread * series


def lp_norm(band, g, p):
    """Truncated sum of |c_g|^p over the band, with tail bound."""
    if p < 1:
        raise InputError("p must be >= 1")
    metric = band.metric
    if g.pres is not metric.pres:
        raise InputError("element lives in a different presentation")
    exact_p = p == int(p)
    if metric.exact:
        doubled = _band_cocycle_doubled(band, g)
        scale = Fraction(metric.scale)
        if exact_p:
            ip = int(p)
            mags = np.abs(doubled)
            top = int(mags.max()) if mags.size else 0
            if top ** ip * len(mags) < 2 ** 63:    # the int64 sum fits
                total = int((mags ** ip).sum())
            else:
                total = sum(int(v) ** ip for v in mags)
            norm = Fraction(total, 2 ** ip) * scale ** ip
        else:
            vals = np.abs(doubled) * (float(scale) / 2.0)
            norm = float((vals ** float(p)).sum())
    else:
        total = 0.0
        for x, y in band.element_pairs():
            total += abs(haagerup_value(metric, g, x, y)) ** float(p)
        norm = total
    kc = Fraction(band.K) + Fraction(band.C)
    n = max(0, math.floor((Fraction(g.length()) - kc) / Fraction(band.K)))
    gap = Fraction(band.K) - 2 * Fraction(band.C)
    lower = gap ** int(p) * n if exact_p else float(gap) ** float(p) * n
    return LpNormReport(
        p=p,
        K=band.K,
        C=band.C,
        radius=band.ball.radius,
        norm_p=norm,
        tail_bound=_tail_bound(band, g, p),
        n=n,
        lower_bound=lower,
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


def properness_check(band, g, p):
    """Certificate that truncated |c_g|_p^p >= (K-2C)^p * n.

    Walks the canonical path from the identity to g, picks points spaced
    K apart in the path parameter, and checks every consecutive pair
    stays in the band with cocycle value at least K - 2C.
    """
    metric = band.metric
    if g.pres is not metric.pres:
        raise InputError("element lives in a different presentation")
    if g.is_identity():
        return PropernessCertificate(
            g=g.spelled(), n=0, points=[], segment_values=[],
            lower_bound=0 * Fraction(band.K), actual=lp_norm(band, g, p).norm_p,
        )
    path = rough_geodesic(metric, metric.pres.identity, g)
    span = path[-1][0]
    n = max(0, math.floor(Fraction(span) / Fraction(band.K))
            if metric.exact else math.floor(float(span) / float(band.K)))
    chosen = _nearest_points(path, [i * band.K for i in range(n + 1)])
    # c_g(x1, x0) = (g|x1) - (g|x0): one Gromov product per partition point
    prods = [metric.gromov_product(g, x) for _, x in chosen]
    values = []
    floor_val = band.K - 2 * band.C
    for (t0, x0), (_, x1), p0, p1 in zip(chosen, chosen[1:], prods,
                                         prods[1:]):
        if not band.contains_pair(x1, x0):
            raise InvariantViolation(
                f"partition pair ({x1.spelled()}, {x0.spelled()}) left the "
                f"coarse edge set; the rough constant C={band.C} is too small "
                "or the band radius is too small")
        v = p1 - p0
        if not v >= floor_val:
            raise InvariantViolation(
                f"segment value {v} below K-2C={floor_val} at t={t0}")
        values.append(v)
    exact_p = p == int(p)
    gap = Fraction(band.K) - 2 * Fraction(band.C)
    lower = gap ** int(p) * n if exact_p and metric.exact else (
        float(gap) ** float(p) * n)
    actual = lp_norm(band, g, p).norm_p
    if not actual >= lower:
        raise InvariantViolation(
            f"truncated norm {actual} below certificate bound {lower}")
    return PropernessCertificate(
        g=g.spelled(),
        n=n,
        points=[t for t, _ in chosen],
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
    metric = band.metric
    out = {}
    for x, y in band.element_pairs():
        v = haagerup_value(metric, g, x, y)
        if v != 0:
            out[(x, y)] = v
    return out


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

    The shell of a pair is max(|x|, |y|); the verdict compares successive
    shell increments geometrically.  For free groups the predicted
    convergence threshold is the growth exponent log(2k-1).
    """
    for p in p_grid:
        if p < 1:
            raise InputError("grid values must be >= 1")
    rows = []
    if band.empty:
        return [ExponentScanRow(float(p), [], [], [], [], "empty")
                for p in p_grid]
    lens = band.ball.lengths
    dist = word_distance_matrix(band.ball)
    xi, yi = band.index[:, 0], band.index[:, 1]
    doubled = lens[xi] + lens[yi] - dist[xi, yi]           # 2 (x|y), exact
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


def cocycle_identity_scan(band, outer_radius, seed=0, samples=200):
    """Exhaustive check of c_{gh}(x,y) = c_g(x,y) + c_h(g^-1 x, g^-1 y).

    The defect at (g,h,x,y) equals half the difference of two length
    discrepancies |h^-1 (g^-1 x)| - |(gh)^-1 x| (same at y), so verifying
    every such discrepancy vanishes covers every band pair exactly.  A
    seeded sample of triples is also evaluated literally through
    haagerup_value as an independent route.
    """
    metric = band.metric
    pres = metric.pres
    outer = enumerate_ball(pres, outer_radius).elements
    ball_els = band.ball.elements

    products = {}
    pair_words = []     # gh for every (g, h) of outer, g-major
    for g in outer:
        for h in outer:
            gh = g * h
            products.setdefault(gh.word, gh)
            pair_words.append(gh.word)
    prod_els = [products[w] for w in sorted(products, key=lambda w: (len(w), w))]
    prod_idx = {e.word: i for i, e in enumerate(prod_els)}
    # row of lens_prod for each (g, h): g along axis 0, h along axis 1
    pair_rows = np.array([prod_idx[w] for w in pair_words],
                         dtype=np.int64).reshape(len(outer), len(outer))

    translated = {}
    trans_rows = {}
    for g in outer:
        gi = g.inverse()
        row = []
        for x in ball_els:
            gx = gi * x
            row.append(translated.setdefault(gx.word, gx))
        trans_rows[g.word] = row
    trans_els = [translated[w]
                 for w in sorted(translated, key=lambda w: (len(w), w))]
    trans_idx = {e.word: i for i, e in enumerate(trans_els)}
    trans_tables = {
        w: np.array([trans_idx[e.word] for e in row], dtype=np.int64)
        for w, row in trans_rows.items()
    }

    lens_prod = bulk_product_lengths(pres, prod_els, ball_els)
    lens_trans = bulk_product_lengths(pres, outer, trans_els)

    mismatches = 0
    checks = 0
    for i, g in enumerate(outer):
        # row k compares |h_k^-1 (g^-1 x)| with |(g h_k)^-1 x| over x
        rows_h = lens_trans[:, trans_tables[g.word]]
        rows_gh = lens_prod[pair_rows[i]]
        checks += rows_h.size
        mismatches += int((rows_h != rows_gh).sum())

    rng = np.random.default_rng(seed)
    max_defect = Fraction(0) if metric.exact else 0.0
    n_pairs = len(band)
    sampled = 0
    if n_pairs:
        for _ in range(samples):
            g = outer[int(rng.integers(len(outer)))]
            h = outer[int(rng.integers(len(outer)))]
            i, j = band.index[int(rng.integers(n_pairs))]
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
