"""Verification suites behind the command-line harness.

Each suite builds its objects from a ScenarioConfig and the radius that
`run_scenario` resolves, runs a fixed list of checks, and returns its
settings, checks and table; `run_scenario` times it and wraps these in a
SuiteReport whose serialized form is byte-deterministic for a given
configuration.
"""

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import boundary, cocycles, crossed, groups, metrics
from .errors import InputError, InvariantViolation

SUITE_ORDER = ("strong-hyp", "green", "cocycle", "properness", "boundary", "kms")

DEFAULT_RADIUS = {
    "strong-hyp": 3,
    "green": 4,
    "cocycle": 4,
    "properness": 6,
    "boundary": 3,
    "kms": 2,
}

DEFAULT_P = {
    "cocycle": (1.0, 2.0, 3.0),
    "properness": (1.0,),
}


@dataclass
class ScenarioConfig:
    suite: str
    group: str = "free:2"
    metric: str = "word"
    radius: int = None
    K: Fraction = None
    C: Fraction = None
    p: tuple = None
    depth: int = None
    seed: int = 0
    format: str = "json"
    out: str = None
    g: str = None

    def validated(self):
        if self.suite not in SUITE_ORDER + ("all",):
            raise InputError(f"unknown suite {self.suite!r}")
        if self.metric not in ("word", "green"):
            raise InputError(f"unknown metric {self.metric!r}")
        if self.format not in ("json", "csv"):
            raise InputError(f"unknown format {self.format!r}")
        if self.radius is not None and self.radius < 0:
            raise InputError("radius must be nonnegative")
        if self.depth is not None and self.depth < 1:
            raise InputError("depth must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.p is not None:
            for x in self.p:
                if not (math.isfinite(x) and x >= 1):
                    raise InputError(f"p values must be finite and at "
                                     f"least 1, got {x}")
        return self


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict
    witness: dict = None


@dataclass
class SuiteReport:
    suite: str
    group: str
    settings: dict
    checks: list
    table: tuple = None
    duration: float = field(default=0.0, compare=False)

    @property
    def counts(self):
        failures = sum(0 if c.passed else 1 for c in self.checks)
        return {"checks": len(self.checks), "failures": failures}

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _exact_p(p):
    """An integral p as an int, so lp norms stay exact rationals."""
    return int(p) if float(p).is_integer() else p


def _build_metric(pres, cfg, radius):
    if cfg.metric == "green":
        return metrics.green_metric(pres, radius_hint=radius)
    return metrics.word_metric(pres)


def _settings(cfg, radius, **extra):
    out = {"group": cfg.group, "metric": cfg.metric, "radius": radius,
           "seed": cfg.seed}
    for key, value in extra.items():
        if value is not None:
            out[key] = value
    return out


def _suite_strong_hyp(pres, cfg, radius):
    metric = _build_metric(pres, cfg, radius)
    ball = groups.enumerate_ball(pres, radius)
    margin = None
    if pres.kind == "free" and cfg.metric == "word":
        margin = metrics.four_point_min_rule_margin(ball)
    rep = metrics.check_strong_hyperbolicity(metric, ball)
    witness = None
    if rep.witness is not None:
        witness = {"x": rep.witness[0], "y": rep.witness[1],
                   "z": rep.witness[2], "defect": rep.defect}
    checks = [CheckResult(
        name="four-point-defect",
        passed=rep.defect <= rep.threshold,
        details={"defect": rep.defect, "raw": rep.raw,
                 "basepoint": "identity", "quadruples": rep.quadruples,
                 "elements": rep.elements, "threshold": rep.threshold},
        witness=witness,
    )]
    if margin is not None:
        checks.append(CheckResult(
            name="tree-min-rule-margin",
            passed=margin >= 0,
            details={"doubled_margin": margin},
        ))
    return _settings(cfg, radius), checks, None


def _suite_green(pres, cfg, radius):
    data = metrics.solve_green(pres, radius_hint=radius)
    checks = []
    if pres.kind == "free":
        measure = boundary.BoundaryMeasure(pres)
        scale = measure.dimension
        ball = groups.enumerate_ball(pres, radius)
        dev = max(abs(data.value(g.word) - scale * g.length())
                  for g in ball.elements)
        checks.append(CheckResult(
            name="log-scaled-tree-match",
            passed=dev <= 1e-6,
            details={"max_abs_deviation": dev, "scale": scale,
                     "truncation": data.truncation, "tolerance": 1e-6},
        ))
        step = data.passage((0,))
        expected = 1.0 / measure.base()
        checks.append(CheckResult(
            name="first-passage-closed-form",
            passed=bool(abs(step - expected) <= 1e-9),
            details={"passage": step, "expected": expected,
                     "gap": data.gap},
        ))
    green = metrics.MetricStructure(pres, data)
    ball4p = groups.enumerate_ball(pres, min(radius, 3))
    rep = metrics.check_strong_hyperbolicity(green, ball4p)
    checks.append(CheckResult(
        name="green-four-point-defect",
        passed=rep.defect <= rep.threshold,
        details={"defect": rep.defect, "raw": rep.raw,
                 "basepoint": "identity", "quadruples": rep.quadruples,
                 "elements": rep.elements},
    ))
    settings = _settings(cfg, radius, truncation=data.truncation,
                         solver=data.mode)
    return settings, checks, None


def _band_for(pres, cfg, radius):
    metric = _build_metric(pres, cfg, radius)
    K = cfg.K if cfg.K is not None else (Fraction(1) if metric.exact else 1.0)
    band = cocycles.build_pair_band(metric, K, radius, C=cfg.C)
    # An empty band under a ball whose distances reach past K+C means the
    # window falls between two distances the ball realizes, and every
    # check on it would fail or be vacuous.  A ball too small to reach K
    # is allowed: its properness certificates need no pair.
    if band.empty and band.distances.max() > band.K + band.C:
        raise InputError(
            f"no pair of the radius-{radius} ball has its distance in "
            f"[K-C, K+C] = [{band.K - band.C}, {band.K + band.C}]; "
            "choose another K")
    return band


def _norm_table(band, g, grid):
    columns = ("p", "K", "C", "radius", "norm_p", "tail_bound", "n",
               "lower_bound")
    reports = cocycles.lp_norms(band, g, [_exact_p(p) for p in grid])
    rows = [(rep.p, rep.K, rep.C, rep.radius, rep.norm_p, rep.tail_bound,
             rep.n, rep.lower_bound) for rep in reports]
    return (columns, rows), reports


def _suite_cocycle(pres, cfg, radius):
    grid = cfg.p if cfg.p is not None else DEFAULT_P["cocycle"]
    band = _band_for(pres, cfg, radius)
    # free groups with word metrics have exact norms, `free_norm_count`
    counted = pres.kind == "free" and band.metric.exact
    hi = band.window[1]
    settings = _settings(cfg, radius, K=band.K, C=band.C, p=list(grid),
                         g=cfg.g)
    checks = []
    if cfg.g is not None:
        g = pres.element(cfg.g)
        table, reports = _norm_table(band, g, grid)
        for rep in reports:
            # at a float p the count is exact only when every jump is 1
            p = rep.p if isinstance(rep.p, int) else 1 if hi == 1 else None
            expected = (cocycles.free_norm_count(pres, g.length(), p,
                                                 band.window)
                        if counted and p is not None else None)
            checks.append(CheckResult(
                name=f"lp-norm-p={rep.p}",
                passed=expected is None or (
                    rep.norm_p <= expected
                    and expected - rep.norm_p <= rep.tail_bound),
                details={"p": rep.p, "norm_p": rep.norm_p,
                         "tail_bound": rep.tail_bound, "n": rep.n,
                         "lower_bound": rep.lower_bound,
                         "expected": expected},
            ))
        return settings, checks, table
    outer = min(2, radius)
    scan = cocycles.cocycle_identity_scan(band, outer, seed=cfg.seed)
    checks.append(CheckResult(
        name="cocycle-identity-scan",
        passed=scan.mismatches == 0 and scan.max_sample_defect == 0,
        details={"outer_elements": scan.outer_elements,
                 "pair_count": scan.pair_count,
                 "length_checks": scan.length_checks,
                 "mismatches": scan.mismatches,
                 "sampled_triples": scan.sampled_triples,
                 "max_sample_defect": scan.max_sample_defect},
    ))
    # the ball holds every pair of the count up to this length
    top = min(4, radius - hi + 1)
    if counted and top >= 0:
        norm_els = [g for g in band.ball.elements if g.length() <= top]
        counts = {(n, p): cocycles.free_norm_count(pres, n, p, band.window)
                  for n in range(top + 1) for p in (1, 2, 3)}
        norms = {p: cocycles.cocycle_norms(band, norm_els, p)
                 for p in (1, 2, 3)}
        bad = next(({"g": g.spelled(), "p": p, "norm_p": norms[p][k],
                     "expected": counts[g.length(), p]}
                    for k, g in enumerate(norm_els) for p in (1, 2, 3)
                    if norms[p][k] != counts[g.length(), p]), None)
        checks.append(CheckResult(
            name="edge-norm-law",
            passed=bad is None,
            details={"elements": len(norm_els), "p_values": [1, 2, 3]},
            witness=bad,
        ))
    scan_rows = cocycles.critical_exponent_scan(band, [float(p) for p in grid])
    for row in scan_rows:
        details = {"p": row.p, "verdict": row.verdict,
                   "last_ratio": row.ratios[-1] if row.ratios else None,
                   "partial_sum": row.partial_sums[-1]
                   if row.partial_sums else None}
        passed = True
        if counted and band.K == 1 and band.C == 0 and row.ratios:
            growth = (groups.free_sphere_size(pres, 2)
                      // groups.free_sphere_size(pres, 1))
            predicted = growth * math.exp(-row.p)
            details["predicted_ratio"] = predicted
            correct_verdict = ("converges" if row.p > math.log(growth)
                               else "diverges")
            passed = (abs(row.ratios[-1] - predicted) <= 1e-9
                      and row.verdict == correct_verdict)
        checks.append(CheckResult(
            name=f"exponent-scan-p={format(row.p, '.12g')}",
            passed=passed,
            details=details,
        ))
    return settings, checks, None


def _suite_properness(pres, cfg, radius):
    grid = cfg.p if cfg.p is not None else DEFAULT_P["properness"]
    p = _exact_p(grid[0])
    band = _band_for(pres, cfg, radius)
    settings = _settings(cfg, radius, K=band.K, C=band.C, p=[p], g=cfg.g)
    checks = []
    if cfg.g is not None:
        g = pres.element(cfg.g)
        block = cocycles.properness_certificates(band, [g], p)
        if block.errors[0] is not None:
            raise InvariantViolation(block.errors[0])
        checks.append(CheckResult(
            name="properness-certificate",
            passed=True,
            details={"g": g.spelled(), "n": int(block.n[0]),
                     # the identity's bound is an exact 0 on exact metrics
                     "lower_bound": (Fraction(0) if band.metric.exact
                                     and g.is_identity() else block.lower[0]),
                     "actual": block.actual[0]},
        ))
        return settings, checks, None
    # margin = n - (d(e, g) - (K+C)) / K; on exact metrics it is kept as
    # the integer margin * K * u, with u from `PairBand.integer_window`
    gs = band.ball.elements[1:]
    block = cocycles.properness_certificates(band, gs, p)
    witness = next(({"g": g.spelled(), "error": error}
                    for g, error in zip(gs, block.errors) if error), None)
    failures = sum(error is not None for error in block.errors)
    # d(e, g) in the band's unit, and n, of each certified g
    kept = [(d, k) for d, k, error in zip(band.distances[0, 1:].tolist(),
                                          block.n.tolist(), block.errors)
            if error is None]
    if band.metric.exact:
        unit, step, c = band.integer_window
        margins = [k * step - (d * unit - (step + c)) for d, k in kept]
    else:
        margins = [k - (d - (band.K + band.C)) / band.K for d, k in kept]
    min_margin = None
    if margins:
        min_margin = float(Fraction(min(margins), step)
                           if band.metric.exact else min(margins))
    checks.append(CheckResult(
        name="properness-certificates",
        passed=not failures,
        details={"elements": len(gs), "failures": failures,
                 "min_count_margin": min_margin},
        witness=witness,
    ))
    return settings, checks, None


def _suite_boundary(pres, cfg, radius):
    settings = _settings(cfg, radius, depth=cfg.depth)
    ball = groups.enumerate_ball(pres, radius)
    checks = []

    scanned, bad = boundary.conformality_scan(pres, ball.elements[1:],
                                              cfg.depth)
    conf_bad = bad and {"g": bad[0].spelled(), "cylinder": bad[1].cylinder,
                        "ratio": bad[1].ratio, "busemann": bad[1].busemann}
    checks.append(CheckResult(
        name="measure-conformality",
        passed=conf_bad is None,
        details={"elements": len(ball) - 1, "cylinders": scanned},
        witness=conf_bad,
    ))

    family = boundary.seeded_family(pres, 50, cfg.seed)
    rng = random.Random(cfg.seed)
    els = ball.elements
    triples = []
    for _ in range(200):
        g = els[rng.randrange(len(els))]
        xi = family[rng.randrange(len(family))]
        eta = family[rng.randrange(len(family))]
        while eta == xi:
            eta = family[rng.randrange(len(family))]
        triples.append((g, xi, eta))
    identity = boundary.conformal_identity_scan(triples)
    identity_bad = identity and dict(zip(("g", "xi", "eta", "lhs", "rhs"),
                                         identity))
    checks.append(CheckResult(
        name="conformal-metric-identity",
        passed=identity_bad is None,
        details={"triples": 200},
        witness=identity_bad,
    ))

    small = groups.enumerate_ball(pres, min(2, radius))
    action, cocycle = boundary.action_law_scan(small, family[:12])
    pairs = len(small) ** 2 * 12
    action_bad = action and dict(zip(("g", "h", "xi"), action))
    cocycle_bad = cocycle and dict(zip(("g", "h", "xi", "lhs", "rhs"),
                                       cocycle))
    checks.append(CheckResult(
        name="boundary-action-law",
        passed=action_bad is None,
        details={"triples": pairs},
        witness=action_bad,
    ))
    checks.append(CheckResult(
        name="busemann-cocycle-identity",
        passed=cocycle_bad is None,
        details={"triples": pairs},
        witness=cocycle_bad,
    ))

    points = family[:30]
    d = boundary.visual_distances(points)
    # gap[x, y, z] = d[x][y] - (d[x][z] + d[z][y])
    gap = d[:, None, :] + d.T[None, :, :]
    np.subtract(d[:, :, None], gap, out=gap)
    worst = max(0.0, float(gap.max()))
    checks.append(CheckResult(
        name="visual-four-point",
        passed=worst <= 0.0,
        details={"points": 30, "worst_defect": worst},
    ))

    nonvan = crossed.nonvanishing_certificate(ball)
    bad = next((r for r in nonvan.records if not r.ok), None)
    checks.append(CheckResult(
        name="fixed-point-nonvanishing",
        passed=nonvan.all_ok,
        details={"elements": len(nonvan.records)},
        witness={"g": bad.g, "at_plus": bad.at_plus, "at_minus": bad.at_minus,
                 "translation": bad.translation} if bad else None,
    ))
    return settings, checks, None


def _kms_witness(failures):
    """The first spelled (g, w, v, lhs, rhs) comparison as a witness."""
    return (dict(zip(("g", "w", "v", "lhs", "rhs"), failures[0]))
            if failures else None)


def _random_monomial(pres, rng, words, els):
    """1_{C_w} g for a seeded word w, drawn first, and element g."""
    return crossed.CrossedElement.monomial(
        pres, words[rng.randrange(len(words))], els[rng.randrange(len(els))])


def _suite_kms(pres, cfg, radius):
    depth = cfg.depth if cfg.depth is not None else max(3, radius + 1)
    measure = boundary.BoundaryMeasure(pres)
    base = measure.base()
    lam = Fraction(1, base)     # e^(-beta) at beta = log(2k-1)
    settings = _settings(cfg, radius, depth=depth)
    checks = []

    a = pres.element_from_symbol(0)
    A = crossed.CrossedElement.monomial(pres, a.word, a)
    B = crossed.CrossedElement.monomial(pres, a.word * 2, a.inverse())
    pair = crossed.kms_check(A, B, lam)
    expected = measure.word_mass(a.word * 3)
    checks.append(CheckResult(
        name="worked-monomial-pair",
        passed=pair.equal and pair.lhs == expected,
        details={"lhs": pair.lhs, "rhs": pair.rhs, "expected": expected},
    ))

    scan = crossed.kms_monomial_scan(pres, radius, depth, seed=cfg.seed)
    checks.append(CheckResult(
        name="kms-monomial-scan",
        passed=scan.equal and scan.lam in (lam, None),
        details={"monomials": scan.monomials, "pairs": scan.pairs,
                 "zero_pairs": scan.zero_pairs,
                 "checked_pairs": scan.checked_pairs,
                 "crosschecked": scan.crosschecked,
                 "solved_lambda": scan.lam},
        witness=_kms_witness(scan.failures),
    ))

    # beta raised by log(2k-1): a pair that forces lam fails at lam^2, as
    # lam^(2b) != lam^b for b != 0; the engine shows it on the first
    hot = () if scan.first_forcing is None else (
        crossed.monomial_pair_kms(*scan.first_forcing, scan.lam ** 2),)
    checks.append(CheckResult(
        name="temperature-sensitivity",
        passed=any(lhs != rhs for *_, lhs, rhs in hot),
        details={"beta_offset": math.log(base),
                 "unequal_pairs_found": scan.forcing_pairs},
        witness=_kms_witness(hot),
    ))

    rng = random.Random(cfg.seed)
    words = boundary.reduced_words(pres, min(2, depth))
    els = groups.enumerate_ball(pres, min(2, radius)).elements
    bad_pos = None
    for _ in range(20):
        one = _random_monomial(pres, rng, words, els)
        two = _random_monomial(pres, rng, words, els)
        val = crossed.state_omega(crossed.cp_multiply((one + two).adjoint(),
                                                      one + two))
        if val < 0 and bad_pos is None:
            bad_pos = {"value": val}
    checks.append(CheckResult(
        name="state-positivity",
        passed=bad_pos is None,
        details={"samples": 20},
        witness=bad_pos,
    ))

    bad_flow = None
    for _ in range(10):
        one = _random_monomial(pres, rng, words, els)
        two = _random_monomial(pres, rng, words, els)
        lhs = crossed.apply_flow(crossed.cp_multiply(one, two), lam)
        rhs = crossed.cp_multiply(crossed.apply_flow(one, lam),
                                  crossed.apply_flow(two, lam))
        if lhs != rhs and bad_flow is None:
            bad_flow = {"note": "flow failed to distribute over a product"}
    checks.append(CheckResult(
        name="flow-multiplicativity",
        passed=bad_flow is None,
        details={"samples": 10},
        witness=bad_flow,
    ))
    return settings, checks, None


_SUITE_RUNNERS = {
    "strong-hyp": _suite_strong_hyp,
    "green": _suite_green,
    "cocycle": _suite_cocycle,
    "properness": _suite_properness,
    "boundary": _suite_boundary,
    "kms": _suite_kms,
}


def run_scenario(cfg):
    """Run the configured suite (or all of them, in fixed order)."""
    cfg.validated()
    pres = groups.preset(cfg.group)
    names = SUITE_ORDER if cfg.suite == "all" else (cfg.suite,)
    reports = []
    for name in names:
        started = time.perf_counter()
        radius = cfg.radius if cfg.radius is not None else DEFAULT_RADIUS[name]
        settings, checks, table = _SUITE_RUNNERS[name](pres, cfg, radius)
        reports.append(SuiteReport(name, cfg.group, settings, checks, table,
                                   duration=time.perf_counter() - started))
    return reports
