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
        if self.p is not None:
            for x in self.p:
                if x < 1:
                    raise InputError("p values must be at least 1")
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
    counts: dict
    passed: bool
    table: tuple = None
    duration: float = field(default=0.0, compare=False)


def _finish(suite, cfg, settings, checks, table, started):
    failures = sum(0 if c.passed else 1 for c in checks)
    return SuiteReport(
        suite=suite,
        group=cfg.group,
        settings=settings,
        checks=checks,
        counts={"checks": len(checks), "failures": failures},
        passed=failures == 0,
        table=table,
        duration=time.perf_counter() - started,
    )


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
    # Seeded sampling keeps large balls tractable without losing determinism.
    mode = "exhaustive"
    if len(ball.elements) ** 4 > metrics.QUADRUPLE_CAP:
        mode = "sampled"
    rep = metrics.check_strong_hyperbolicity(metric, ball, mode=mode,
                                             seed=cfg.seed)
    witness = None
    if rep.witness is not None:
        witness = {"x": rep.witness[0], "y": rep.witness[1],
                   "z": rep.witness[2], "basepoint": rep.witness[3],
                   "defect": rep.defect}
    checks = [CheckResult(
        name="four-point-defect",
        passed=rep.defect <= rep.threshold,
        details={"defect": rep.defect, "raw": rep.raw,
                 "quadruples": rep.quadruples, "elements": rep.elements,
                 "mode": rep.mode, "threshold": rep.threshold},
        witness=witness,
    )]
    if pres.kind == "free" and cfg.metric == "word":
        margin = metrics.four_point_min_rule_margin(ball)
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
        k = pres.rank
        scale = math.log(2 * k - 1)
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
        expected = 1.0 / (2 * k - 1)
        checks.append(CheckResult(
            name="first-passage-closed-form",
            passed=abs(step - expected) <= 1e-9,
            details={"passage": step, "expected": expected,
                     "gap": data.gap},
        ))
    green = metrics.MetricStructure(pres, "green", 1.0, green=data)
    ball4p = groups.enumerate_ball(pres, min(radius, 3))
    rep = metrics.check_strong_hyperbolicity(green, ball4p, seed=cfg.seed)
    checks.append(CheckResult(
        name="green-four-point-defect",
        passed=rep.defect <= rep.threshold,
        details={"defect": rep.defect, "raw": rep.raw,
                 "quadruples": rep.quadruples, "elements": rep.elements},
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
    if band.empty:
        top = metrics.metric_distance_matrix(metric, band.ball).max()
        if top > band.K + band.C:
            raise InputError(
                f"no pair of the radius-{radius} ball has its distance in "
                f"[K-C, K+C] = [{band.K - band.C}, {band.K + band.C}]; "
                "choose another K")
    return band


def _norm_table(band, g, grid):
    columns = ("p", "K", "C", "radius", "norm_p", "tail_bound", "n",
               "lower_bound")
    rows = []
    reports = []
    for p in grid:
        p_exact = int(p) if float(p).is_integer() else p
        rep = cocycles.lp_norm(band, g, p_exact)
        reports.append(rep)
        rows.append((rep.p, rep.K, rep.C, rep.radius, rep.norm_p,
                     rep.tail_bound, rep.n, rep.lower_bound))
    return (columns, rows), reports


def _suite_cocycle(pres, cfg, radius):
    grid = cfg.p if cfg.p is not None else DEFAULT_P["cocycle"]
    band = _band_for(pres, cfg, radius)
    settings = _settings(cfg, radius, K=band.K, C=band.C, p=list(grid),
                         g=cfg.g)
    checks = []
    if cfg.g is not None:
        g = pres.element(cfg.g)
        table, reports = _norm_table(band, g, grid)
        free_edge_case = (pres.kind == "free" and band.K == 1 and band.C == 0
                          and band.metric.exact)
        for rep in reports:
            expected = 2 * g.length() if free_edge_case else None
            checks.append(CheckResult(
                name=f"lp-norm-p={rep.p}",
                passed=(rep.norm_p == expected) if expected is not None else True,
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
    if pres.kind == "free" and band.K == 1 and band.C == 0 and band.metric.exact:
        norm_els = [g for g in band.ball.elements if g.length() <= 4]
        bad = None
        for g in norm_els:
            for p in (1, 2, 3):
                rep = cocycles.lp_norm(band, g, p)
                if rep.norm_p != 2 * g.length():
                    bad = {"g": g.spelled(), "p": p, "norm_p": rep.norm_p,
                           "expected": 2 * g.length()}
                    break
            if bad:
                break
        checks.append(CheckResult(
            name="edge-norm-law",
            passed=bad is None,
            details={"elements": len(norm_els), "p_values": [1, 2, 3]},
            witness=bad,
        ))
    scan_rows = cocycles.critical_exponent_scan(band, [float(p) for p in grid])
    oracle = (pres.kind == "free" and band.K == 1 and band.C == 0
              and band.metric.exact and band.metric.scale == 1)
    growth = 2 * pres.rank - 1 if pres.kind == "free" else None
    for row in scan_rows:
        details = {"p": row.p, "verdict": row.verdict,
                   "last_ratio": row.ratios[-1] if row.ratios else None,
                   "partial_sum": row.partial_sums[-1]
                   if row.partial_sums else None}
        passed = True
        if oracle and row.ratios:
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
    p = grid[0]
    p = int(p) if float(p).is_integer() else p
    band = _band_for(pres, cfg, radius)
    settings = _settings(cfg, radius, K=band.K, C=band.C, p=[p], g=cfg.g)
    checks = []
    if cfg.g is not None:
        g = pres.element(cfg.g)
        cert = cocycles.properness_check(band, g, p)
        checks.append(CheckResult(
            name="properness-certificate",
            passed=True,
            details={"g": cert.g, "n": cert.n,
                     "lower_bound": cert.lower_bound, "actual": cert.actual},
        ))
        return settings, checks, None
    failures = []
    count = 0
    min_n_margin = None
    for g in band.ball.elements:
        if g.is_identity():
            continue
        count += 1
        try:
            cert = cocycles.properness_check(band, g, p)
        except InvariantViolation as exc:
            if len(failures) < 5:
                failures.append({"g": g.spelled(), "error": str(exc)})
            continue
        floor_bound = (g.length() - (band.K + band.C)) / band.K
        margin = cert.n - floor_bound
        if min_n_margin is None or margin < min_n_margin:
            min_n_margin = margin
    checks.append(CheckResult(
        name="properness-certificates",
        passed=not failures,
        details={"elements": count, "failures": len(failures),
                 "min_count_margin": float(min_n_margin)
                 if min_n_margin is not None else None},
        witness=failures[0] if failures else None,
    ))
    return settings, checks, None


def _suite_boundary(pres, cfg, radius):
    settings = _settings(cfg, radius, depth=cfg.depth)
    ball = groups.enumerate_ball(pres, radius)
    checks = []

    conf_failures = []
    scanned = 0
    for g in ball.elements:
        if g.is_identity():
            continue
        depth = g.length() + 1
        if cfg.depth is not None:
            depth = max(depth, cfg.depth)
        rep = boundary.conformality_check(g, depth)
        scanned += len(rep.records)
        if not rep.all_equal:
            bad = rep.failures()[0]
            if len(conf_failures) < 5:
                conf_failures.append({"g": rep.g, "cylinder": bad.cylinder,
                                      "ratio": bad.ratio,
                                      "busemann": bad.busemann})
    checks.append(CheckResult(
        name="measure-conformality",
        passed=not conf_failures,
        details={"elements": len(ball) - 1, "cylinders": scanned},
        witness=conf_failures[0] if conf_failures else None,
    ))

    family = boundary.seeded_family(pres, 50, cfg.seed)
    rng = random.Random(cfg.seed)
    els = ball.elements
    bad_ci = None
    for _ in range(200):
        g = els[rng.randrange(len(els))]
        xi = family[rng.randrange(len(family))]
        eta = family[rng.randrange(len(family))]
        while eta == xi:
            eta = family[rng.randrange(len(family))]
        rep = boundary.conformal_identity_check(g, xi, eta)
        if not rep.ok and bad_ci is None:
            bad_ci = {"g": rep.g, "xi": xi.spelled(), "eta": eta.spelled(),
                      "lhs": rep.lhs, "rhs": rep.rhs}
    checks.append(CheckResult(
        name="conformal-metric-identity",
        passed=bad_ci is None,
        details={"triples": 200},
        witness=bad_ci,
    ))

    small = groups.enumerate_ball(pres, min(2, radius))
    action_bad = None
    cocycle_bad = None
    pairs = 0
    for g in small.elements:
        gi = g.inverse()
        for h in small.elements:
            gh = g * h
            for xi in family[:12]:
                pairs += 1
                if boundary.act(g, boundary.act(h, xi)) != boundary.act(gh, xi):
                    action_bad = action_bad or {"g": g.spelled(),
                                                "h": h.spelled(),
                                                "xi": xi.spelled()}
                lhs = boundary.busemann_boundary(gh, xi)
                rhs = (boundary.busemann_boundary(g, xi)
                       + boundary.busemann_boundary(h, boundary.act(gi, xi)))
                if lhs != rhs:
                    cocycle_bad = cocycle_bad or {"g": g.spelled(),
                                                  "h": h.spelled(),
                                                  "xi": xi.spelled(),
                                                  "lhs": lhs, "rhs": rhs}
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
    d = [[boundary.visual_distance(x, y) for y in points] for x in points]
    worst = 0.0
    for x in range(len(points)):
        for y in range(len(points)):
            for z in range(len(points)):
                gap = d[x][y] - (d[x][z] + d[z][y])
                if gap > worst:
                    worst = gap
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


def _suite_kms(pres, cfg, radius):
    depth = cfg.depth if cfg.depth is not None else 3
    measure = boundary.BoundaryMeasure(pres)
    dim = measure.dimension
    settings = _settings(cfg, radius, depth=depth)
    checks = []

    a = pres.element("a")
    A = crossed.CrossedElement.monomial(pres, "a", a)
    B = crossed.CrossedElement.monomial(pres, "aa", a.inverse())
    pair = crossed.kms_check(A, B, dim)
    expected = measure.word_mass(pres.parse_word("aaa"))
    checks.append(CheckResult(
        name="worked-monomial-pair",
        passed=pair.equal and pair.lhs == expected,
        details={"lhs": pair.lhs, "rhs": pair.rhs, "expected": expected},
    ))

    scan = crossed.kms_monomial_scan(pres, radius, depth, dim, seed=cfg.seed)
    checks.append(CheckResult(
        name="kms-monomial-scan",
        passed=scan.equal,
        details={"monomials": scan.monomials, "pairs": scan.pairs,
                 "zero_pairs": scan.zero_pairs,
                 "checked_pairs": scan.checked_pairs,
                 "crosschecked": scan.crosschecked},
        witness={"g": scan.failures[0][0], "w": scan.failures[0][1],
                 "v": scan.failures[0][2], "lhs": scan.failures[0][3],
                 "rhs": scan.failures[0][4]} if scan.failures else None,
    ))

    base = measure.base()
    hot = crossed.kms_monomial_scan(pres, radius, depth, dim + math.log(base),
                                    seed=cfg.seed)
    witness = None
    if hot.failures:
        witness = {"g": hot.failures[0][0], "w": hot.failures[0][1],
                   "v": hot.failures[0][2], "lhs": hot.failures[0][3],
                   "rhs": hot.failures[0][4]}
    checks.append(CheckResult(
        name="temperature-sensitivity",
        passed=not hot.equal,
        details={"beta_offset": math.log(base),
                 "unequal_pairs_found": len(hot.failures)},
        witness=witness,
    ))

    rng = random.Random(cfg.seed)
    words = boundary.reduced_words(pres, min(2, depth))
    els = groups.enumerate_ball(pres, min(2, radius)).elements
    bad_pos = None
    for _ in range(20):
        one = crossed.CrossedElement.monomial(
            pres, words[rng.randrange(len(words))],
            els[rng.randrange(len(els))])
        two = crossed.CrossedElement.monomial(
            pres, words[rng.randrange(len(words))],
            els[rng.randrange(len(els))])
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

    flow = crossed.FlowParameter.imaginary(dim)
    bad_flow = None
    for _ in range(10):
        one = crossed.CrossedElement.monomial(
            pres, words[rng.randrange(len(words))],
            els[rng.randrange(len(els))])
        two = crossed.CrossedElement.monomial(
            pres, words[rng.randrange(len(words))],
            els[rng.randrange(len(els))])
        lhs = crossed.apply_flow(crossed.cp_multiply(one, two), flow)
        rhs = crossed.cp_multiply(crossed.apply_flow(one, flow),
                                  crossed.apply_flow(two, flow))
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
        reports.append(_finish(name, cfg, settings, checks, table, started))
    return reports
