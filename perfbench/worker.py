"""Run one `hyperlab check` scenario in this process and print its outcome.

Usage: python3 perfbench/worker.py '<json spec>'

The spec holds the repository root, the scenario's ScenarioConfig
fields, and a mode: "run" (time the scenario), "trace" (time it with
spans around hyperlab's public functions) or "setup" (time only the
import and the presentation build).  The last line of standard output
is one JSON object.

While the set-up and the scenario are timed, a speed probe times a
fixed Python loop every PROBE_INTERVAL_S of wall time (see
`start_speed_probe`), so that the caller can tell how fast the core ran
meanwhile.

The scenario goes through `suites.run_scenario` and
`serialize.emit_reports`, and its errors map to exit codes as in
`hyperlab.cli.main`.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.02
PROBE_LOOP = 400        # iterations, a few tens of microseconds

# Public functions that get a span in trace mode, by module.  Every
# hyperlab module namespace that binds one of them is patched, so calls
# through re-bound names (`cocycles.word_distance_matrix`, ...) count too.
TRACED = {
    "groups": ("enumerate_ball", "bulk_product_lengths", "preset"),
    "metrics": ("check_strong_hyperbolicity", "four_point_min_rule_margin",
                "word_distance_matrix", "metric_distance_matrix",
                "solve_green"),
    "cocycles": ("build_pair_band", "lp_norm", "properness_check",
                 "cocycle_identity_scan", "critical_exponent_scan"),
    "boundary": ("conformality_check", "act", "visual_distance"),
    "crossed": ("kms_monomial_scan", "kms_check", "cp_multiply",
                "nonvanishing_certificate"),
    "suites": ("run_scenario",),
    "serialize": ("emit_reports",),
}


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    from hyperlab import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.backend_name(),
        "blas_threads": blas_threads(),
    }


def instrument(tracer):
    """Patch hyperlab's namespaces with traced wrappers; return the counters."""
    from hyperlab import groups, metrics

    counts = {"groups.ball_elements": 0, "metrics.quadruples": 0,
              "cocycles.band_pairs": 0, "cocycles.length_checks": 0,
              "boundary.cylinders": 0, "crossed.checked_pairs": 0,
              "serialize.report_bytes": 0}
    presentations = []

    def add(key, attr=None, size=False):
        def hook(result):
            value = getattr(result, attr) if attr else result
            counts[key] += len(value) if size else value
        return hook

    hooks = {
        "groups.enumerate_ball": add("groups.ball_elements", size=True),
        "groups.preset": presentations.append,
        "metrics.check_strong_hyperbolicity": add("metrics.quadruples",
                                                  "quadruples"),
        "cocycles.build_pair_band": add("cocycles.band_pairs", size=True),
        "cocycles.cocycle_identity_scan": add("cocycles.length_checks",
                                              "length_checks"),
        "boundary.conformality_check": add("boundary.cylinders", "records",
                                           size=True),
        "crossed.kms_monomial_scan": add("crossed.checked_pairs",
                                         "checked_pairs"),
        "serialize.emit_reports": add("serialize.report_bytes", size=True),
    }
    cache_info = getattr(metrics.word_distance_matrix, "cache_info", None)
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "hyperlab" or name.startswith("hyperlab.")]
    for module_name, functions in TRACED.items():
        module = sys.modules["hyperlab." + module_name]
        for fn_name in functions:
            original = getattr(module, fn_name, None)
            if original is None:        # removed from the library: no calls
                continue
            span = f"{module_name}.{fn_name}"
            wrapped = tracer.wrap(span, original, hooks.get(span))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
    groups.GroupPresentation.normalize = tracer.wrap(
        "groups.normalize", groups.GroupPresentation.normalize)

    def finish():
        info = cache_info() if cache_info else None
        counts["metrics.word_distance_matrix.hits"] = info.hits if info else 0
        counts["metrics.word_distance_matrix.misses"] = (info.misses if info
                                                         else 0)
        counts["groups.canon_cache_entries"] = sum(
            len(getattr(p, "_canon_cache", ())) for p in presentations)
        return counts

    return finish


def start_speed_probe():
    """Time a fixed loop every PROBE_INTERVAL_S of wall time, from a
    SIGALRM handler in this thread; return a function that stops the
    probe and returns the loop's durations in seconds.

    On a core shared with other tenants the same loop takes up to twice
    as long when a neighbour is busy, and a scenario slows with it.  The
    probe costs about 0.1% of the scenario's time.  Its handler runs
    between bytecodes, so a long call into C delays a probe until it
    returns.
    """
    durations = []
    clock = time.perf_counter

    def probe(signum, frame):
        started = clock()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        durations.append(clock() - started)

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, 0.001, PROBE_INTERVAL_S)

    def stop():
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        return durations

    return stop


def run(spec):
    mode = spec["mode"]
    config = spec["config"]
    stop_probe = start_speed_probe()
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import hyperlab
    from hyperlab import groups

    groups.preset(config["group"])
    setup_s = time.perf_counter() - started
    setup_probes = stop_probe()
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(hyperlab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported hyperlab from {hyperlab.__file__}, "
                           f"not from {src}")
    out = {"setup_s": setup_s, "setup_probes": setup_probes,
           "env": environment()}
    if mode == "setup":
        return out

    from hyperlab import serialize, suites
    from hyperlab.errors import (InputError, InvariantViolation, NumericError,
                                 ResourceLimitError, UnsupportedElementError)

    tracer = finish = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        finish = instrument(tracer)
    cfg = suites.ScenarioConfig(**config)
    reports = payload = None
    stop_probe = start_speed_probe()
    t0 = time.perf_counter()
    try:
        reports = suites.run_scenario(cfg)
        payload = serialize.emit_reports(reports, cfg.format)
    except (InputError, UnsupportedElementError, ResourceLimitError) as exc:
        exit_code, error = 2, f"error: {exc}"
    except (NumericError, InvariantViolation) as exc:
        exit_code, error = 1, f"check failed: {exc}"
    else:
        exit_code = 0 if all(r.passed for r in reports) else 1
        error = None
    out["wall_s"] = time.perf_counter() - t0
    out["probes"] = stop_probe()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["exit_code"] = exit_code
    out["error"] = error
    out["checks"] = [[c.name, bool(c.passed)]
                     for r in reports or () for c in r.checks]
    out["suite_wall_s"] = {r.suite: r.duration for r in reports or ()}
    out["sha256"] = hashlib.sha256(payload).hexdigest() if payload else None
    if tracer is not None:
        out["counts"] = finish()
        out["spans"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    print(json.dumps(run(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
