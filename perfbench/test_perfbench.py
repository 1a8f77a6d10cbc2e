"""Tests of the benchmark's own logic.

Run with: python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

import run
import spans


def fake_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    tracer = spans.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    leaf = tracer.wrap("leaf", lambda: None)
    a = tracer.wrap("a", leaf)
    b = tracer.wrap("b", lambda: None)

    def body():
        a()
        b()

    tracer.wrap("root", body)()
    assert [tracer.names[i] for i in tracer.name_id] == ["root", "a", "leaf",
                                                         "b"]
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert tracer.self_times() == [3, 2, 1, 4]
    assert tracer.summary()["root"] == {"calls": 1, "self_s": 3}


def test_self_time_counts_overlap_once_and_clips_children():
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    # children cover [1, 7] and, clipped to the parent, [8, 10]
    assert spans.self_times(parent, start, end)[0] == pytest.approx(2.0)


def test_wrapped_calls_record_parents_and_survive_exceptions():
    tracer = spans.Tracer(clock=fake_clock(*range(10)))
    seen = []

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    traced_inner = tracer.wrap("inner", inner, on_result=seen.append)
    traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) + 1)
    assert traced_outer(3) == 7
    with pytest.raises(ValueError):
        traced_inner(-1)
    assert seen == [6]
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "inner",
                                                         "inner"]
    assert list(tracer.parent) == [-1, 0, -1]
    assert tracer.summary()["inner"]["calls"] == 2


SCENARIO = run.Scenario("strong-hyp free:2 r1",
                        {"suite": "strong-hyp", "group": "free:2",
                         "radius": 1}, 0,
                        (("four-point-defect", True),
                         ("tree-min-rule-margin", True)), 60.0)


def outcome(exit_code=0, checks=SCENARIO.checks):
    return {"exit_code": exit_code, "checks": [list(c) for c in checks]}


def test_pinned_verdicts_pass():
    assert run.judge(SCENARIO, outcome()) == []


def test_changed_verdict_or_exit_code_is_a_failure():
    flipped = (("four-point-defect", True), ("tree-min-rule-margin", False))
    assert run.judge(SCENARIO, outcome(checks=flipped))
    assert run.judge(SCENARIO, outcome(checks=SCENARIO.checks[:1]))
    assert run.judge(SCENARIO, outcome(exit_code=1))


def runner():
    return run.Runner(seed=7, deadline=run.time.monotonic() + 120,
                      env=run.worker_env())


def test_worker_outcome_is_judged_against_the_pin():
    ok = runner()
    assert ok.attempt(SCENARIO, "run") is not None
    assert (ok.tally.attempted, ok.tally.failed) == (1, 0)

    wrong = run.Scenario(SCENARIO.label, SCENARIO.config, 1, SCENARIO.checks,
                         60.0)
    bad = runner()
    assert bad.attempt(wrong, "run") is None
    assert (bad.tally.attempted, bad.tally.failed) == (1, 1)
    assert "exit code 0, expected 1" in bad.tally.problems[0]


def test_tracing_records_layers_and_keeps_report_bytes():
    r = runner()
    plain = r.attempt(SCENARIO, "run")
    traced = r.attempt(SCENARIO, "trace")
    assert traced["sha256"] == plain["sha256"]
    assert traced["spans"]["metrics.check_strong_hyperbolicity"]["calls"] == 1
    assert traced["spans"]["suites.run_scenario"]["calls"] == 1
    assert traced["counts"]["groups.ball_elements"] > 0
    assert traced["counts"]["metrics.quadruples"] > 0
    own = sum(row["self_s"] for row in traced["spans"].values())
    assert own <= traced["wall_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_failed_scenario_leaves_the_workload_without_metrics(monkeypatch,
                                                               trace):
    wrong = run.Scenario(SCENARIO.label, SCENARIO.config, 1, SCENARIO.checks,
                         60.0)
    monkeypatch.setitem(run.WORKLOADS, "wrong", (wrong,))
    tally, metrics, lines = run.run_workload("wrong", 7, 0, trace)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert metrics == {}
    assert any("FAILED" in line and "expected 1" in line for line in lines)


def test_timeout_is_a_failure():
    # cocycle on surface:2 at the default radius runs for minutes
    slow = run.Scenario("cocycle surface:2 r4",
                        {"suite": "cocycle", "group": "surface:2"}, 0, (),
                        limit_s=2.0)
    r = runner()
    assert r.attempt(slow, "run") is None
    assert (r.tally.attempted, r.tally.failed) == (1, 1)
    assert "timed out" in r.tally.problems[0]


def test_execute_kills_a_worker_at_its_timeout():
    result, reason = run.execute(
        [sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert result is None and reason.startswith("timed out")


def traced(calls, counts):
    return {"wall_s": 1.0, "suite_wall_s": {},
            "spans": {"groups.normalize": {"calls": calls, "self_s": 0.5}},
            "counts": counts}


def test_count_mismatch_between_traced_passes_is_loud():
    same = {"metrics.quadruples": 10}
    run.check_counts([traced(4, same), traced(4, same)])
    with pytest.raises(run.CountMismatch, match="groups.normalize.calls"):
        run.check_counts([traced(4, same), traced(5, same)])
    with pytest.raises(run.CountMismatch, match="metrics.quadruples"):
        run.check_counts([traced(4, same),
                          traced(4, {"metrics.quadruples": 11})])


def test_benchmark_json_names_the_metrics_run_py_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)


def test_end_to_end_sums_median_scaled_times_and_setups():
    ref = run.REFERENCE_PROBE_S
    scenarios = (run.FREE2_FOURPOINT, run.MODULAR[0], run.MODULAR[1])
    # Each scenario once at the reference speed, twice at half of it.
    outcomes = {s.label: [{"wall_s": w, "peak_rss_mb": rss, "probes": p}
                          for w, rss, p in ((1.0, 10.0, [ref] * 5),
                                            (2.2, 30.0, [2 * ref] * 5),
                                            (2.4, 20.0, [2 * ref] * 5))]
                for s in scenarios}

    def setups(*seconds):
        return [{"setup_s": x, "setup_probes": [2 * ref]} for x in seconds]

    setup = {"free:2": setups(0.1, 0.3, 0.2), "modular": setups(0.5, 0.4)}
    values = run.end_to_end(scenarios, outcomes, setup)
    # scaled set-up: free:2 median 0.1, modular median 0.225
    assert values["setup_s"] == pytest.approx(0.1 + 0.225 + 0.225)
    # scaled runs: 1.0, 1.1, 1.2; median 1.1 per scenario
    assert values["wall_s"] == pytest.approx(3 * 1.1)
    assert values["peak_rss_mb"] == 30.0


def test_scaling_uses_the_mean_share_of_reference_speed():
    ref = run.REFERENCE_PROBE_S
    # half the time at the reference speed, half at a third of it
    assert run.scaled(4.0, [ref, 3 * ref, ref, 3 * ref]) == pytest.approx(
        4.0 * 2 / 3)
    assert run.scaled(4.0, []) == 4.0


def test_tracing_overhead_compares_scaled_times():
    ref = run.REFERENCE_PROBE_S
    pairs = [[({"wall_s": 1.0, "probes": [ref]},
               {"wall_s": 2.4, "probes": [2 * ref]})]] * 3
    assert run.tracing_overhead(pairs) == pytest.approx(0.2)
