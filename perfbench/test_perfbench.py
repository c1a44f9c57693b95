"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import (  # noqa: E402
    Target, Tracer, patched, percentile, quartile_spread,
    supported_percentile, traced_sites,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # root 0..10, child a 1..4 holding grandchild b 2..3, child c 5..9
    t = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    t.begin("root")
    t.begin("a")
    t.begin("b")
    t.end()
    t.end()
    t.begin("c")
    t.end()
    t.end()
    assert t.self_time == {"b": 1, "a": 2, "c": 4, "root": 3}
    assert sum(t.self_time.values()) == 10  # self times partition the root
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]  # parents
    assert t.calls == {"root": 1, "a": 1, "b": 1, "c": 1}


def test_repeated_spans_accumulate():
    t = Tracer(clock=FakeClock(0, 1, 2, 4, 6, 8))
    with t.span("root"):
        for _ in range(2):
            with t.span("leaf"):
                pass
    assert t.self_time["leaf"] == 1 + 2
    assert t.self_time["root"] == 8 - 3
    assert t.calls["leaf"] == 2


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        assert n - math.ceil(round(expected * n / 100, 6)) >= 10


def test_percentile_and_spread():
    values = list(range(1, 101))
    assert percentile(values, 90.0) == 90
    assert percentile(values, 50.0) == 50
    assert quartile_spread([5.0] * 10) == 0.0
    q1, q2, q3 = 2.0, 4.0, 6.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((q3 - q1) / q2)


def _bindings():
    import pathprob  # noqa: F401 - loads every module the targets name

    return {
        (mod.__name__, key): value
        for mod in wl.package_modules()
        for key, value in vars(mod).items() if callable(value)
    }


def test_wrappers_trace_inside_and_are_restored_after():
    before = _bindings()
    rng_method = wl.module("mc").RngStream.trial_rng
    tracer = Tracer()
    with patched(tracer, wl.TARGETS) as absent:
        assert absent == []
        assert traced_sites()
        solver = wl.module("solver")
        assert solver.solve is not before[("pathprob.solver", "solve")]
        # aliases made by "from x import f" are wrapped too
        assert solver.build_grid is wl.module("scheme").build_grid
        # region_of is wrapped only where the simulator looks it up
        assert wl.module("regions").region_of is before[("pathprob.regions", "region_of")]
        wl.module("mc").RngStream(1).trial_rng(0)
    assert tracer.calls["mc.trial_rng"] == 1
    assert traced_sites() == []
    assert _bindings() == before
    assert wl.module("mc").RngStream.trial_rng is rng_method


def test_wrappers_are_restored_when_the_block_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with patched(Tracer(), wl.TARGETS):
            1 / 0
    assert traced_sites() == []
    assert _bindings() == before


def test_untraced_run_refuses_installed_wrappers(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    workload = wl.WORKLOADS["simulate_2clock"]
    with patched(Tracer(), wl.TARGETS[:1]):
        monkeypatch.setattr(wl, "purge_package", lambda: None)
        with pytest.raises(RuntimeError, match="tracing wrappers"):
            run.run_untraced(workload, 1, 0.0, run.Ledger(workload))


def test_missing_function_is_absent_not_fatal():
    ghost = Target("solver.solve", "pathprob.solver", "no_such_function")
    tracer = Tracer()
    with patched(tracer, (ghost,)) as absent:
        pass
    assert absent == ["solver.solve"]
    values = wl.layer_values(tracer, absent)
    assert values["solver.solve_s"] is None and values["solver.sweeps"] is None
    assert values["scheme.build_grid_s"] == 0.0


def test_traced_command_counts_and_coverage():
    workload = wl.WORKLOADS["simulate_2clock"]
    ctx = wl.Context(3, workload.model)
    wl.setup(ctx, reimport=False)
    small = dataclasses.replace(
        workload, query=lambda c: wl.module("mc").estimate(
            c.chain, c.dta, c.graph, "a", "q0", (0.0, 0.0), n=50, seed=c.seed))
    answer, error, values, absent, tracer = run.traced_command(small, ctx)
    assert error is None and absent == []
    assert values["mc.trials"] == 50
    assert values["mc.accepted"] + values["mc.dead_absorbed"] == 50
    assert values["product.vertices"] == 216
    assert values["mc.steps"] == values["dynamics.select_rule_calls"] > 0
    assert 0.0 < values["trace.coverage"] <= 1.0
    assert traced_sites() == []


def _wrong_estimate(ctx):
    est, est_k = wl.simulate_query(ctx)
    accepted = int(0.9 * est.n)
    return dataclasses.replace(est, p_hat=accepted / est.n, accepted=accepted,
                               dead_absorbed=est.n - accepted), est_k


def test_wrong_answer_counts_as_failed_operation(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    workload = dataclasses.replace(wl.WORKLOADS["simulate_2clock"],
                                   query=_wrong_estimate)
    ledger = run.Ledger(workload)
    run.run_untraced(workload, 1, 0.0, ledger)
    assert ledger.attempted == 1 and ledger.failed == 1
    assert "grid reference" in ledger.problems[0]


def test_raising_query_counts_as_failed_operation():
    ledger = run.Ledger(wl.WORKLOADS["solve_2clock"])
    answer, error = run._attempt(lambda: 1 / 0)
    assert not ledger.record(answer, error)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_nondeterministic_answer_is_flagged():
    ledger = run.Ledger(wl.WORKLOADS["accuracy_1clock"])
    doc = {"probability": 1.0 - math.exp(-1.0), "timing": 1.0}
    assert ledger.record(doc)
    assert ledger.record(dict(doc, timing=2.0))  # timing is not part of the answer
    assert not ledger.record(dict(doc, probability=doc["probability"] + 1e-9))
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_solve_check():
    good = {"probability": wl.REF["exposure_m64"], "residual": 4.8e-12,
            "empirical_error_estimate": 5.5e-6}
    assert wl.check_solve(good) == []
    assert wl.check_solve(dict(good, probability=good["probability"] + 1e-6))
    assert wl.check_solve(dict(good, residual=1e-9))
    assert wl.check_solve(dict(good, empirical_error_estimate=math.inf))
    assert wl.check_solve(dict(good, empirical_error_estimate=None))


def test_accuracy_check():
    exact = 1.0 - math.exp(-1.0)
    assert wl.check_accuracy({"probability": exact + 2.8e-6}) == []
    assert wl.check_accuracy({"probability": exact + 2e-5})


def test_estimate_check():
    mc = wl.module("mc")
    p = wl.REF["exposure_m64"]
    accepted = round(p * wl.MC_TRIALS)
    good = mc.Estimate(accepted / wl.MC_TRIALS, wl.MC_TRIALS, 0.01, 0.99,
                       accepted, wl.MC_TRIALS - accepted, 0, 100)
    assert wl.check_estimate(good, absorbing=True) == []
    assert wl.check_estimate(dataclasses.replace(good, censored=1), absorbing=True)
    assert wl.check_estimate(dataclasses.replace(good, dead_absorbed=0), absorbing=True)
    assert wl.check_estimate(dataclasses.replace(good, dead_absorbed=0), absorbing=False) == []
    off = dataclasses.replace(good, p_hat=p + 1.01 * wl.mc_allowance(wl.MC_TRIALS))
    assert wl.check_estimate(off, absorbing=True)


def test_benchmark_json_matches_the_harness():
    spec = wl.SPEC
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert set(spec["workloads"]) == set(wl.WORKLOADS)
    produced = set(wl.layer_values(Tracer(), [])) | set(wl.cache_stats()) | {
        "trace.command_s", "trace.untraced_command_s", "trace.overhead",
        "trace.unattributed_s", "trace.coverage"}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert per_layer == produced
    assert per_layer == set(spec["layer_targets"])
    assert set(wl.EXACT) <= per_layer
    assert {m["name"] for m in BENCH["end_to_end"]} == {"setup_s", "query_s", "peak_rss_mb"}


def test_compare_refuses_another_backend(tmp_path, capsys):
    record = {"workload": "solve_2clock", "trace": 1, "seed": 1,
              "env": {"backend": "python", "PATHPROB_PURE_PYTHON": ""},
              "metrics": {"solver.sweeps": 19, "solver.solve_s": 1.0}}
    other = dict(record, env={"backend": "compiled", "PATHPROB_PURE_PYTHON": ""})
    drifted = dict(record, metrics={"solver.sweeps": 20, "solver.solve_s": 0.9})
    paths = []
    for i, doc in enumerate((record, other, drifted)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(doc))
    assert compare.main([str(paths[0]), str(paths[1])]) == 2
    assert "backend" in capsys.readouterr().err
    assert compare.main([str(paths[0]), str(paths[2])]) == 1
    assert "NONDETERMINISM exact count solver.sweeps" in capsys.readouterr().out
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
