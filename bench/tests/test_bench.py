"""Tests of the benchmark itself: its reference table, its seeded
operation lists, its outcome verdicts and its tracer.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

import reference
import run
import speed
import tracing
import workloads
from conechase import derive, groups, les
from conechase.derive import default_catalog

ROOT = Path(__file__).resolve().parents[2]
SHIPPED = hashlib.sha256(
    (ROOT / "src/conechase/data/paper.facts").read_bytes()).hexdigest()


def compute_op(script, value, *extra):
    space, k, _ = next(s for s in workloads.SCENARIOS if s[2] == script)
    param, _ = reference.DOMAINS[script]
    argv = ("compute", "--space", space, "--k", str(k), f"--{param}",
            str(value), "--format", "machine") + extra
    return workloads.Op(argv, script, param, value)


def first_ops(workload, seed, rounds=4, **kw):
    batches = workloads.rounds(workload, seed, **kw)
    return [op for batch in itertools.islice(batches, rounds) for op in batch]


# -- reference ------------------------------------------------------------------

def test_reference_agrees_with_engine_on_every_grid_row():
    log = speed.SpeedLog()
    outcome = workloads.invoke(workloads.Op(workloads.REPRODUCE_ARGV,
                                            "reproduce"), True, log)
    assert outcome.code == 0 and not outcome.error
    assert workloads.judge(outcome, SHIPPED) == ["ok"] * 49
    # one probe just before each row, none counted in the pass's time
    assert outcome.probes == (0, 49)
    assert workloads.derive.Runner.run is derive.Runner.run


@pytest.mark.parametrize("space,k,script", workloads.SCENARIOS)
def test_reference_agrees_beyond_the_grid(space, k, script):
    _, lo = reference.DOMAINS[script]
    for value in (lo, 9, reference.CAP):
        outcome = workloads.invoke(compute_op(script, value, "--no-sweep"))
        assert workloads.judge(outcome, SHIPPED) == ["ok"], outcome.stdout


def test_reference_renders_canonically():
    assert reference.expected("pi5_L4m", 2) == {"Z/2 + Z/2 + Z(2)"}
    assert reference.expected("pi6_P3", 1) == {" + ".join(["Z/2"] * 5)}
    assert reference.expected("gamma3", 3) == {"24*beta(4)", "-24*beta(4)"}
    with pytest.raises(ValueError):
        reference.expected("pi6_L4m", 0)


# -- operation lists --------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_always_yields_the_same_operations(workload):
    lines = [f.line for f in default_catalog().facts]
    a = first_ops(workload, 11, fact_lines=lines)
    assert a == first_ops(workload, 11, fact_lines=lines)
    if workload != "reproduce":
        assert a != first_ops(workload, 12, fact_lines=lines)


def test_rounds_are_balanced_and_spread_evenly_over_the_domain():
    ops = first_ops("compute", 3, rounds=31)
    for i in range(0, len(ops), 5):
        assert sorted(op.script for op in ops[i:i + 5]) == sorted(
            s for _, _, s in workloads.SCENARIOS)
    for _, _, script in workloads.SCENARIOS:
        _, lo = reference.DOMAINS[script]
        values = [op.value for op in ops if op.script == script]
        assert all(lo <= v <= reference.CAP for v in values)
        # every eighth of the domain holds about an eighth of the values
        span = reference.CAP - lo + 1
        bins = Counter((v - lo) * 8 // span for v in values)
        assert len(bins) == 8 and max(bins.values()) <= 6
    assert all("--no-sweep" not in op.argv for op in ops)
    assert all("--no-sweep" in op.argv for op in first_ops("canonical", 3))


def test_ablation_pairs_every_scenario_with_every_fact_once_per_cycle():
    lines = [f.line for f in default_catalog().facts]
    ops = first_ops("ablation", 5, rounds=2 * len(lines), fact_lines=lines)
    cycle = ops[:5 * len(lines)]
    for _, _, script in workloads.SCENARIOS:
        assert sorted(op.kb_line for op in cycle if op.script == script) \
            == sorted(lines)
    dropped = [op.kb_line for op in ops]
    assert all(a != b for a, b in zip(dropped, dropped[1:]))
    # the cycle repeats unchanged, and a run completes it before it stops
    assert ops[len(cycle):] == cycle
    assert workloads.cycle_length("ablation", lines) == len(cycle)
    assert workloads.cycle_length("canonical", lines) == 1


def test_ablated_catalog_lacks_exactly_its_fact(tmp_path):
    catalog = default_catalog()
    digests = workloads.write_ablated_catalogs(catalog, tmp_path)
    path = workloads.ablated_path(tmp_path, 85)
    assert digests[85] == hashlib.sha256(path.read_bytes()).hexdigest()
    from conechase.kb import load_catalog
    kept = {f.line for f in catalog.facts} - {85}
    assert len(load_catalog(path).facts) == len(kept)


# -- verdicts -------------------------------------------------------------------------

def outcome(op, code=0, error="", stdout=""):
    return workloads.Outcome(op, 0.01, code, error, stdout)


def test_verdicts_follow_the_exit_code_contract():
    op = compute_op("pi5_P3", 4)
    ablated = workloads.Op(op.argv, op.script, op.param, op.value, 85)
    good = json.dumps({"script": "pi5_P3", "r": 4,
                       "group": "Z/2 + Z/2 + Z/2 + Z/16",
                       "kb_digest": SHIPPED})
    assert workloads.judge(outcome(op, stdout=good), SHIPPED) == ["ok"]
    wrong = good.replace("Z/16", "Z/8")
    assert workloads.judge(outcome(op, stdout=wrong), SHIPPED) == ["wrong"]
    assert workloads.judge(outcome(op, stdout=good), "other") == ["wrong"]
    assert workloads.judge(outcome(ablated, code=3), SHIPPED) == ["refused"]
    assert workloads.judge(outcome(op, code=3), SHIPPED) == ["failed"]
    assert workloads.judge(outcome(ablated, code=1), SHIPPED) == ["failed"]
    assert workloads.judge(outcome(ablated, code=None, error="LesError"),
                           SHIPPED) == ["failed"]


def test_attempted_and_failed_count_distinct_operations():
    op, other = compute_op("pi5_P3", 4), compute_op("pi5_P3", 5)
    raised = outcome(op, code=None, error="LesError")
    runs = [raised, outcome(other, code=3), raised]
    assert workloads.tally(runs, [["failed"], ["failed"], ["failed"]]) \
        == (2, 2, [])
    # an operation that ends differently between executions is reported
    runs = [raised, outcome(op, code=3)]
    assert workloads.tally(runs, [["failed"], ["failed"]]) == (1, 1, [op])
    # a reproduce pass holds one operation per grid row
    passes = [outcome(workloads.Op(workloads.REPRODUCE_ARGV, "reproduce"))] * 2
    grid = len(reference.GRID)
    assert workloads.tally(passes, [["ok"] * grid, ["ok"] * grid]) \
        == (grid, 0, [])


def test_an_exception_escaping_main_is_recorded(monkeypatch):
    def boom(argv):
        raise ZeroDivisionError("escaped")
    monkeypatch.setattr(workloads.cli, "main", boom)
    got = workloads.invoke(compute_op("pi5_P3", 2))
    assert got.code is None and got.error == "ZeroDivisionError"


def test_samples_are_scaled_by_their_bracketing_probes():
    log = speed.SpeedLog()
    log.probes = [1.0, 2.0, 3.0, 4.0, 100.0, 6.0]
    assert log.scale(0) == speed.REFERENCE_S / 1.5
    assert log.scale(1, 4) == speed.REFERENCE_S / 3.5
    assert log.scale(3, 5) == speed.REFERENCE_S / 6.0
    assert log.scale(5) == speed.REFERENCE_S / 6.0
    assert 0 < log.probe() < 1 and len(log.probes) == 7


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_latency(range(1, 201), 95) == (95, 190)
    assert run.tail_latency(range(1, 101), 95) == (90, 90)
    assert run.tail_latency(range(1, 16), 95) == (100, 15)


# -- tracing --------------------------------------------------------------------------

def test_aliased_imports_are_wrapped_and_restored():
    original = groups.cokernel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert derive.group_cokernel is groups.cokernel is not original
        assert derive.express is les.express
        assert derive.express.__wrapped__ is not None
        workloads.invoke(compute_op("pi5_L4m", 3, "--no-sweep"))
    finally:
        tracer.uninstall()
    assert derive.group_cokernel is groups.cokernel is original
    assert not hasattr(derive.express, "__wrapped__")
    summary = tracer.summary()
    assert summary["groups.cokernel"][0] > 0
    assert summary["les.express"][0] > 0
    assert tracer.counts["derive.executions"] == 1


def test_tracing_is_neutral():
    ops = [compute_op("pi5_L4m", 5), compute_op("pi6_P3", 3, "--no-sweep"),
           compute_op("pi6_J3", 2, "--no-sweep")]
    plain = [workloads.invoke(op) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [workloads.invoke(op) for op in ops]
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        assert a.code == b.code == 0
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        assert ra["group"] == rb["group"]
        assert ra["transcript_digest"] == rb["transcript_digest"]
    # self times add up to the time spent inside the top-level spans
    total_self = sum(s for _, s, _ in tracer.summary().values())
    top = sum(end - start for parent, start, end in zip(
        tracer.span_parent, tracer.span_start, tracer.span_end)
        if parent < 0)
    assert total_self == pytest.approx(top / 1e9)
    assert tracer.op == len(ops)


# -- declared metrics -----------------------------------------------------------------

def test_benchmark_json_declares_what_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [f"{m}.{q}" for m, q in tracing.TARGETS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.layer_metric_units(names)
    metrics, _ = run.end_to_end("compute", [0.1] * 30, 30, 30, 0, 3.0,
                                [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
