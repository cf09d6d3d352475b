"""Tests of the benchmark's own logic, on synthetic timings and outputs.

Run with: python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (PINNED, SETUP_PROBE, Invocation,  # noqa: E402
                       iso_alphabet, workload)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _invs(*names):
    return [Invocation(n, [n]) for n in names]


def _ok(wall, setup=0.1, rss=1.0, **kw):
    # the reference-speed times differ from the raw ones, so a test can
    # tell which of the two a metric uses
    return run.Sample(True, wall, setup, rss, ref_wall_s=wall / 2,
                      ref_setup_s=setup / 2, **kw)


def test_round_robin_repeats_whole_rounds_while_they_fit():
    clock = FakeClock()
    cost = {"a": 1.0, "b": 2.0}
    walls = {"a": [1.5, 1.1, 1.3], "b": [2.0, 2.6, 2.2]}
    order = []

    def execute(inv, traced):
        order.append(inv.name)
        clock.t += cost[inv.name]
        return _ok(walls[inv.name].pop(0))

    # rounds take 3 s; a third round ends at 9 s, a fourth would end at 12
    records = run.measure(_invs("a", "b"), execute, 10.0, clock)
    assert order == ["a", "b"] * 3
    assert run.median_walls(records, False) == {"a": 1.3, "b": 2.2}
    assert run.end_to_end(records)["wall_s"] == (1.3 + 2.2) / 2


def test_first_round_always_runs_and_traced_rounds_follow_untraced():
    clock = FakeClock()
    seen = []

    def execute(inv, traced):
        seen.append((inv.name, traced))
        clock.t += 5.0
        return _ok(5.0)

    run.measure(_invs("a", "b"), execute, 1.0, clock, traced_rounds=True)
    assert seen == [("a", False), ("b", False), ("a", True), ("b", True)]


def test_end_to_end_uses_reference_speed_medians_and_largest_rss():
    probe = run.SETUP_PROBE.name
    records = [(probe, False, _ok(0.002, 0.07, 15.0)),
               ("a", False, _ok(1.0, 0.09, 30.0)),
               ("b", False, _ok(2.0, 0.06, 45.0)),
               ("a", False, _ok(0.8, 0.08, 31.0)),
               ("a", False, _ok(0.9, 0.05, 31.0)),
               ("a", True, run.Sample(True, 0.1, 0.01, 99.0))]
    assert run.end_to_end(records) == {
        "wall_s": (0.9 + 2.0) / 2, "setup_s": 0.07 / 2, "peak_rss_mb": 45.0}


def test_setup_probes_precede_untraced_spawns_only():
    clock = FakeClock()
    seen = []

    def execute(inv, traced):
        seen.append((inv.name, traced))
        clock.t += 5.0
        return _ok(5.0)

    probe = run.SETUP_PROBE
    run.measure(_invs("a", "b", "c"), execute, 1.0, clock, probe=probe)
    # ceil(SETUP_PROBES / 3) probes before each of the three invocations
    per = -(-run.SETUP_PROBES // 3)
    assert seen == sum(([(probe.name, False)] * per + [(n, False)]
                        for n in "abc"), [])
    seen.clear()
    run.measure(_invs("a"), execute, 1.0, clock, traced_rounds=True)
    assert seen == [("a", False), ("a", True)]


def test_timeout_ends_the_measurement():
    clock = FakeClock()

    def execute(inv, traced):
        clock.t += 1.0
        return run.Sample(False, timed_out=inv.name == "a")

    records = run.measure(_invs("a", "b"), execute, 100.0, clock)
    assert [name for name, _, _ in records] == ["a"]


def test_digest_mismatch_and_exit_code_fail_the_operation():
    out = b'{"ok": true}\n'
    pinned = Invocation("p", [], 0, hashlib.sha256(out).hexdigest())
    assert run.output_ok(pinned, 0, out, {})
    assert not run.output_ok(pinned, 0, out + b" ", {})
    assert not run.output_ok(pinned, 1, out, {})


def test_generated_query_must_repeat_its_first_output():
    query = Invocation("gen", [])
    seen = {}
    assert run.output_ok(query, 0, b"x", seen)
    assert run.output_ok(query, 0, b"x", seen)
    assert not run.output_ok(query, 0, b"y", seen)
    assert not run.output_ok(query, 2, b"x", {})


def test_pins_are_sha256_digests_and_seed_controls_queries():
    for invs in list(PINNED.values()) + [[SETUP_PROBE]]:
        for inv in invs:
            assert re.fullmatch("[0-9a-f]{64}", inv.sha256), inv.name
            assert inv.argv[-2:] == ["--format", "json"]
    assert workload("algebra", 5) == workload("algebra", 5)
    names = {inv.name for inv in workload("algebra", 5)}
    assert {"gen-reduce-n4", "gen-pair-n3", "pair-n3"} <= names
    for inv in workload("algebra", 6):
        if inv.name == "gen-reduce-n4":
            word = inv.argv[inv.argv.index("--word") + 1].split()
            assert len(word) == 6 and set(word) <= set(iso_alphabet(4))


def test_self_time_subtracts_nested_spans_and_aggregates():
    clock = FakeClock()
    t = tracer.Tracer("inv", clock)

    def scalar_op():
        clock.t += 0.5

    def inner():
        clock.t += 1.0
        op()
        clock.t += 1.0

    def outer():
        clock.t += 2.0
        inner_p()
        op()
        clock.t += 3.0

    op = t.wrap("scalars", "scalars.op", scalar_op, span=False)
    inner_p = t.wrap("rmatrix", "rmatrix.inner", inner, span=True)
    outer_p = t.wrap("cli", "cli.outer", outer, span=True)
    outer_p()

    assert t.self_s["scalars"] == 1.0
    assert t.self_s["rmatrix"] == 2.0
    assert t.self_s["cli"] == 5.0
    assert t.calls == {"scalars.op": 2, "rmatrix.inner": 1, "cli.outer": 1}
    spans = {name: (sid, start, end, parent, own)
             for sid, name, start, end, parent, _, own in t.spans}
    outer_id = spans["cli.outer"][0]
    assert spans["cli.outer"][1:] == (0.0, 8.0, 0, 5.0)
    assert spans["rmatrix.inner"][1:] == (2.0, 4.5, outer_id, 2.0)
    assert t.inclusive_s["cli.outer"] == 8.0


def test_spans_beyond_the_limit_are_counted_but_not_recorded():
    clock = FakeClock()
    t = tracer.Tracer("inv", clock)

    def leaf():
        clock.t += 1.0

    leaf_p = t.wrap("envelope", "envelope.leaf", leaf, span=True)
    for _ in range(tracer.SPAN_LIMIT + 3):
        leaf_p()
    assert t.calls["envelope.leaf"] == tracer.SPAN_LIMIT + 3
    assert len(t.spans) == tracer.SPAN_LIMIT
    assert t.self_s["envelope"] == tracer.SPAN_LIMIT + 3


def _traced(calls, gc=(1, 0)):
    return {"calls": calls, "tallies": {}, "self_s": {"cli": 0.5},
            "inclusive_s": {}, "gc": list(gc)}


def test_traced_counts_must_repeat():
    same = [("a", True, run.Sample(True, 1.0, trace=_traced({"f": 2}))),
            ("a", True, run.Sample(True, 1.1, trace=_traced({"f": 2})))]
    assert run.first_traced(same)[1]
    moved = same + [("a", True, run.Sample(True, 1.0,
                                           trace=_traced({"f": 3})))]
    assert not run.first_traced(moved)[1]


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    records = [("a", False, _ok(1.0)),
               ("a", True, run.Sample(True, 1.2, 0.1, 5.0, 3,
                                      _traced({"presentations.reduce": 0})))]
    layers = run.per_layer(records)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert set(run.end_to_end(records)) == set(run.E2E_UNITS)
    assert layers["trace.overhead"][0] == 1.2
    assert layers["presentations.reduce.noop_share"][0] == 0.0


def test_speed_sampler_rescales_each_phase_by_its_mean_speed():
    sampler = child.SpeedSampler()
    ref = child.REFERENCE_KERNEL_S
    # setup phase: two kernel samples at half and full reference speed
    sampler.phases[0] = [2, 3 * ref, 0.5 + 1.0]
    sampler.next_phase()
    assert sampler.reference_s(0, 1.0) == (1.0 - 3 * ref) * 0.75
    # a phase without samples takes the whole run's speed
    assert sampler.reference_s(1, 0.002) == 0.002 * 0.75
    sampler.phases[1] = [1, ref / 4, 4.0]
    assert sampler.reference_s(-1, 1.0) == (1.0 - ref / 4) * 4.0
