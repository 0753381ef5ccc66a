"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_oracle_tables_match_closed_forms():
    closed = {0: lambda n: n + 1, 1: lambda n: n + 2, 2: lambda n: 2 * n + 3,
              3: lambda n: 2 ** (n + 3) - 3}
    for m, form in closed.items():
        for n in range(6):
            assert oracle.ackermann(m, n) == form(n)
    for n in range(1, 12):
        assert oracle.ackermann_steps(1, n) == 2 * n + 2
        assert oracle.pvs0_least_fuel(1, n) == n + 2
        assert oracle.pvs0_least_fuel(2, n) == 2 * n + 4
    # The step counts the README and the ROADMAP quote.
    assert oracle.ackermann_steps(1, 1) == 4
    assert oracle.ackermann_steps(3, 3) == 2432
    assert oracle.ackermann_steps(3, 4) == 10307
    assert oracle.nat(3) == "s(s(s(0)))"


def test_oracle_witness_shapes():
    names = {"f": "f", "d": "d", "e": "e", "sw": "sw", "w": "w", "c": "c", "x": "x", "y": "y"}
    swap = oracle.loop_witness("swap", 3, names)
    assert [e["substitution"] for e in swap] == [
        {"x": "c", "y": "w(c)"}, {"x": "w(c)", "y": "c"}, {"x": "c", "y": "w(c)"}]
    assert [e["rule"] for e in oracle.loop_witness("alternate", 4, names)] == [0, 1, 0, 1]
    assert oracle.loop_denoted_terms("alternate", 2, names) == ["e(c)", "d(c)"]
    assert oracle.descending_denoted_terms(0, 2, "a", "s", "0") == [
        "a(0,a(s(0),s(0)))", "a(0,a(0,a(s(0),0)))"]
    rows = oracle.cc_dp_rows("2:2@2", [(0, 0), (1, 0), (1, 2)])
    assert [r["next_call"] for r in rows] == [None, None, True]


def _ops(name: str, labels: set[str], tmp_path: Path):
    workload = workloads.build(name, 1, tmp_path / name)
    workload.ops = [op for op in workload.ops if op.label in labels]
    assert len(workload.ops) == len(labels)
    return workload


def test_injected_wrong_answer_is_counted(tmp_path, monkeypatch):
    real = oracle.ackermann
    monkeypatch.setattr(oracle, "ackermann", lambda m, n: real(m, n) + ((m, n) == (1, 2)))
    workload = _ops("ack-normalize", {"normalize innermost a(1,1)", "normalize innermost a(1,2)"},
                    tmp_path)
    tally = run.Tally()
    run.run_passes(workload, 0, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert "a(1,2)" in tally.details[0]


def test_honest_failure_is_failed_not_wrong():
    op = workloads._cli_op("probe", ["normalize"], 1, {"status": "fuel-exhausted", "fuel": 5},
                           lambda: None)
    honest = json.dumps({"status": "failure", "detail": "recursion-depth-exceeded", "fuel": 5})
    assert op.check((1, honest))[0] == "failed"
    assert op.check((0, json.dumps({"status": "normalized", "fuel": 5})))[0] == "wrong"
    assert op.check(workloads.Raised("RecursionError"))[0] == "failed"
    assert op.check((1, json.dumps({"status": "fuel-exhausted", "fuel": 5}))) is None


def test_traced_self_times_sum_to_wall(tmp_path):
    ops = []
    for name, labels in (
        ("pvs0-ack", {"pvs0-eval (2,1)", "pvs0-terminates (2,2)", "cc-dp-check grid 3,3"}),
        ("ack-normalize", {"normalize innermost a(1,2)"}),
        ("chain-certify", {"certify swap depth 4 k 4", "chain-derive descending m 1 length 4"}),
    ):
        ops += _ops(name, labels, tmp_path).ops
    tracer = Tracer()
    tracer.install()
    try:
        wall, _, outcomes = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert all(op.check(outcome) is None for op, outcome in zip(ops, outcomes))
    self_s, calls, _, _ = tracer.totals()
    assert abs(sum(self_s.values()) - wall) < 0.01 * wall
    assert self_s["pvs0"] > 0 and calls["pvs0.chi_eval"] > 0
    assert "rdp-eval" in tracer.threads_seen()
    assert all(self_s[layer] > 0 for layer in ("terms", "substitution", "rewriting",
                                               "dependency_pairs", "formats", "cli"))
    import rdp.rewriting
    assert not hasattr(rdp.rewriting.match, "__wrapped__")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)


def test_reference_scales_follow_nearest_runs():
    gauge = reference.Gauge()
    gauge.after_op = [(10, 0.010), (0, 0.0), (10, 0.002)]
    scales = gauge.scales([0.1, 0.001, 0.1])
    expected = [reference.scale(10, 0.010)] * 2 + [reference.scale(10, 0.002)]
    assert scales == expected
    assert reference.scale(10, 10 * reference.REFERENCE_S) == 1.0
