"""rdp benchmark: one workload, closed loop, every verdict checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; rdp is imported
from its ``src`` directory.  The workload's inputs are generated from the
seed into ``bench/work/`` and every operation runs in this process, one
after another, through ``rdp.cli.run_command`` (or the library where the
command line cannot express the input).  Passes over the operation list
repeat until ``--seconds`` have gone by.  Times are reported in reference
seconds: each measured time is scaled by how fast the fixed work of
``reference.py`` ran right before and after it (see that module).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same run is repeated with
the per-layer tracer installed and the per-layer metrics are printed
instead.  A summary goes to standard error.  The exit code is 0 when the
run completed, even if operations failed: those are counted in
``failed`` against ``attempted``, and ``correct`` is false only when some
operation answered differently from its known answer (an honest
``failure`` report with exit code 1 and its fuel is counted as failed,
not as wrong).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

SETUP_RUNS = 11
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TERM_KEYS = ("term", "start", "last", "normal_form", "subterm")
# The seed's recursive term equality fails near 250 levels when called from
# the microbenchmark, so the primitives run on the largest term up to this depth.
PRIM_MAX_DEPTH = 128

SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
import reference
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import rdp
from rdp import formats
for kind, path in zip(sys.argv[3::2], sys.argv[4::2]):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    (formats.parse_trs if kind == "trs" else formats.parse_pvs0_program)(text)
setup = time.perf_counter() - t0
print(setup, reference.scale(*reference.Gauge().run_for(setup)))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rdp" / "__init__.py").is_file():
        print(f"error: no rdp sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rdp

    if Path(rdp.__file__).resolve().parent != SRC / "rdp":
        print(f"error: imported rdp from {rdp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            result = traced_run(workload, args.seconds, args.seed)
        else:
            result = end_to_end_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# --- passes ----------------------------------------------------------------------


class Tally:
    """Verdict checks over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.details: list[str] = []

    def check(self, ops, outcomes) -> None:
        for op, outcome in zip(ops, outcomes):
            self.attempted += 1
            verdict = op.check(outcome)
            if verdict is None:
                continue
            kind, detail = verdict
            self.failed += 1
            self.wrong += kind == "wrong"
            if len(self.details) < 8:
                self.details.append(f"{kind}: {op.label}: {detail}")


def run_pass(ops, tracer=None, pass_no: int = 0, gauge=None):
    """Run every operation once; returns wall seconds, per-op seconds, outcomes.

    With a ``gauge``, the reference work runs after each operation, outside
    the operation's own time.
    """
    from workloads import Raised

    times = []
    outcomes = []
    state = tracer.enter("bench", "bench.pass") if tracer else None
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = pass_no * len(ops) + i
        t0 = perf_counter()
        try:
            outcome = op.call()
        except Exception as err:  # an operation that raises is counted, not fatal
            outcome = Raised(f"{type(err).__name__}: {err}"[:300])
        times.append(perf_counter() - t0)
        outcomes.append(outcome)
        if gauge:
            gauge.after(times[-1])
    wall = perf_counter() - start
    if tracer:
        tracer.leave(state)
    return wall, times, outcomes


def run_passes(workload, seconds: float, tally: Tally, tracer=None, first_pass: int = 0):
    """Passes while another median pass still fits in ``seconds`` (at least one);
    checks every outcome.  Per-op times are in reference seconds; a pass's
    scale is its reference seconds per measured second."""
    from reference import Gauge
    from workloads import outcome_bytes

    walls, per_op, scales, scans, report_bytes = [], [], [], None, []
    start = perf_counter()
    while True:
        gauge = Gauge()
        wall, times, outcomes = run_pass(workload.ops, tracer, first_pass + len(walls), gauge)
        walls.append(wall)
        per_op.append([t * s for t, s in zip(times, gauge.scales(times))])
        scales.append(sum(per_op[-1]) / sum(times))
        tally.check(workload.ops, outcomes)
        report_bytes.append(sum(outcome_bytes(o) for o in outcomes))
        if scans is None:
            scans = scan_terms(workload.ops, outcomes)
        del outcomes
        if perf_counter() - start + statistics.median(walls) > seconds:
            return per_op, scales, report_bytes, scans


def tail(values: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 0.0, ordered[-1]


def op_medians(per_op: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes."""
    return [statistics.median(samples) for samples in zip(*per_op)]


def pass_wall(per_op: list[list[float]]) -> float:
    """The median pass: the operations' time in it, without the reference work."""
    return statistics.median(sum(times) for times in per_op)


# --- end-to-end run -----------------------------------------------------------------


def setup_seconds(workload) -> float:
    """Median time to import rdp and parse the fixtures, in fresh processes, in
    reference seconds (each process times the reference work after set-up)."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), str(SRC)]
    for kind, path in workload.fixtures:
        argv += [kind, path]
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, scale = map(float, done.stdout.split())
        samples.append(seconds * scale)
    return statistics.median(samples)


def end_to_end_run(workload, seconds: float) -> dict:
    setup = setup_seconds(workload)
    tally = Tally()
    per_op, scales, report_bytes, _ = run_passes(workload, seconds, tally)
    medians = op_medians(per_op)
    pct, tail_s = tail(medians)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary(workload, tally, per_op, scales, f"tail p{pct:g} of {len(medians)} op medians "
            f"({len(medians) * len(per_op)} samples)")
    metric = lambda value, unit: {"value": value, "unit": unit}  # noqa: E731
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": metric(setup, "s"),
            "wall_s": metric(pass_wall(per_op), "s"),
            "verdict_p50_ms": metric(statistics.median(medians) * 1e3, "ms"),
            "verdict_tail_ms": metric(tail_s * 1e3, "ms"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "report_bytes": metric(statistics.median(report_bytes), "bytes"),
        },
    }


def summary(workload, tally: Tally, per_op, scales: list[float], extra: str) -> None:
    raw = statistics.median(sum(times) / scale for times, scale in zip(per_op, scales))
    print(f"# {workload.name}: {len(per_op)} passes of {len(workload.ops)} ops, "
          f"median pass {pass_wall(per_op):.3f} reference s ({raw:.3f} s measured, "
          f"scale {min(scales):.3f} to {max(scales):.3f}), {extra}, "
          f"{tally.failed}/{tally.attempted} failed ({tally.wrong} wrong)", file=sys.stderr)
    for line in tally.details:
        print(f"#   {line}", file=sys.stderr)


# --- traced run -------------------------------------------------------------------


def traced_run(workload, seconds: float, seed: int) -> dict:
    import prims
    from tracer import LAYERS, Tracer

    tally = Tally()
    plain, plain_scales, _, scans = run_passes(workload, seconds / 2, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_scales, _, _ = run_passes(workload, seconds / 2, tally, tracer,
                                                 first_pass=len(plain))
    finally:
        tracer.uninstall()
    self_s, calls, hits, errors = tracer.totals()
    # Self times in reference seconds, like the end-to-end times.
    self_s = {layer: s * statistics.median(traced_scales) for layer, s in self_s.items()}
    passes = len(traced)
    per = lambda count: count / passes  # noqa: E731
    ratio = lambda hit, total: hit / total if total else 0.0  # noqa: E731

    subject = prim_subject(workload, scans)
    prim_values = prims.measure(*subject) if subject else {}
    values = {f"{layer}.self_s": per(self_s.get(layer, 0.0)) for layer in LAYERS}
    values.update({
        "rewriting.expansions": per(calls["rewriting.iter_successors"]),
        "rewriting.has_redex_calls": per(calls["rewriting.has_redex"]),
        "rewriting.steps": per(hits["rewriting.iter_successors.item"]),
        "substitution.match_calls": per(calls["substitution.match"]),
        "substitution.match_hit_ratio": ratio(hits["substitution.match"], calls["substitution.match"]),
        "substitution.apply_calls": per(calls["substitution.apply"]),
        "terms.replace_at_calls": per(calls["terms.replace_at"]),
        "terms.subterm_at_calls": per(calls["terms.subterm_at"]),
        "terms.max_depth": scans["max_depth"],
        "dependency_pairs.loop_searches": per(calls["dependency_pairs.detect_innermost_loop"]),
        "dependency_pairs.link_checks": per(calls["dependency_pairs.check_chained"]),
        "dependency_pairs.is_dep_pair_calls": per(calls["dependency_pairs.is_dep_pair_alt"]),
        "dependency_pairs.construction_failures": per(errors["dependency_pairs.ConstructionFailure"]),
        "pvs0.chi_eval_calls": per(calls["pvs0.chi_eval"]),
        "pvs0.top_evals": per(calls["pvs0.top_eval"]),
        "pvs0.probe_hit_ratio": ratio(hits["pvs0.top_eval"], calls["pvs0.top_eval"]),
        "pvs0.guard_eval_calls": per(calls["pvs0.guard_eval"]),
        "formats.calls": per(sum(c for name, c in calls.items() if name.startswith("formats."))),
        "trace.overhead_ratio": pass_wall(traced) / pass_wall(plain),
    })
    values.update(prim_values)
    units = {"self_s": "s", "ratio": "ratio", "_us": "us"}
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}

    write_spans(workload, seed, tracer, self_s, calls, [sum(times) for times in traced])
    size = f"prim term size {prim_values.get('prim.term_size', 0):.0f}, " \
           f"depth {term_depth(subject[1]) if subject else 0}"
    summary(workload, tally, plain + traced, plain_scales + traced_scales,
            f"{passes} traced, threads {sorted(tracer.threads_seen())}, {size}")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def write_spans(workload, seed: int, tracer, self_s, calls, pass_seconds) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"spans-{workload.name}-{seed}.json"
    fields = ("op", "thread", "name", "parent", "start_s", "end_s")
    path.write_text(json.dumps({
        "workload": workload.name,
        "traced_passes_s": pass_seconds,
        "self_s": self_s,
        "calls": dict(calls),
        "spans_dropped": tracer.spans_dropped,
        "spans": [dict(zip(fields, span)) for span in tracer.spans],
    }))


# --- terms for the microbenchmarks ----------------------------------------------------


def term_depth(text: str) -> int:
    depth = deepest = 0
    for char in text:
        if char == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif char == ")":
            depth -= 1
    return deepest + 1


def scan_terms(ops, outcomes) -> dict:
    """Longest term string in the reports up to PRIM_MAX_DEPTH levels (with its
    op), and the deepest nesting of any term in them."""
    from workloads import outcome_texts

    best = ("", None)
    max_depth = 0
    for op, outcome in zip(ops, outcomes):
        for text in outcome_texts(outcome):
            try:
                stack = [json.loads(text)]
            except ValueError:
                continue
            while stack:
                node = stack.pop()
                if isinstance(node, dict):
                    for key, value in node.items():
                        if isinstance(value, str) and key in TERM_KEYS:
                            if len(value) > len(best[0]) or value.count("(") + 1 > max_depth:
                                depth = term_depth(value)
                                max_depth = max(max_depth, depth)
                                if len(value) > len(best[0]) and depth <= PRIM_MAX_DEPTH:
                                    best = (value, op)
                        else:
                            stack.append(value)
                elif isinstance(node, list):
                    stack.extend(node)
    return {"longest": best, "max_depth": max_depth}


def prim_subject(workload, scans):
    """(system, term text) for the microbenchmarks: the largest reached term."""
    text, op = scans["longest"]
    if op is not None:
        return op.trs(), text
    if workload.prim_fallback is not None:
        loader, text = workload.prim_fallback
        return loader(), text
    return None


if __name__ == "__main__":
    sys.exit(main())
