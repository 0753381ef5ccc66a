"""Run the benchmark twice over ten seeds and record a BENCH_<label>.json file.

    python3 bench/baseline.py --label seed

For every workload it runs ``bench/run.py`` with tracing off in two sets
of seeds 1-10, alternating between the sets seed by seed (and which set
goes first), so that the machine's drift falls on both sets alike.  Per
end-to-end metric it records each set's median, quartiles and their
distance as a share of the median (the spread that BENCHMARK.json's
bounds are checked against), and how far the second set's median lies
from the first's.  A metric whose spread (setup_s excepted) or whose
difference between the sets exceeds its bound is marked unresolved.  The
held-out seed 1000 is run once more and reported on its own, and one
traced run per workload gives the per-layer numbers.  The file also
records the Python version and ``nproc``, so before/after files from two
commits can be compared like for like.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))
HELD_OUT = 1000


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = elapsed
    values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if not trace or k.endswith("self_s"))
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, "
          f"{result['failed']}/{result['attempted']} failed, {values}", file=sys.stderr, flush=True)
    result["summary"] = [line for line in done.stderr.splitlines() if line.startswith("#")]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def judge(name: str, spec: dict, sets: list[dict]) -> dict:
    """Both sets' statistics, the second median's change, and what exceeds the bound."""
    first, second = sets
    change = (second["median"] - first["median"]) / first["median"]
    problems = []
    if name != "setup_s":
        problems += [f"set {i + 1} spread {s['spread']:.3f}" for i, s in enumerate(sets)
                     if s["spread"] > spec["bound"]]
    if abs(change) > spec["bound"]:
        problems.append(f"sets differ by {change:+.3f}")
    status = f"unresolved: {', '.join(problems)} > bound {spec['bound']}" if problems else "ok"
    return {"bound": spec["bound"], "status": status, "second_vs_first": change,
            "first": first, "second": second}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    out = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "held_out_seed": HELD_OUT,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        sets: tuple[list, list] = ([], [])
        for i, seed in enumerate(SEEDS):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[k].append(run_once(workload, seed, seconds, 0))
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            metrics[name] = judge(name, metric, stats)
            print(f"{workload:14s} {name:16s} medians {stats[0]['median']:.6g} {stats[1]['median']:.6g} "
                  f"spreads {stats[0]['spread']:.3f} {stats[1]['spread']:.3f}: {metrics[name]['status']}",
                  file=sys.stderr)
        runs = sets[0] + sets[1]
        out["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
            "summary": runs[0]["summary"],
            "metrics": metrics,
            "held_out": run_once(workload, HELD_OUT, seconds, 0),
            "traced": run_once(workload, SEEDS[0], seconds, 1),
        }
    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
