"""Steadiness check: two alternating sets of runs per workload.

    python3 perfbench/steady.py [--workloads file-solve,delta-stream] [--runs 5]

Run from the root of a checkout.  For every workload it makes ``2 * runs``
runs of ``perfbench/run.py`` with tracing off and ``BENCHMARK.json``'s
``run_seconds``, alternating set A and set B, each run with its own seed
(1, 2, 3, ...).  For each end-to-end metric it prints both
sets' medians and quartiles, the spread of all runs (quartile distance
over the median), and whether the two sets agree within the metric's
bound from ``BENCHMARK.json``.  It also checks that every run was
correct and that both sets fail the same share of operations.  Exits 1
when any check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int = 0) -> dict:
    """One run of ``BENCHMARK.json``'s length; its result line, with the
    ``# info`` line under ``"info"``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("# info "))
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much ``second`` is worse than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    args = parser.parse_args(argv)

    all_ok = True
    for workload in args.workloads.split(","):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        seed = 1
        for _ in range(args.runs):
            for name in ("A", "B"):
                result = one_run(workload, seed)
                result["seed"] = seed
                sets[name].append(result)
                seed += 1
        print(f"== {workload}: {args.runs} runs per set, {BENCH['run_seconds']} s each")
        for name, runs in sets.items():
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                all_ok = False
                print(f"   set {name}: incorrect output on seeds {bad}")
        shares = {name: {r["failed"] / r["attempted"] for r in runs}
                  for name, runs in sets.items()}
        print(f"   failed share: A {sorted(shares['A'])}  B {sorted(shares['B'])}")
        runs = sets["A"] + sets["B"]
        print(f"   max abs error vs reference: "
              f"{max(r['info']['max_abs_error'] for r in runs):.3g}")
        if len(shares["A"] | shares["B"]) != 1:
            all_ok = False
            print("   FAILED-SHARE MISMATCH")
        for metric in BENCH["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in sets["A"]]
            b = [r["metrics"][key]["value"] for r in sets["B"]]
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (qall[2] - qall[0]) / qall[1]
            shift = worse_by(metric, qa[1], qb[1])
            agree = abs(shift) <= bound
            steady = spread <= bound
            all_ok &= agree and steady
            print(f"   {key:12s} A {qa[1]:10.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                  f"  B {qb[1]:10.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
                  f"  spread {spread:6.1%} (bound {bound:.0%}, third {bound / 3:.1%})"
                  f"  B-vs-A {shift:+6.1%}  {'agree' if agree and steady else 'DISAGREE'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
