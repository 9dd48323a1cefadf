"""Traced-run report: every per-layer metric of every workload, one JSON each.

    python3 perfbench/report.py [--seed 1] [--out perfbench/results]

Run from the root of a checkout.  Each workload runs once with
``--trace 1`` in its own process, for ``BENCHMARK.json``'s
``run_seconds``; ``<out>/trace-<workload>.json`` gets the per-layer
metrics (``unattributed_ms`` and ``telemetry.overhead_pct`` included),
the run's correctness and operation counts, and its ``# info`` line.  It
also prints, per workload, the share of the traced op time that no layer
accounts for, and exits 1 when that share is above 10% or a run failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from steady import BENCH, ROOT, one_run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="perfbench/results")
    args = parser.parse_args(argv)
    out_dir = ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    for workload in args.workloads.split(","):
        try:
            result = one_run(workload, args.seed, trace=1)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            status = 1
            continue
        report = {"workload": workload, "seed": args.seed,
                  "seconds": BENCH["run_seconds"], **result}
        path = out_dir / f"trace-{workload}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        metrics = result["metrics"]
        share = metrics["unattributed_ms"]["value"] / result["info"]["traced_op_ms"]
        print(f"{workload}: correct={result['correct']} failed={result['failed']}"
              f" unattributed {share:.1%} of op time,"
              f" tracing overhead {metrics['telemetry.overhead_pct']['value']:+.1f}%"
              f" -> {path.relative_to(ROOT)}")
        status |= not result["correct"] or share > 0.10
    return status


if __name__ == "__main__":
    sys.exit(main())
