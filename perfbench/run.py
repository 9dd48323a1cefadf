"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload file-solve --seed 1 --seconds 16 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A line before it
(prefixed ``# info``) carries figures that are not metrics: the raw
wall-clock times, the structural-write latencies and the largest error
against the reference.

End-to-end times are wall-clock times divided by the host-speed factor
that :mod:`calibrate` measures next to them (about a second apart at
most), so a slow phase of the shared host does not read as a slower
program.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before NumPy loads: the only busy threads are
# the load generator, the server worker and a shard pool of nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input sizes; 'toy' is for the benchmark's tests")
    return parser.parse_args(argv)


#: the host-speed factor is re-measured at least this often (s)
CALIBRATE_EVERY_S = 1.0


def timed_phase(wl, seconds: float, traced: bool, cal) -> tuple[list, float, float]:
    """Whole rounds until ``seconds`` of round time have passed.

    The per-round output checks and the calibration run outside the
    clock.  Every op gets ``scaled`` = its seconds over the host-speed
    factor measured last.  Returns ``(ops, raw_s, scaled_s)``.
    """
    ops, raw, scaled = [], 0.0, 0.0
    factor, since = cal.factor(), 0.0
    while raw < seconds:
        if since >= CALIBRATE_EVERY_S:
            factor, since = cal.factor(), 0.0
        t0 = time.perf_counter()
        done = wl.round(traced)
        spent = time.perf_counter() - t0
        for op in done:
            op.scaled = op.seconds / factor
        ops += done
        raw += spent
        since += spent
        scaled += spent / factor
        wl.verify_round()
    return ops, raw, scaled


def op_p50_ms(ops, key: str = "scaled") -> float:
    return statistics.median(getattr(op, key) for op in ops if op.kind == "op") * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    from calibrate import Calibration

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    wl = WORKLOADS[args.workload](work, args.seed, args.size)
    # set-up is single-threaded on every workload; ops may keep more busy
    setup_cal = Calibration()
    cal = Calibration(threads=wl.busy_threads) if wl.busy_threads > 1 else setup_cal
    try:
        wl.prepare()
        setups, factors = [], []
        for i in range(wl.setup_repeats):
            wl.release()
            last = i == wl.setup_repeats - 1
            factors.append(setup_cal.factor())
            setups.append(wl.setup(traced=bool(args.trace) and last))
        # one warm-up round, excluded from every figure
        wl.round(False)
        wl.verify_round()
        if args.trace:
            plain, _, _ = timed_phase(wl, args.seconds / 2, False, cal)
            wl.begin_traced()
            traced, _, _ = timed_phase(wl, args.seconds / 2, True, cal)
            values = wl.layer_values()
            traced_op_ms = values.pop("op_ms")
            values["telemetry.overhead_pct"] = (
                op_p50_ms(traced) / op_p50_ms(plain) - 1.0) * 100.0
            metrics = layers.finish(values, bench["per_layer"])
            ops = plain + traced
            raw_s = None
        else:
            ops, raw_s, scaled_s = timed_phase(wl, args.seconds, False, cal)
            traced_op_ms = None
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            n_ops = sum(op.kind == "op" for op in ops)
            values = {
                "setup_s": statistics.median(s / f for s, f in zip(setups, factors)),
                "op_p50_ms": op_p50_ms(ops),
                "ops_per_s": n_ops / scaled_s,
                "peak_rss_mb": peak_mb,
            }
            metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                       for m in bench["end_to_end"]}
        wl.verify()
        op_ms = sorted(op.scaled * 1e3 for op in ops if op.kind == "op")
        write_ms = [op.scaled * 1e3 for op in ops if op.kind == "write"]
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "timed_ops": len(op_ms),
            "timed_writes": len(write_ms),
            "op_p90_ms": op_ms[int(0.9 * (len(op_ms) - 1))] if op_ms else None,
            "write_p50_ms": statistics.median(write_ms) if write_ms else None,
            "raw_op_p50_ms": op_p50_ms(ops, "seconds"),
            "raw_ops_per_s": (len(op_ms) / raw_s) if raw_s else None,
            "traced_op_ms": traced_op_ms,
            "raw_setup_s": statistics.median(setups),
            "setup_factors": factors,
            "inputs_peak_mb": wl.inputs_peak_mb,
            "max_abs_error": wl.check.max_error,
            "reference_compares": wl.check.compared,
            "problems": wl.check.problems,
        }
        print("# info " + json.dumps(info))
        print(json.dumps({
            "correct": wl.check.ok,
            "attempted": wl.counts["attempted"],
            "failed": wl.counts["failed"],
            "metrics": metrics,
        }))
        return 0
    finally:
        wl.release()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
