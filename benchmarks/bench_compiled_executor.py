"""EXT — compiled sweep kernels: fused executor vs interpreted, wall clock.

The compiled executor (DESIGN.md §13) lowers ``(graph, schedule,
paradigm)`` once at plan time; every sweep then gather-compacts the edges
it recomputes and runs one fused gather–scatter body (a full sweep is
the identity-index case).  Three claims are measured here at the
bench_fig7 200k×800k scale, real wall clock:

1. **Raw speed** — both single-threaded C backends clear a ≥2× wall-clock
   speedup over the interpreted executor under the sync schedule.
2. **Bit-exactness** — the posteriors are ``np.array_equal`` to the
   interpreted run and the iteration counts match under both schedules:
   natural (or compacted ascending) edge order feeds ``np.bincount`` the
   same per-destination addition order as the CSR traversal, and every
   fused reduction (column-loop row sums, ``np.take`` gathers,
   scratch-buffer combines) is bitwise identical to the numpy reduce it
   replaces for belief widths up to numpy's pairwise block (8).
3. **The §3.5 work queue runs fused** — its shrinking active sets take the
   compacted body, so every sweep of every schedule launches a fused
   program and the work queue clears ≥1.5× over interpreted too.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from harness import DEFAULT_PROFILE, format_table, save_result
from repro.backends import CEdgeBackend, CNodeBackend
from repro.graphs.suite import build_graph

GRAPH = "200kx800k"
USE_CASE = "binary"
SPEEDUP_BAR = 2.0  # acceptance: compiled vs interpreted, sync schedule
#: acceptance under the work queue: the compacted sweeps pay gathers the
#: full sweep skips, and the edge paradigm's per-chunk combine dominates
#: both executors (measured 5.9× c-node, 1.8× c-edge on a 2-core host)
WORK_QUEUE_BAR = 1.5


def _timed_run(backend_cls, graph, schedule, executor):
    start = time.perf_counter()
    result = backend_cls().run(graph, schedule=schedule, executor=executor)
    return time.perf_counter() - start, result


@pytest.fixture(scope="module")
def executor_results():
    rows = []
    for backend_cls in (CNodeBackend, CEdgeBackend):
        for schedule in ("sync", "work_queue"):
            graph, _ = build_graph(GRAPH, USE_CASE, profile=DEFAULT_PROFILE)
            t_interp, r_interp = _timed_run(
                backend_cls, graph.copy(), schedule, "interpreted"
            )
            t_comp, r_comp = _timed_run(
                backend_cls, graph.copy(), schedule, "compiled"
            )
            total = r_comp.stats
            rows.append(
                {
                    "backend": backend_cls.name,
                    "schedule": schedule,
                    "interp_s": t_interp,
                    "compiled_s": t_comp,
                    "speedup": t_interp / t_comp,
                    "iters": r_comp.iterations,
                    "fused": total.fused_launches,
                    "launches": total.kernel_launches,
                    "bitexact": bool(
                        np.array_equal(r_interp.beliefs, r_comp.beliefs)
                    )
                    and r_interp.iterations == r_comp.iterations,
                }
            )
    return rows


def test_compiled_sync_speedup(executor_results):
    """Both C backends ≥2× wall clock under the full-sweep schedule."""
    for row in executor_results:
        if row["schedule"] != "sync":
            continue
        assert row["speedup"] >= SPEEDUP_BAR, row


def test_compiled_posteriors_bitexact(executor_results):
    """Every (backend, schedule) cell is bitwise identical."""
    for row in executor_results:
        assert row["bitexact"], row


def test_compiled_sweeps_fused(executor_results):
    """Under every schedule, every sweep runs the fused body (no fallback)."""
    for row in executor_results:
        assert row["fused"] > 0, row
        assert row["fused"] <= row["launches"], row


def test_compiled_work_queue_speedup(executor_results):
    """The compacted work-queue sweeps also beat the interpreted ones."""
    for row in executor_results:
        if row["schedule"] != "work_queue":
            continue
        assert row["speedup"] >= WORK_QUEUE_BAR, row


def test_report(executor_results):
    table = format_table(
        [
            "backend",
            "schedule",
            "interpreted s",
            "compiled s",
            "speedup",
            "iters",
            "fused/launches",
            "bitexact",
        ],
        [
            [
                r["backend"],
                r["schedule"],
                r["interp_s"],
                r["compiled_s"],
                f"{r['speedup']:.2f}x",
                r["iters"],
                f"{r['fused']}/{r['launches']}",
                "yes" if r["bitexact"] else "NO",
            ]
            for r in executor_results
        ],
        title=(
            f"EXTc — compiled executor vs interpreted "
            f"({GRAPH}, {USE_CASE}, profile={DEFAULT_PROFILE})"
        ),
    )
    save_result("EXTc_compiled_executor", table)
