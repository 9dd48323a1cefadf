"""Per-layer attribution for the traced run.

The traced run times each layer from outside, around the calls into its
public functions (the workloads do that).  Where a layer has no public
entry point of its own — sweep versus schedule bookkeeping inside
``LoopyBP.run``, shard sweep versus halo exchange, the serve union sweep,
``stream.apply`` — the numbers come from the spans the program's
``repro.telemetry`` tracer already emits; this module reads them.

Every per-layer metric is printed for every workload.  A layer the
workload does not exercise reads 0: nothing of the op's time went there.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

__all__ = [
    "barrier_idle_s",
    "by_name",
    "finish",
    "median",
    "sweep_stat",
    "total",
]


def by_name(events, name: str) -> list:
    return [e for e in events if e.name == name]


def total(events, name: str) -> float:
    """Summed duration (s) of every span called ``name``."""
    return sum(e.duration for e in events if e.name == name)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def barrier_idle_s(events) -> float:
    """Σ over lockstep rounds of (slowest shard sweep − each other sweep).

    Rounds are delimited by the ``shard.exchange`` span that follows
    every round's sweeps; sweeps of one round start before it.
    """
    sweeps = sorted(by_name(events, "shard.sweep"), key=lambda e: e.start)
    exchanges = sorted(e.start for e in by_name(events, "shard.exchange"))
    rounds: dict[int, list[float]] = defaultdict(list)
    k = 0
    for ev in sweeps:
        while k < len(exchanges) and ev.start > exchanges[k]:
            k += 1
        rounds[k].append(ev.duration)
    return sum(max(d) * len(d) - sum(d) for d in rounds.values())


def sweep_stat(events, name: str, key: str) -> int:
    """Sum of one ``SweepStats`` field carried on the ``name`` spans."""
    return int(sum((e.args or {}).get(key, 0) for e in events if e.name == name))


def finish(values: dict[str, float], per_layer: list[dict]) -> dict[str, dict]:
    """Fill in zeros for layers the workload never reached and attach
    units, in the order of ``per_layer`` (``BENCHMARK.json``'s list)."""
    unknown = set(values) - {m["name"] for m in per_layer}
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in per_layer
    }
