"""The four workloads, each driven through the program's public entry points.

A workload generates its inputs from the seed (untimed), sets the program
up a few times (``setup_s`` is the median), runs warm-up rounds, then
whole rounds of operations until the run's time is spent.  Each round is
the same sequence of operations, so the share of failed operations does
not depend on the run's length.  Outputs are checked outside the clock.

``traced=True`` rounds run under a fresh ``repro.telemetry.Tracer`` per
operation (per burst for ``serve-mixed``) and keep what the per-layer
attribution needs; untraced rounds never install a tracer.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import layers
from checks import Checker
from reference import reference_batch, reference_beliefs

__all__ = ["WORKLOADS", "Op", "Workload"]

# The program, imported from the checkout's source tree by run.py.
from repro.core.sharded import ShardedGraph  # noqa: E402
from repro.credo.runner import Credo  # noqa: E402
from repro.io.detect import load_graph  # noqa: E402
from repro.partition import make_partition  # noqa: E402
from repro.backends.registry import get_backend  # noqa: E402
from repro.serve import InferenceServer, ServerConfig  # noqa: E402
from repro.serve.protocol import QueryRequest  # noqa: E402
from repro.stream import GraphDelta, IncrementalEngine  # noqa: E402
from repro.telemetry import Tracer, get_metrics, use_tracer  # noqa: E402

# Couplings are sub-critical, so each model has one BP fixed point and
# the reference and every schedule converge to the same posteriors: the
# diagonal strength ``a`` of the attractive matrix bounds the message
# contraction by ``a - (1 - a) / (b - 1)``, and that times the mean excess
# degree (8 for the 4N-edge graph, 6 for the served model, 3 on the grid)
# stays below 1 (README, "Correctness").
FILE_STRENGTH = 0.55
SERVE_STRENGTH = 0.43
SERVE_MODEL_SEED = 2020
GRID_STRENGTH = 0.6

#: sizes per scale; "toy" is for the benchmark's own tests
SIZES = {
    "full": {
        "file_nodes": 20_000,
        "serve_nodes": 500,
        "serve_edges": 1_500,
        "grid": 128,
    },
    "toy": {
        "file_nodes": 400,
        "serve_nodes": 60,
        "serve_edges": 150,
        "grid": 12,
    },
}


@dataclass
class Op:
    """One timed operation: ``kind`` is ``"op"`` or ``"write"``.
    ``scaled`` is ``seconds`` over the host-speed factor (run.py)."""

    kind: str
    seconds: float
    ok: bool = True
    scaled: float = 0.0


@dataclass
class TracedOp:
    """What the per-layer attribution needs from one traced operation."""

    seconds: float
    events: list
    extra: dict = field(default_factory=dict)


def _build_seconds() -> float:
    """Cumulative compiled-kernel lowering time the program has recorded."""
    snap = get_metrics().histogram("kernel.build_s").snapshot()
    return snap["mean_s"] * snap["count"]


def _as_array(posteriors: dict, n: int, b: int) -> np.ndarray:
    out = np.zeros((n, b), dtype=np.float32)
    for name, probs in posteriors.items():
        out[int(name)] = probs
    return out


def _names(evidence: dict[int, int]) -> dict[str, int]:
    return {str(k): v for k, v in evidence.items()}


def _keep_distinct(seen: list[np.ndarray], beliefs: np.ndarray) -> None:
    """Remember ``beliefs`` unless an identical matrix is already kept:
    repeated solves of one input are compared to the reference once."""
    if not any(np.array_equal(beliefs, kept) for kept in seen):
        seen.append(np.array(beliefs, copy=True))


class Workload:
    """Shared skeleton of a workload; subclasses fill in the hooks."""

    name = ""
    #: how many times set-up runs; ``setup_s`` is the median
    setup_repeats = 3
    #: threads an op keeps busy (sets the calibration, see calibrate.py)
    busy_threads = 1

    def __init__(self, work: Path, seed: int, size: str):
        self.work = work
        self.seed = seed
        self.size = SIZES[size]
        self.check = Checker()
        self.traced_ops: list[TracedOp] = []
        self.setup_layers: dict[str, float] = {}
        self.counts = {"attempted": 0, "failed": 0}

    # -- hooks ------------------------------------------------------------
    def prepare(self) -> None:
        """Generate inputs from the seed (untimed)."""

    def setup(self, traced: bool) -> float:
        """Set the program up once; returns the seconds it took."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the current set-up before the next one is made."""

    def round(self, traced: bool) -> list[Op]:
        """Run one round of operations; verification happens in ``verify_round``."""
        raise NotImplementedError

    def verify_round(self) -> None:
        """Check the outputs of the last round (outside the clock)."""

    def verify(self) -> None:
        """Checks that need the whole run (after the timed phases)."""

    def layer_values(self) -> dict[str, float]:
        """Per-layer values of the traced ops, plus ``op_ms``: the op time
        they attribute, summarised the same way (``unattributed_ms`` is
        judged against it)."""
        raise NotImplementedError

    def begin_traced(self) -> None:
        """Called once before the first traced round."""

    # -- shared -----------------------------------------------------------
    def _make_model(self, stem: str, kind: str, *args) -> None:
        """Generate the model and its MTX files in a child process
        (:func:`inputs.model_files`), so ``peak_rss_mb`` is the program's."""
        self.model, self.bytes, self.inputs_peak_mb = inputs.model_files(
            self.work / stem, kind, *args)
        self.nodes, self.edges = self.work / f"{stem}.nodes", self.work / f"{stem}.edges"

    def _count(self, ops: list[Op]) -> list[Op]:
        self.counts["attempted"] += len(ops)
        self.counts["failed"] += sum(not op.ok for op in ops)
        return ops


# ----------------------------------------------------------------------
class FileSolve(Workload):
    """``credo run``: parse the MTX dual files, select, solve."""

    name = "file-solve"
    setup_repeats = 7

    def prepare(self) -> None:
        n = self.size["file_nodes"]
        self._make_model("g", "random", self.seed, n, 4 * n, 2, FILE_STRENGTH)
        self.credo = Credo()
        #: every distinct posterior matrix the ops returned
        self.distinct: list[np.ndarray] = []

    def setup(self, traced: bool) -> float:
        # package import and runner construction, in a fresh interpreter
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "from repro.credo.runner import Credo\n"
            "Credo()\n"
            "print(time.perf_counter() - t0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        return float(out.stdout.strip().splitlines()[-1])

    def round(self, traced: bool) -> list[Op]:
        if traced:
            return self._count([self._traced_op()])
        t0 = time.perf_counter()
        result = self.credo.run_file(self.nodes, self.edges)
        seconds = time.perf_counter() - t0
        self._last = result
        return self._count([Op("op", seconds)])

    def _traced_op(self) -> Op:
        """The calls ``Credo.run_file`` makes, in its order, each timed."""
        tracer = Tracer()
        build0 = _build_seconds()
        with use_tracer(tracer):
            t0 = time.perf_counter()
            graph = load_graph(self.nodes, self.edges)
            t1 = time.perf_counter()
            name = self.credo.select(graph)
            schedule = self.credo.select_schedule(graph, name)
            t2 = time.perf_counter()
            base = name.partition(":")[0]
            backend = get_backend(base)
            t3 = time.perf_counter()
            result = backend.run(graph, criterion=self.credo.criterion, schedule=schedule)
            t4 = time.perf_counter()
        self._last = result
        events = tracer.events
        self.traced_ops.append(TracedOp(t4 - t0, events, {
            "parse": t1 - t0, "select": t2 - t1, "solve": t4 - t3,
            "result": result, "build": _build_seconds() - build0,
            "paradigm": backend.paradigm or "node",
        }))
        if not np.array_equal(result.beliefs, self.distinct[0]):
            self.check.fail("file-solve: traced posteriors differ from the untraced op's")
        return Op("op", t4 - t0)

    def verify_round(self) -> None:
        r = self._last
        self.check.properties("file-solve", r.beliefs, {}, converged=r.converged,
                              iterations=r.iterations)
        _keep_distinct(self.distinct, r.beliefs)

    def verify(self) -> None:
        # the reference runs after the timed phase so that its memory
        # stays out of peak_rss_mb
        m = self.model
        reference = reference_beliefs(m.priors, m.edges, m.potential).beliefs
        for beliefs in self.distinct:
            self.check.against("file-solve", beliefs, reference)

    def layer_values(self) -> dict[str, float]:
        rows = []
        for t in self.traced_ops:
            r = t.extra["result"]
            st = r.stats
            updates = st.nodes_processed if t.extra["paradigm"] == "node" else st.edges_processed
            sweep = layers.total(t.events, "bp.sweep") - layers.total(t.events, "schedule.update")
            rows.append({
                "io.parse_ms": t.extra["parse"] * 1e3,
                "io.parse_mb_per_s": self.bytes / 1e6 / t.extra["parse"],
                "credo.select_ms": t.extra["select"] * 1e3,
                "backends.solve_ms": t.extra["solve"] * 1e3,
                "backends.overhead_ms": (t.extra["solve"] - r.wall_time) * 1e3,
                "kernels.build_ms": t.extra["build"] * 1e3,
                "kernels.fused_share": st.fused_launches / max(st.kernel_launches, 1),
                "core.iterations": r.iterations,
                "core.updates": updates,
                "core.sweep_ms": sweep * 1e3,
                "core.schedule_ms": layers.total(t.events, "schedule.update") * 1e3,
                "core.updates_per_s": updates / sweep if sweep > 0 else 0.0,
                "core.bytes_per_update": (st.sequential_bytes + st.random_bytes)
                / max(updates, 1),
                "unattributed_ms": (t.seconds - t.extra["parse"] - t.extra["select"]
                                    - t.extra["solve"]) * 1e3,
                "op_ms": t.seconds * 1e3,
            })
        return {k: layers.median(row[k] for row in rows) for k in rows[0]}


# ----------------------------------------------------------------------
class _ServedWorkload(Workload):
    """Shared pieces of the two workloads that go through ``InferenceServer``."""

    model_name = "m"

    def _start(self, config: ServerConfig, traced: bool) -> float:
        tracer = Tracer() if traced else None
        with use_tracer(tracer):
            t0 = time.perf_counter()
            self.server = InferenceServer(config)
            self.registered = self.server.load_model(self.model_name, self.nodes, self.edges)
            seconds = time.perf_counter() - t0
        if traced:
            ev = tracer.events
            load = self.registered.load_time_s
            self.setup_layers.update({
                "io.parse_ms": load * 1e3,
                "io.parse_mb_per_s": self.bytes / 1e6 / load,
                "credo.select_ms": layers.total(ev, "credo.select") * 1e3,
                "credo.plan_ms": layers.total(ev, "credo.plan") * 1e3,
            })
        return seconds

    def release(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None

    def _query_layers(self, t: TracedOp) -> list[dict]:
        """Per-query split of one traced burst: queue wait, select + run
        (the batch's engine work), response assembly, and the remainder."""
        ev = t.events
        submits = sorted(e.start for e in layers.by_name(ev, "perfbench.submit"))
        done = {e.args["i"]: e.start for e in layers.by_name(ev, "perfbench.done")}
        waits = [e.duration for e in sorted(layers.by_name(ev, "serve.queue_wait"),
                                            key=lambda e: e.start)]
        runs = layers.by_name(ev, "serve.run")
        select = layers.total(ev, "serve.select")
        run = layers.total(ev, "serve.run")
        run_end = max((e.start + e.duration for e in runs), default=0.0)
        rows = []
        for i, start in enumerate(submits):
            latency = done[i] - start
            response = done[i] - run_end
            wait = waits[i] if i < len(waits) else 0.0
            rows.append({
                "serve.queue_wait_ms": wait * 1e3,
                "serve.response_ms": response * 1e3,
                "unattributed_ms": (latency - wait - select - run - response) * 1e3,
                "op_ms": latency * 1e3,
            })
        return rows

    def _submit_burst(self, evidences: list[dict[int, int]], use_cache: bool,
                      tracer: Tracer | None) -> list[tuple[float, object]]:
        """Submit every query of a burst, then wait for each in submission
        order; returns ``(latency_s, response)`` per query.  A latency ends
        when this (client) thread holds the answer; the server sets the
        answers in submission order, so the waits do not overlap."""
        pending = []
        for i, ev in enumerate(evidences):
            request = QueryRequest(model=self.model_name, evidence=_names(ev),
                                   use_cache=use_cache)
            if tracer is not None:
                tracer.instant("perfbench.submit", args={"i": i})
            pending.append((time.perf_counter(), self.server.submit(request)))
        out = []
        for i, (t0, ticket) in enumerate(pending):
            response = ticket.future.result(120)
            out.append((time.perf_counter() - t0, response))
            if tracer is not None:
                tracer.instant("perfbench.done", args={"i": i})
        return out


# ----------------------------------------------------------------------
class ServeMixed(_ServedWorkload):
    """Closed-loop bursts against one small model, with structural updates."""

    name = "serve-mixed"
    setup_repeats = 15
    burst = 8
    repeats_per_burst = 2
    bursts_per_update = 4

    def prepare(self) -> None:
        n, m = self.size["serve_nodes"], self.size["serve_edges"]
        # the served model is the deployment's constant and the seed draws
        # the traffic: sweep counts differ by ~8% between random models of
        # this size, which would read as run-to-run spread
        self._make_model("s", "random", SERVE_MODEL_SEED, n, m, 3, SERVE_STRENGTH)
        self.rng = np.random.default_rng([self.seed, 1])
        self.edge_set = {tuple(sorted(e)) for e in self.model.edges.tolist()}
        self.generation = 0
        #: undirected edges of every generation, for the reference
        self.graphs = {0: self.model.edges}
        self.added: tuple[int, int] | None = None
        self.previous: list[dict[int, int]] = []
        #: fresh answers of the current generation, by evidence
        self.fresh: dict[tuple, np.ndarray] = {}
        self.fresh_generation = 0
        self.fresh_count = 0
        self.to_check: list[tuple[int, dict, np.ndarray]] = []
        self.round_out: list = []
        self.update_seconds: list[float] = []
        self.stats_before = None

    def setup(self, traced: bool) -> float:
        config = ServerConfig(max_batch=self.burst, batch_window_s=0.5,
                              cache_capacity=4096)
        return self._start(config, traced)

    def _evidence_burst(self) -> list[dict[int, int]]:
        n, b = self.model.n, self.model.b
        fresh_count = self.burst - (self.repeats_per_burst if self.previous else 0)
        burst = inputs.evidence_sets(self.rng, n, b, fresh_count)
        if self.previous:
            picks = self.rng.choice(len(self.previous), size=self.repeats_per_burst,
                                    replace=False)
            burst += [self.previous[int(k)] for k in picks]
        self.previous = burst
        return burst

    def _update(self) -> Op:
        """Add one random edge, or remove the one added last time."""
        delta = GraphDelta()
        if self.added is None:
            n = self.model.n
            while True:
                u, v = (int(x) for x in self.rng.choice(n, size=2, replace=False))
                if tuple(sorted((u, v))) not in self.edge_set:
                    break
            self.added = (u, v)
            delta.add_edge(str(u), str(v))
            self.edge_set.add(tuple(sorted((u, v))))
            edges = np.vstack([self.graphs[self.generation], [[u, v]]])
        else:
            u, v = self.added
            delta.remove_edge(str(u), str(v))
            self.edge_set.discard(tuple(sorted((u, v))))
            self.added = None
            edges = self.model.edges
        t0 = time.perf_counter()
        ok = True
        try:
            self.server.update_model(self.model_name, delta)
        except (KeyError, ValueError) as exc:
            ok = False
            self.check.fail(f"serve-mixed: update_model raised {exc!r}")
        seconds = time.perf_counter() - t0
        self.generation += 1
        self.graphs[self.generation] = edges
        self.update_seconds.append(seconds)
        return Op("write", seconds, ok)

    def round(self, traced: bool) -> list[Op]:
        ops: list[Op] = []
        self.round_out = []
        for _ in range(self.bursts_per_update):
            evidences = self._evidence_burst()
            tracer = Tracer() if traced else None
            build0 = _build_seconds()
            with use_tracer(tracer):
                t0 = time.perf_counter()
                results = self._submit_burst(evidences, True, tracer)
                burst_s = time.perf_counter() - t0
            if traced:
                self.traced_ops.append(TracedOp(burst_s, tracer.events, {
                    "build": _build_seconds() - build0,
                    "iterations": [r.iterations for _, r in results if r.ok and not r.cached],
                }))
            for (seconds, response), ev in zip(results, evidences):
                ops.append(Op("op", seconds, response.ok))
                self.round_out.append((self.generation, ev, response))
        ops.append(self._update())
        return self._count(ops)

    def verify_round(self) -> None:
        n, b = self.model.n, self.model.b
        for gen, ev, response in self.round_out:
            if not response.ok:
                continue
            post = _as_array(response.posteriors, n, b)
            self.check.properties("serve-mixed", post, ev, converged=response.converged,
                                  iterations=response.iterations)
            key = (gen, tuple(sorted(ev.items())))
            if gen != self.fresh_generation:
                # cached answers are only valid within one generation
                self.fresh, self.fresh_generation = {}, gen
            if response.cached:
                # a cached answer must equal the fresh solve of the same
                # evidence on the same generation; none means it is stale
                if key not in self.fresh:
                    self.check.fail(f"serve-mixed: cached answer for {key} has no "
                                    "fresh solve in the current generation")
                elif not np.array_equal(post, self.fresh[key]):
                    self.check.fail(f"serve-mixed: cached answer for {key} differs")
            elif key not in self.fresh:
                self.fresh[key] = post
                self.fresh_count += 1
                # every 8th distinct fresh answer is compared to the reference
                if self.fresh_count % 8 == 1:
                    self.to_check.append((gen, ev, post))
        self.round_out = []

    def verify(self) -> None:
        m = self.model
        by_gen: dict[int, list] = {}
        for gen, ev, post in self.to_check:
            by_gen.setdefault(gen, []).append((ev, post))
        for gen, items in by_gen.items():
            refs = reference_batch(m.priors, self.graphs[gen], m.potential,
                                   [ev for ev, _ in items])
            for (ev, post), ref in zip(items, refs):
                self.check.against("serve-mixed", post, ref.beliefs)

    def layer_values(self) -> dict[str, float]:
        per_query = [row for t in self.traced_ops for row in self._query_layers(t)]
        paradigm = self.registered.plan.paradigm
        field_ = "nodes_processed" if paradigm == "node" else "edges_processed"
        batches = []
        for t in self.traced_ops:
            engine = layers.by_name(t.events, "serve.engine")
            if not engine:
                continue
            misses = sum(e.args.get("cache_misses", 0) for e in engine)
            sweep_s = layers.total(t.events, "serve.union_sweep")
            updates = layers.sweep_stat(t.events, "serve.union_sweep", field_)
            moved = (layers.sweep_stat(t.events, "serve.union_sweep", "sequential_bytes")
                     + layers.sweep_stat(t.events, "serve.union_sweep", "random_bytes"))
            launches = layers.sweep_stat(t.events, "serve.union_sweep", "kernel_launches")
            fused = layers.sweep_stat(t.events, "serve.union_sweep", "fused_launches")
            batches.append({
                "serve.engine_ms": layers.total(t.events, "serve.engine") * 1e3,
                "serve.union_sweep_ms": sweep_s * 1e3,
                "serve.batch_size": misses,
                "kernels.build_ms": t.extra["build"] * 1e3,
                "kernels.fused_share": fused / max(launches, 1),
                "core.updates": updates / max(misses, 1),
                "core.updates_per_s": updates / sweep_s if sweep_s > 0 else 0.0,
                "core.bytes_per_update": moved / max(updates, 1),
            })
        stats = self.server.stats()["cache"]
        hits = stats["hits"] - self.stats_before["hits"]
        misses = stats["misses"] - self.stats_before["misses"]
        iterations = [i for t in self.traced_ops for i in t.extra["iterations"]]
        values = dict(self.setup_layers)
        values.update({k: layers.median(r[k] for r in per_query) for k in per_query[0]})
        values.update({k: layers.median(r[k] for r in batches) for k in batches[0]})
        values["serve.batch_size"] = float(np.mean([r["serve.batch_size"] for r in batches]))
        values["serve.cache_hit_ratio"] = hits / max(hits + misses, 1)
        traced_updates = self.update_seconds[self.traced_updates_from:]
        values["serve.update_ms"] = layers.median(traced_updates) * 1e3
        values["core.iterations"] = layers.median(iterations)
        return values

    def begin_traced(self) -> None:
        self.stats_before = self.server.stats()["cache"]
        self.traced_updates_from = len(self.update_seconds)


# ----------------------------------------------------------------------
class ShardedQuery(_ServedWorkload):
    """The file-solve graph as a 2-shard served model, cache off."""

    name = "sharded-query"
    model_name = "g"
    setup_repeats = 3
    pool_size = 4
    #: shard sweeps run on a pool no wider than the machine
    workers = busy_threads = min(2, os.cpu_count() or 1)

    def prepare(self) -> None:
        n = self.size["file_nodes"]
        self._make_model("g", "random", self.seed, n, 4 * n, 2, FILE_STRENGTH)
        rng = np.random.default_rng([self.seed, 2])
        self.pool = inputs.evidence_sets(rng, n, 2, self.pool_size)
        self.distinct: list[list[np.ndarray]] = [[] for _ in self.pool]
        self.turn = 0

    def setup(self, traced: bool) -> float:
        config = ServerConfig(shards=2, cache_capacity=0, shard_threads=self.workers)
        seconds = self._start(config, traced)
        if traced:
            self.partition_layers()
        return seconds

    def round(self, traced: bool) -> list[Op]:
        k = self.turn % self.pool_size
        self.turn += 1
        tracer = Tracer() if traced else None
        build0 = _build_seconds()
        with use_tracer(tracer):
            [(seconds, response)] = self._submit_burst([self.pool[k]], False, tracer)
        if traced:
            self.traced_ops.append(TracedOp(seconds, tracer.events, {
                "build": _build_seconds() - build0,
                "iterations": response.iterations,
            }))
        self._last = (k, response)
        return self._count([Op("op", seconds, response.ok)])

    def verify_round(self) -> None:
        k, response = self._last
        if not response.ok:
            return
        post = _as_array(response.posteriors, self.model.n, self.model.b)
        self.check.properties("sharded-query", post, self.pool[k],
                              converged=response.converged, iterations=response.iterations)
        _keep_distinct(self.distinct[k], post)
        self._last = None

    def verify(self) -> None:
        m = self.model
        refs = reference_batch(m.priors, m.edges, m.potential, self.pool)
        for answers, ref in zip(self.distinct, refs):
            for post in answers:
                self.check.against("sharded-query", post, ref.beliefs)

    def partition_layers(self) -> None:
        """Time the two partition entry points registration used, from outside."""
        graph = self.registered.graph
        plan = self.registered.plan
        t0 = time.perf_counter()
        part = make_partition(graph, plan.shards, plan.partitioner or "bfs")
        ShardedGraph.build(graph, part)
        seconds = time.perf_counter() - t0
        built = self.registered.sharded.partition
        self.setup_layers.update({
            "partition.build_ms": seconds * 1e3,
            "partition.cut_fraction": float(built.cut_fraction),
            "partition.balance": float(built.balance),
        })

    def layer_values(self) -> dict[str, float]:
        rows = []
        for t in self.traced_ops:
            ev = t.events
            sweep_s = layers.total(ev, "shard.sweep")
            updates = layers.sweep_stat(ev, "shard.sweep", "nodes_processed")
            moved = (layers.sweep_stat(ev, "shard.sweep", "sequential_bytes")
                     + layers.sweep_stat(ev, "shard.sweep", "random_bytes"))
            launches = layers.sweep_stat(ev, "shard.sweep", "kernel_launches")
            [query] = self._query_layers(t)
            row = {
                "sharded.sweep_ms": sweep_s * 1e3,
                "sharded.exchange_ms": layers.total(ev, "shard.exchange") * 1e3,
                "sharded.barrier_idle_ms": layers.barrier_idle_s(ev) * 1e3,
                "sharded.exchange_mb": sum((e.args or {}).get("bytes", 0) for e in
                                           layers.by_name(ev, "shard.exchange")) / 1e6,
                "sharded.worker_busy": sweep_s / (self.workers * t.seconds),
                "serve.engine_ms": layers.total(ev, "serve.engine") * 1e3,
                "serve.batch_size": sum(e.args.get("cache_misses", 0) for e in
                                        layers.by_name(ev, "serve.engine")),
                "kernels.build_ms": t.extra["build"] * 1e3,
                "kernels.fused_share": layers.sweep_stat(ev, "shard.sweep", "fused_launches")
                / max(launches, 1),
                "core.iterations": t.extra["iterations"],
                "core.updates": updates,
                "core.updates_per_s": updates / sweep_s if sweep_s > 0 else 0.0,
                "core.bytes_per_update": moved / max(updates, 1),
            }
            row.update(query)
            rows.append(row)
        values = dict(self.setup_layers)
        values.update({k: layers.median(r[k] for r in rows) for k in rows[0]})
        return values


# ----------------------------------------------------------------------
class DeltaStream(Workload):
    """Warm-started re-convergence of a grid under a stream of deltas."""

    name = "delta-stream"
    setup_repeats = 5
    deltas_per_round = 8  # the last one of each round is structural
    max_observed = 3

    def prepare(self) -> None:
        side = self.size["grid"]
        self.rows = self.cols = side
        self._make_model("d", "grid", self.seed, side, side, 2, GRID_STRENGTH)
        self.rng = np.random.default_rng([self.seed, 3])
        self.pos = int(self.rng.integers(self.model.n))
        self.observed: dict[int, int] = {}
        self.order: list[int] = []
        self.added: tuple[int, int] | None = None
        self.converged: list[np.ndarray] = []
        self.round_out: list = []
        self.engine = None
        self.traced_rounds = 0

    def setup(self, traced: bool) -> float:
        t0 = time.perf_counter()
        graph = load_graph(self.nodes, self.edges)
        parse = time.perf_counter() - t0
        tracer = Tracer() if traced else None
        with use_tracer(tracer):
            t0 = time.perf_counter()
            engine = IncrementalEngine(graph)
            result = engine.converge()
            seconds = time.perf_counter() - t0
        self.engine = engine
        self.check.properties("delta-stream converge", result.beliefs, {},
                              converged=result.converged, iterations=result.iterations)
        _keep_distinct(self.converged, result.beliefs)
        if traced:
            self.setup_layers.update({
                "io.parse_ms": parse * 1e3,
                "io.parse_mb_per_s": self.bytes / 1e6 / parse,
            })
        return seconds

    def _step(self) -> int:
        """Move the walker one lattice step to a node not observed now."""
        r, c = divmod(self.pos, self.cols)
        while True:
            dr, dc = ((0, 1), (0, -1), (1, 0), (-1, 0))[int(self.rng.integers(4))]
            nr, nc = r + dr, c + dc
            if 0 <= nr < self.rows and 0 <= nc < self.cols:
                node = nr * self.cols + nc
                if node not in self.observed:
                    self.pos = node
                    return node
                r, c = nr, nc

    def _evidence_delta(self) -> GraphDelta:
        delta = GraphDelta()
        # step before releasing: one delta must not observe and release the
        # same node (a delta applies its observations before its releases)
        node = self._step()
        if len(self.order) == self.max_observed:
            old = self.order.pop(0)
            del self.observed[old]
            delta.release_node(str(old))
        state = int(self.rng.integers(2))
        self.observed[node] = state
        self.order.append(node)
        delta.observe_node(str(node), state)
        return delta

    def _structural_delta(self) -> GraphDelta:
        """Add a diagonal edge at the walker, or remove the last one added."""
        delta = GraphDelta()
        if self.added is None:
            r, c = divmod(self.pos, self.cols)
            dr = 1 if r + 1 < self.rows else -1
            dc = 1 if c + 1 < self.cols else -1
            self.added = (self.pos, (r + dr) * self.cols + (c + dc))
            delta.add_edge(str(self.added[0]), str(self.added[1]))
        else:
            delta.remove_edge(str(self.added[0]), str(self.added[1]))
            self.added = None
        return delta

    def current_edges(self) -> np.ndarray:
        if self.added is None:
            return self.model.edges
        return np.vstack([self.model.edges, [self.added]])

    def round(self, traced: bool) -> list[Op]:
        ops: list[Op] = []
        self.round_out = []
        for i in range(self.deltas_per_round):
            structural = i == self.deltas_per_round - 1
            delta = self._structural_delta() if structural else self._evidence_delta()
            tracer = Tracer() if traced else None
            build0 = _build_seconds()
            ok = True
            with use_tracer(tracer):
                t0 = time.perf_counter()
                try:
                    inc = self.engine.apply(delta)
                except (KeyError, ValueError, IndexError) as exc:
                    ok, inc = False, None
                    self.check.fail(f"delta-stream: apply raised {exc!r}")
                seconds = time.perf_counter() - t0
            ops.append(Op("write" if structural else "op", seconds, ok))
            if inc is not None:
                self.round_out.append((dict(self.observed), inc))
                if traced:
                    self.traced_ops.append(TracedOp(seconds, tracer.events, {
                        "inc": inc, "build": _build_seconds() - build0,
                        "round": self.traced_rounds,
                    }))
        self.traced_rounds += traced
        return self._count(ops)

    def verify_round(self) -> None:
        for evidence, inc in self.round_out:
            self.check.properties("delta-stream", inc.beliefs, evidence,
                                  converged=inc.result.converged,
                                  iterations=inc.result.iterations)
        if self.round_out:
            self._final = self.round_out[-1]
        self.round_out = []

    def verify(self) -> None:
        m = self.model
        cold = reference_beliefs(m.priors, m.edges, m.potential).beliefs
        for beliefs in self.converged:
            self.check.against("delta-stream converge", beliefs, cold)
        evidence, inc = self._final
        ref = reference_beliefs(m.priors, self.current_edges(), m.potential, evidence)
        self.check.against("delta-stream final", inc.beliefs, ref.beliefs)

    def layer_values(self) -> dict[str, float]:
        rows = []
        for t in self.traced_ops:
            inc = t.extra["inc"]
            res = inc.result
            total_stats = res.run_stats.total
            apply_s = layers.total(t.events, "stream.apply")
            reconverge = layers.total(t.events, "bp.run")
            sweep = layers.total(t.events, "bp.sweep") - layers.total(t.events, "schedule.update")
            rows.append({
                "stream.apply_ms": (apply_s - reconverge) * 1e3,
                "stream.reconverge_ms": reconverge * 1e3,
                "stream.edges_swept": inc.edges_swept,
                "stream.full_fallbacks": float(inc.mode == "full"),
                "kernels.build_ms": t.extra["build"] * 1e3,
                "kernels.fused_share": total_stats.fused_launches
                / max(total_stats.kernel_launches, 1),
                "core.iterations": res.iterations,
                "core.updates": res.updates,
                "core.sweep_ms": sweep * 1e3,
                "core.schedule_ms": layers.total(t.events, "schedule.update") * 1e3,
                "core.updates_per_s": res.updates / sweep if sweep > 0 else 0.0,
                "core.bytes_per_update": (total_stats.sequential_bytes
                                          + total_stats.random_bytes) / max(res.updates, 1),
                "unattributed_ms": (t.seconds - apply_s) * 1e3,
                "op_ms": t.seconds * 1e3,
            })
        # a round's structural delta costs ~20 evidence deltas: a median
        # over single deltas would never see it, so each value is the mean
        # over one round's deltas, and the median is taken over rounds
        rounds: dict[int, list[dict]] = {}
        for t, row in zip(self.traced_ops, rows):
            rounds.setdefault(t.extra["round"], []).append(row)
        values = dict(self.setup_layers)
        values.update({k: layers.median(np.mean([r[k] for r in rnd])
                                        for rnd in rounds.values()) for k in rows[0]})
        values["stream.full_fallbacks"] = sum(r["stream.full_fallbacks"] for r in rows)
        return values


WORKLOADS = {w.name: w for w in (FileSolve, ServeMixed, ShardedQuery, DeltaStream)}
