"""Compiled sweep executors (DESIGN.md §13).

The compiled executor is only admissible because it is *bit-exact*
against the interpreted kernels — the parity grid here is the contract:
schedules × paradigms × evidence × shard counts, posteriors compared
with ``assert_array_equal`` (no tolerance).  The rest covers the layout
registry (conversion, blocked store, footprint truthfulness) and the
plan-time layout autotuner's determinism under a fixed measurement seed.
"""

import numpy as np
import pytest

from repro.core.beliefs import BLOCK_NODES, make_store
from repro.core.convergence import ConvergenceCriterion
from repro.core.loopy import LoopyBP, LoopyConfig
from repro.core.observation import observe
from repro.core.sharded import ShardedLoopyBP
from repro.kernels import (
    EXECUTORS,
    LAYOUTS,
    autotune_layout,
    make_executor,
    normalize_executor,
    normalize_layout,
    with_layout,
)
from tests.conftest import make_loopy_graph

CRIT = ConvergenceCriterion(threshold=1e-6, max_iterations=60)
SCHEDULES = ("sync", "work_queue", "residual", "relaxed")


def _graph(evidence: bool = False, seed: int = 42):
    g = make_loopy_graph(seed=seed, n_nodes=40, n_edges=90, n_states=3)
    if evidence:
        observe(g, 3, 1)
        observe(g, 17, 0)
    return g


class TestParityGrid:
    @pytest.mark.parametrize("evidence", [False, True], ids=["free", "evidence"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_single_engine_bitwise(self, schedule, paradigm, evidence):
        ref = LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=CRIT,
            executor="interpreted",
        ).run(_graph(evidence))
        got = LoopyBP(
            paradigm=paradigm, schedule=schedule, criterion=CRIT,
            executor="compiled",
        ).run(_graph(evidence))
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        np.testing.assert_array_equal(got.beliefs, ref.beliefs)

    @pytest.mark.parametrize("evidence", [False, True], ids=["free", "evidence"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    def test_four_shards_bitwise(self, paradigm, evidence):
        posteriors = {}
        for executor in EXECUTORS:
            g = _graph(evidence, seed=21)
            engine = ShardedLoopyBP(
                LoopyConfig(paradigm=paradigm, criterion=CRIT, executor=executor)
            )
            result = engine.run_graph(g, n_shards=4, method="bfs")
            posteriors[executor] = (result.iterations, g.beliefs.dense().copy())
        it_ref, ref = posteriors["interpreted"]
        it_got, got = posteriors["compiled"]
        assert it_got == it_ref
        np.testing.assert_array_equal(got, ref)

    def test_damped_sweeps_bitwise(self):
        runs = [
            LoopyBP(
                paradigm="edge", schedule="sync", damping=0.3, criterion=CRIT,
                executor=executor,
            ).run(_graph(True, seed=8))
            for executor in EXECUTORS
        ]
        np.testing.assert_array_equal(runs[0].beliefs, runs[1].beliefs)

    def test_compiled_full_sweeps_fuse_launches(self):
        # the edge paradigm is the interesting case: the interpreted
        # executor launches one kernel per chunk, the compiled one a
        # fixed handful of fused programs per sweep
        interp = LoopyBP(paradigm="edge", schedule="sync", criterion=CRIT,
                         executor="interpreted").run(_graph())
        fused = LoopyBP(paradigm="edge", schedule="sync", criterion=CRIT,
                        executor="compiled").run(_graph())
        assert interp.run_stats.total.fused_launches == 0
        total = fused.run_stats.total
        assert 0 < total.fused_launches < total.kernel_launches


class TestExecutorRegistry:
    def test_aliases_normalize(self):
        assert normalize_executor("fused") == "compiled"
        assert normalize_executor("Interp") == "interpreted"
        assert normalize_executor(None) == "interpreted"
        with pytest.raises(ValueError, match="unknown executor"):
            normalize_executor("jit")

    def test_make_executor_builds_registered_kinds(self):
        from repro.core.state import LoopyState

        state = LoopyState(_graph())
        for name in EXECUTORS:
            ex = make_executor(name, state, paradigm="node")
            assert ex.name == name
            assert ex.build_seconds >= 0.0

    def test_config_normalizes_executor(self):
        assert LoopyConfig(executor="lowered").executor == "compiled"
        with pytest.raises(ValueError):
            LoopyConfig(executor="bogus")


class TestLayouts:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_with_layout_preserves_values(self, layout):
        g = make_loopy_graph(seed=5, n_nodes=33, n_edges=70, n_states=3)
        conv = with_layout(g, layout)
        assert conv.layout == layout
        np.testing.assert_array_equal(conv.beliefs.dense(), g.beliefs.dense())
        np.testing.assert_array_equal(conv.priors.dense(), g.priors.dense())
        # structure is shared, not copied
        assert conv.src is g.src and conv.potentials is g.potentials
        back = with_layout(conv, g.layout)
        np.testing.assert_array_equal(back.beliefs.dense(), g.beliefs.dense())

    def test_with_layout_same_layout_is_identity(self):
        g = make_loopy_graph(seed=5)
        assert with_layout(g, g.layout) is g

    def test_alias_normalization(self):
        assert normalize_layout("struct-of-arrays") == "soa"
        assert normalize_layout("aosoa") == "blocked"
        with pytest.raises(ValueError, match="unknown layout"):
            normalize_layout("csr")

    def test_blocked_store_roundtrip(self):
        rng = np.random.default_rng(0)
        n = 3 * BLOCK_NODES + 5  # deliberately ragged: a partial tail tile
        dims = np.full(n, 4)
        dense = rng.random((n, 4)).astype(np.float32)
        store = make_store(dims, "blocked")
        store.load_dense(dense)
        np.testing.assert_array_equal(store.dense(), dense)
        np.testing.assert_array_equal(store.get(n - 1), dense[n - 1])
        store.set(2, np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32))
        assert store.dense()[2, 1] == np.float32(0.2)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_footprint_tracks_layout(self, layout):
        g = with_layout(make_loopy_graph(seed=3, n_nodes=50, n_edges=100), layout)
        fp = g.memory_footprint()
        assert fp["beliefs"] == g.beliefs.nbytes()
        assert fp["priors"] == g.priors.nbytes()


class TestAutotuner:
    def test_deterministic_under_seed(self):
        g = make_loopy_graph(seed=7, n_nodes=60, n_edges=120)
        first = autotune_layout(g, seed=7)
        second = autotune_layout(g, seed=7)
        assert first.layout == second.layout
        assert first.scores == second.scores
        assert first.layout in LAYOUTS
        assert set(first.scores) == set(LAYOUTS)

    def test_decision_is_auditable(self):
        decision = autotune_layout(make_loopy_graph(seed=7), seed=0)
        payload = decision.as_dict()
        assert payload["layout"] == decision.layout
        assert 0.0 <= payload["locality"] <= 1.0


class TestPlanIntegration:
    def test_qualified_suffix_grammar(self):
        from repro.credo.runner import ExecutionPlan

        assert ExecutionPlan("c-node", "sync").qualified == "c-node:sync"
        plan = ExecutionPlan("c-node", "sync", executor="compiled", layout="soa")
        assert plan.qualified == "c-node:sync!compiled%soa"
        sharded = ExecutionPlan(
            "sharded", "sync", shards=4, partitioner="bfs",
            policy="async", staleness=2, executor="compiled",
        )
        assert sharded.qualified == "sharded:sync@4xbfs+async~2!compiled"

    def test_qualified_spec_round_trips(self):
        from repro.credo.runner import Credo, parse_qualified

        assert parse_qualified("c-edge:sync!compiled%soa") == {
            "backend": "c-edge", "schedule": "sync",
            "executor": "compiled", "layout": "soa",
        }
        assert parse_qualified("sharded:sync@4xbfs+async~2") == {
            "backend": "sharded", "schedule": "sync", "shards": 4,
            "partitioner": "bfs", "policy": "async", "staleness": 2,
        }
        credo = Credo()
        g = _graph(True, seed=11)
        plan = credo.plan(g, backend="c-node:sync!compiled%soa")
        assert (plan.backend, plan.schedule) == ("c-node", "sync")
        assert (plan.executor, plan.layout) == ("compiled", "soa")
        # the rendered spelling plans back to the same decision
        again = credo.plan(g, backend=plan.qualified)
        assert again == plan

    def test_credo_run_accepts_qualified_spec(self):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=13)
        ref = credo.run(g.copy(), backend="c-edge", schedule="sync")
        got = credo.run(g.copy(), backend="c-edge:sync!compiled")
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(
            np.asarray(got.beliefs), np.asarray(ref.beliefs)
        )
        assert got.detail.get("executor") == "compiled"

    def test_selector_sizes_the_lowering(self):
        from repro.credo.selector import CredoSelector

        sel = CredoSelector()
        small = make_loopy_graph(seed=1, n_nodes=20, n_edges=30)
        assert sel.select_executor(small, "c-node") == "interpreted"
        assert sel.select_executor(small, "reference") == "interpreted"

    def test_credo_run_compiled_matches_default(self):
        from repro.credo.runner import Credo

        credo = Credo()
        g = _graph(True, seed=31)
        ref = credo.run(g.copy(), backend="c-node")
        got = credo.run(g.copy(), backend="c-node", executor="compiled",
                        layout="auto")
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(
            np.asarray(got.beliefs), np.asarray(ref.beliefs)
        )
        assert got.detail.get("executor") == "compiled"


# ---------------------------------------------------------------------------
# Compacted sweeps: every partial active set (work queue, residual and
# relaxed batches, shard-owned rows, served unions) runs the fused body,
# so parity is checked on the full state — beliefs, stored messages and
# the log-message accumulator — with no tolerance, and every compiled
# sweep must report a fused launch (a silent interpreted fallback fails).
# ---------------------------------------------------------------------------
RULES = (("sum_product", "sum"), ("broadcast", "sum"), ("sum_product", "max"))


def _matrix_graph(kind: str, evidence: bool, seed: int = 42):
    """``paired``: every edge has a reverse; ``unpaired``: some directed
    edges lack one; ``per_edge``: a per-edge potential stack."""
    from repro.core.graph import BeliefGraph
    from repro.core.potentials import attractive_potential

    base = make_loopy_graph(seed=seed, n_nodes=40, n_edges=90, n_states=3)
    if kind == "paired":
        g = base
    else:
        priors = base.priors.dense()
        if kind == "unpaired":
            keep = np.arange(base.n_edges) % 5 != 0
            g = BeliefGraph(priors, base.src[keep], base.dst[keep],
                            attractive_potential(3, 0.7))
            assert (g.reverse_edge < 0).any() and (g.reverse_edge >= 0).any()
        else:
            rng = np.random.default_rng(seed)
            stack = rng.uniform(0.2, 1.0, size=(base.n_edges, 3, 3))
            g = BeliefGraph(priors, base.src, base.dst, stack.astype(np.float32))
    if evidence:
        observe(g, 3, 1)
        observe(g, 17, 0)
    return g


def _assert_every_sweep_fused(per_sweep):
    worked = [s for s in per_sweep if s.nodes_processed or s.edges_processed]
    assert worked, "no sweep did any work"
    assert all(s.fused_launches >= 1 for s in worked)


def _assert_states_equal(got, ref):
    np.testing.assert_array_equal(got.beliefs, ref.beliefs)
    np.testing.assert_array_equal(got.messages, ref.messages)
    np.testing.assert_array_equal(got.log_messages, ref.log_messages)
    np.testing.assert_array_equal(got.log_msg_sum, ref.log_msg_sum)


class _CaptureStates:
    """Sharded-run instrument that keeps the per-shard states."""

    def __init__(self):
        self.states = []

    def on_states(self, states):
        self.states = list(states)

    def on_phase(self, label):
        pass


class TestCompactedParityMatrix:
    @pytest.mark.parametrize("graph_kind", ["paired", "unpaired", "per_edge"])
    @pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r[0]}-{r[1]}")
    @pytest.mark.parametrize("damping", [0.0, 0.3], ids=["undamped", "damped"])
    @pytest.mark.parametrize("evidence", [False, True], ids=["free", "evidence"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_single_engine_state_bitwise(
        self, schedule, paradigm, evidence, damping, rule, graph_kind
    ):
        from repro.core.state import LoopyState

        update_rule, semiring = rule
        runs = {}
        for executor in EXECUTORS:
            g = _matrix_graph(graph_kind, evidence)
            state = LoopyState(g)
            result = LoopyBP(
                paradigm=paradigm, schedule=schedule, criterion=CRIT,
                damping=damping, update_rule=update_rule, semiring=semiring,
                executor=executor,
            ).run(g, state=state)
            runs[executor] = (result, state)
        ref, ref_state = runs["interpreted"]
        got, got_state = runs["compiled"]
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        _assert_states_equal(got_state, ref_state)
        _assert_every_sweep_fused(got.run_stats.per_iteration)

    @pytest.mark.parametrize("evidence", [False, True], ids=["free", "evidence"])
    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", ["work_queue", "residual", "relaxed"])
    def test_four_shards_state_bitwise(self, schedule, paradigm, evidence):
        runs = {}
        for executor in EXECUTORS:
            g = _matrix_graph("paired", evidence, seed=21)
            capture = _CaptureStates()
            engine = ShardedLoopyBP(
                LoopyConfig(paradigm=paradigm, schedule=schedule,
                            criterion=CRIT, executor=executor),
                instrument=capture,
            )
            result = engine.run_graph(g, n_shards=4, method="bfs")
            runs[executor] = (result, capture.states)
        ref, ref_states = runs["interpreted"]
        got, got_states = runs["compiled"]
        assert got.iterations == ref.iterations
        np.testing.assert_array_equal(got.beliefs, ref.beliefs)
        assert len(got_states) == len(ref_states) == 4
        for got_state, ref_state in zip(got_states, ref_states):
            _assert_states_equal(got_state, ref_state)
        _assert_every_sweep_fused(
            [s for per_shard in got.per_shard_stats for s in per_shard]
        )

    @pytest.mark.parametrize("paradigm", ["node", "edge"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_serve_union_bitwise(self, schedule, paradigm):
        from repro.serve.batch import run_batched

        evidences = [[(3, 1)], [(17, 0), (5, 2)], [], [(30, 1)]]
        runs = {}
        for executor in EXECUTORS:
            config = LoopyConfig(paradigm=paradigm, schedule=schedule,
                                 criterion=CRIT, executor=executor)
            runs[executor], _ = run_batched(
                _matrix_graph("unpaired", False), config, evidences
            )
        for got, ref in zip(runs["compiled"], runs["interpreted"]):
            assert got.iterations == ref.iterations
            np.testing.assert_array_equal(got.beliefs, ref.beliefs)
        union_sweeps = max(run.iterations for run in runs["compiled"])
        assert runs["compiled"][0].stats.fused_launches >= union_sweeps
        assert runs["interpreted"][0].stats.fused_launches == 0

    def test_lowering_survives_in_place_evidence(self):
        # evidence deltas flip free_mask in place under a kept lowering:
        # the compiled sweeps must read the live mask, not a stale copy
        from repro.core.state import LoopyState
        from repro.kernels.executor import cached_executor

        states, caches = {}, {}
        for executor in EXECUTORS:
            g = _matrix_graph("paired", False)
            state, cache = LoopyState(g), {}
            LoopyBP(paradigm="edge", schedule="sync", criterion=CRIT,
                    executor=executor).run(g, state=state, executor_cache=cache)
            observe(g, 9, 2)
            np.logical_not(g.observed, out=state.free_mask)
            state.beliefs[9] = 0.0
            state.beliefs[9, 2] = 1.0
            LoopyBP(paradigm="edge", schedule="sync", criterion=CRIT,
                    executor=executor).run(g, state=state, executor_cache=cache)
            states[executor], caches[executor] = state, cache
        assert cached_executor(
            caches["compiled"], "compiled", states["compiled"], paradigm="edge"
        ).name == "compiled"
        _assert_states_equal(states["compiled"], states["interpreted"])
        assert states["compiled"].beliefs[9, 2] == 1.0


class TestServedQueriesHonourPlanExecutor:
    @pytest.mark.parametrize("shards", [1, 2], ids=["batched", "two-shard"])
    def test_compiled_plan_fuses_and_matches_interpreted(self, shards):
        from repro.serve import InferenceServer, ServerConfig

        queries = [{"evidence": {"3": 1}}, {"evidence": {"17": 0, "5": 2}}]
        outcomes = {}
        for executor in EXECUTORS:
            srv = InferenceServer(
                ServerConfig(backend=f"c-node:work_queue!{executor}",
                             shards=shards, cache_capacity=0, max_batch=8),
                autostart=False,
            )
            try:
                model = srv.register_model("g", _matrix_graph("paired", False))
                assert model.plan.executor == executor
                assert (model.sharded is not None) == (shards > 1)
                outcomes[executor] = srv.engine.execute(model, queries)
            finally:
                srv.stop()
        for got, ref in zip(outcomes["compiled"], outcomes["interpreted"]):
            assert got.ok and ref.ok
            assert got.iterations == ref.iterations
            np.testing.assert_array_equal(got.posteriors, ref.posteriors)
            assert got.fused_launches > 0
            assert ref.fused_launches == 0
