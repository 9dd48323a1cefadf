"""The compiled sweep executor: plan-time lowering, fused compacted sweeps.

Lowering happens once per :class:`~repro.core.state.LoopyState`: the
large scratch buffers are allocated and the buffer-op IR is emitted and
verified up front.  Every sweep — a full sync pass, a shrunken work
queue, a priority batch, one shard's owned rows, a served union — then
*gather-compacts* the edges it recomputes into the first ``k`` rows of
those scratch buffers and runs one fused gather → cavity → potential →
normalize → log-scatter → combine body there.  A full sweep (or a full
edge chunk) is the identity-index case of the same body: its edge
selection is a contiguous slice, so the structure gathers are views.

Why compaction is bit-exact
---------------------------
The only order-sensitive operation in a sweep is the per-destination
float accumulation inside ``np.bincount`` (messages, potentials,
normalization and the combine are all row-independent).  The
interpreted node sweep feeds ``bincount`` the in-edges of the active
nodes in destination-CSR order; ``in_edge_ids`` is produced by a
*stable* argsort of ``dst``, so within each destination bin the edge ids
ascend.  The compacted set ``flatnonzero(active_mask[dst])`` lists the
same edges in ascending id, and a CSR gather lists them per destination
in the same ascending order — either way each bin adds in the same order
⇒ identical float64 partial sums ⇒ identical float32 results.  The edge
paradigm keeps the caller's active order and the same ``linspace`` chunk
bounds, so each chunk recomputes exactly the interpreted chunk.  Cavity
normalization is applied only when the compacted set (node paradigm) or
the chunk (edge paradigm) has a paired edge, mirroring
:meth:`LoopyState.cavity_messages` — renormalizing a normalized row is
not a bitwise no-op.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.state import TINY, LoopyState
from repro.core.sweepstats import SweepStats
from repro.kernels.executor import SweepExecutor
from repro.kernels.ir import (
    BufferOp,
    BufferSpec,
    KernelProgram,
    KernelVerificationError,
    check_buffers,
    verify_program,
)
from repro.telemetry import get_metrics

__all__ = ["CompiledExecutor"]

_FLOAT = np.float32
_FSIZE = 4
_ISIZE = 8

#: numpy's pairwise-summation block size: reductions over fewer than 8
#: elements run sequentially in array order, so an explicit left-to-right
#: column accumulation is *bitwise identical* to ``.sum(axis=1)`` for
#: belief widths up to 8 — and an order of magnitude faster, because each
#: column op is one contiguous strided pass instead of a per-row reduce
_PAIRWISE_BLOCK = 8

#: max-product rows per sub-chunk, bounding the ``(rows, b, b)`` temporary
_MAX_STEP = 1 << 16

#: active sets below ``n / _CSR_GATHER_RATIO`` nodes find their in-edges
#: through the destination CSR (cost ∝ their in-degree sum) instead of an
#: ``active_mask[dst]`` scan (cost ∝ n + m); both list each destination's
#: in-edges in ascending id, so the choice changes no bits.  Measured on
#: a 20k-node, 160k-directed-edge uniform random graph (2 cores): the CSR
#: gather takes 33 / 145 / 283 / 627 µs at 1/256 / 1/16 / 1/8 / 1/4 of
#: the nodes, the mask scan 390–590 µs throughout
_CSR_GATHER_RATIO = 4


def _row_sum(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of ``(k, b)``, bit-identical to ``mat.sum(axis=1)``."""
    b = mat.shape[1]
    if b > _PAIRWISE_BLOCK:
        return np.sum(mat, axis=1, out=out)
    if b == 1:
        if out is None:
            return mat[:, 0].copy()
        out[...] = mat[:, 0]
        return out
    acc = np.add(mat[:, 0], mat[:, 1], out=out)
    for s in range(2, b):
        np.add(acc, mat[:, s], out=acc)
    return acc


def _row_max(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row maxima of ``(k, b)`` — max is exactly associative, so the
    column pass matches ``mat.max(axis=1)`` for any width."""
    b = mat.shape[1]
    if b == 1:
        if out is None:
            return mat[:, 0].copy()
        out[...] = mat[:, 0]
        return out
    acc = np.maximum(mat[:, 0], mat[:, 1], out=out)
    for s in range(2, b):
        np.maximum(acc, mat[:, s], out=acc)
    return acc


def _row_abs_diff_sum(
    a: np.ndarray, b_: np.ndarray, diff: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """``np.abs(a - b_).sum(axis=1)`` through scratch, bit-identical for
    widths up to the pairwise block (wider falls back to the reduce)."""
    np.subtract(a, b_, out=diff)
    np.abs(diff, out=diff)
    return _row_sum(diff, out=total)


def _normalize_fast(mat: np.ndarray, total: np.ndarray) -> np.ndarray:
    """In-place :func:`normalize_rows` with a scratch row-sum buffer.

    Same semantics bit for bit: all-zero rows become uniform, everything
    divides by its row total.
    """
    sums = _row_sum(mat, out=total)
    zero = sums <= 0
    if zero.any():
        mat[zero] = 1.0
        sums = _row_sum(mat, out=total)
    mat /= sums[:, None]
    return mat


def _pairing(rev: np.ndarray, all_paired: bool) -> tuple:
    """``(all_paired, paired_idx, rev_ids)`` for an edge selection whose
    reverse ids are ``rev``: the selection positions with a reverse
    edge (``None`` when every position has one) and those reverse ids.
    ``all_paired`` short-cuts the scan when the whole graph is paired."""
    if all_paired:
        return True, None, rev
    paired_idx = np.flatnonzero(rev >= 0)
    if len(paired_idx) == len(rev):
        return True, None, rev
    return False, paired_idx, rev[paired_idx]


def _sub(sel: slice | np.ndarray, s: int, e: int) -> slice | np.ndarray:
    """Positions ``[s, e)`` of an edge selection (slice or index array)."""
    if isinstance(sel, slice):
        return slice(sel.start + s, sel.start + e)
    return sel[s:e]


def _rows(arr: np.ndarray, sel: slice | np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows ``sel`` of ``arr``: a view for a slice, else an ``np.take``
    into ``out`` (about 10× faster than a row-wise fancy gather)."""
    if isinstance(sel, slice):
        return arr[sel]
    return np.take(arr, sel, axis=0, out=out)


def _put_rows(arr: np.ndarray, sel: slice | np.ndarray, values: np.ndarray) -> None:
    """``arr[sel] = values``; for an index array, through a raw-bytes
    row view of both operands — the same bytes land in the same rows,
    about 10× faster than a row-wise fancy store."""
    if isinstance(sel, slice) or not (
        arr.flags.c_contiguous and values.flags.c_contiguous
    ):
        arr[sel] = values
        return
    row = np.dtype((np.void, arr.shape[1] * arr.itemsize))
    arr.view(row).reshape(-1)[sel] = values.view(row).reshape(-1)


class CompiledExecutor(SweepExecutor):
    """Fused gather–scatter executor, lowered once per state."""

    name = "compiled"

    def __init__(self, state: LoopyState, *, paradigm: str = "node", chunks: int = 8):
        start = time.perf_counter()
        self.paradigm = paradigm
        n, m, b = state.n, state.m, state.b

        # -- lowering: when every edge has a reverse, no sweep scans for
        #    pairs; nothing evidence-dependent is lowered, because evidence
        #    deltas flip ``free_mask`` in place under a kept lowering -------
        self._all_paired = bool(m) and bool((state.rev >= 0).all())

        # -- scratch buffers: every sweep compacts into their first k rows,
        #    so no sweep allocates (m, b) or (n, b) temporaries --------------
        self._raw = np.empty((m, b), dtype=_FLOAT)
        self._log_new = np.empty((m, b), dtype=_FLOAT)
        self._log_delta = np.empty((m, b), dtype=_FLOAT)
        self._logits = np.empty((n, b), dtype=_FLOAT)
        self._logits2 = np.empty((n, b), dtype=_FLOAT)
        self._source = np.empty((m, b), dtype=_FLOAT)
        self._back = np.empty((m, b), dtype=_FLOAT)
        self._edge_total = np.empty(m, dtype=_FLOAT)
        self._node_total = np.empty(n, dtype=_FLOAT)
        self._node_rowbuf = np.empty(n, dtype=_FLOAT)

        self._chunks = max(1, min(chunks, m)) if m else 1

        # -- buffer-op IR: describe the lowered program and verify it
        #    statically before the first sweep runs --------------------------
        self.programs = self._emit_programs(state)
        for program in self.programs.values():
            verify_program(program)

        self.build_seconds = time.perf_counter() - start
        get_metrics().histogram("kernel.build_s").record(self.build_seconds)

    # ------------------------------------------------------------------
    def _emit_programs(self, state: LoopyState) -> dict[str, KernelProgram]:
        """The lowered sweep as buffer-op IR (see :mod:`repro.kernels.ir`).

        One program per lowered paradigm, mirroring the exact op order of
        the compacted body below (a full sweep is its identity-index
        case); :func:`~repro.kernels.ir.verify_program` checks it at plan
        time and :meth:`verify_buffers` re-checks the live arrays on
        demand.
        """
        pot_shape = ("b", "b") if state.shared_potential else ("m", "b", "b")
        buffers = [
            BufferSpec("beliefs", ("n", "b"), "float32", "state"),
            BufferSpec("messages", ("m", "b"), "float32", "state"),
            BufferSpec("log_messages", ("m", "b"), "float32", "state"),
            BufferSpec("log_msg_sum", ("n", "b"), "float32", "state"),
            BufferSpec("log_priors", ("n", "b"), "float32", "state"),
            BufferSpec("potentials", pot_shape, "float32", "state"),
            BufferSpec("src", ("m",), "int64", "state"),
            BufferSpec("dst", ("m",), "int64", "state"),
            BufferSpec("rev", ("m",), "int64", "state"),
            BufferSpec("free_mask", ("n",), "bool", "state"),
            # the caller's active nodes / edges (a full sweep: all of them)
            BufferSpec("active", ("?",), "int64", "state"),
            BufferSpec("raw", ("m", "b"), "float32", "scratch"),
            BufferSpec("log_new", ("m", "b"), "float32", "scratch"),
            BufferSpec("log_delta", ("m", "b"), "float32", "scratch"),
            BufferSpec("logits", ("n", "b"), "float32", "scratch"),
            BufferSpec("logits2", ("n", "b"), "float32", "scratch"),
            BufferSpec("source", ("m", "b"), "float32", "scratch"),
            BufferSpec("back", ("m", "b"), "float32", "scratch"),
            BufferSpec("edge_total", ("m",), "float32", "scratch"),
            BufferSpec("node_total", ("n",), "float32", "scratch"),
            BufferSpec("node_rowbuf", ("n",), "float32", "scratch"),
            # the compacted edge selection: per sweep (node) or per chunk
            BufferSpec("edge_ids", ("?",), "int64", "local"),
        ]
        message_ops = [
            BufferOp("gather_source", reads=("beliefs", "src", "edge_ids"),
                     writes=("source",)),
            BufferOp("gather_back", reads=("messages", "rev", "edge_ids"),
                     writes=("back",)),
            BufferOp("clamp_back", reads=("back",), writes=("back",), inplace_ok=True),
            BufferOp(
                "cavity_divide",
                reads=("source", "back"),
                writes=("source",),
                inplace_ok=True,
            ),
            BufferOp(
                "normalize_cavity",
                reads=("source",),
                writes=("source", "edge_total"),
                inplace_ok=True,
            ),
            BufferOp(
                "apply_potential",
                reads=("source", "potentials", "edge_ids"),
                writes=("raw",),
            ),
            BufferOp(
                "normalize_messages",
                reads=("raw",),
                writes=("raw", "edge_total"),
                inplace_ok=True,
            ),
            BufferOp(
                "damp",
                reads=("raw", "messages", "edge_ids"),
                writes=("raw",),
                inplace_ok=True,
            ),
        ]
        scatter_ops = [
            BufferOp("log_messages_new", reads=("raw",), writes=("log_new",)),
            BufferOp(
                "log_delta",
                reads=("log_new", "log_messages", "edge_ids"),
                writes=("log_delta",),
            ),
            BufferOp(
                "scatter_accumulate",
                reads=("log_delta", "dst", "edge_ids", "log_msg_sum"),
                writes=("log_msg_sum",),
                inplace_ok=True,
            ),
            BufferOp("store_messages", reads=("raw", "edge_ids"),
                     writes=("messages",)),
            BufferOp("store_log_messages", reads=("log_new", "edge_ids"),
                     writes=("log_messages",)),
        ]
        combine_ops = [
            BufferOp(
                "gather_logits",
                reads=("log_priors", "log_msg_sum", "rows"),
                writes=("logits", "logits2"),
            ),
            BufferOp(
                "add_logits",
                reads=("logits", "logits2"),
                writes=("logits",),
                inplace_ok=True,
            ),
            BufferOp(
                "shift_rowmax",
                reads=("logits",),
                writes=("logits", "node_rowbuf"),
                inplace_ok=True,
            ),
            BufferOp(
                "exp_normalize",
                reads=("logits",),
                writes=("logits", "node_total"),
                inplace_ok=True,
            ),
        ]
        if self.paradigm == "node":
            ops = (
                BufferOp(
                    "compact_in_edges",
                    reads=("active", "dst"),
                    writes=("edge_ids",),
                ),
                *message_ops,
                *scatter_ops,
                BufferOp("select_rows", reads=("active",), writes=("rows",)),
                *combine_ops,
                # the old-belief snapshot reuses the dead msg-sum gather
                BufferOp(
                    "snapshot_beliefs",
                    reads=("beliefs", "rows"),
                    writes=("logits2",),
                ),
                BufferOp(
                    "restore_observed",
                    reads=("logits2", "free_mask", "rows"),
                    writes=("logits",),
                ),
                BufferOp(
                    "belief_delta",
                    reads=("logits", "logits2"),
                    writes=("logits2",),
                    inplace_ok=True,
                ),
                BufferOp("reduce_delta", reads=("logits2",), writes=("node_deltas",)),
                BufferOp(
                    "scatter_beliefs",
                    reads=("logits", "rows"),
                    writes=("beliefs",),
                ),
            )
            buffers.append(BufferSpec("rows", ("?",), "int64", "local"))
            buffers.append(BufferSpec("node_deltas", ("?",), "float32", "local"))
            program = KernelProgram(
                name="node_compacted_sweep",
                buffers=tuple(buffers),
                ops=ops,
                outputs=("beliefs", "messages", "log_messages", "log_msg_sum"),
                meta={"paradigm": "node", "chunks": 1},
            )
            return {"node": program}
        # edge paradigm, per chunk: the chunk's slice of the active order,
        # message + scatter, residuals through the dead back-gather
        # scratch, then the free-destination combine
        ops = (
            BufferOp("chunk_edges", reads=("active",), writes=("edge_ids",)),
            *message_ops,
            BufferOp(
                "edge_residuals",
                reads=("raw", "messages", "edge_ids"),
                writes=("back", "edge_deltas"),
            ),
            *scatter_ops,
            BufferOp(
                "chunk_dirty",
                reads=("dst", "edge_ids", "free_mask"),
                writes=("rows",),
            ),
            *combine_ops,
            BufferOp(
                "scatter_beliefs", reads=("logits", "rows"), writes=("beliefs",)
            ),
        )
        buffers.append(BufferSpec("edge_deltas", ("?",), "float32", "local"))
        buffers.append(BufferSpec("rows", ("?",), "int64", "local"))
        program = KernelProgram(
            name="edge_chunked_sweep",
            buffers=tuple(buffers),
            ops=ops,
            outputs=("beliefs", "messages", "log_messages", "log_msg_sum"),
            meta={"paradigm": "edge", "chunks": self._chunks},
        )
        return {"edge": program}

    # ------------------------------------------------------------------
    def verify_buffers(self, state: LoopyState) -> int:
        """Runtime IR check: live arrays vs the declared programs.

        Raises :class:`~repro.kernels.ir.KernelVerificationError` on any
        shape/dtype/alias mismatch; returns the number of buffers checked.
        """
        arrays = {
            "beliefs": state.beliefs,
            "messages": state.messages,
            "log_messages": state.log_messages,
            "log_msg_sum": state.log_msg_sum,
            "log_priors": state.log_priors,
            "potentials": state.potentials,
            "src": state.src,
            "dst": state.dst,
            "rev": state.rev,
            "free_mask": state.free_mask,
            "raw": self._raw,
            "log_new": self._log_new,
            "log_delta": self._log_delta,
            "logits": self._logits,
            "logits2": self._logits2,
            "source": self._source,
            "back": self._back,
            "edge_total": self._edge_total,
            "node_total": self._node_total,
            "node_rowbuf": self._node_rowbuf,
        }
        dims = {"n": state.n, "m": state.m, "b": state.b}
        for program in self.programs.values():
            problems = check_buffers(program, arrays, dims)
            if problems:
                raise KernelVerificationError(program.name, problems)
        return len(arrays)

    # ------------------------------------------------------------------
    @staticmethod
    def _is_full(active: np.ndarray, size: int) -> bool:
        """Whether ``active`` is ``arange(size)`` (the identity selection)."""
        return (
            size > 0
            and len(active) == size
            and bool(active[0] == 0)
            and bool(active[-1] == size - 1)
            and bool(np.all(np.diff(active) == 1))
        )

    def _in_edges(self, state: LoopyState, nodes: np.ndarray) -> np.ndarray:
        """The in-edges of ``nodes``, each destination's in ascending id."""
        if len(nodes) * _CSR_GATHER_RATIO < state.n:
            return state.gather_in_edges(nodes)[0]
        mask = np.zeros(state.n, dtype=bool)
        mask[nodes] = True
        return np.flatnonzero(mask[state.dst])

    # ------------------------------------------------------------------
    # The fused body.  ``edges`` is the edge selection — a slice for the
    # identity case, an index array otherwise — and ``k`` its length;
    # every scratch buffer is used through its first ``k`` rows.
    def _messages(
        self,
        state: LoopyState,
        edges: slice | np.ndarray,
        k: int,
        pairing: tuple,
        update_rule: str,
        semiring: str,
        damping: float,
    ) -> np.ndarray:
        """New (damped) messages of the selection, in ``self._raw[:k]`` —
        the fused equivalent of ``cavity_messages`` /
        ``propagate_messages`` plus the damping blend."""
        source = np.take(
            state.beliefs, state.src[edges], axis=0, out=self._source[:k]
        )
        total = self._edge_total[:k]
        if update_rule == "sum_product":
            all_paired, paired_idx, rev_ids = pairing
            if all_paired:
                back = np.take(state.messages, rev_ids, axis=0, out=self._back[:k])
                np.maximum(back, TINY, out=back)
                np.divide(source, back, out=source)
                _normalize_fast(source, total)
            elif len(paired_idx):
                back = np.maximum(state.messages[rev_ids], TINY)
                source[paired_idx] = source[paired_idx] / back
                _normalize_fast(source, total)
        elif update_rule != "broadcast":
            raise ValueError(f"unknown update_rule {update_rule!r}")
        raw = self._apply_potential(state, source, edges, k, semiring)
        _normalize_fast(raw, total)
        if damping > 0.0:
            raw *= 1.0 - damping
            raw += damping * _rows(state.messages, edges, self._back[:k])
        return raw

    def _apply_potential(
        self,
        state: LoopyState,
        source: np.ndarray,
        edges: slice | np.ndarray,
        k: int,
        semiring: str,
    ) -> np.ndarray:
        """``raw_e[c] = ⊕_b source_e[b] · J_e[b, c]`` over the selection."""
        out = self._raw[:k]
        if semiring == "sum":
            if state.shared_potential:
                np.matmul(source, state.potentials, out=out)
            else:
                np.einsum("eb,ebc->ec", source, state.potentials[edges], out=out)
            return out
        if semiring != "max":
            raise ValueError(f"unknown semiring {semiring!r}")
        for s in range(0, k, _MAX_STEP):
            e = min(s + _MAX_STEP, k)
            mats = (
                state.potentials
                if state.shared_potential
                else state.potentials[_sub(edges, s, e)]
            )
            out[s:e] = (source[s:e, :, None] * mats).max(axis=1)
        return out

    def _scatter_log_delta(
        self, state: LoopyState, edges: slice | np.ndarray, k: int, msgs: np.ndarray
    ) -> None:
        """The fused ``store_messages`` scatter: log, delta,
        per-destination accumulate, write-back."""
        new_logs = self._log_new[:k]
        np.log(np.maximum(msgs, TINY, out=new_logs), out=new_logs)
        log_delta = self._log_delta[:k]
        np.subtract(
            new_logs, _rows(state.log_messages, edges, log_delta), out=log_delta
        )
        dsts = state.dst[edges]
        for s in range(state.b):
            state.log_msg_sum[:, s] += np.bincount(
                dsts, weights=log_delta[:, s], minlength=state.n
            ).astype(_FLOAT)
        _put_rows(state.messages, edges, msgs)
        _put_rows(state.log_messages, edges, new_logs)

    def _combine(
        self, state: LoopyState, nodes: slice | np.ndarray, k: int
    ) -> np.ndarray:
        """New beliefs of ``nodes`` in ``self._logits[:k]`` — same op
        order as :meth:`LoopyState.combine_nodes`, so bitwise identical,
        with ``np.take`` gathers and column-loop reductions."""
        logits = self._logits[:k]
        if isinstance(nodes, slice):
            np.add(state.log_priors[nodes], state.log_msg_sum[nodes], out=logits)
        else:
            np.take(state.log_priors, nodes, axis=0, out=logits)
            logits += np.take(
                state.log_msg_sum, nodes, axis=0, out=self._logits2[:k]
            )
        logits -= _row_max(logits, out=self._node_rowbuf[:k])[:, None]
        np.exp(logits, out=logits)
        return _normalize_fast(logits, self._node_total[:k])

    # ------------------------------------------------------------------
    def node_sweep(self, state, active_nodes, *, update_rule="sum_product",
                   semiring="sum", damping=0.0):
        stats = SweepStats()
        k_nodes = len(active_nodes)
        if k_nodes == 0:
            return np.empty(0, dtype=np.float32), stats
        b = state.b
        if self._is_full(active_nodes, state.n):
            nodes, edges = slice(0, state.n), slice(0, state.m)
        else:
            nodes = active_nodes
            edges = self._in_edges(state, active_nodes)
        pairing = _pairing(state.rev[edges], self._all_paired)
        k = state.m if isinstance(edges, slice) else len(edges)

        if k:
            msgs = self._messages(
                state, edges, k, pairing, update_rule, semiring, damping
            )
            # the node paradigm discards per-edge deltas, so the fused
            # body skips them entirely (the interpreted path computes and
            # drops them — no state depends on the difference)
            self._scatter_log_delta(state, edges, k, msgs)

        new = self._combine(state, nodes, k_nodes)
        # the msg-sum gather is dead, so it holds the old-belief snapshot
        # and then the diff
        old = self._logits2[:k_nodes]
        if isinstance(nodes, slice):
            np.copyto(old, state.beliefs)
            observed = np.flatnonzero(~state.free_mask)
        else:
            np.take(state.beliefs, nodes, axis=0, out=old)
            observed = np.flatnonzero(~state.free_mask[nodes])
        if len(observed):
            new[observed] = old[observed]
        np.subtract(new, old, out=old)
        np.abs(old, out=old)
        deltas = _row_sum(old)
        _put_rows(state.beliefs, nodes, new)

        # accounting: identical to the interpreted kernel — the abstract
        # machine did the same math; only the dispatch fused
        stats.nodes_processed = k_nodes
        stats.edges_processed = k
        stats.flops = k * (2 * b * b + 2 * b) + k_nodes * (4 * b)
        stats.random_bytes = k * (2 * b * _FSIZE)
        stats.random_accesses = k * 2
        stats.sequential_bytes = k_nodes * (3 * b * _FSIZE) + k * (b * _FSIZE)
        stats.atomic_ops = 0
        stats.reduction_elems = k_nodes
        stats.kernel_launches = 1
        stats.fused_launches = 1
        return deltas, stats

    # ------------------------------------------------------------------
    def edge_sweep(self, state, active_edges, *, update_rule="sum_product",
                   semiring="sum", damping=0.0, chunks=8):
        stats = SweepStats()
        k_active = len(active_edges)
        if k_active == 0:
            return (
                np.empty(0, dtype=np.float32),
                np.empty(0, dtype=np.int64),
                stats,
            )
        n, b = state.n, state.b
        chunks = max(1, min(chunks, k_active))
        full = self._is_full(active_edges, state.m)
        bounds = np.linspace(0, k_active, chunks + 1, dtype=np.int64)
        edge_deltas = np.empty(k_active, dtype=np.float32)
        touched_mask = np.zeros(n, dtype=bool)

        for c in range(chunks):
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            if lo == hi:
                continue
            edges = slice(lo, hi) if full else active_edges[lo:hi]
            pairing = _pairing(state.rev[edges], self._all_paired)
            k = hi - lo
            msgs = self._messages(
                state, edges, k, pairing, update_rule, semiring, damping
            )
            # back-message scratch is dead once msgs exist; it holds the
            # old messages and then their diff
            back = self._back[:k]
            _row_abs_diff_sum(
                msgs, _rows(state.messages, edges, back), back, edge_deltas[lo:hi]
            )
            self._scatter_log_delta(state, edges, k, msgs)

            chunk_mask = np.zeros(n, dtype=bool)
            chunk_mask[state.dst[edges]] = True
            chunk_mask &= state.free_mask
            dirty = np.flatnonzero(chunk_mask)
            if len(dirty):
                _put_rows(state.beliefs, dirty, self._combine(state, dirty, len(dirty)))
                touched_mask[dirty] = True
            stats.kernel_launches += 2
            stats.fused_launches += 1

        touched_nodes = np.flatnonzero(touched_mask)
        n_touched = len(touched_nodes)
        stats.edges_processed = k_active
        stats.nodes_processed = n_touched
        stats.flops = k_active * (2 * b * b + 2 * b) + n_touched * (4 * b)
        stats.sequential_bytes = k_active * (2 * b * _FSIZE + 2 * _ISIZE)
        stats.random_bytes = k_active * (b * _FSIZE)
        stats.random_accesses = k_active
        stats.atomic_ops = k_active
        stats.reduction_elems = n_touched
        return edge_deltas, touched_nodes, stats
