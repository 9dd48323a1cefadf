"""repro.kernels — the compiled sweep-execution layer (DESIGN.md §13).

Historically every sweep dispatched through the per-sweep kernel
functions (:func:`repro.core.node_kernel.node_sweep`,
:func:`repro.core.edge_kernel.edge_sweep`), recomputing the gather
indices, reverse-edge masks and scratch arrays on every call.  This
package lowers a ``(graph, schedule, paradigm)`` triple **once** into a
small set of fused gather–scatter NumPy programs — message gather,
log-space product, normalize, residual — cached on the executor object
and reused across sweeps:

:mod:`repro.kernels.executor`
    The :class:`SweepExecutor` protocol, the ``EXECUTORS`` registry and
    the interpreted executor (the reference semantics parity is
    checked against).

:mod:`repro.kernels.compiled`
    The compiled executor: plan-time lowering, one fused body for every
    active set — partial sets gather-compacted into preallocated scratch
    buffers, full sweeps as the identity-index case.  Validated
    bit-exact against the interpreted executor (beliefs, messages and
    log-message sums ``array_equal``; see
    ``tests/test_kernels_executor.py``).

:mod:`repro.kernels.layout`
    Belief-store layout as a first-class measured choice — the
    ``LAYOUTS`` registry (``aos`` / ``soa`` / ``blocked``) and
    structure-sharing graph conversion.

:mod:`repro.kernels.autotune`
    The plan-time layout autotuner: deterministic probe-sweep costing
    under a fixed measurement seed, recorded on
    :class:`repro.credo.runner.ExecutionPlan`.

:mod:`repro.kernels.ir`
    The buffer-op IR the compiled lowering emits — per-op read/write/
    alias sets over named buffers — plus the plan-time verifier
    (:func:`~repro.kernels.ir.verify_program`) and the optional runtime
    cross-check (:func:`~repro.kernels.ir.check_buffers`).
"""

from repro.kernels.autotune import LayoutDecision, autotune_layout
from repro.kernels.executor import (
    EXECUTORS,
    InterpretedExecutor,
    SweepExecutor,
    make_executor,
    normalize_executor,
)
from repro.kernels.ir import (
    BufferOp,
    BufferSpec,
    KernelProgram,
    KernelVerificationError,
    check_buffers,
    verify_program,
)
from repro.kernels.layout import LAYOUTS, normalize_layout, with_layout

__all__ = [
    "BufferOp",
    "BufferSpec",
    "EXECUTORS",
    "KernelProgram",
    "KernelVerificationError",
    "LAYOUTS",
    "InterpretedExecutor",
    "LayoutDecision",
    "SweepExecutor",
    "autotune_layout",
    "check_buffers",
    "make_executor",
    "normalize_executor",
    "normalize_layout",
    "verify_program",
    "with_layout",
]
