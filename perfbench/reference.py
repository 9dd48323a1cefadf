"""Independent float64 sum-product reference (flooding schedule).

This module is the benchmark's oracle.  Its math uses NumPy only and
imports nothing from ``repro``, so a fault in the program cannot hide in
the check.  Semantics are textbook pairwise-MRF loopy BP:

* node potential ``phi_v`` is the prior, or a one-hot vector on the
  observed state for an observed (clamped) node;
* an undirected edge ``(u, v)`` with matrix ``J`` sends
  ``m_{u->v}(x_v) ∝ Σ_{x_u} phi_u(x_u) Π_{w≠v} m_{w->u}(x_u) J[x_u, x_v]``
  and ``m_{v->u}(x_u) ∝ Σ_{x_v} phi_v(x_v) Π_{w≠u} m_{w->v}(x_v) J[x_u, x_v]``;
* beliefs are ``phi_v Π_w m_{w->v}`` normalized.

Every message is recomputed from the previous sweep's messages
(flooding / Jacobi order) until the largest message change falls below
``tol``.  On trees this is exact after ``diameter`` sweeps; on the
sub-critical and strongly-fielded loopy graphs the benchmark generates
it converges to the unique fixed point the program's schedules also
reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReferenceResult",
    "brute_force_marginals",
    "reference_batch",
    "reference_beliefs",
]


@dataclass
class ReferenceResult:
    beliefs: np.ndarray  #: (n, b) float64 posteriors
    sweeps: int
    converged: bool


def _node_potentials(priors: np.ndarray, evidence: dict[int, int]) -> np.ndarray:
    phi = np.array(priors, dtype=np.float64, copy=True)
    for node, state in evidence.items():
        phi[node] = 0.0
        phi[node, state] = 1.0
    return phi


def reference_beliefs(
    priors: np.ndarray,
    edges: np.ndarray,
    potential: np.ndarray,
    evidence: dict[int, int] | None = None,
    *,
    tol: float = 1e-9,
    max_sweeps: int = 2000,
) -> ReferenceResult:
    """Posteriors of the pairwise MRF ``(priors, edges, potential)``.

    ``edges`` is an ``(E, 2)`` array of undirected pairs; ``potential`` is
    one shared ``(b, b)`` matrix or an ``(E, b, b)`` stack, indexed
    ``J[x_u, x_v]`` for the pair ``(u, v)``.  ``evidence`` maps node ids to
    observed states.
    """
    return reference_batch(
        priors, edges, potential, [evidence or {}], tol=tol, max_sweeps=max_sweeps
    )[0]


def reference_batch(
    priors: np.ndarray,
    edges: np.ndarray,
    potential: np.ndarray,
    evidences: list[dict[int, int]],
    *,
    tol: float = 1e-9,
    max_sweeps: int = 2000,
) -> list[ReferenceResult]:
    """:func:`reference_beliefs` for several evidence sets on one graph,
    swept side by side (each set converges and stops on its own)."""
    phi = np.stack([_node_potentials(priors, ev) for ev in evidences])
    q, n, b = phi.shape
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n_und = len(edges)
    # directed edge k < E is u->v of pair k, k >= E is v->u of pair k - E
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    rev = np.concatenate([np.arange(n_und, 2 * n_und), np.arange(n_und)])
    pot = np.asarray(potential, dtype=np.float64)
    # flat (query, node) ids for the per-node log-message sums
    flat_dst = (np.arange(q)[:, None] * n + dst[None, :]).ravel()

    def log_incoming(log_msgs: np.ndarray) -> np.ndarray:
        out = np.empty((q, n, b))
        for s in range(b):
            out[:, :, s] = np.bincount(
                flat_dst, weights=log_msgs[:, :, s].ravel(), minlength=q * n
            ).reshape(q, n)
        return out

    def send(cav: np.ndarray) -> np.ndarray:
        # the matrix maps the sender's state (rows) to the receiver's
        fwd, bwd = cav[:, :n_und], cav[:, n_und:]
        if pot.ndim == 2:
            return np.concatenate([fwd @ pot, bwd @ pot.T], axis=1)
        return np.concatenate(
            [np.einsum("qea,eab->qeb", fwd, pot), np.einsum("qeb,eab->qea", bwd, pot)],
            axis=1,
        )

    messages = np.full((q, 2 * n_und, b), 1.0 / b)
    live = np.ones(q, dtype=bool)
    sweeps = np.zeros(q, dtype=np.int64)
    for _ in range(max_sweeps):
        if not live.any() or not n_und:
            break
        log_msgs = np.log(messages)
        log_in = log_incoming(log_msgs)
        # cavity of the sender: everything it holds except the message it
        # received back along the same pair
        cav_log = log_in[:, src] - log_msgs[:, rev]
        cav = phi[:, src] * np.exp(cav_log - cav_log.max(axis=2, keepdims=True))
        cav /= cav.sum(axis=2, keepdims=True)
        new = send(cav)
        new /= new.sum(axis=2, keepdims=True)
        change = np.abs(new - messages).max(axis=(1, 2))
        # converged sets keep their messages; the others take the sweep
        messages[live] = new[live]
        sweeps[live] += 1
        live &= change >= tol

    log_in = log_incoming(np.log(messages)) if n_und else np.zeros((q, n, b))
    beliefs = phi * np.exp(log_in - log_in.max(axis=2, keepdims=True))
    beliefs /= beliefs.sum(axis=2, keepdims=True)
    return [
        ReferenceResult(beliefs=beliefs[i], sweeps=int(sweeps[i]), converged=not live[i])
        for i in range(q)
    ]


def brute_force_marginals(
    priors: np.ndarray,
    edges: np.ndarray,
    potential: np.ndarray,
    evidence: dict[int, int] | None = None,
) -> np.ndarray:
    """Exact marginals by enumerating every joint state (tiny graphs only)."""
    phi = _node_potentials(priors, evidence or {})
    n, b = phi.shape
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pot = np.asarray(potential, dtype=np.float64)
    states = np.indices((b,) * n).reshape(n, -1).T  # (b**n, n)
    weight = np.prod(phi[np.arange(n), states], axis=1)
    for k, (u, v) in enumerate(edges):
        mat = pot if pot.ndim == 2 else pot[k]
        weight = weight * mat[states[:, u], states[:, v]]
    marg = np.zeros((n, b))
    for v in range(n):
        for s in range(b):
            marg[v, s] = weight[states[:, v] == s].sum()
    return marg / marg.sum(axis=1, keepdims=True)
