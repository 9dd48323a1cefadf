"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed and uses NumPy only: the
program receives nothing but the files and request sequences built
here, and the reference (:mod:`reference`) reads the same arrays, not
the program's parse of them.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Model",
    "attractive",
    "evidence_sets",
    "grid_model",
    "model_files",
    "random_model",
    "write_mtx",
]


@dataclass
class Model:
    """A pairwise MRF as the benchmark knows it, independent of ``repro``."""

    priors: np.ndarray  #: (n, b) float64, rounded as written to disk
    edges: np.ndarray  #: (E, 2) int64 undirected pairs, no loops, no duplicates
    potential: np.ndarray  #: (b, b) float64 shared, symmetric

    @property
    def n(self) -> int:
        return self.priors.shape[0]

    @property
    def b(self) -> int:
        return self.priors.shape[1]


def attractive(b: int, strength: float) -> np.ndarray:
    """``strength`` on the diagonal, the rest spread evenly."""
    mat = np.full((b, b), (1.0 - strength) / (b - 1))
    np.fill_diagonal(mat, strength)
    return mat


def _round8(values: np.ndarray) -> np.ndarray:
    """The values as they read back from the ``%.8g`` text written to disk."""
    return np.array([float(f"{v:.8g}") for v in values.reshape(-1)]).reshape(values.shape)


def _priors(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    return _round8(rng.dirichlet(np.ones(b), size=n))


def _unique_pairs(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Exactly ``m`` distinct undirected pairs without self loops."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < m:
        draw = rng.integers(0, n, size=(m - len(out) + 64, 2))
        for u, v in draw.tolist():
            key = (u, v) if u < v else (v, u)
            if u == v or key in seen:
                continue
            seen.add(key)
            out.append((u, v))
            if len(out) == m:
                break
    return np.array(out, dtype=np.int64)


def random_model(seed: int, n: int, m: int, b: int, strength: float) -> Model:
    """The paper-shape synthetic graph: ``n`` nodes, ``m`` uniform random
    undirected edges, Dirichlet(1) priors, one shared attractive matrix."""
    rng = np.random.default_rng(seed)
    edges = _unique_pairs(rng, n, m)
    return Model(_priors(rng, n, b), edges, attractive(b, strength))


def grid_model(seed: int, rows: int, cols: int, b: int, strength: float) -> Model:
    """A ``rows × cols`` 4-neighbour lattice, nodes numbered row-major."""
    rng = np.random.default_rng(seed)
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horizontal = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    vertical = np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    return Model(
        _priors(rng, rows * cols, b),
        np.vstack([horizontal, vertical]),
        attractive(b, strength),
    )


def write_mtx(model: Model, node_path: Path, edge_path: Path) -> int:
    """Write the paper's MTX dual-file format (§3.2), 1-based ids, with
    the shared matrix in the ``%credo shared-potential`` directive.
    Returns the bytes written."""
    n, b = model.priors.shape
    node_lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"%credo beliefs: {b}",
        f"{n} {n} {n}",
    ]
    node_lines += [
        f"{i + 1} {i + 1} " + " ".join(f"{p:.8g}" for p in row)
        for i, row in enumerate(model.priors)
    ]
    flat = " ".join(f"{v:.8g}" for v in model.potential.reshape(-1))
    edge_lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"%credo shared-potential: {flat}",
        f"{n} {n} {len(model.edges)}",
    ]
    edge_lines += [f"{u + 1} {v + 1}" for u, v in model.edges.tolist()]
    node_text = "\n".join(node_lines) + "\n"
    edge_text = "\n".join(edge_lines) + "\n"
    node_path.write_text(node_text, encoding="utf-8")
    edge_path.write_text(edge_text, encoding="utf-8")
    return len(node_text) + len(edge_text)


MODELS = {"random": random_model, "grid": grid_model}


def model_files(stem: Path, kind: str, *args) -> tuple[Model, int, float]:
    """Build ``MODELS[kind](*args)`` and write it as ``stem.nodes`` and
    ``stem.edges`` in a child process, so that generation's transient
    memory (edge sets, the MTX text) stays out of the caller's peak RSS.

    Returns the model, read back from ``stem.npz``, the MTX bytes written
    and the child's peak RSS in MB.
    """
    spec = json.dumps({"stem": str(stem), "kind": kind, "args": list(args)})
    out = subprocess.run([sys.executable, __file__, spec], capture_output=True,
                         text=True, timeout=120, check=True)
    written = json.loads(out.stdout)
    with np.load(f"{stem}.npz") as arrays:
        model = Model(arrays["priors"], arrays["edges"], arrays["potential"])
    return model, written["bytes"], written["peak_mb"]


def _write_model(spec: dict) -> None:
    stem = Path(spec["stem"])
    model = MODELS[spec["kind"]](*spec["args"])
    written = write_mtx(model, stem.with_suffix(".nodes"), stem.with_suffix(".edges"))
    np.savez(stem.with_suffix(".npz"), priors=model.priors, edges=model.edges,
             potential=model.potential)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"bytes": written, "peak_mb": peak_mb}))


def evidence_sets(
    rng: np.random.Generator, n: int, b: int, count: int, lo: int = 1, hi: int = 3
) -> list[dict[int, int]]:
    """``count`` distinct evidence sets, each observing ``lo..hi`` nodes."""
    out: list[dict[int, int]] = []
    seen: set[tuple] = set()
    while len(out) < count:
        k = int(rng.integers(lo, hi + 1))
        nodes = rng.choice(n, size=k, replace=False)
        ev = {int(v): int(rng.integers(b)) for v in nodes}
        key = tuple(sorted(ev.items()))
        if key not in seen:
            seen.add(key)
            out.append(ev)
    return out


if __name__ == "__main__":
    _write_model(json.loads(sys.argv[1]))
