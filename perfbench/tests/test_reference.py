"""The reference against brute-force enumeration on tiny trees, where
flooding BP is exact."""

import numpy as np
import pytest

from reference import brute_force_marginals, reference_batch, reference_beliefs


def random_tree(rng, n):
    """Node k > 0 hangs off a random earlier node."""
    return np.array([(int(rng.integers(k)), k) for k in range(1, n)], dtype=np.int64)


@pytest.mark.parametrize("n_states", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_exact_on_trees(n_states, seed):
    rng = np.random.default_rng(seed)
    n = 7
    priors = rng.dirichlet(np.ones(n_states), size=n)
    edges = random_tree(rng, n)
    # asymmetric per-edge matrices catch a transposed message direction
    potential = rng.uniform(0.1, 1.0, size=(len(edges), n_states, n_states))
    evidence = {int(rng.integers(n)): int(rng.integers(n_states))} if seed % 2 else {}
    ref = reference_beliefs(priors, edges, potential, evidence)
    exact = brute_force_marginals(priors, edges, potential, evidence)
    assert ref.converged
    np.testing.assert_allclose(ref.beliefs, exact, atol=1e-9)


def test_shared_matrix_matches_stack():
    rng = np.random.default_rng(11)
    priors = rng.dirichlet(np.ones(2), size=6)
    edges = random_tree(rng, 6)
    mat = np.array([[0.7, 0.2], [0.4, 0.9]])
    shared = reference_beliefs(priors, edges, mat).beliefs
    stacked = reference_beliefs(priors, edges, np.broadcast_to(mat, (5, 2, 2))).beliefs
    np.testing.assert_allclose(shared, stacked, atol=1e-12)
    np.testing.assert_allclose(shared, brute_force_marginals(priors, edges, mat), atol=1e-9)


def test_batch_equals_single_runs():
    rng = np.random.default_rng(3)
    priors = rng.dirichlet(np.ones(3), size=30)
    edges = np.array([(i, (i * 7 + 3) % 30) for i in range(30) if i != (i * 7 + 3) % 30])
    mat = np.full((3, 3), 0.3) + 0.2 * np.eye(3)
    evidences = [{}, {0: 2}, {4: 1, 9: 0}]
    batch = reference_batch(priors, edges, mat, evidences)
    for ev, got in zip(evidences, batch):
        single = reference_beliefs(priors, edges, mat, ev)
        np.testing.assert_allclose(got.beliefs, single.beliefs, atol=1e-12)
        for node, state in ev.items():
            assert got.beliefs[node, state] == pytest.approx(1.0)
