"""Riemann invariants exist for the assembled quasi-linear system.

The system A(U) U_x + B(U) U_y = 0 is semi-hamiltonian, so at a strictly
hyperbolic state the Haantjes torsion of V = A^-1 B vanishes (Haantjes,
Indag. Math. 17, 1955; Tsarev, Math. USSR Izv. 37, 1991).  In V's
eigenbasis, with right eigenvectors xi_a and left eigenvectors l^c, that is
l^c . N_V(xi_a, xi_b) = 0 for every c not in {a, b}, where N_V is the
Nijenhuis torsion.  On constant vector fields X, Y it reads

    N_V(X, Y) = (d_{VX} V) Y - (d_{VY} V) X + V (d_Y V) X - V (d_X V) Y,

with d_Z V = sum_p Z_p dV/dU_p.  A mistake made alike in `assemble` and in
an independent transcription passes the transcription tests; it leaves the
torsion nonzero or the system without a hyperbolic state."""

import itertools

import numpy as np
import pytest

import magtorus as mt

#: Normalized torsion: the worst over 20 hyperbolic states per N was 6.6e-13,
#: 2.1e-12, 5.2e-12, 4.4e-13, 1.3e-12 and 2.4e-13 at N = 2, 3, 4, 5, 6, 8
#: (finite-difference error); t1 of `harmonic_relation` scaled by 1.01
#: reads a median of 1.7e-4 at N = 2.
TORSION_TOL = 1e-7

STATES, DRAWS = 20, 200


def velocity_matrices(states: np.ndarray) -> np.ndarray:
    """V = A^-1 B at each row of the (M, 2N) states, shape (M, 2N, 2N)."""
    mats = mt.assemble(states)
    return np.linalg.solve(mats.a, mats.b)


def velocity_derivatives(state: np.ndarray) -> np.ndarray:
    """dV/dU_p at `state` by 4th-order central differences with
    h = 1e-4 max(1, |U_p|), shape (2N, 2N, 2N), p first."""
    dim = len(state)
    h = 1e-4 * np.maximum(1.0, np.abs(state))
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    shifted = np.repeat(state[None, :], 4 * dim, axis=0)
    shifted[np.arange(4 * dim), np.repeat(np.arange(dim), 4)] += np.outer(h, offsets).ravel()
    values = velocity_matrices(shifted).reshape(dim, 4, dim, dim)
    return np.einsum("pkij,k->pij", values, [1.0, -8.0, 8.0, -1.0]) / (12.0 * h[:, None, None])


def hyperbolic_states(n: int, seed: int = 7):
    """The first STATES of DRAWS seeded states, drawn as the benchmark draws
    them, with cond(A) <= 1e6 and real eigenvalues of V at least 1e-2
    apart; each with V's eigenvalues and right eigenvectors."""
    rng = np.random.default_rng(seed)
    draws = np.concatenate([rng.uniform(0.5, 3.0, (DRAWS, 1)),
                            rng.uniform(-1.0, 1.0, (DRAWS, 2 * n - 1))], axis=1)
    mats = mt.assemble(draws)
    kept = []
    for state, a, b in zip(draws, mats.a, mats.b):
        if np.linalg.cond(a) > 1e6:
            continue
        eigenvalues, vectors = np.linalg.eig(np.linalg.solve(a, b))
        if not np.isrealobj(eigenvalues):
            continue
        gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
        if gaps[~np.eye(2 * n, dtype=bool)].min() < 1e-2:
            continue
        kept.append((state, vectors))
        if len(kept) == STATES:
            break
    return kept


def worst_torsion(state: np.ndarray, xi: np.ndarray) -> float:
    """Largest |l^c . N_V(xi_a, xi_b)| / (|l^c| |xi_a| |xi_b| max|V| max|dV|)
    over a < b and c not in {a, b}."""
    v = velocity_matrices(state[None, :])[0]
    dv = velocity_derivatives(state)
    left = np.linalg.inv(xi)   # rows l^c, with l^c . xi_a = delta
    d = lambda z: np.einsum("p,pij->ij", z, dv)
    scale = np.abs(v).max() * np.abs(dv).max()
    worst = 0.0
    for a, b in itertools.combinations(range(len(state)), 2):
        x, y = xi[:, a], xi[:, b]
        torsion = d(v @ x) @ y - d(v @ y) @ x + v @ (d(y) @ x) - v @ (d(x) @ y)
        for c in set(range(len(state))) - {a, b}:
            worst = max(worst, abs(left[c] @ torsion) / (
                np.linalg.norm(left[c]) * np.linalg.norm(x) * np.linalg.norm(y) * scale))
    return worst


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_haantjes_torsion_vanishes_at_hyperbolic_states(n):
    states = hyperbolic_states(n)
    # An empty hyperbolic region fails here instead of passing vacuously.
    assert len(states) == STATES, f"{len(states)} hyperbolic states in {DRAWS} draws"
    worst = max(worst_torsion(state, xi) for state, xi in states)
    assert worst < TORSION_TOL, worst
