"""The Egorov pair follows from the assembled quasi-linear system.

The certificate's conservation laws R_x + F1_y = 0 and R_y + F2_x = 0
(`conservation_flux_fields`) hold for every solution of A(U) U_x + B(U) U_y
= 0.  So at every state U the rows [grad R | grad F1] and [grad F2 | grad R]
lie in the row space of [A | B] (with t = y, the pair a_t = b_x, b_t = c_x
that characterizes Egorov systems: Pavlov & Tsarev, Funct. Anal. Appl. 37,
2003).  A mistake made alike in `assemble` and in an independent
transcription passes the transcription tests; it moves these rows off the
row space.  At N = 1, R and F1 vanish identically, so N starts at 2."""

from types import SimpleNamespace

import numpy as np
import pytest

import magtorus as mt
from magtorus.fields import Field, Jet
from helpers import recursive_point_jet

#: Relative distance from the row space: the worst over 50 states per N was
#: 4.3e-11 (finite-difference error), a mutated relation or flux sign reads
#: 2.5e-3 or more.
ROW_SPACE_TOL = 5e-9


class _Slot(Field):
    """One slot of a stack of states as a field leaf: the same values at
    every point, so the expression tree evaluates every state at once."""

    def __init__(self, values, geometry):
        self.values, self.geometry = values, geometry

    def _jet_at(self, x, y) -> Jet:
        return Jet(self.values, 0.0, 0.0)


def fluxes(states: np.ndarray) -> np.ndarray:
    """(R, F1, F2) of `conservation_flux_fields` at each row of the (M, 2N)
    states (Lambda, u_0..u_{N-1}, v_1..v_{N-1}), shape (3, M)."""
    n = states.shape[1] // 2
    geometry = mt.TorusGeometry()
    lam, *u = (_Slot(states[:, p], geometry) for p in range(n + 1))
    v = [_Slot(states[:, p], geometry) for p in range(n + 1, 2 * n)]
    zero = mt.zero_field(geometry)
    rescaled = mt.rescale(SimpleNamespace(n=n, lam=lam, u=(*u, lam ** (n / 2.0)),
                                          v=(zero, *v, zero)))
    r_field, flux1, flux2, _ = mt.conservation_flux_fields(rescaled)
    return np.array([np.broadcast_to(recursive_point_jet(f, 0.0, 0.0).v, len(states))
                     for f in (r_field, flux1, flux2)])


def flux_gradients(state: np.ndarray) -> np.ndarray:
    """d(R, F1, F2)/dU at `state` by 4th-order central differences with
    h = 1e-4 max(1, |U_p|), shape (3, 2N)."""
    dim = len(state)
    h = 1e-4 * np.maximum(1.0, np.abs(state))
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    shifted = np.repeat(state[None, :], 4 * dim, axis=0)
    shifted[np.arange(4 * dim), np.repeat(np.arange(dim), 4)] += np.outer(h, offsets).ravel()
    values = fluxes(shifted).reshape(3, dim, 4)
    return (values @ np.array([1.0, -8.0, 8.0, -1.0])) / (12.0 * h)


def row_space_distance(matrix: np.ndarray, row: np.ndarray) -> float:
    """|row - its projection onto the row space of matrix| / |row|."""
    coef = np.linalg.lstsq(matrix.T, row, rcond=None)[0]
    return float(np.linalg.norm(row - matrix.T @ coef) / np.linalg.norm(row))


def egorov_distances(n: int, states: int = 30, seed: int = 2003) -> np.ndarray:
    """The two rows' distances from the row space of [A | B] at seeded
    states drawn as the benchmark draws them, shape (states, 2)."""
    rng = np.random.default_rng(seed + n)
    draws = np.concatenate([rng.uniform(0.5, 3.0, (states, 1)),
                            rng.uniform(-1.0, 1.0, (states, 2 * n - 1))], axis=1)
    mats = mt.assemble(draws)
    out = []
    for state, a, b in zip(draws, mats.a, mats.b):
        grad_r, grad_f1, grad_f2 = flux_gradients(state)
        system = np.hstack([a, b])
        out.append([row_space_distance(system, np.concatenate([grad_r, grad_f1])),
                    row_space_distance(system, np.concatenate([grad_f2, grad_r]))])
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_conservation_pair_lies_in_the_row_space_of_the_system(n):
    distances = egorov_distances(n)
    assert distances.max() < ROW_SPACE_TOL, distances.max()
