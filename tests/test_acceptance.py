"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest -s` to see them inline)."""

import math
import time

import numpy as np
import pytest

import magtorus as mt
from helpers import (circular_closed_form, exact_family, stream_pair,
                     top_harmonic_displays, transcription_n1, transcription_n2)


def _report(n, elapsed, limit, detail):
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s < {limit:.0f}s) {detail}")


def test_criterion_1_exact_family_residuals():
    t0 = time.perf_counter()
    ansatz, system = exact_family()
    grid = mt.SamplingGrid(64, 64)
    sups = {}
    sups["stationarity"] = mt.residual_stationarity(ansatz, system.omega, grid).max_sup
    for k in range(0, ansatz.n + 2):
        sups[f"harmonic_{k}"] = mt.residual_harmonic(ansatz, system.omega, k, grid).max_sup
    constraint = mt.constraint_residual(ansatz, grid)
    sups["divergence_unscaled"] = constraint.entry("divergence_unscaled").sup
    sups["divergence_rescaled"] = constraint.entry("divergence_rescaled").sup
    conservation = mt.conservation_residuals(mt.rescale(ansatz), grid)
    sups["conservation_1"] = conservation.entry("conservation_1").sup
    sups["conservation_2"] = conservation.entry("conservation_2").sup
    elapsed = time.perf_counter() - t0
    worst = max(sups.values())
    assert worst < 1e-10, sups
    assert elapsed < 5.0
    _report(1, elapsed, 5, f"exact-family residual sup {worst:.2e} < 1e-10")


def test_criterion_2_omega_formula_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = mt.SamplingGrid(48, 48)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 5))
        lam = mt.random_trig_field(rng, n_modes=5, max_mode=2,
                                   amplitude=0.15, offset=2.0)
        u = [mt.random_trig_field(rng, n_modes=5, max_mode=2, amplitude=0.4)
             for _ in range(n)]
        v = [mt.random_trig_field(rng, n_modes=5, max_mode=2, amplitude=0.4)
             for _ in range(n - 1)]
        anz = mt.Ansatz(n, lam, u, v, check_grid=grid)
        raw = mt.omega_raw(anz).on_grid(grid)
        res = mt.omega_rescaled(mt.rescale(anz)).on_grid(grid)
        worst = max(worst, float(np.max(np.abs(raw - res))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 10.0
    _report(2, elapsed, 10, f"100 draws, max pointwise gap {worst:.2e} < 1e-12")


def test_criterion_3_conservation_law_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(333)
    grid = mt.SamplingGrid(32, 32)
    X, Y = grid.mesh_x, grid.mesh_y
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(3):
            psi = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
            lam = mt.random_trig_field(rng, n_modes=3, max_mode=2,
                                       amplitude=0.15, offset=2.0)
            fm2 = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
            gm2 = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
            f, g = stream_pair(psi)
            zero = mt.zero_field()
            resc = mt.RescaledAnsatz(n, tuple([zero] * (n - 2) + [fm2, f]),
                                     tuple([zero] * (n - 2) + [gm2, g]),
                                     lam, lam.geometry)
            r_field, flux1, flux2, _ = mt.conservation_flux_fields(resc)
            res1 = r_field.d_dx(X, Y) + flux1.d_dy(X, Y)
            res2 = r_field.d_dy(X, Y) + flux2.d_dx(X, Y)
            disp1, disp2 = top_harmonic_displays(n, f, g, fm2, gm2, lam, X, Y)
            # pinned sign pair (+1, -1), fixed by the symbolic oracle
            worst = max(worst, float(np.max(np.abs(res1 - disp1))))
            worst = max(worst, float(np.max(np.abs(res2 + disp2))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 10.0
    _report(3, elapsed, 10, f"N=2,3,4 identity gap {worst:.2e} < 1e-12")


def test_criterion_4_dynamical_conservation():
    t0 = time.perf_counter()
    ansatz, system = exact_family()
    f_obs = mt.first_integral_observable(ansatz)
    traj = mt.integrate(system, mt.PhaseState(0.5, 0.3, 0.7), 100.0,
                        observables={"F": f_obs})
    family_drift = mt.monitor(traj)["F"].relative_drift

    flat = mt.MagneticSystem(mt.constant_field(1.0), mt.constant_field(1.0))
    flat_f = lambda x, y, phi: 2.0 * np.cos(phi) - 2.0 * y
    control = lambda x, y, phi: y + np.cos(phi)
    traj2 = mt.integrate(flat, mt.PhaseState(0.0, 0.0, 0.0), 100.0,
                         observables={"F": flat_f, "control": control})
    stats2 = mt.monitor(traj2)
    flat_drift = stats2["F"].relative_drift
    control_drift = min(stats2["control"].max_abs_drift,
                        stats2["control"].relative_drift)
    elapsed = time.perf_counter() - t0
    assert family_drift < 1e-8
    assert flat_drift < 1e-8
    assert control_drift > 1e-2
    assert elapsed < 20.0
    _report(4, elapsed, 20,
            f"F drift {max(family_drift, flat_drift):.2e} < 1e-8, "
            f"control {control_drift:.2e} > 1e-2")


def test_criterion_5_formulation_crosscheck():
    t0 = time.perf_counter()
    ansatz, family = exact_family()
    cases = [
        ("flat/zero", mt.MagneticSystem(mt.constant_field(1.0), mt.constant_field(0.0)),
         mt.PhaseState(0.1, 0.2, 0.3)),
        ("flat/constant", mt.MagneticSystem(mt.constant_field(1.0), mt.constant_field(1.0)),
         mt.PhaseState(0.0, 0.0, 0.0)),
        ("exact-family", family, mt.PhaseState(0.5, 0.3, 0.7)),
    ]
    worst = 0.0
    for _, system, start in cases:
        rep = mt.crosscheck_formulations(system, start, 10.0)
        worst = max(worst, rep.max_discrepancy)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-7
    assert elapsed < 10.0
    _report(5, elapsed, 10, f"max formulation discrepancy {worst:.2e} < 1e-7")


def test_criterion_6_assembly_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(666)
    worst_consistency = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(20):
            state = mt.StateVector(np.concatenate(
                [[rng.uniform(0.5, 3.0)], rng.uniform(-0.8, 0.8, 2 * n - 1)]))
            mats = mt.assemble(state)
            p = rng.uniform(-1, 1, 2 * n)
            q = rng.uniform(-1, 1, 2 * n)
            gap = np.max(np.abs(mats.apply(p, q) - mt.stacked_residual(state, p, q)))
            worst_consistency = max(worst_consistency, float(gap))
    assert worst_consistency < 1e-13

    worst_transcription = 0.0
    for transcription, n in ((transcription_n1, 1), (transcription_n2, 2)):
        for _ in range(10):
            state = mt.StateVector(np.concatenate(
                [[rng.uniform(0.5, 3.0)], rng.uniform(-0.8, 0.8, 2 * n - 1)]))
            mats = mt.assemble(state)
            dim = 2 * n
            a_ref = np.empty((dim, dim))
            b_ref = np.empty((dim, dim))
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = 1.0
                a_ref[:, j] = transcription(state.values, e, np.zeros(dim))
                b_ref[:, j] = transcription(state.values, np.zeros(dim), e)
            gap = max(np.max(np.abs(mats.a - a_ref)), np.max(np.abs(mats.b - b_ref)))
            worst_transcription = max(worst_transcription, float(gap))
    elapsed = time.perf_counter() - t0
    assert worst_transcription < 1e-12
    assert elapsed < 5.0
    _report(6, elapsed, 5,
            f"A P + B Q gap {worst_consistency:.2e} < 1e-13; "
            f"transcription gap {worst_transcription:.2e} < 1e-12")


def test_criterion_7_geodesic_matrix_and_spectra():
    t0 = time.perf_counter()
    mat = mt.geodesic_matrix(2, [0.0, 1.0, 1.0])
    assert np.array_equal(mat, [[0.0, 1.0], [1.0, 2.0]])
    rep = mt.spectrum(mat)
    eigs = np.sort(rep.eigenvalues.real)
    assert abs(eigs[0] - (1.0 - math.sqrt(2.0))) < 1e-12
    assert abs(eigs[1] - (1.0 + math.sqrt(2.0))) < 1e-12
    assert rep.classification == "hyperbolic"
    rotation = mt.spectrum((np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])))
    assert rotation.classification == "elliptic/mixed"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, elapsed, 1, "eigenvalues 1 +/- sqrt(2) to 1e-12; rotation elliptic/mixed")


def test_criterion_8_integrator_order():
    t0 = time.perf_counter()
    system = mt.MagneticSystem(mt.constant_field(1.0), mt.constant_field(1.0))
    t_end = 3.2
    cx, cy, cphi = circular_closed_form(t_end)
    errors = []
    for dt in (0.05, 0.025, 0.0125, 0.00625):
        traj = mt.integrate(system, mt.PhaseState(0.0, 0.0, 0.0), t_end,
                            mt.StepControl.fixed(dt, sample_dt=None))
        errors.append(max(abs(traj.x[-1] - cx), abs(traj.y[-1] - cy),
                          abs(traj.phi_unwrapped[-1] - cphi)))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    elapsed = time.perf_counter() - t0
    for ratio in ratios:
        assert 12.0 < ratio < 20.0
    assert elapsed < 5.0
    _report(8, elapsed, 5,
            "halving ratios " + ", ".join(f"{r:.1f}" for r in ratios) + " in [12, 20]")
