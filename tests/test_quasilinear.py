"""Stacked quasi-linear equations, matrix assembly, geodesic matrix, spectra,
and the Egorov certificate."""

import math

import numpy as np
import pytest

import magtorus as mt
from magtorus import quasilinear
from magtorus.ansatz import (coefficient_jet, constraint_sides, harmonic_relation,
                             harmonic_residual_values, omega_closed_form)
from magtorus.fields import Jet
from helpers import (exact_family, manufactured_rescaled,
                     transcription_n1, transcription_n2)


def random_state(rng, n):
    vals = np.concatenate([[rng.uniform(0.5, 3.0)],
                           rng.uniform(-0.8, 0.8, 2 * n - 1)])
    return mt.StateVector(vals)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        mt.StateVector(np.array([1.0, 2.0, 3.0]))  # odd length
    with pytest.raises(mt.DomainError):
        mt.StateVector(np.array([-1.0, 0.0]))
    sv = mt.StateVector.coerce([2.0, 0.1, 0.2, 0.3])
    assert sv.n == 2 and sv.lam == 2.0


def test_homogeneity_in_derivatives():
    rng = np.random.default_rng(73)
    for n in (1, 2, 3, 4):
        state = random_state(rng, n)
        zero = np.zeros(2 * n)
        assert np.all(mt.stacked_residual(state, zero, zero) == 0.0)


def test_linearity_in_derivative_slots():
    rng = np.random.default_rng(79)
    for n in (1, 2, 3):
        state = random_state(rng, n)
        p1 = rng.uniform(-1, 1, 2 * n)
        p2 = rng.uniform(-1, 1, 2 * n)
        q = rng.uniform(-1, 1, 2 * n)
        a, b = 0.7, -1.3
        zero = np.zeros(2 * n)
        lhs = mt.stacked_residual(state, a * p1 + b * p2, q)
        rhs = (a * mt.stacked_residual(state, p1, zero)
               + b * mt.stacked_residual(state, p2, zero)
               + mt.stacked_residual(state, zero, q))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_assemble_reproduces_residual():
    rng = np.random.default_rng(83)
    for n in (1, 2, 3, 4):
        state = random_state(rng, n)
        mats = mt.assemble(state)
        for _ in range(20):
            p = rng.uniform(-1, 1, 2 * n)
            q = rng.uniform(-1, 1, 2 * n)
            direct = mt.stacked_residual(state, p, q)
            assert np.max(np.abs(mats.apply(p, q) - direct)) < 1e-13


def test_n1_matrices_match_hand_derivation():
    # At U = (1, 0.3): the harmonic-0 row is Lambda_x / sqrt(Lambda) and the
    # constraint row is 2 Lambda (u_0)_x (the Lambda_x coefficient vanishes
    # because N - 1 = 0).
    mats = mt.assemble([1.0, 0.3])
    assert np.allclose(mats.a, [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)
    assert np.allclose(mats.b, [[0.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_matches_independent_transcriptions():
    rng = np.random.default_rng(89)
    for _ in range(5):
        s1 = random_state(rng, 1)
        p, q = rng.uniform(-1, 1, (2, 2))
        expect = transcription_n1(s1.values, p, q)
        assert np.max(np.abs(mt.stacked_residual(s1, p, q) - expect)) < 1e-12

        s2 = random_state(rng, 2)
        p, q = rng.uniform(-1, 1, (2, 4))
        expect = transcription_n2(s2.values, p, q)
        assert np.max(np.abs(mt.stacked_residual(s2, p, q) - expect)) < 1e-12


def test_constraint_row_depends_only_on_top_pair():
    # Feeding derivative slots consistent with the rescaled variables, the
    # last row reduces to 2 Lambda^((N+1)/2) (f_x + g_y): the Lambda slots
    # are absorbed exactly.
    rng = np.random.default_rng(97)
    for n in (2, 3):
        state = random_state(rng, n)
        lam = state.lam
        u_top = state.values[n]          # u_{N-1}
        v_top = state.values[2 * n - 1]  # v_{N-1}
        f_val = u_top * lam ** (-(n - 1) / 2.0)
        g_val = v_top * lam ** (-(n - 1) / 2.0)
        fx, gy = rng.uniform(-1, 1, 2)
        for lam_x, lam_y in rng.uniform(-1, 1, (3, 2)):
            ux = np.zeros(2 * n)
            uy = np.zeros(2 * n)
            ux[0], uy[0] = lam_x, lam_y
            # chain rule: u_{N-1} = f Lambda^((N-1)/2)
            scale = lam ** ((n - 1) / 2.0)
            dscale_x = (n - 1) / 2.0 * lam ** ((n - 3) / 2.0) * lam_x
            dscale_y = (n - 1) / 2.0 * lam ** ((n - 3) / 2.0) * lam_y
            ux[n] = fx * scale + f_val * dscale_x
            uy[n] = 0.0 * scale + f_val * dscale_y          # f_y slot = 0
            ux[2 * n - 1] = 0.0 * scale + g_val * dscale_x  # g_x slot = 0
            uy[2 * n - 1] = gy * scale + g_val * dscale_y
            row = mt.stacked_residual(state, ux, uy)[2 * n - 1]
            expect = 2.0 * lam ** ((n + 1) / 2.0) * (fx + gy)
            assert row == pytest.approx(expect, abs=1e-12)


def test_stacked_residual_domain_error():
    with pytest.raises(mt.DomainError):
        mt.stacked_residual([0.0, 1.0], np.zeros(2), np.zeros(2))


def test_state_vector_refuses_non_finite_entries():
    for bad in ([1.0, math.nan], [math.inf, 0.0], [2.0, 0.1, -math.inf, 0.3]):
        with pytest.raises(ValueError, match="state vector"):
            mt.StateVector(np.array(bad))


def test_point_path_matches_grid_path():
    # At grid nodes, the stacked harmonic rows built from the state and the
    # field derivatives equal Re/Im of the grid kernel's harmonic residuals.
    rng = np.random.default_rng(107)
    n = 3
    lam = mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=0.15, offset=2.0)
    u = [mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=0.3) for _ in range(n)]
    v = [mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=0.3)
         for _ in range(n - 1)]
    anz = mt.Ansatz(n, lam, u, v)
    grid = mt.SamplingGrid(12, 12)
    omega = mt.omega_raw(anz)
    harm = [harmonic_residual_values(anz, omega, k, grid)[0] for k in range(n)]
    free = (anz.lam,) + anz.u[:n] + anz.v[1:n]
    for i, j in rng.integers(0, 12, (6, 2)):
        x, y = grid.xs[i], grid.ys[j]
        jets = [f.jet(x, y) for f in free]
        rows = mt.stacked_residual(mt.state_from_ansatz(anz, x, y),
                                   [jet.x for jet in jets], [jet.y for jet in jets])
        expect = [harm[0][i, j].real]
        for k in range(1, n):
            expect += [harm[k][i, j].real, harm[k][i, j].imag]
        assert np.max(np.abs(rows[:2 * n - 1] - expect)) < 1e-12
        assert np.max(np.abs(expect)) > 1e-3   # a non-solution: rows are not all zero


def test_manufactured_state_annihilates_top_rows():
    # State and true derivative slots from a manufactured N=3 configuration
    # (leading-harmonic block exact): the k = N-1 rows and the constraint row
    # must vanish; the lower harmonics are unconstrained.
    rng = np.random.default_rng(101)
    psi = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.25)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.15, offset=2.0)
    resc = manufactured_rescaled(3, psi, lam)
    u_fields, v_fields = mt.unrescale(resc)

    def slot(fn, x, y):
        return np.array([fn(lam, x, y)] + [fn(u, x, y) for u in u_fields]
                        + [fn(v, x, y) for v in v_fields[1:]])

    for _ in range(5):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        state = slot(lambda h, a, b: h.eval(a, b), x, y)
        ux = slot(lambda h, a, b: h.d_dx(a, b), x, y)
        uy = slot(lambda h, a, b: h.d_dy(a, b), x, y)
        rows = mt.stacked_residual(state, ux, uy)
        assert np.max(np.abs(rows[3:])) < 1e-10


# ---------------------------------------------------------------------------
# geodesic matrix
# ---------------------------------------------------------------------------


def test_geodesic_matrix_n2():
    mat = mt.geodesic_matrix(2, [0.0, 1.0, 1.0])
    assert np.array_equal(mat, [[0.0, 1.0], [1.0, 2.0]])
    eigs = np.sort(np.linalg.eigvals(mat).real)
    assert eigs[0] == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    assert eigs[1] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)


def test_geodesic_matrix_n3_cells():
    a = [0.1, 0.2, 0.3, 1.0]
    mat = mt.geodesic_matrix(3, a)
    # subdiagonal carries a_{n-1}
    assert mat[1, 0] == a[2] and mat[2, 1] == a[2]
    # last column: a_1, 2 a_2 - n a_0, n a_n - 2 a_{n-2}
    assert mat[0, 2] == pytest.approx(0.2)
    assert mat[1, 2] == pytest.approx(2 * 0.3 - 3 * 0.1)
    assert mat[2, 2] == pytest.approx(3 * 1.0 - 2 * 0.2)
    # all remaining entries vanish
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 0] = mask[2, 1] = False
    mask[:, 2] = False
    assert np.all(mat[mask] == 0.0)


def test_geodesic_matrix_validation():
    with pytest.raises(ValueError):
        mt.geodesic_matrix(1, [0.0, 1.0])
    with pytest.raises(ValueError):
        mt.geodesic_matrix(2, [0.0, 1.0])


def test_geodesic_matrix_entries_affine_in_coefficients():
    # second differences with respect to every a_k vanish
    rng = np.random.default_rng(103)
    n = 4
    base = rng.uniform(-1, 1, n + 1)
    for k in range(n + 1):
        step = np.zeros(n + 1)
        step[k] = 0.37
        m0 = mt.geodesic_matrix(n, base)
        m1 = mt.geodesic_matrix(n, base + step)
        m2 = mt.geodesic_matrix(n, base + 2 * step)
        assert np.max(np.abs(m2 - 2 * m1 + m0)) < 1e-12


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_spectrum_diagonal_hyperbolic():
    rep = mt.spectrum((np.eye(2), np.diag([1.0, 2.0])))
    assert rep.classification == "hyperbolic"
    assert np.allclose(np.sort(rep.eigenvalues.real), [1.0, 2.0], atol=1e-12)


def test_spectrum_single_matrix_input():
    rep = mt.spectrum(np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert rep.classification == "hyperbolic"
    vals = np.sort(rep.eigenvalues.real)
    assert vals[0] == pytest.approx(1 - math.sqrt(2), abs=1e-12)
    assert vals[1] == pytest.approx(1 + math.sqrt(2), abs=1e-12)


def test_spectrum_rotation_elliptic():
    rep = mt.spectrum((np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])))
    assert rep.classification == "elliptic/mixed"
    assert np.allclose(np.sort(rep.eigenvalues.imag), [-1.0, 1.0], atol=1e-12)


def test_spectrum_repeated_eigenvalue_degenerate():
    rep = mt.spectrum((np.eye(2), np.eye(2)))
    assert rep.classification == "degenerate"


def test_spectrum_both_singular_no_exception():
    rep = mt.spectrum((np.zeros((2, 2)), np.zeros((2, 2))))
    assert rep.classification == "degenerate"
    assert rep.diagnostics["n_indeterminate"] == 2


def test_spectrum_infinite_eigenvalues():
    # singular A: one finite eigenvalue, one at infinity
    rep = mt.spectrum((np.diag([1.0, 0.0]), np.eye(2)))
    assert rep.diagnostics["n_infinite"] == 1
    assert rep.classification == "hyperbolic"
    assert np.allclose(rep.eigenvalues, [1.0], atol=1e-12)


def test_spectrum_invariant_under_row_scaling():
    rng = np.random.default_rng(107)
    state = random_state(rng, 2)
    mats = mt.assemble(state)
    rep0 = mt.spectrum(mats)
    d = np.diag(rng.uniform(0.5, 2.0, 4))
    rep1 = mt.spectrum((d @ mats.a, d @ mats.b))
    assert rep0.classification == rep1.classification
    if rep0.eigenvalues.size:
        e0 = np.sort_complex(rep0.eigenvalues)
        e1 = np.sort_complex(rep1.eigenvalues)
        assert np.max(np.abs(e0 - e1)) < 1e-10


def test_crafted_state_with_both_matrices_singular():
    # N = 2, u_1 = v_1 = 0 annihilates one row of each matrix
    mats = mt.assemble([1.0, 0.3, 0.0, 0.0])
    assert abs(np.linalg.det(mats.a)) < 1e-14
    assert abs(np.linalg.det(mats.b)) < 1e-14
    assert mt.spectrum(mats).classification == "degenerate"


def test_spectrum_non_finite_pencil_is_degenerate():
    for where in ("a", "b"):
        for bad in (math.nan, math.inf, -math.inf):
            mats = {"a": np.eye(2), "b": np.diag([1.0, 2.0])}
            mats[where][0, 1] = bad
            rep = mt.spectrum((mats["a"], mats["b"]))
            assert rep.classification == "degenerate"
            assert rep.eigenvalues.size == 0
            assert "qz_error" in rep.diagnostics
            assert "method" not in rep.diagnostics


def failing_qz(monkeypatch, fails=lambda b, a: True):
    """Make the LAPACK QZ driver report non-convergence (info = 1) on the
    pencils for which `fails(B, A)` holds."""
    solver = quasilinear._qz_solver

    def qz_solver(dim):
        ggev, lwork = solver(dim)

        def flaky(b, a, *args):
            if fails(b, a):
                zeros = np.zeros(dim)
                return zeros, zeros, zeros, None, None, None, 1
            return ggev(b, a, *args)

        return flaky, lwork

    monkeypatch.setattr(quasilinear, "_qz_solver", qz_solver)


def test_qz_failure_falls_back_to_a_inverse_b(monkeypatch):
    failing_qz(monkeypatch)
    rep = mt.spectrum((np.eye(2), np.diag([2.0, 1.0])))
    assert rep.diagnostics["method"] == "a_inverse_b"
    assert "did not converge" in rep.diagnostics["qz_error"]
    assert rep.classification == "hyperbolic"
    assert rep.eigenvalues.tolist() == [1.0, 2.0]


def test_qz_failure_with_ill_conditioned_a_is_degenerate(monkeypatch):
    failing_qz(monkeypatch)
    rep = mt.spectrum((np.diag([1.0, 1e-14]), np.diag([1.0, 2.0])))
    assert rep.classification == "degenerate"
    assert rep.eigenvalues.size == 0
    assert "method" not in rep.diagnostics and "n_infinite" not in rep.diagnostics
    assert rep.diagnostics["cond_a"] > 1e12


def test_qz_failure_of_one_pencil_leaves_the_stack_alone(monkeypatch):
    rng = np.random.default_rng(131)
    mats = mt.assemble(np.stack([random_state(rng, 2).values for _ in range(5)]))
    expect = quasilinear.spectra(mats)
    failing_qz(monkeypatch, lambda b, a: np.array_equal(a, mats.a[2]))
    got = quasilinear.spectra(mats)
    assert got[2].diagnostics["method"] == "a_inverse_b"
    for i in (0, 1, 3, 4):
        assert_same_report(got[i], expect[i])


# ---------------------------------------------------------------------------
# stacks of states and of pencils
# ---------------------------------------------------------------------------


def wide_states(rng, n, count):
    """States with Lambda log-uniform in [1e-3, 1e3]."""
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), count))
    return np.column_stack([lam, rng.uniform(-1.0, 1.0, (count, 2 * n - 1))])


def scalar_assemble(values):
    """A and B of one state evaluated on float64 scalars: the jet kernels of
    `stacked_residual` fed one state at a time, without a state axis."""
    n = len(values) // 2
    dim = 2 * n
    ux, uy = np.eye(dim, 2 * dim), np.eye(dim, 2 * dim, dim)
    lam, *free = map(Jet, np.asarray(values), ux, uy)
    slope = (n / 2.0) * lam.v ** (n / 2.0 - 1.0)
    u = free[:n] + [Jet(lam.v ** (n / 2.0), slope * lam.x, slope * lam.y)]
    v = [Jet(0.0, 0.0, 0.0)] + free[n:] + [Jet(0.0, 0.0, 0.0)]
    a = {j: coefficient_jet(n, j, lambda m: (u[m], v[m])) for j in range(-1, n + 1)}
    omega = omega_closed_form(n, lam, u[n - 1], v[n - 1])
    rows = []
    for k in range(n):
        e_k = harmonic_relation(k, lam, a[k - 1], a[k + 1], a[k].v, omega)[0]
        rows += [e_k.real] if k == 0 else [e_k.real, e_k.imag]
    lhs, rhs = constraint_sides(n, lam, u[n - 1], v[n - 1])
    rows = np.array(rows + [lhs - rhs])
    return rows[:, :dim], rows[:, dim:]


def test_stacked_assemble_equals_per_state_assemble_bitwise():
    # Array powers may round differently from scalar ones in the last bit;
    # a stack must give each state the bits it gets on its own.
    rng = np.random.default_rng(137)
    for n in (1, 2, 3, 4):
        states = wide_states(rng, n, 200)
        stack = mt.assemble(states)
        assert stack.a.shape == stack.b.shape == (200, 2 * n, 2 * n)
        for i, values in enumerate(states):
            one = mt.assemble(values)
            a_ref, b_ref = scalar_assemble(values)
            assert np.array_equal(stack.a[i], one.a) and np.array_equal(stack.b[i], one.b)
            assert np.array_equal(one.a, a_ref) and np.array_equal(one.b, b_ref)


def test_stacked_residual_keeps_a_state_axis():
    rng = np.random.default_rng(139)
    states = wide_states(rng, 2, 3)
    p, q = rng.uniform(-1, 1, (2, 4))
    rows = mt.stacked_residual(states, p, q)
    assert rows.shape == (3, 4)
    for i in range(3):
        assert np.array_equal(rows[i], mt.stacked_residual(states[i], p, q))


def test_state_stack_names_the_first_invalid_state():
    good = [1.0, 0.1, 0.2, 0.3]
    with pytest.raises(mt.DomainError, match="nonpositive conformal factor -2"):
        mt.StateVector(np.array([good, [-2.0, 0, 0, 0], [math.nan, 0, 0, 0]]))
    with pytest.raises(ValueError, match=r"finite, got \[1.0, nan"):
        mt.StateVector(np.array([good, [1.0, math.nan, 0, 0], [-2.0, 0, 0, 0]]))


def assert_same_report(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(np.signbit(got.eigenvalues.view(float)),
                          np.signbit(want.eigenvalues.view(float)))
    assert got.classification == want.classification
    assert got.diagnostics == want.diagnostics


def test_spectra_equal_the_per_pencil_reports():
    rng = np.random.default_rng(149)
    classes = set()
    for n in (1, 2, 3, 4):
        states = np.concatenate([wide_states(rng, n, 150),
                                 # integer states: singular pencils, repeated eigenvalues
                                 np.column_stack([rng.integers(1, 4, 50),
                                                  rng.integers(-1, 2, (50, 2 * n - 1))])])
        mats = mt.assemble(states)
        reports = quasilinear.spectra(mats)
        assert len(reports) == len(states)
        for i, rep in enumerate(reports):
            assert_same_report(rep, mt.spectrum((mats.a[i], mats.b[i])))
        classes |= {rep.classification for rep in reports}
    assert classes == {"hyperbolic", "degenerate", "elliptic/mixed"}


def test_spectra_eigenvalues_are_those_of_scipy_eig():
    import scipy.linalg
    rng = np.random.default_rng(151)
    compared = 0
    for n in (1, 2, 3, 4):
        mats = mt.assemble(wide_states(rng, n, 40))
        for rep, a, b in zip(quasilinear.spectra(mats), mats.a, mats.b):
            if rep.diagnostics["n_infinite"] or rep.diagnostics["n_indeterminate"]:
                continue
            alpha, beta = scipy.linalg.eig(b, a, right=False, homogeneous_eigvals=True)
            want = alpha / beta   # in the order a lone 1-d sort gives, ties included
            want = want[np.argsort(want.real + 1e-300 * want.imag)]
            assert np.array_equal(rep.eigenvalues, want)
            compared += 1
    assert compared > 100


def test_state_from_ansatz():
    ansatz, _ = exact_family()
    sv = mt.state_from_ansatz(ansatz, 0.4, 1.1)
    assert sv.n == 1
    assert sv.values[0] == pytest.approx(ansatz.lam.eval(0.4, 1.1))
    assert sv.values[1] == pytest.approx(ansatz.u[0].eval(0.4, 1.1))


# ---------------------------------------------------------------------------
# Egorov certificate
# ---------------------------------------------------------------------------


def test_certificate_exact_family():
    ansatz, _ = exact_family()
    cert = mt.egorov_certificate(mt.rescale(ansatz), tol=1e-10)
    assert cert.certified
    assert "N=1 degenerate" in cert.flags
    assert all(s < 1e-10 for s in cert.residual_sups.values())


def test_certificate_refused_for_generic_fields():
    rng = np.random.default_rng(109)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.15, offset=2.0)
    f = [mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.4)
         for _ in range(2)]
    g = [mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.4)
         for _ in range(2)]
    resc = mt.RescaledAnsatz(2, tuple(f), tuple(g), lam, lam.geometry)
    cert = mt.egorov_certificate(resc, tol=1e-10)
    assert not cert.certified
    assert max(cert.residual_sups.values()) > 1e-3


def test_certificate_manufactured_solution():
    rng = np.random.default_rng(113)
    psi = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.25)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.15, offset=2.0)
    resc = manufactured_rescaled(3, psi, lam)
    cert = mt.egorov_certificate(resc, tol=1e-10)
    assert cert.certified
    assert not cert.flags
