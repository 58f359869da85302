"""Flow equations, integration, conserved-quantity monitoring, cross-checks."""

import collections
import math

import numpy as np
import pytest

import magtorus as mt
from magtorus.fields import _KernelWriter
from magtorus.flow import atomic_write_chunks
from helpers import circular_closed_form, exact_family


def flat_system(b=0.0):
    return mt.MagneticSystem(mt.constant_field(1.0), mt.constant_field(b))


def test_flow_rhs_flat_cases():
    assert mt.flow_rhs(flat_system(0.0), (0.0, 0.0, 0.0)) == (1.0, 0.0, 0.0)
    dx, dy, dphi = mt.flow_rhs(flat_system(0.5), (0.0, 0.0, math.pi / 2))
    assert abs(dx) < 1e-15
    assert dy == pytest.approx(1.0, abs=1e-15)
    assert dphi == pytest.approx(-0.5, abs=1e-15)


def test_flow_rhs_variable_lambda():
    lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.5})  # 2 + cos y
    system = mt.MagneticSystem(lam, mt.constant_field(0.0))
    # at y = 0 the conformal factor is 3 and Lambda_y = -sin 0 = 0
    dx, dy, dphi = mt.flow_rhs(system, (0.0, 0.0, 0.0))
    assert dx == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
    assert dy == pytest.approx(0.0, abs=1e-15)
    assert dphi == pytest.approx(0.0, abs=1e-15)
    # generic point, expected values frozen from a symbolic differentiation oracle
    dx, dy, dphi = mt.flow_rhs(system, (0.3, 1.2, 0.9))
    assert dx == pytest.approx(0.40443165113388336, abs=1e-13)
    assert dy == pytest.approx(0.50964786861381505, abs=1e-13)
    assert dphi == pytest.approx(-0.07978175738723888, abs=1e-13)


def test_cotangent_rhs_flat_cases():
    assert mt.cotangent_rhs(flat_system(0.0), (0.0, 0.0, 1.0, 0.0)) == (1.0, 0.0, 0.0, 0.0)
    b = 0.7
    rng = np.random.default_rng(0)
    for _ in range(5):
        p1, p2 = rng.uniform(-1, 1, 2)
        dx, dy, dp1, dp2 = mt.cotangent_rhs(flat_system(b), (0.1, 0.2, p1, p2))
        assert dp1 == pytest.approx(b * p2, abs=1e-15)
        assert dp2 == pytest.approx(-b * p1, abs=1e-15)


def test_cotangent_rhs_variable_lambda():
    lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.5})  # 2 + cos y
    system = mt.MagneticSystem(lam, mt.constant_field(0.0))
    # dp2/dt = p1^2 Lambda_y / (2 Lambda^2) = -1/8 at (0, pi/2, 1, 0)
    _, _, dp1, dp2 = mt.cotangent_rhs(system, (0.0, math.pi / 2, 1.0, 0.0))
    assert dp1 == pytest.approx(0.0, abs=1e-15)
    assert dp2 == pytest.approx(-0.125, abs=1e-14)
    # frozen symbolic-oracle values at (0, pi/2, 1, 0.4)
    dx, dy, dp1, dp2 = mt.cotangent_rhs(system, (0.0, math.pi / 2, 1.0, 0.4))
    assert dx == pytest.approx(0.5, abs=1e-14)
    assert dy == pytest.approx(0.2, abs=1e-14)
    assert dp2 == pytest.approx(-0.145, abs=1e-14)


def test_rhs_domain_error():
    lam = mt.analytic_preset("affine_y", {"offset": 0.5, "slope": 0.3})
    system = mt.MagneticSystem(lam, mt.constant_field(0.0))
    with pytest.raises(mt.DomainError):
        mt.flow_rhs(system, (0.0, -5.0, 0.0))
    with pytest.raises(mt.DomainError):
        mt.cotangent_rhs(system, (0.0, -5.0, 1.0, 0.0))


def test_phase_state_wraps_angle():
    s = mt.PhaseState(0.0, 0.0, 7.0)
    assert 0.0 <= s.phi < 2 * math.pi
    assert s.phi == pytest.approx(7.0 - 2 * math.pi)


def test_integrate_straight_line():
    traj = mt.integrate(flat_system(0.0), mt.PhaseState(0, 0, 0), 1.0)
    assert abs(traj.x[-1] - 1.0) < 1e-12
    assert abs(traj.y[-1]) < 1e-12
    assert abs(traj.phi[-1]) < 1e-12
    assert not traj.aborted


def test_integrate_circular_closed_form():
    traj = mt.integrate(flat_system(1.0), mt.PhaseState(0, 0, 0), math.pi)
    assert abs(traj.x[-1] - 0.0) < 1e-10
    assert abs(traj.y[-1] + 2.0) < 1e-10
    assert traj.phi[-1] == pytest.approx(math.pi, abs=1e-10)  # -pi wrapped
    # full sampled path against the closed form
    cx, cy, cphi = circular_closed_form(traj.t)
    assert np.max(np.abs(traj.x - cx)) < 1e-10
    assert np.max(np.abs(traj.y - cy)) < 1e-10
    assert np.max(np.abs(traj.phi_unwrapped - cphi)) < 1e-10


def test_integrate_rejects_nonpositive_t_end():
    with pytest.raises(ValueError):
        mt.integrate(flat_system(), mt.PhaseState(0, 0, 0), 0.0)


def test_integrate_refuses_t_end_beyond_the_sample_budget():
    # Adaptive control has no step count to bound t_end; the samples do.
    with pytest.raises(ValueError, match="above the sample budget of 1000000 intervals"):
        mt.integrate(flat_system(), mt.PhaseState(0, 0, 0), 1e12,
                     mt.StepControl.adaptive())


def test_integrate_cotangent_rejects_zero_energy():
    with pytest.raises(ValueError):
        mt.integrate_cotangent(flat_system(), mt.CotangentState(0, 0, 0.0, 0.0), 1.0)


def test_trajectory_timestamps_strictly_increase():
    traj = mt.integrate(flat_system(1.0), mt.PhaseState(0, 0, 0), 2.0)
    assert np.all(np.diff(traj.t) > 0.0)


def test_step_halving_is_order_four():
    t_end = 3.2
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        traj = mt.integrate(flat_system(1.0), mt.PhaseState(0, 0, 0), t_end,
                            mt.StepControl.fixed(dt, sample_dt=None))
        cx, cy, cphi = circular_closed_form(t_end)
        errs.append(max(abs(traj.x[-1] - cx), abs(traj.y[-1] - cy),
                        abs(traj.phi_unwrapped[-1] - cphi)))
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_adaptive_step_doubling():
    traj = mt.integrate(flat_system(1.0), mt.PhaseState(0, 0, 0), 5.0,
                        mt.StepControl.adaptive(1e-10))
    cx, cy, _ = circular_closed_form(5.0)
    assert abs(traj.x[-1] - cx) < 1e-7
    assert abs(traj.y[-1] - cy) < 1e-7


def test_integration_aborts_below_positivity_floor():
    # Lambda = 1 + 0.4 y is positive on the fundamental domain but the
    # trajectory leaves it downward and hits Lambda = 0 near y = -2.5.
    lam = mt.analytic_preset("affine_y", {"offset": 1.0, "slope": 0.4})
    system = mt.MagneticSystem(lam, mt.constant_field(0.0))
    traj = mt.integrate(system, mt.PhaseState(0.0, 0.0, 1.5 * math.pi), 5.0)
    assert traj.aborted
    assert "positivity floor" in traj.diagnostic
    assert len(traj) >= 1
    assert traj.t[-1] < 5.0


def test_monitor_energy_and_first_integral():
    # H is identically 1/2 on the parameterization: drift exactly zero
    system = flat_system(1.0)
    f_obs = lambda x, y, phi: 2.0 * np.cos(phi) - 2.0 * y
    control = lambda x, y, phi: y + np.cos(phi)  # not a first integral
    traj = mt.integrate(system, mt.PhaseState(0, 0, 0), 30.0,
                        observables={"F": f_obs, "control": control})
    stats = mt.monitor(traj)
    assert stats["H"].max_abs_drift == 0.0
    assert stats["F"].relative_drift < 1e-8
    assert stats["control"].max_abs_drift > 1e-2
    assert stats["control"].relative_drift > 1e-2


def test_monitor_exact_family_first_integral():
    ansatz, system = exact_family()
    f_obs = mt.first_integral_observable(ansatz)
    traj = mt.integrate(system, mt.PhaseState(0.5, 0.3, 0.7), 20.0,
                        observables={"F": f_obs})
    assert mt.monitor(traj)["F"].relative_drift < 1e-8


def test_speed_is_unit_on_flat_metric():
    # Lorentz force does no work: with Lambda = 1 the speed is identically 1
    system = flat_system(0.8)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y, phi = rng.uniform(0, 2 * math.pi, 3)
        dx, dy, _ = mt.flow_rhs(system, (x, y, phi))
        assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-15)


def test_reversibility():
    # The time-reversed flow is the (Lambda, -Omega) flow with phi -> phi + pi.
    ansatz, system = exact_family()
    reversed_system = mt.MagneticSystem(system.lam, -1.0 * system.omega)
    start = mt.PhaseState(0.5, 0.3, 0.7)
    control = mt.StepControl.fixed(1e-2, sample_dt=None)
    fwd = mt.integrate(system, start, 5.0, control)
    fwd_half = mt.integrate(system, start, 5.0,
                            mt.StepControl.fixed(5e-3, sample_dt=None))
    one_way = max(abs(fwd.x[-1] - fwd_half.x[-1]),
                  abs(fwd.y[-1] - fwd_half.y[-1]),
                  abs(fwd.phi_unwrapped[-1] - fwd_half.phi_unwrapped[-1]))
    one_way = max(one_way * 16.0 / 15.0, 1e-13)
    back = mt.integrate(reversed_system,
                        mt.PhaseState(fwd.x[-1], fwd.y[-1],
                                      fwd.phi_unwrapped[-1] + math.pi),
                        5.0, control)
    err = max(abs(back.x[-1] - start.x),
              abs(back.y[-1] - start.y),
              abs(mt.wrap_angle(back.phi_unwrapped[-1] - math.pi) - start.phi))
    assert err <= 10.0 * one_way


def test_cotangent_energy_drift():
    times, states, aborted, _ = mt.integrate_cotangent(
        flat_system(1.0), mt.CotangentState(0.0, 0.0, 1.0, 0.0), 100.0)
    assert not aborted
    energy = (states[:, 2] ** 2 + states[:, 3] ** 2) / 2.0
    assert np.max(np.abs(energy - 0.5)) / 0.5 < 1e-8


def test_crosscheck_formulations():
    rep = mt.crosscheck_formulations(flat_system(0.0), mt.PhaseState(0.1, 0.2, 0.3), 10.0)
    assert rep.max_discrepancy < 1e-10
    rep = mt.crosscheck_formulations(flat_system(1.0), mt.PhaseState(0, 0, 0), 10.0)
    assert rep.max_discrepancy < 1e-8
    assert not rep.off_level
    ansatz, system = exact_family()
    rep = mt.crosscheck_formulations(system, mt.PhaseState(0.5, 0.3, 0.7), 10.0)
    assert rep.max_discrepancy < 1e-7
    assert rep.energy_drift < 1e-9


def test_csv_export(tmp_path):
    system = flat_system(1.0)
    f_obs = lambda x, y, phi: 2.0 * np.cos(phi) - 2.0 * y
    traj = mt.integrate(system, mt.PhaseState(0, 0, 0), 1.0,
                        observables={"F": f_obs})
    path = tmp_path / "traj.csv"
    mt.export_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,phi,H,F"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj), 6)
    assert np.array_equal(data[:, 1], traj.x)          # 17 digits round-trip
    assert np.array_equal(data[:, 3], traj.phi)
    assert np.all((data[:, 3] >= 0.0) & (data[:, 3] < 2 * math.pi))
    assert np.all(data[:, 4] == 0.5)


def test_atomic_write_chunks_leaves_no_file_when_a_chunk_raises(tmp_path):
    def chunks():
        yield "first\n"
        raise RuntimeError("chunk failed")

    path = tmp_path / "out.dat"
    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write_chunks(path, chunks())
    assert list(tmp_path.iterdir()) == []
    path.write_text("kept\n")
    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write_chunks(path, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["out.dat"]
    assert path.read_text() == "kept\n"


def test_trajectory_wrapped_and_unwrapped():
    traj = mt.integrate(flat_system(0.0), mt.PhaseState(0, 0, 0), 8.0)
    assert traj.x[-1] == pytest.approx(8.0, abs=1e-11)   # universal cover
    wx, wy = traj.wrapped_xy()
    assert 0.0 <= wx[-1] < 2 * math.pi
    assert wx[-1] == pytest.approx(8.0 - 2 * math.pi, abs=1e-11)


# ---------------------------------------------------------------------------
# One leaf memo per RHS call, and the work counters of an integration
# ---------------------------------------------------------------------------


def random_system(rng, n, derived=True):
    """Random degree-n ansatz on a random trig Lambda, with its derived Omega
    (sharing the Lambda leaf) or an independent trig Omega."""
    trig = lambda **kw: mt.random_trig_field(rng, n_modes=4, max_mode=2, **kw)
    lam = trig(amplitude=0.1, offset=2.0)
    ansatz = mt.Ansatz(n, lam, [trig(amplitude=0.3) for _ in range(n)],
                       [trig(amplitude=0.3) for _ in range(n - 1)])
    omega = mt.omega_rescaled(mt.rescale(ansatz)) if derived else trig(amplitude=0.5)
    return mt.MagneticSystem(lam, omega)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("derived", [True, False])
def test_rhs_equals_separate_field_evaluations(n, derived):
    rng = np.random.default_rng(100 + n)
    system = random_system(rng, n, derived)
    for x, y, phi, p1, p2 in rng.uniform(-4.0, 4.0, (10, 5)).tolist():
        lam, lam_x, lam_y = system.lam.jet(x, y)
        om = system.omega.eval(x, y)
        sqrt_lam = math.sqrt(lam)
        c, s = math.cos(phi), math.sin(phi)
        dphi = (lam_y * c - lam_x * s) / (2.0 * lam * sqrt_lam) - om / lam
        assert mt.flow_rhs(system, (x, y, phi)) == (c / sqrt_lam, s / sqrt_lam, dphi)
        p_sq = p1 * p1 + p2 * p2
        h_x = -p_sq * lam_x / (2.0 * lam * lam)
        h_y = -p_sq * lam_y / (2.0 * lam * lam)
        assert mt.cotangent_rhs(system, (x, y, p1, p2)) == (
            p1 / lam, p2 / lam, -h_x + om * p2 / lam, -h_y - om * p1 / lam)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rhs_evaluates_each_trig_leaf_once(monkeypatch, n):
    system = random_system(np.random.default_rng(200 + n), n)
    written = []
    original = _KernelWriter._trig

    def counting(self, leaf):
        written.append(leaf)
        return original(self, leaf)

    monkeypatch.setattr(_KernelWriter, "_trig", counting)
    mt.flow_rhs(system, (0.3, 1.1, 0.7))   # compiles the system's kernel
    counts = collections.Counter(id(leaf) for leaf in written)
    assert max(counts.values()) == 1
    # Lambda and the leaves u_{n-1}, v_{n-1} of Omega; for n > 1 Omega also
    # holds Lambda, through Lambda ** (-(n-1)/2).
    assert id(system.lam) in counts and len(counts) == 3
    # The kernel is straight-line: one call computes each distinct mode's
    # cosine once, so no leaf is evaluated twice per call.
    modes = {(kx, ky) for leaf in written for kx, ky, _, _ in leaf._terms}
    cosines = []
    namespace = system.kernel.__globals__
    monkeypatch.setitem(namespace, "cos", lambda t: cosines.append(t) or math.cos(t))
    for rhs, state in ((mt.flow_rhs, (0.3, 1.1, 0.7)),
                       (mt.cotangent_rhs, (0.3, 1.1, 0.4, -0.9))):
        cosines.clear()
        rhs(system, state)
        assert len(cosines) == len(modes)


@pytest.mark.parametrize("b, control, calls_per_step, retries", [
    (1.0, mt.StepControl.fixed(0.01), 4, False),
    # Flat and field-free: the full and doubled half steps agree exactly, so
    # every first attempt is accepted.
    (0.0, mt.StepControl.adaptive(1e-10), 11, False),
    # A first step far too long for the tolerance is retried.
    (1.0, mt.StepControl.adaptive(1e-12, dt=1.0, sample_dt=None), 11, True),
], ids=["fixed", "adaptive", "adaptive-retries"])
def test_step_stats_count_the_rhs_calls(monkeypatch, b, control, calls_per_step, retries):
    calls = []
    original = mt.flow.flow_rhs

    def counting(system, state):
        calls.append(state)
        return original(system, state)

    monkeypatch.setattr(mt.flow, "flow_rhs", counting)
    stats = mt.integrate(flat_system(b), mt.PhaseState(0, 0, 0.4), 2.0, control).stats
    assert stats.accepted > 0 and (stats.rejected > 0) == retries
    # Step doubling shares the first stage between the full step, the first
    # half step and every retry: 11 calls per step and 10 per retry.
    assert stats.rhs_calls == calls_per_step * stats.accepted + 10 * stats.rejected
    assert stats.rhs_calls == len(calls)
    assert 0.0 < stats.h_min <= stats.h_max


@pytest.mark.parametrize("kwargs", [{"dt": 0.0}, {"dt": -1.0}, {"dt": math.inf},
                                    {"dt": math.nan}, {"atol": 0.0}, {"atol": math.nan},
                                    {"sample_dt": 0.0}])
def test_step_control_refuses_values_that_never_finish(kwargs):
    with pytest.raises(ValueError, match="step control"):
        mt.StepControl(**kwargs)


def test_conformal_factor_is_certified_on_its_own_torus():
    # 0.5 + 0.5 cos(2 pi x / 100) vanishes at x = 50 on the 100 x 100 torus.
    big = mt.TorusGeometry(100.0, 100.0)
    lam = mt.make_trig_field({(0, 0): 0.5, (1, 0): 0.25}, big)
    with pytest.raises(mt.DomainError, match="conformal factor"):
        mt.MagneticSystem(lam, mt.zero_field(big))
    with pytest.raises(mt.DomainError, match="conformal factor"):
        mt.Ansatz(1, lam, [mt.zero_field(big)])


def test_wrapped_positions_lie_on_the_systems_torus():
    unit = mt.TorusGeometry(1.0, 1.0)
    system = mt.MagneticSystem(mt.constant_field(1.0, unit), mt.zero_field(unit))
    traj = mt.integrate(system, mt.PhaseState(0.25, 0.5, 0.4), 5.0,
                        mt.StepControl.fixed(1e-2))
    assert traj.geometry == unit
    assert traj.x.max() > 4.0 and traj.y.max() > 2.0
    for coords in traj.wrapped_xy():
        assert coords.min() >= 0.0 and coords.max() < 1.0


def test_rk4_step_is_the_classical_step_bit_for_bit():
    from magtorus.flow import _rk4_step

    def reference(rhs, state, dt, k1):
        stage = lambda h, k: rhs(tuple(s + h * ki for s, ki in zip(state, k)))
        k2 = stage(0.5 * dt, k1)
        k3 = stage(0.5 * dt, k2)
        k4 = stage(dt, k3)
        return tuple(s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                     for s, a, b, c, d in zip(state, k1, k2, k3, k4))

    rng = np.random.default_rng(41)
    rhs = lambda s: tuple(math.sin(v) * (i + 1.5) + s[0] * s[-1] for i, v in enumerate(s))
    for length in (3, 4):
        for _ in range(20):
            state = tuple(rng.uniform(-2.0, 2.0, length).tolist())
            dt = float(rng.uniform(1e-4, 0.5))
            assert _rk4_step(rhs, state, dt, rhs(state)) == reference(rhs, state, dt,
                                                                      rhs(state))
    with pytest.raises(ValueError, match="no RK4 step for a state of length 2"):
        _rk4_step(rhs, (0.0, 1.0), 0.1, (1.0, 1.0))
