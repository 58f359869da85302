"""Scenario schema validation, the bundled library, CLI exit codes and
machine-readable report contracts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magtorus as mt
import magtorus.cli
from magtorus.cli import canonical_json, main, run_verify_checks
from magtorus.scenarios import BUNDLED, ScenarioError
from helpers import circular_closed_form


def run_python(*args, timeout=60.0):
    """Run a fresh interpreter that imports magtorus from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(mt.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# schema and scenario building
# ---------------------------------------------------------------------------


def test_bundled_names():
    names = mt.bundled_scenario_names()
    for expected in ("linear-family-periodic", "random-nonsolution",
                     "flat-zero-field", "flat-constant-field"):
        assert expected in names


def test_build_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        mt.build_scenario({"lambda": 1.0})  # missing N
    with pytest.raises(ScenarioError):
        mt.build_scenario({"N": 1})  # missing lambda
    with pytest.raises(ScenarioError):
        mt.build_scenario({"N": 1, "lambda": 1.0, "schema_version": 99})
    with pytest.raises(ScenarioError):
        mt.build_scenario({"N": 1, "lambda": 1.0, "checks": ["bogus"]})
    with pytest.raises(ScenarioError):
        mt.build_scenario({"N": 1, "lambda": 1.0,
                           "coefficients": [{"k": 0, "v": 1.0}]})  # v_0 must vanish
    with pytest.raises(ScenarioError):
        mt.build_scenario({"N": 1, "lambda": 1.0,
                           "coefficients": [{"k": 5, "u": 1.0}]})
    with pytest.raises(ScenarioError):
        mt.build_scenario({"N": 1, "lambda": 1.0,
                           "trajectories": [{"initial": [0, 0, 0]}]})  # t_end


def test_build_scenario_defaults():
    sc = mt.build_scenario({"N": 1, "lambda": 2.0})
    assert sc.grid.nx == 64 and sc.grid.ny == 64
    assert sc.tolerance == 1e-10
    assert sc.omega_source == "derived"
    assert set(sc.checks) == {"stationarity", "harmonics", "constraint",
                              "conservation", "certificate"}


def test_load_scenario_unknown_name():
    with pytest.raises(ScenarioError):
        mt.load_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_json_format():
    doc = {"b": 1.5, "a": [1, 2.0, True, None, "s"], "c": {"y": 0.1, "x": -3}}
    text = canonical_json(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    parsed = json.loads(text)
    assert parsed == doc
    assert canonical_json(1.0) == "1.0"
    assert canonical_json(0.1) == "0.10000000000000001"
    with pytest.raises(ValueError):
        canonical_json(float("nan"))


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 1.0, -3.0, 2.0 ** 52, 1e16 - 2.0, 1e16, -1e16, 1e17, 0.1, -2.5,
     5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308, -1e300],
    [1.0],
    [0.30000000000000004, 1e22],
])
def test_canonical_json_float_list_fast_path(values):
    # The plain-float fast path writes what the element-wise path writes:
    # a list holding one non-float (here a numpy scalar) takes the latter.
    fast = canonical_json(values, 1)
    assert fast == canonical_json([np.float64(v) for v in values], 1)
    slow = canonical_json(values[:-1] + [np.float64(values[-1])], 1)
    assert fast == slow
    assert fast == "[\n    " + ",\n    ".join(canonical_json(v) for v in values) + "\n  ]"
    assert json.loads(fast) == values


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_canonical_json_float_list_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="NaN or infinity"):
        canonical_json([1.0, bad])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_exact_family_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "linear-family-periodic")
    assert code == 0
    doc = stdout_json(out)
    assert doc["payload"]["overall_pass"] is True
    assert doc["payload"]["omega_source"] == "derived"
    for check in doc["payload"]["checks"]:
        assert check["pass"] is True
        for entry in check.get("residuals", []):
            assert entry["sup"] < 1e-10


def test_verify_random_nonsolution_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "random-nonsolution")
    assert code == 1
    doc = stdout_json(out)
    cert = [c for c in doc["payload"]["checks"] if c["check"] == "certificate"][0]
    assert cert["certified"] is False
    assert max(cert["residual_sups"].values()) > 1e-3


@pytest.mark.parametrize("checks", [list(mt.scenarios.KNOWN_CHECKS), ["certificate"]],
                         ids=["all", "certificate-only"])
def test_verify_evaluates_constraint_and_conservation_once(monkeypatch, checks):
    random_spec = lambda seed, **kw: {"type": "random_trig", "seed": seed, "modes": 4,
                                      "max_mode": 2, "amplitude": 0.2, **kw}
    scenario = mt.build_scenario({
        "N": 3, "lambda": random_spec(1, offset=2.0), "grid": [16, 16],
        "coefficients": [{"k": 0, "u": random_spec(2)},
                         {"k": 1, "u": random_spec(3), "v": random_spec(4)},
                         {"k": 2, "u": random_spec(5), "v": random_spec(6)}],
        "checks": checks})
    calls = {"constraint_residual": 0, "conservation_flux_fields": 0}
    for name in calls:
        original = getattr(mt.ansatz, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for module in (mt.ansatz, mt.quasilinear, magtorus.cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    payload = run_verify_checks(scenario)[0]
    assert [c["check"] for c in payload["checks"]] == checks
    assert calls == {"constraint_residual": 1, "conservation_flux_fields": 1}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_verify_certificate_matches_standalone_certificate(name):
    scenario = mt.load_scenario(name)
    payload = run_verify_checks(scenario)[0]
    entry = [c for c in payload["checks"] if c["check"] == "certificate"][0]
    cert = mt.egorov_certificate(mt.rescale(scenario.ansatz), scenario.grid,
                                 scenario.tolerance)
    assert entry["residual_sups"] == cert.residual_sups
    assert entry["flags"] == cert.flags
    assert entry["certified"] is cert.certified


def test_verify_truncated_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"N": 1, "lambda": ')
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "malformed" in err


def test_verify_unknown_preset_is_input_error(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "N": 1,
        "lambda": {"type": "analytic", "name": "not-registered"},
    }))
    code, _, err = run_cli(capsys, "verify", str(scen))
    assert code == 2
    assert "preset" in err


def test_verify_nonpositive_lambda_is_input_error(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"N": 1, "lambda": -1.0}))
    code, _, err = run_cli(capsys, "verify", str(scen))
    assert code == 2


def test_aliased_lambda_is_refused_at_load(tmp_path):
    # Lambda = 1 + 1.5 cos 64x is positive at every node of the 64x64 check
    # grid; it must be refused before any residual is evaluated.
    scen = tmp_path / "aliased.json"
    coeffs = [{"m": 0, "n": 0, "re": 1.0, "im": 0.0},
              {"m": 64, "n": 0, "re": 0.75, "im": 0.0}]
    scen.write_text(json.dumps({"N": 1, "lambda": {"type": "trig", "coeffs": coeffs}}))
    proc = run_python("-m", "magtorus", "verify", str(scen), "--grid", "100,100")
    assert proc.returncode == 2
    assert "conformal factor" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec", [
    {"type": "trig", "coeffs": [{"m": 1, "n": 0, "re": math.nan}]},
    {"type": "constant", "value": math.inf},
    {"type": "random_trig", "seed": 3, "amplitude": 0.2, "offset": math.nan},
    {"type": "analytic", "name": "affine_y", "params": {"slope": -math.inf}},
], ids=["trig", "constant", "random_trig", "affine"])
def test_non_finite_field_spec_is_refused_at_load(tmp_path, spec):
    scen = tmp_path / "non_finite.json"
    scen.write_text(json.dumps({"N": 1, "lambda": 2.0,
                                "coefficients": [{"k": 0, "u": spec}]}))
    proc = run_python("-m", "magtorus", "verify", str(scen))
    assert proc.returncode == 2
    assert "finite" in proc.stderr
    assert "reports must not contain" not in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["assemble", "--geodesic", "n=2 a=nan,1,1"], "--geodesic a values must be finite"),
    (["assemble", "--geodesic", "n=2 a=0,inf,1"], "--geodesic a values must be finite"),
    (["assemble", "--geodesic", "n=two a=0,1,1"], "--geodesic needs an integer n and numbers a"),
    (["assemble", "--geodesic", "n=2 a=0,x,1"], "--geodesic needs an integer n and numbers a"),
    (["verify", "flat-zero-field", "--grid", "16,1e3"], "--grid expects two integers"),
])
def test_malformed_flag_value_names_the_flag(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("state", ["1,nan", "inf,0"])
def test_assemble_non_finite_state_is_input_error(state):
    proc = run_python("-m", "magtorus", "assemble", "flat-zero-field", f"--at={state}")
    assert proc.returncode == 2
    assert "state vector" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_verify_deterministic_payload(capsys):
    _, out1, _ = run_cli(capsys, "verify", "linear-family-periodic")
    _, out2, _ = run_cli(capsys, "verify", "linear-family-periodic")
    doc1 = stdout_json(out1)
    doc2 = stdout_json(out2)
    del doc1["timings"], doc2["timings"]
    assert canonical_json(doc1) == canonical_json(doc2)


def test_verify_grid_and_tol_overrides(capsys):
    code, out, _ = run_cli(capsys, "verify", "linear-family-periodic",
                           "--grid", "16,20", "--tol", "1e-6")
    assert code == 0
    doc = stdout_json(out)
    assert doc["payload"]["grid"] == [16, 20]
    assert doc["payload"]["tolerance"] == 1e-6


def test_verify_seed_override_changes_random_fields(capsys):
    _, out1, _ = run_cli(capsys, "verify", "random-nonsolution")
    _, out2, _ = run_cli(capsys, "verify", "random-nonsolution", "--seed", "7")
    _, out3, _ = run_cli(capsys, "verify", "random-nonsolution", "--seed", "7")
    sup = lambda out: stdout_json(out)["payload"]["checks"][0]["residuals"][0]["sup"]
    assert sup(out1) != sup(out2)
    assert sup(out2) == sup(out3)


def test_verify_writes_report_and_plot_data(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "verify", "flat-zero-field",
                         "--out", str(tmp_path), "--plot-data")
    assert code == 0
    report = tmp_path / "flat-zero-field_verify.json"
    assert report.is_file()
    json.loads(report.read_text())
    dats = list(tmp_path.glob("*.dat"))
    assert dats, "expected gnuplot-ready columnar files"
    first = dats[0].read_text().strip().split("\n")[0].split()
    assert len(first) == 3  # x y value


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_flat_constant_field(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "flat-constant-field",
                           "--out", str(tmp_path))
    assert code == 0
    doc = stdout_json(out)
    traj = doc["payload"]["trajectories"][0]
    cx, cy, cphi = circular_closed_form(math.pi)
    assert abs(traj["final"][1] - cx) < 1e-8
    assert abs(traj["final"][2] - cy) < 1e-8
    assert abs(traj["final"][3] - (cphi % (2 * math.pi))) < 1e-8
    assert traj["drifts"]["F"]["relative"] < 1e-8
    csv_path = tmp_path / traj["csv"]
    assert csv_path.is_file()
    header = csv_path.read_text().split("\n", 1)[0]
    assert header == "t,x,y,phi,H,F"
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert abs(data[-1, 1] - cx) < 1e-8 and abs(data[-1, 2] - cy) < 1e-8


def test_simulate_zero_field_drift_exactly_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "flat-zero-field",
                           "--out", str(tmp_path))
    assert code == 0
    doc = stdout_json(out)
    traj = doc["payload"]["trajectories"][0]
    assert traj["drifts"]["F"]["max_abs"] <= 1e-12
    assert traj["drifts"]["H"]["max_abs"] == 0.0


def test_simulate_step_halving_error_ratio(tmp_path, capsys):
    errors = []
    for dt in ("1e-2", "5e-3"):
        _, out, _ = run_cli(capsys, "simulate", "flat-constant-field",
                            "--dt", dt, "--out", str(tmp_path))
        final = stdout_json(out)["payload"]["trajectories"][0]["final"]
        cx, cy, cphi = circular_closed_form(math.pi)
        errors.append(max(abs(final[1] - cx), abs(final[2] - cy),
                          abs(final[3] - (cphi % (2 * math.pi)))))
    assert 12.0 < errors[0] / errors[1] < 20.0


def test_simulate_without_trajectories_is_input_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "random-nonsolution")
    assert code == 2
    assert "trajectory" in err


def test_simulate_abort_gives_partial_output(tmp_path, capsys):
    scen = tmp_path / "abort.json"
    scen.write_text(json.dumps({
        "name": "abort-case",
        "N": 1,
        "lambda": {"type": "analytic", "name": "affine_y",
                   "params": {"offset": 1.0, "slope": 0.4}},
        "coefficients": [{"k": 0, "u": 0.0}],
        "omega": 0.0,
        "trajectories": [{"name": "down", "initial": [0.0, 0.0, 4.71238898038469],
                          "t_end": 5.0}],
    }))
    code, out, _ = run_cli(capsys, "simulate", str(scen), "--out", str(tmp_path))
    assert code == 1
    doc = stdout_json(out)
    traj = doc["payload"]["trajectories"][0]
    assert traj["aborted"] is True
    assert "positivity floor" in traj["diagnostic"]
    assert (tmp_path / traj["csv"]).is_file()  # partial trajectory still written


def test_simulate_unreachable_adaptive_tolerance_aborts(tmp_path):
    # Below roundoff the step-doubling control used to shrink the step
    # without bound; it now stops at the step floor with a diagnostic.
    proc = run_python("-m", "magtorus", "simulate", "linear-family-periodic",
                      "--adaptive", "1e-20", "--out", str(tmp_path))
    assert proc.returncode == 1
    traj = json.loads(proc.stdout)["payload"]["trajectories"][0]
    assert traj["aborted"] is True
    assert "floor h = 1e-12" in traj["diagnostic"]
    assert (tmp_path / traj["csv"]).is_file()


def write_orbit_scenario(tmp_path, **request):
    """flat-zero-field with its one trajectory request changed by `request`."""
    data = json.loads(json.dumps(BUNDLED["flat-zero-field"]))
    data["trajectories"][0].update(request)
    path = tmp_path / "orbit.json"
    # json writes NaN and Infinity literals, which the scenario loader reads.
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    # A fixed step that never advances used to loop forever.
    (["simulate", "flat-zero-field", "--dt", "0"], "--dt"),
    (["simulate", "flat-zero-field", "--dt", "-1"], "--dt"),
    ({"dt": -1.0}, "trajectory 'line' dt"),
    (["simulate", "flat-zero-field", "--dt", "nan"], "--dt"),
    (["simulate", "flat-zero-field", "--dt", "inf"], "--dt"),
    (["simulate", "flat-zero-field", "--adaptive", "nan"], "--adaptive"),
    (["simulate", "flat-zero-field", "--adaptive", "0"], "--adaptive"),
    (["simulate", "flat-zero-field", "--adaptive", "-1"], "--adaptive"),
    (["verify", "flat-zero-field", "--tol", "inf"], "--tol"),
    ({"initial": [0.0, math.nan, 0.0]}, "trajectory 'line' initial state"),
    ({"dt": math.inf}, "trajectory 'line' dt"),
    ({"adaptive": math.nan}, "trajectory 'line' adaptive"),
    ({"t_end": math.inf}, "trajectory 'line' t_end"),
    ({"dt": None}, "trajectory 'line' dt"),
], ids=["dt-zero", "dt-negative", "scenario-dt-negative", "dt-nan", "dt-inf",
        "adaptive-nan", "adaptive-zero", "adaptive-negative", "tol-inf", "initial-nan",
        "scenario-dt-inf", "scenario-adaptive-nan", "t_end-inf", "dt-null"])
def test_bad_step_tolerance_and_trajectory_values_are_refused(tmp_path, argv, message):
    if isinstance(argv, dict):
        argv = ["simulate", write_orbit_scenario(tmp_path, **argv)]
    proc = run_python("-m", "magtorus", *argv, "--out", str(tmp_path), timeout=30.0)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "reports must not contain" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("step, calls_per_step", [
    (["--dt", "1e-2"], 4),
    (["--adaptive", "1e-10"], 11),   # flat and field-free: no step is rejected
])
def test_simulate_report_stats(tmp_path, capsys, step, calls_per_step):
    code, out, _ = run_cli(capsys, "simulate", "flat-zero-field", *step,
                           "--out", str(tmp_path))
    assert code == 0
    doc = stdout_json(out)
    stats = doc["stats"]["line"]
    assert "stats" not in doc["payload"]
    assert stats["rk4_steps_accepted"] > 0
    assert stats["rk4_steps_rejected"] == 0
    assert stats["rhs_calls"] == calls_per_step * stats["rk4_steps_accepted"]
    assert 0.0 < stats["h_min"] <= stats["h_max"]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_finite_torus_period_is_refused(tmp_path, command):
    data = json.loads(json.dumps(BUNDLED["flat-constant-field"]))
    data["geometry"] = {"period_x": 1.0, "period_y": 6.0}
    text = json.dumps(data).replace('"period_x": 1.0', '"period_x": 1e309')
    path = tmp_path / "infinite-torus.json"
    path.write_text(text)
    proc = run_python("-m", "magtorus", command, str(path), "--out", str(tmp_path),
                      timeout=30.0)
    assert proc.returncode == 2
    assert "period_x" in proc.stderr and "finite" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_import_does_not_load_scipy():
    proc = run_python("-c", "import sys, magtorus, magtorus.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_simulate_adaptive_flag(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "flat-constant-field",
                           "--adaptive", "1e-10", "--out", str(tmp_path))
    assert code == 0
    doc = stdout_json(out)
    assert doc["payload"]["trajectories"][0]["step"]["mode"] == "adaptive"


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_assemble_geodesic(capsys):
    code, out, _ = run_cli(capsys, "assemble", "--geodesic", "n=2 a=0,1,1")
    assert code == 0
    doc = stdout_json(out)
    geo = doc["payload"]["geodesic"]
    assert geo["matrix"] == [[0.0, 1.0], [1.0, 2.0]]
    eigs = sorted(ev[0] for ev in geo["eigenvalues"])
    assert abs(eigs[0] - (1 - math.sqrt(2))) < 1e-12
    assert abs(eigs[1] - (1 + math.sqrt(2))) < 1e-12
    assert geo["class"] == "hyperbolic"


def test_assemble_magnetic_n1_golden(capsys):
    code, out, _ = run_cli(capsys, "assemble", "linear-family-periodic",
                           "--at", "1,0.3")
    assert code == 0
    entry = stdout_json(out)["payload"]["entries"][0]
    assert entry["a"] == [[1.0, 0.0], [0.0, 2.0]]
    assert entry["b"] == [[0.0, 0.0], [0.0, 0.0]]
    assert entry["class"] == "degenerate"


def test_assemble_crafted_degenerate_state(capsys):
    # both matrices singular: analysis still succeeds with exit 0
    code, out, _ = run_cli(capsys, "assemble", "random-nonsolution",
                           "--at", "1,0.3,0,0")
    assert code == 0
    entry = stdout_json(out)["payload"]["entries"][0]
    assert entry["class"] == "degenerate"


def test_assemble_state_with_non_finite_matrices_is_named():
    # Lambda = 1e-300 underflows Omega's denominator: A and B are not finite.
    proc = run_python("-m", "magtorus", "assemble", "random-nonsolution",
                      "--at=1,0.3,0.2,0.1", "--at=1e-300,1,1,1", timeout=60.0)
    assert proc.returncode == 2
    assert "--at state 1e-300,1,1,1" in proc.stderr
    assert "reports must not contain" not in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_assemble_huge_state_still_passes():
    proc = run_python("-m", "magtorus", "assemble", "random-nonsolution",
                      "--at=1e300,1e300,1e300,1e300", timeout=60.0)
    assert proc.returncode == 0
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    entry = stdout_json(proc.stdout)["payload"]["entries"][0]
    assert entry["a"][3] == [-1e300, 0.0, 2e300, 0.0]
    assert entry["class"] == "degenerate"
    assert entry["diagnostics"]["cond_a"] == "inf"


def test_assemble_stack_reports_what_each_state_gives_alone(capsys):
    states = ["1,0.3,0,0", "1.2,0.3,-0.2,0.4", "2,-0.5,0.25,0.125"]
    code, out, _ = run_cli(capsys, "assemble", "random-nonsolution",
                           *[f"--at={s}" for s in states])
    assert code == 0
    entries = stdout_json(out)["payload"]["entries"]
    for state, entry in zip(states, entries):
        _, one, _ = run_cli(capsys, "assemble", "random-nonsolution", f"--at={state}")
        assert stdout_json(one)["payload"]["entries"] == [entry]


def test_assemble_report_stats(capsys, monkeypatch):
    # One well-conditioned A and one singular A (both matrices singular at
    # u_1 = v_1 = 0): with QZ working both are solved by it; with QZ failing
    # the first falls back to A^{-1} B and the second stays degenerate.
    argv = ["assemble", "random-nonsolution", "--at", "1.2,0.3,-0.2,0.4",
            "--at", "1,0.3,0,0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = stdout_json(out)
    assert "stats" not in doc["payload"]
    assert doc["stats"] == {"states": 2, "qz": 2, "a_inverse_b": 0,
                            "degenerate_without_qz": 0}

    def broken_qz(dim):
        return (lambda b, a, *args: (np.zeros(dim),) * 3 + (None,) * 3 + (1,)), 1

    monkeypatch.setattr(mt.quasilinear, "_qz_solver", broken_qz)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = stdout_json(out)
    assert doc["stats"] == {"states": 2, "qz": 0, "a_inverse_b": 1,
                            "degenerate_without_qz": 1}
    first, second = doc["payload"]["entries"]
    assert first["diagnostics"]["method"] == "a_inverse_b"
    assert "method" not in second["diagnostics"] and second["class"] == "degenerate"

    code, out, _ = run_cli(capsys, "assemble", "--geodesic", "n=2 a=0,1,1")   # QZ still fails
    assert stdout_json(out)["stats"] == {"states": 0, "qz": 0, "a_inverse_b": 1,
                                         "degenerate_without_qz": 0}


def test_assemble_wrong_state_length(capsys):
    code, _, err = run_cli(capsys, "assemble", "linear-family-periodic",
                           "--at", "1,0.3,0.2")
    assert code == 2
    assert "length" in err


def test_assemble_requires_scenario_or_geodesic(capsys):
    code, _, _ = run_cli(capsys, "assemble")
    assert code == 2


def test_assemble_plot_data(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "assemble", "--geodesic", "n=2 a=0,1,1",
                         "--out", str(tmp_path), "--plot-data")
    assert code == 0
    assert (tmp_path / "spectrum.dat").is_file()
    assert (tmp_path / "assemble.json").is_file()


# ---------------------------------------------------------------------------
# scenario files round-trip through the CLI
# ---------------------------------------------------------------------------


def test_scenario_file_equivalent_to_bundled(tmp_path, capsys):
    scen = tmp_path / "family.json"
    scen.write_text(json.dumps(BUNDLED["linear-family-periodic"]))
    code, out, _ = run_cli(capsys, "verify", str(scen))
    assert code == 0
    _, out_bundled, _ = run_cli(capsys, "verify", "linear-family-periodic")
    doc1, doc2 = stdout_json(out), stdout_json(out_bundled)
    del doc1["timings"], doc2["timings"]
    assert canonical_json(doc1) == canonical_json(doc2)
