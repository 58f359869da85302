"""Scenario schema validation, the bundled library, CLI exit codes and
machine-readable report contracts."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magtorus as mt
import magtorus.cli
from magtorus.cli import (NON_FINITE_REPORT, build_parser, canonical_json, main,
                          parse_args, run_verify_checks)
from magtorus.scenarios import BUNDLED, ScenarioError
from helpers import circular_closed_form, power_family


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


# Float64 arrays of 1-3 dimensions, zero-length axes among them, over the
# edges of the report float rule and ordinary finite values.
FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=st.one_of(
        st.sampled_from([-0.0, 0.0, 0.5, 1e15, -1e15, 1e16, -1e16, 2.0 ** 53,
                         5e-324, 1.7976931348623157e308]),
        st.floats(allow_nan=False, allow_infinity=False)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(arr=FLOAT_ARRAYS, indent=st.integers(0, 3),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_canonical_json_float_array_is_written_as_its_lists(arr, indent, bad, data):
    assert canonical_json(arr, indent) == canonical_json(arr.tolist(), indent)
    assert canonical_json(arr.T, indent) == canonical_json(arr.T.tolist(), indent)
    if arr.size:
        broken = arr.copy()
        broken.flat[data.draw(st.integers(0, arr.size - 1))] = bad
        with pytest.raises(ValueError, match=re.escape(NON_FINITE_REPORT)):
            canonical_json(broken, indent)


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
    # Counts evaluations, not calls of a kernel: the constraint's sides once
    # per block and the conservation fluxes once, shared by the certificate.
    random_spec = lambda seed, **kw: {"type": "random_trig", "seed": seed, "modes": 4,
                                      "max_mode": 2, "amplitude": 0.2, **kw}
    scenario = mt.build_scenario({
        "N": 3, "lambda": random_spec(1, offset=2.0), "grid": [96, 96],
        "coefficients": [{"k": 0, "u": random_spec(2)},
                         {"k": 1, "u": random_spec(3), "v": random_spec(4)},
                         {"k": 2, "u": random_spec(5), "v": random_spec(6)}],
        "checks": checks})
    assert len(scenario.grid.spans) >= 2
    calls = {"constraint_sides": 0, "conservation_flux_fields": 0}
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
    assert calls == {"constraint_sides": len(scenario.grid.spans), "conservation_flux_fields": 1}


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


def test_affine_lambda_that_dips_below_the_floor_is_refused_at_load(tmp_path):
    # Lambda = 1 - x / (2 pi 63.5 / 64) is positive at every node of the
    # 64x64 check grid but negative near x = 2 pi; its exact infimum on the
    # closed fundamental domain refuses it before any check or orbit runs.
    lam = {"type": "analytic", "name": "affine_x",
           "params": {"offset": 1.0, "slope": -1.0 / (2.0 * math.pi * 63.5 / 64.0)}}
    scen = tmp_path / "affine.json"
    scen.write_text(json.dumps({
        "N": 1, "lambda": lam, "coefficients": [{"k": 0, "u": 0.0}], "omega": 0.0,
        "trajectories": [{"name": "orbit", "initial": [6.2, 0.3, 0.0], "t_end": 1.0}]}))
    for command in ("verify", "simulate"):
        proc = run_python("-m", "magtorus", command, str(scen), timeout=30.0)
        assert proc.returncode == 2, (command, proc.stderr)
        assert "conformal factor" in proc.stderr
        assert "on the closed fundamental domain" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


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


@pytest.mark.parametrize("grid, stats", [
    ("16,20", {"grid_points": 320, "blocks": 1, "largest_block_points": 320}),
    ("130,70", {"grid_points": 9100, "blocks": 2, "largest_block_points": 4556}),
    ("256,256", {"grid_points": 65536, "blocks": 8, "largest_block_points": 8192}),
])
def test_verify_report_stats(capsys, grid, stats):
    code, out, _ = run_cli(capsys, "verify", "flat-zero-field", "--grid", grid)
    assert code == 0
    constant = {"max_m": 0, "max_n": 0, "resolved": True}   # every field is constant
    bandwidth = dict.fromkeys(mt.scenarios.KNOWN_CHECKS, constant)
    jets = 30 * stats["blocks"]   # the one pass reaches 30 distinct fields on each block
    assert stdout_json(out)["stats"] == dict(stats, bandwidth=bandwidth, jets=jets)


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


def test_assemble_does_not_import_scipy_linalg():
    # xGGEV comes from scipy's LAPACK extension, loaded on its own.
    code = ("import sys, contextlib, io\n"
            "from magtorus.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['assemble', 'random-nonsolution', '--at', '1.2,0.3,-0.2,0.4']),\n"
            "             main(['assemble', '--geodesic', 'n=3 a=0.5,1,1,1'])]\n"
            "print(codes, 'scipy.linalg' in sys.modules)")
    proc = run_python("-c", code, timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] False"


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


@pytest.mark.parametrize("name, kernel", [
    # Lambda = 1 (no term); u_0 = -2 y is an affine leaf, inlined; the
    # derived Omega's value rule is traced.
    ("flat-constant-field", {"trig_terms": 0, "traced_nodes": 1, "called_rules": 0}),
    ("linear-family-periodic", {"trig_terms": 2, "traced_nodes": 1, "called_rules": 0}),
])
def test_simulate_stats_describe_the_rhs_kernel(tmp_path, capsys, name, kernel):
    code, out, _ = run_cli(capsys, "simulate", name, "--out", str(tmp_path))
    assert code == 0
    doc = stdout_json(out)
    for entry in doc["stats"].values():
        assert entry["rhs_kernel"] == kernel
        assert entry["H"] == magtorus.cli.H_BY_CONSTRUCTION
    assert "rhs_kernel" not in json.dumps(doc["payload"])


def test_bundled_requests_stay_far_below_the_step_budget():
    for data in BUNDLED.values():
        for rec in data.get("trajectories", []):
            assert rec["t_end"] / rec.get("dt", 1e-3) <= mt.flow.STEP_BUDGET / 100


@pytest.mark.parametrize("argv, message", [
    # t += h stops advancing t: this request used to run forever.
    ({"dt": 1e-20}, "trajectory 'line' dt = 1e-20"),
    (["simulate", "flat-zero-field", "--dt", "1e-7"], "--dt = 1e-07"),
], ids=["scenario-dt", "dt-flag"])
def test_fixed_step_beyond_the_budget_is_refused_at_load(tmp_path, argv, message):
    if isinstance(argv, dict):
        argv = ["simulate", write_orbit_scenario(tmp_path, **argv)]
    proc = run_python("-m", "magtorus", *argv, "--out", str(tmp_path), timeout=30.0)
    assert proc.returncode == 2
    assert message in proc.stderr and "step budget of 1000000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_adaptive_run_beyond_the_budget_aborts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mt.flow, "STEP_BUDGET", 25)
    code, out, _ = run_cli(capsys, "simulate", "flat-constant-field", "--adaptive", "1e-12",
                           "--out", str(tmp_path))
    assert code == 1
    doc = stdout_json(out)
    traj = doc["payload"]["trajectories"][0]
    assert traj["aborted"] and "step budget of 25" in traj["diagnostic"]
    stats = doc["stats"]["circle"]
    assert stats["rk4_steps_accepted"] + stats["rk4_steps_rejected"] == 25


@pytest.mark.parametrize("request_, holds", [
    # Adaptive: the list of sample times alone would not fit in memory.
    ({"adaptive": 1e-8, "t_end": 1e12}, "1e+14"),
    # Fixed: within the step budget, but one step per sample interval, 1e8 in all.
    ({"dt": 1.0, "t_end": 1e6}, "1e+08"),
], ids=["adaptive", "fixed"])
def test_t_end_beyond_the_sample_budget_is_refused_at_load(tmp_path, request_, holds):
    path = write_orbit_scenario(tmp_path, **request_)
    proc = run_python("-m", "magtorus", "simulate", path, "--out", str(tmp_path), timeout=30.0)
    assert proc.returncode == 2
    assert (f"error: trajectory 'line' t_end = {request_['t_end']!r} holds {holds} sample "
            "intervals of 0.01, above the sample budget of 1000000 intervals per "
            "trajectory") in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("change, message", [
    ({"N": None}, "N must be an integer, got None"),
    ({"N": 1.5}, "N must be an integer, got 1.5"),
    ({"N": True}, "N must be an integer, got True"),
    ({"grid": [None, 8]}, "grid entry must be an integer, got None"),
    ({"coefficients": [{"k": 0.5, "u": 1.0}]}, "coefficient index k must be an integer"),
    ({"coefficients": None}, "coefficients must be a list"),
    ({"checks": None}, "checks must be a list"),
    ({"trajectories": None}, "trajectories must be a list"),
    ({"geometry": {"period_x": None}}, "geometry period_x must be a number"),
    ({"trajectories": [{"initial": [0, 0, 0], "t_end": 1.0, "drift_tol": {"F": None}}]},
     "drift_tol 'F' must be a number"),
    ({"trajectories": [{"initial": [0, 0, 0], "t_end": 1.0, "drift_tol": [1e-8]}]},
     "drift_tol must be an object"),
    ({"trajectories": [{"initial": [0, 0, 0], "t_end": 1.0, "observables": None}]},
     "observables must be a list"),
    # A boolean or a numeric string is not a number, nor a field spec.
    ({"tolerance": "1e-3"}, "tolerance must be a number, got '1e-3'"),
    ({"tolerance": True}, "tolerance must be a number, got True"),
    ({"geometry": {"period_x": True}}, "geometry period_x must be a number, got True"),
    ({"trajectories": [{"initial": [0, "0", 0], "t_end": 1.0}]},
     "trajectory 'traj0' initial state must be a number, got '0'"),
    ({"lambda": True}, "lambda: field spec must be a number or an object, got bool"),
], ids=["N-null", "N-fraction", "N-bool", "grid-null", "k-fraction", "coefficients-null",
        "checks-null", "trajectories-null", "period-null", "drift_tol-null",
        "drift_tol-list", "observables-null", "tolerance-string", "tolerance-bool",
        "period-bool", "initial-string", "lambda-bool"])
def test_scenario_values_of_the_wrong_type_name_their_key(tmp_path, capsys, change, message):
    data = dict(json.loads(json.dumps(BUNDLED["flat-zero-field"])), **change)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == 2
    assert message in err


def test_scenario_file_that_is_not_an_object_is_input_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "scenario must be a JSON object" in err


def test_geodesic_matrix_overflow_names_the_flag():
    proc = run_python("-m", "magtorus", "assemble", "--geodesic", "n=3 a=1e308,-1e308,0.5,1",
                      timeout=60.0)
    assert proc.returncode == 2
    assert "--geodesic matrix overflows float64" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec, message", [
    ("n=3 a=1,2", "--geodesic n=3 needs 4 values a_0..a_3, got 2"),
    ("n=1 a=1,1", "--geodesic degree n = 1 is below 2"),
], ids=["value-count", "degree-1"])
def test_geodesic_degree_and_value_count_name_the_flag(spec, message):
    proc = run_python("-m", "magtorus", "assemble", "--geodesic", spec)
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, scenario_grid, message", [
    (["assemble", "--at", "2,abc"], None, "--at state '2,abc' must be numbers"),
    (["assemble", "--at", "2,"], None, "--at state '2,' must be numbers"),
    (["assemble", "--at", "2"], None, "--at state '2' has length 1, not 2N = 2"),
    (["verify", "--grid", "3,3"], None, "--grid 3x3 needs nx, ny >= 4"),
    (["verify"], [3, 3], "grid 3x3 needs nx, ny >= 4"),
], ids=["at-word", "at-empty", "at-length", "grid-flag", "grid-key"])
def test_bad_state_or_grid_names_the_flag_or_key(tmp_path, capsys, argv, scenario_grid,
                                                 message):
    scenario = "flat-zero-field"
    if scenario_grid is not None:
        scenario = str(tmp_path / "small_grid.json")
        Path(scenario).write_text(json.dumps(dict(BUNDLED["flat-zero-field"],
                                                  grid=scenario_grid)))
    code, _, err = run_cli(capsys, argv[0], scenario, *argv[1:])
    assert code == 2
    assert f"error: {message}" in err


@pytest.mark.parametrize("n, values", [(201, 202), (10 ** 9, 3)], ids=["cap+1", "huge"])
def test_geodesic_degree_above_the_cap_is_refused(n, values):
    # QZ work grows about as n^3: a degree of a few thousand would run for minutes.
    spec = f"n={n} a={','.join(['1'] * values)}"
    proc = run_python("-m", "magtorus", "assemble", "--geodesic", spec, timeout=60.0)
    assert proc.returncode == 2
    assert f"error: --geodesic degree n = {n} exceeds the limit of 200" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("where, spec, message", [
    ("u", {"type": "trig", "coeffs": [{"m": 1, "n": 0, "re": None}]},
     "trig coefficient re must be a number, got None"),
    ("u", {"type": "trig", "coeffs": [{"m": 1, "n": 0, "re": 0.1, "im": "x"}]},
     "trig coefficient im must be a number"),
    ("u", {"type": "trig", "coeffs": [{"m": 0.5, "n": 0, "re": 0.1}]},
     "trig coefficient m must be an integer, got 0.5"),
    ("u", {"type": "trig", "coeffs": [{"m": 1, "re": 0.1}]},
     "trig coefficient n must be an integer, got None"),
    ("u", {"type": "trig", "coeffs": None}, "trig coeffs must be a list"),
    ("u", {"type": "trig", "coeffs": [[1, 0, 0.1]]}, "trig coefficient must be an object"),
    ("lambda", {"type": "constant", "value": None},
     "constant field value must be a number, got None"),
    ("lambda", {"type": "constant"}, "constant field value must be a number"),
    ("u", {"type": "random_trig", "seed": 1.5}, "random_trig seed must be an integer"),
    ("u", {"type": "random_trig", "seed": -1}, "random_trig seed must be >= 0"),
    ("u", {"type": "random_trig", "seed": 1, "modes": None},
     "random_trig modes must be an integer, got None"),
    ("u", {"type": "random_trig", "seed": 1, "max_mode": "3"},
     "random_trig max_mode must be an integer"),
    ("u", {"type": "random_trig", "seed": 1, "amplitude": None},
     "random_trig amplitude must be a number, got None"),
    ("u", {"type": "random_trig", "seed": 1, "offset": [0.0]},
     "random_trig offset must be a number"),
    ("u", {"type": "analytic", "name": "affine_y", "params": {"slope": None}},
     "affine_y slope must be a number, got None"),
    ("u", {"type": "analytic", "name": "affine_y", "params": [1.0]},
     "analytic params must be an object"),
    ("u", {"type": "analytic", "name": ["affine_y"]}, "unknown analytic preset ['affine_y']"),
    ("u", {"type": "trig", "coeffs": [{"m": 1, "n": 0, "re": True}]},
     "trig coefficient re must be a number, got True"),
    ("lambda", {"type": "constant", "value": "2"},
     "constant field value must be a number, got '2'"),
    ("u", {"type": "random_trig", "seed": 1, "amplitude": False},
     "random_trig amplitude must be a number, got False"),
    ("u", {"type": "analytic", "name": "affine_y", "params": {"slope": "1"}},
     "affine_y slope must be a number, got '1'"),
    ("u", True, "coefficient k=0 u: field spec must be a number or an object, got bool"),
], ids=["re-null", "im-string", "m-fraction", "n-missing", "coeffs-null", "coeff-list",
        "value-null", "value-missing", "seed-fraction", "seed-negative", "modes-null",
        "max_mode-string", "amplitude-null", "offset-list", "slope-null", "params-list",
        "name-list", "re-bool", "value-string", "amplitude-bool", "slope-string",
        "bare-bool"])
def test_field_spec_values_of_the_wrong_type_name_their_key(tmp_path, where, spec, message):
    data = json.loads(json.dumps(BUNDLED["flat-constant-field"]))
    if where == "lambda":
        data["lambda"] = spec
    else:
        data["coefficients"] = [{"k": 0, "u": spec}]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=30.0)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_residual_fails_its_check(tmp_path):
    # A u_0 mode of size 1e300 overflows the squared sums of the rms norms.
    data = json.loads(json.dumps(BUNDLED["random-nonsolution"]))
    data["grid"] = [16, 16]
    data["coefficients"][0]["u"] = {"type": "trig", "coeffs": [
        {"m": 1, "n": 0, "re": 0.3, "im": 0.1}, {"m": 5, "n": 5, "re": 1e300, "im": 0.0}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=30.0)
    assert proc.returncode == 1
    assert proc.stderr == ""
    checks = {c["check"]: c for c in json.loads(proc.stdout)["payload"]["checks"]}
    conservation = checks["conservation"]
    assert conservation["pass"] is False
    assert conservation["non_finite"] == ["conservation_1 rms", "conservation_2 rms"]
    assert {r["rms"] for r in conservation["residuals"]} == {"inf"}
    assert "harmonic_1_real rms" in checks["harmonics"]["non_finite"]
    assert "non_finite" not in checks["constraint"]


def test_non_finite_certificate_sup_fails_the_certificate():
    entry = {"check": "certificate", "pass": False, "certified": False,
             "residual_sups": {"conservation_1": math.nan, "conservation_2": 1.0,
                               "divergence_rescaled": math.inf}}
    entry = magtorus.cli._fail_non_finite(entry)
    assert entry["residual_sups"] == {"conservation_1": "nan", "conservation_2": 1.0,
                                      "divergence_rescaled": "inf"}
    assert entry["non_finite"] == ["residual_sups conservation_1",
                                   "residual_sups divergence_rescaled"]
    assert entry["pass"] is False


def one_mode_u0(coeffs, **extra) -> dict:
    """An N = 1 scenario on a 16 x 16 grid with Lambda = 1 and u_0 a trig table."""
    return dict({"N": 1, "lambda": 1.0, "grid": [16, 16],
                 "coefficients": [{"k": 0, "u": {"type": "trig", "coeffs": coeffs}}]},
                **extra)


#: One orbit from y = 0 (straight when Omega = 0) that crosses y = pi, where cos(y) = -1.
LINE_THROUGH_Y_PI = {"trajectories": [{"name": "line", "initial": [0.0, 0.0, math.pi / 2],
                                       "t_end": 3.2, "dt": 0.01}]}


def test_nan_conservation_residual_is_not_certified(tmp_path):
    # With u_0 = 2e200 cos(y) the y-derivative of f^2 overflows, and the N = 1
    # flux takes it times (N - 1)/2 = 0: NaN at every node.
    path = tmp_path / "nan-flux.json"
    path.write_text(json.dumps(one_mode_u0([{"m": 0, "n": 1, "re": 1e200}],
                                           checks=["certificate"])))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=30.0)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr == ""
    (check,) = stdout_json(proc.stdout)["payload"]["checks"]
    assert check["certified"] is False and check["pass"] is False
    assert "residual_sups conservation_1" in check["non_finite"]
    assert check["residual_sups"]["conservation_1"] == "nan"


@pytest.mark.parametrize("command, coeffs, extra, message", [
    ("simulate", [{"m": 0, "n": 1, "re": 1e308}], {},
     "trigonometric field values may overflow float64"),
    ("verify", [{"m": 0, "n": 10**400, "re": 1.0}], {},
     "a mode index is too large for float64"),
    ("simulate", [{"m": 1, "n": 0, "re": 1.0}], {"geometry": {"period_x": 1e-310}},
     "trigonometric field x partials may overflow float64"),
    ("simulate", [{"m": 0, "n": 1, "re": 8.5e307}, {"m": 0, "n": 2, "re": 8.5e307}], {},
     "trigonometric field values may overflow float64"),
], ids=["coefficient", "mode-index", "wavenumber", "value-bound"])
def test_trig_table_that_overflows_float64_is_refused_at_load(tmp_path, command, coeffs,
                                                               extra, message):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(one_mode_u0(coeffs, **extra, **LINE_THROUGH_Y_PI)))
    proc = run_python("-m", "magtorus", command, str(path), "--out", str(tmp_path / "out"),
                      timeout=30.0)
    assert proc.returncode == 2
    assert f"error: coefficient k=0 u: {message}" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_non_finite_drift_fails_its_trajectory(tmp_path):
    # F = 1.7e308 cos(y) + 2 cos(phi) is finite, but its drift from y = 0 to
    # y = pi is -3.4e308.
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(one_mode_u0([{"m": 0, "n": 1, "re": 8.5e307}], omega=0.0,
                                           **LINE_THROUGH_Y_PI)))
    proc = run_python("-m", "magtorus", "simulate", str(path), "--out",
                      str(tmp_path / "out"), "--plot-data", timeout=30.0)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    payload = stdout_json(proc.stdout)["payload"]
    (traj,) = payload["trajectories"]
    assert traj["pass"] is False and payload["overall_pass"] is False
    assert traj["non_finite"] == ["drifts F max_abs", "drifts F relative"]
    assert traj["drifts"]["F"]["max_abs"] == "inf"
    assert traj["drifts"]["H"] == {"initial": 0.5, "max_abs": 0.0, "relative": 0.0}


def test_overflowing_first_integral_fails_its_trajectory_quietly(tmp_path):
    # F = 1.7e308 cos(y) (1 + 2 cos(phi)) + 2 cos(2 phi) overflows to inf at
    # y = phi = 0, although every table passes the load bounds.
    u = {"type": "trig", "coeffs": [{"m": 0, "n": 1, "re": 8.5e307}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "N": 2, "lambda": 1.0, "omega": 0.0, "coefficients": [{"k": 0, "u": u},
                                                              {"k": 1, "u": u}],
        "trajectories": [{"name": "line", "initial": [0.0, 0.0, 0.0], "t_end": 3.2,
                          "dt": 0.01}]}))
    proc = run_python("-m", "magtorus", "simulate", str(path), "--out",
                      str(tmp_path / "out"), timeout=30.0)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    (traj,) = stdout_json(proc.stdout)["payload"]["trajectories"]
    assert traj["pass"] is False and traj["drifts"]["F"]["initial"] == "inf"


#: N = 1 with Lambda = 2 + 0.6 cos y, u_0 = 0.4 cos x - 0.2 sin x and a
#: given Omega = 0.5: no first integral, F drifts by 0.33 relative to t = 3.
DRIFTING_F = {"N": 1, "grid": [16, 16], "omega": 0.5,
              "lambda": {"type": "trig", "coeffs": [{"m": 0, "n": 0, "re": 2.0},
                                                    {"m": 0, "n": 1, "re": 0.3}]},
              "coefficients": [{"k": 0, "u": {"type": "trig", "coeffs": [
                  {"m": 1, "n": 0, "re": 0.2, "im": 0.1}]}}]}


def test_drift_tol_that_bounds_nothing_is_refused_at_load(tmp_path):
    # A key naming no monitored observable used to be skipped: exit 0 with
    # F drifting by 0.33 against a bound of 1e-12.
    request = {"name": "orbit", "initial": [0.0, 0.0, 0.0], "t_end": 3.0,
               "drift_tol": {"f": 1e-12}}
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(dict(DRIFTING_F, trajectories=[request])))
    proc = run_python("-m", "magtorus", "simulate", str(path), "--out",
                      str(tmp_path / "out"), timeout=30.0)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == ("error: trajectory 'orbit' drift_tol 'f' names no monitored "
                           "observable (monitored: H, F)\n")
    # A key of an observable that is not requested bounds nothing either,
    # and a NaN or negative bound failed the trajectory whatever its drift.
    for extra, message in (
            ({"observables": ["H"], "drift_tol": {"F": 1e-12}},
             "drift_tol 'F' names no monitored observable (monitored: H)"),
            ({"drift_tol": {"F": math.nan}}, "drift_tol 'F' must be a nonnegative number"),
            ({"drift_tol": {"H": -1.0}}, "drift_tol 'H' must be a nonnegative number")):
        with pytest.raises(ScenarioError, match=re.escape(f"trajectory 'orbit' {message}")):
            mt.build_scenario(dict(DRIFTING_F, trajectories=[dict(request, **extra)]))


def test_orbit_that_leaves_float64_aborts_its_trajectory(tmp_path):
    # u_0 = 1e308 y gives Omega = -5e307: the first RK4 step overflows phi
    # to inf, where math.cos raised a ValueError that ended the command
    # with exit 2 and no report.
    data = json.loads(json.dumps(BUNDLED["flat-constant-field"]))
    data["coefficients"][0]["u"]["params"]["slope"] = 1e308
    data["trajectories"].append(dict(data["trajectories"][0], name="second", t_end=1.0))
    path = tmp_path / "blow-up.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "magtorus", "simulate", str(path), "--out",
                      str(tmp_path / "out"), timeout=30.0)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    trajectories = stdout_json(proc.stdout)["payload"]["trajectories"]
    assert [t["name"] for t in trajectories] == ["circle", "second"]
    for traj in trajectories:
        assert traj["aborted"] is True and traj["pass"] is False
        assert traj["diagnostic"].startswith(
            "non-finite state in the sample interval [0, 0.01] after the sample "
            "[0.0, 0.0, 0.0]"), traj["diagnostic"]
    assert (tmp_path / "out" / "flat-constant-field_simulate.json").is_file()


def peak_rss_kb(*argv):
    """Exit code and peak RSS (KB, from os.wait4) of `python -m magtorus
    *argv`, stdout discarded.  The run is spawned from a bare interpreter:
    a child spawned from the test process would report at least the test
    process's own peak RSS, which the child shares until its exec."""
    launcher = ("import os, sys\n"
                "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],"
                " os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull,"
                " os.O_WRONLY, 0)])\n"
                "_, status, usage = os.wait4(pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mt.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", launcher, "-m", "magtorus", *argv],
                          capture_output=True, text=True, env=env, timeout=120.0)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    code, peak = map(int, proc.stdout.split())
    return code, peak


def random_scenario_file(tmp_path, n):
    """A random degree-n scenario (not a solution) written to tmp_path."""
    spec = lambda seed, **kw: {"type": "random_trig", "seed": seed, "modes": 4,
                               "max_mode": 2, "amplitude": 0.15, **kw}
    path = tmp_path / f"random-n{n}.json"
    path.write_text(json.dumps({
        "N": n, "lambda": spec(1, offset=2.0),
        "coefficients": [{"k": 0, "u": spec(2)}] + [
            {"k": k, "u": spec(2 * k + 1), "v": spec(2 * k + 2)} for k in range(1, n)]}))
    return path


def test_verify_memory_does_not_grow_with_the_grid(tmp_path):
    path = random_scenario_file(tmp_path, 3)
    peaks = {}
    for grid in ("128,128", "512,512"):
        code, peaks[grid] = peak_rss_kb("verify", str(path), "--grid", grid)
        assert code == 1   # not a solution
    assert peaks["512,512"] <= 1.1 * peaks["128,128"], peaks


def test_plot_data_files_are_written_a_column_at_a_time(tmp_path):
    # Only the residual grids themselves (7 of 0.5 MB at N = 4) may add to
    # the peak; the .dat text is never held whole.
    path = random_scenario_file(tmp_path, 4)
    code, plain = peak_rss_kb("verify", str(path), "--grid", "256,256")
    assert code == 1
    code, plotted = peak_rss_kb("verify", str(path), "--grid", "256,256", "--out",
                                str(tmp_path / "out"), "--plot-data")
    assert code == 1
    assert len(list((tmp_path / "out").glob("*.dat"))) == 7
    assert plotted <= 1.15 * plain, (plotted, plain)


def test_plot_data_without_out_keeps_no_residual_grid(tmp_path):
    # Without --out no .dat file is written, so none of the N + 3 = 7
    # residual grids (2 MB each at 512^2) may be built.
    path = random_scenario_file(tmp_path, 4)
    with ThreadPoolExecutor(2) as pool:   # two single-threaded children side by side
        (code, plain), (flagged_code, flagged) = pool.map(
            lambda extra: peak_rss_kb("verify", str(path), "--grid", "512,512", *extra),
            [(), ("--plot-data",)])
    assert code == flagged_code == 1
    assert flagged <= 1.1 * plain, (flagged, plain)


@pytest.mark.parametrize("argv, message", [
    ({"grid": [100000, 100000]}, "grid 100000x100000 exceeds the limit of 4194304"),
    ({"grid": [2048, 2049]}, "grid 2048x2049 exceeds the limit of 4194304"),
    (["--grid", "100000,100000"], "--grid 100000x100000 exceeds the limit of 4194304"),
], ids=["scenario-huge", "scenario-just-above", "flag-huge"])
def test_grid_above_the_cap_is_refused(tmp_path, argv, message):
    if isinstance(argv, dict):
        data = dict(json.loads(json.dumps(BUNDLED["flat-zero-field"])), **argv)
        path = tmp_path / "big-grid.json"
        path.write_text(json.dumps(data))
        argv = ["verify", str(path)]
    else:
        argv = ["verify", "flat-zero-field", *argv]
    proc = run_python("-m", "magtorus", *argv, timeout=30.0)
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr and "(2048x2048)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_grid_cap_is_checked_before_the_grid_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(mt.scenarios, "SamplingGrid",
                        lambda nx, ny, geometry: built.append((nx, ny)))
    data = dict(BUNDLED["flat-zero-field"], grid=[2048, 2048])
    mt.build_scenario(data)
    assert built == [(2048, 2048)]
    with pytest.raises(ScenarioError, match="2049x2048 exceeds the limit"):
        mt.build_scenario(data, grid_override=(2049, 2048))
    with pytest.raises(ScenarioError, match="grid 4194305x1 exceeds the limit"):
        mt.build_scenario(dict(data, grid=[4194305, 1]))
    assert built == [(2048, 2048)]
    assert all(nx * ny <= mt.scenarios.MAX_GRID_POINTS
               for nx, ny in (d.get("grid", [64, 64]) for d in BUNDLED.values()))


def test_degree_above_the_cap_is_refused_promptly(tmp_path):
    path = tmp_path / "huge-n.json"
    path.write_text(json.dumps(dict(BUNDLED["flat-zero-field"], N=1000000)))
    for command in ("verify", "simulate"):
        proc = run_python("-m", "magtorus", command, str(path), timeout=30.0)
        assert proc.returncode == 2
        assert "error: N = 1000000 exceeds the limit of 200" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_degree_cap_is_checked_before_the_zero_fields_are_built(monkeypatch):
    built = []
    zero_field = mt.scenarios.zero_field
    monkeypatch.setattr(mt.scenarios, "zero_field",
                        lambda geometry: built.append(1) or zero_field(geometry))
    mt.build_scenario(dict(BUNDLED["flat-zero-field"], N=mt.scenarios.MAX_N))
    assert len(built) == 1   # one zero for every coefficient left out
    built.clear()
    with pytest.raises(ScenarioError, match="N = 201 exceeds the limit of 200"):
        mt.build_scenario(dict(BUNDLED["flat-zero-field"], N=mt.scenarios.MAX_N + 1))
    assert built == []
    assert all(d["N"] <= mt.scenarios.MAX_N for d in BUNDLED.values())


def test_coefficients_left_out_are_one_zero_field():
    scenario = mt.build_scenario({"N": 4, "lambda": 2.0, "coefficients": [
        {"k": 1, "u": 0.5}, {"k": 2, "v": 0.25}]})
    u, v = scenario.ansatz.u, scenario.ansatz.v
    left_out = {id(f) for f in (u[0], u[2], u[3], v[1], v[3])}
    assert len(left_out) == 1
    assert u[0].coefficients() == {(0, 0): 0j}
    assert left_out.isdisjoint({id(u[1]), id(v[2])})


def y_trig_spec(values, degree):
    """The trig spec of a y-only trigonometric polynomial of `degree` from
    its samples at 2 pi j / M, j < M, by FFT: exact to roundoff when
    M > 2 degree."""
    coeffs = np.fft.rfft(values) / len(values)
    return {"type": "trig", "coeffs": [{"m": 0, "n": j, "re": float(c.real), "im": float(c.imag)}
                                       for j, c in enumerate(coeffs[:degree + 1])]}


@pytest.mark.parametrize("n", [2, 3])
def test_exact_power_family_passes_every_check_through_the_cli(tmp_path, n):
    # F_1^n, F_1 = 2 sqrt(Lambda) cos(phi) + 2 A(y), is an exact degree-n
    # integral of the flow with Omega = -A'.  With Lambda = (c + d cos y)^2,
    # sqrt(Lambda) and so every u_k is a trigonometric polynomial of degree
    # at most n in y, written as a trig table from JSON.
    ys = 2.0 * np.pi * np.arange(16) / 16
    sqrt_lam = 1.5 + 0.3 * np.cos(ys)
    lam = mt.make_trig_field({(0, 0): 1.5 ** 2 + 0.3 ** 2 / 2, (0, 1): 1.5 * 0.3,
                              (0, 2): 0.3 ** 2 / 4})
    ansatz = power_family(n, lam, mt.make_trig_field({(0, 1): -0.05j}))
    u_specs = [y_trig_spec(u.eval(np.zeros_like(ys), ys), n) for u in ansatz.u[:n]]
    path = tmp_path / f"power-n{n}.json"
    path.write_text(json.dumps({
        "name": f"power-n{n}", "N": n, "lambda": y_trig_spec(sqrt_lam ** 2, 2),
        "coefficients": [{"k": k, "u": spec} for k, spec in enumerate(u_specs)],
        "omega": "derive", "grid": [64, 64]}))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=60.0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = stdout_json(proc.stdout)["payload"]
    assert [c["check"] for c in payload["checks"]] == list(mt.scenarios.KNOWN_CHECKS)
    assert all(c["pass"] for c in payload["checks"]) and payload["overall_pass"]
    assert payload["checks"][-1]["certified"] is True


UNRESOLVED_64_FLAG = ("its fields reach |m| = 64 and |n| = 1, which the 64x64 grid does not "
                      "resolve (|m| < 32 and |n| < 32): an error can hide between its nodes")


def assert_unresolved_residual_checks(checks):
    """Stationarity, harmonics and constraint fail on the hidden mode at 64x64,
    each flagged; conservation, whose N = 1 laws do not read u_0, passes
    without the flag."""
    assert [(c["check"], c["pass"]) for c in checks] == [
        ("stationarity", False), ("harmonics", False), ("constraint", False),
        ("conservation", True)]
    assert all(UNRESOLVED_64_FLAG in c["flags"] for c in checks[:3])
    assert checks[3]["flags"] == [mt.ansatz.N1_DEGENERATE_FLAG]
    assert max(res["sup"] for c in checks for res in c["residuals"]) < 1e-10


def test_a_mode_hidden_between_the_nodes_is_not_certified(tmp_path):
    # 0.05 (1 - cos 64x) added to u_0 vanishes with both partials at every
    # node of the default 64x64 grid, so every residual sup there is
    # roundoff although the flow breaks F.  The certificate is withheld and
    # its flag names the input, the mode and the grid; on a 96x96 grid the
    # residuals see the mode as well.
    data = json.loads(json.dumps(BUNDLED["linear-family-periodic"]))
    data["coefficients"][0]["u"]["coeffs"] += [
        {"m": 0, "n": 0, "re": 0.05}, {"m": 64, "n": 0, "re": -0.025},
        {"m": -64, "n": 0, "re": -0.025}]
    path = tmp_path / "hidden-mode.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=60.0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    report = stdout_json(proc.stdout)
    *residual_checks, cert = report["payload"]["checks"]
    assert_unresolved_residual_checks(residual_checks)
    assert max(cert["residual_sups"].values()) < 1e-10
    assert cert["certified"] is False and cert["pass"] is False
    assert ("u_0 has mode (64, 0), which the 64x64 grid does not resolve (|m| < 32 and "
            "|n| < 32): an error can hide between its nodes") in cert["flags"]
    unresolved = {"max_m": 64, "max_n": 1, "resolved": False}
    assert report["stats"]["bandwidth"] == dict(   # conservation's laws read only Lambda
        dict.fromkeys(mt.scenarios.KNOWN_CHECKS, unresolved),
        conservation={"max_m": 0, "max_n": 1, "resolved": True})
    proc = run_python("-m", "magtorus", "verify", str(path), "--grid", "96,96", timeout=60.0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    checks = stdout_json(proc.stdout)["payload"]["checks"]
    assert not any(check["pass"] for check in checks[:2])   # stationarity, harmonics


def test_a_mode_hidden_between_the_nodes_fails_the_residual_checks(tmp_path):
    # Without the certificate, the residual checks themselves refuse a grid
    # that does not resolve their fields.
    data = json.loads(json.dumps(BUNDLED["linear-family-periodic"]))
    data["coefficients"][0]["u"]["coeffs"] += [   # 0.05 (1 - cos 64x) on u_0
        {"m": 0, "n": 0, "re": 0.05}, {"m": 64, "n": 0, "re": -0.025},
        {"m": -64, "n": 0, "re": -0.025}]
    data["checks"] = ["stationarity", "harmonics", "constraint", "conservation"]
    path = tmp_path / "hidden-mode-residuals.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=60.0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = stdout_json(proc.stdout)["payload"]
    assert payload["overall_pass"] is False
    assert_unresolved_residual_checks(payload["checks"])


def square_exact() -> dict:
    """The exact N = 2 scenario F_1^2, F_1 = 2 sqrt(Lambda) cos(phi) + 2 A(y)
    with Lambda = 2 and A = 0.1 sin y.  Expanded, F_1^2 = 2 Lambda + 4 A^2 +
    8 sqrt(Lambda) A cos(phi) + 2 Lambda cos(2 phi), so u_0 = 4.02 -
    0.02 cos 2y, u_1 = 0.4 sqrt(2) sin y and u_2 = Lambda."""
    return {"name": "square-exact", "N": 2, "lambda": {"type": "constant", "value": 2.0},
            "coefficients": [
                {"k": 0, "u": {"type": "trig", "coeffs": [{"m": 0, "n": 0, "re": 4.02},
                                                          {"m": 0, "n": 2, "re": -0.01}]}},
                {"k": 1, "u": {"type": "trig", "coeffs": [
                    {"m": 0, "n": 1, "im": -0.28284271247461906}]}}],
            "omega": "derive", "grid": [64, 64], "tolerance": 1e-10,
            "checks": list(mt.scenarios.KNOWN_CHECKS)}


def square_hidden() -> dict:
    """`square_exact` with 0.05 (1 - cos 64x) on u_1, checked by conservation
    alone: at N = 2 its laws read f_1 = u_1 Lambda^(-1/2)."""
    data = dict(square_exact(), name="square-hidden", checks=["conservation"])
    data["coefficients"][1]["u"]["coeffs"] += [
        {"m": 0, "n": 0, "re": 0.05}, {"m": 64, "n": 0, "re": -0.025},
        {"m": -64, "n": 0, "re": -0.025}]
    return data


def test_the_exact_square_scenario_passes_every_check(tmp_path, capsys):
    path = tmp_path / "square-exact.json"
    path.write_text(json.dumps(square_exact()))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    checks = stdout_json(out)["payload"]["checks"]
    assert [c["check"] for c in checks] == list(mt.scenarios.KNOWN_CHECKS)
    assert all(c["pass"] for c in checks) and checks[-1]["certified"] is True
    sups = [res["sup"] for c in checks[:-1] for res in c["residuals"]]
    assert max(sups + list(checks[-1]["residual_sups"].values())) <= np.finfo(float).eps


def test_a_mode_hidden_from_the_conservation_laws_fails_them(tmp_path, capsys):
    # The hidden mode leaves both conservation sups at roundoff on the
    # default 64x64 grid; the unresolved check fails with the flag.
    path = tmp_path / "square-hidden.json"
    path.write_text(json.dumps(square_hidden()))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=60.0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    [check] = stdout_json(proc.stdout)["payload"]["checks"]
    assert check["check"] == "conservation" and check["pass"] is False
    assert max(res["sup"] for res in check["residuals"]) < 1e-10
    assert check["flags"] == [UNRESOLVED_64_FLAG.replace("|n| = 1", "|n| = 2")]
    # On a 96x96 grid the residuals see the mode as well.
    code, out, _ = run_cli(capsys, "verify", str(path), "--grid", "96,96")
    [check] = stdout_json(out)["payload"]["checks"]
    assert code == 1 and min(res["sup"] for res in check["residuals"]) > 1e-2


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma is three modules that no command needs; np.unique without a
    # return_* argument imports them.
    script = """if True:
        import contextlib, io, json, sys
        from magtorus.cli import main
        seen = []
        for argv in (["verify", "linear-family-periodic"],
                     ["simulate", "linear-family-periodic", "--out", sys.argv[1]],
                     ["assemble", "linear-family-periodic", "--at", "2.0,0.5"],
                     ["assemble", "--geodesic", "n=3 a=0.5,1,1,1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            seen.append([argv[0], code, "numpy.ma" in sys.modules])
        print(json.dumps(seen))"""
    proc = run_python("-c", script, str(tmp_path), timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["verify", 0, False], ["simulate", 0, False],
                                       ["assemble", 0, False], ["assemble", 0, False]]


def test_verify_work_above_the_budget_is_refused_promptly(tmp_path):
    # At this size every check would run for about 2 h; the refusal comes
    # before any residual is evaluated.
    path = tmp_path / "huge-work.json"
    path.write_text(json.dumps(dict(BUNDLED["flat-zero-field"], N=200, grid=[2048, 2048])))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=30.0)
    assert proc.returncode == 2
    assert ("error: verify of N = 200 on the 2048x2048 grid needs (4N + 4) * N * nx * ny "
            "= 6.74e+11 work, above the verify work budget of 1e+09") in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("n, grid, checks, accepted", [
    (4, 2048, None, True),
    (200, 64, None, True),
    (50, 256, None, True),
    (200, 128, None, False),
    (50, 512, None, False),
    (200, 128, ["harmonics"], False),
    (200, 2048, ["constraint", "conservation", "certificate"], True),
])
def test_verify_work_budget(n, grid, checks, accepted):
    data = dict(BUNDLED["flat-zero-field"], N=n, grid=[grid, grid])
    if checks is not None:
        data["checks"] = checks
    scenario = mt.build_scenario(data)
    if accepted:
        mt.scenarios.check_verify_work(scenario)
    else:
        with pytest.raises(ScenarioError, match=rf"verify of N = {n} on the {grid}x{grid} "
                                                 "grid needs .* above the verify work budget"):
            mt.scenarios.check_verify_work(scenario)


def test_trig_table_above_the_cap_is_refused_at_load(tmp_path):
    # 2049 diagonal modes: 2050 x 2050 distinct wavenumbers.  A random_trig
    # spec cannot get there: its modes and max_mode are capped below it.
    data = dict(BUNDLED["flat-zero-field"], coefficients=[
        {"k": 0, "u": {"type": "trig", "coeffs": [
            {"m": m, "n": m, "re": 1e-4} for m in range(1, 2050)]}}])
    path = tmp_path / "huge-table.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=30.0)
    assert proc.returncode == 2
    assert re.search(r"error: coefficient k=0 u: trigonometric field needs a grid table "
                     r"of \d+ x \d+ distinct wavenumbers, above the limit of 4194304 "
                     r"\(2048x2048\) cells", proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr


def test_product_of_wide_trig_fields_is_not_tabulated(tmp_path):
    # f * f of the N = 1 conservation fluxes: as a convolution table it would
    # need far more than MAX_TABLE_CELLS; as a node it is the product rule.
    data = dict(BUNDLED["flat-zero-field"], checks=["conservation"], coefficients=[
        {"k": 0, "u": {"type": "random_trig", "seed": 3, "modes": 700,
                       "max_mode": 1100}}])
    data.pop("trajectories")
    path = tmp_path / "wide-product.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "magtorus", "verify", str(path), timeout=30.0)
    assert proc.returncode == 0, proc.stderr
    (check,) = stdout_json(proc.stdout)["payload"]["checks"]
    assert check["check"] == "conservation" and check["pass"]


@pytest.mark.parametrize("change, message", [
    ({"name": "a/b"}, "name must be a nonempty string"),
    ({"name": "a\\b"}, "name must be a nonempty string"),
    ({"name": "a\0b"}, "name must be a nonempty string"),
    ({"name": ".."}, "name must be a nonempty string"),
    ({"name": "."}, "name must be a nonempty string"),
    ({"name": ""}, "name must be a nonempty string"),
    ({"name": 5}, "name must be a nonempty string"),
    ({"trajectories": [{"name": "../line", "initial": [0, 0, 0], "t_end": 1.0}]},
     "trajectory 0 name must be a nonempty string"),
], ids=["slash", "backslash", "nul", "dotdot", "dot", "empty", "number", "trajectory"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_names_that_cannot_name_files_are_refused_at_load(tmp_path, capsys, change,
                                                          message, command):
    data = dict(json.loads(json.dumps(BUNDLED["flat-zero-field"])), **change)
    path = tmp_path / "named.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, command, str(path), "--out", str(out))
    assert code == 2
    assert f"error: {message}" in err
    assert stdout == "" and not out.exists()   # refused before any check ran


@pytest.mark.parametrize("argv", [
    ["simulate", "flat-zero-field", "--tol", "1e-3"],
    ["simulate", "flat-zero-field", "--grid", "8,8"],
    ["assemble", "random-nonsolution", "--at", "2,0.1,0.2,0.3", "--seed", "1"],
    ["assemble", "random-nonsolution", "--at", "2,0.1,0.2,0.3", "--tol", "1e-3"],
    ["assemble", "random-nonsolution", "--at", "2,0.1,0.2,0.3", "--grid", "8,8"],
])
def test_flags_a_command_does_not_use_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


AT_VALUES = st.sampled_from(["2,0.1", "1.5,-0.2,0.3,0.4", "-1", "-1,2", "-x", "", "0", "--"])
AT_STATES = st.one_of(AT_VALUES.map(lambda v: ["--at", v]),
                      AT_VALUES.map(lambda v: ["--at=" + v]))
TOKENS = st.one_of(
    AT_STATES, st.just(["--at"]), AT_VALUES.map(lambda v: ["--a", v]),
    AT_VALUES.map(lambda v: ["--a=" + v]), AT_VALUES.map(lambda v: [v]),
    st.sampled_from([["--"], ["--out", "D"], ["--out"], ["--plot-data"],
                     ["--geodesic", "n=2 a=0,1,1"], ["--geodesic"], ["--bogus"],
                     ["--bogus=1"], ["circular-magnetic"]]))


def parse_outcome(parse, argv):
    """The namespace without `func`, or the SystemExit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue()
    namespace.pop("func", None)
    return namespace


@settings(derandomize=True, max_examples=200, deadline=None)
@given(head=st.lists(TOKENS, max_size=5), tail=st.lists(AT_STATES, max_size=4))
def test_trailing_at_states_parse_as_argparse_parses_them(head, tail):
    # Any tokens, then a run of --at states of both forms for the one-pass
    # reading to take off (the tokens may end in such a run too).
    argv = ["assemble", *(tok for run in head + tail for tok in run)]
    assert parse_outcome(parse_args, argv) == parse_outcome(build_parser().parse_args, argv)


def test_readme_usage_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("## Command line", 1)[1].split("```")[1]
    documented = {}
    for line in usage.strip().splitlines():
        _, command, *rest = line.split()
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*",
                                                                " ".join(rest)))
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    parsed = {name: {flag for action in sub._actions for flag in action.option_strings
                     if flag.startswith("--") and flag != "--help"}
              for name, sub in commands.items()}
    assert documented == parsed


#: Inputs each refused at load by every command, with the text of the refusal.
LOAD_REFUSALS = {
    "random-trig-huge-max-mode": (
        {"N": 1, "lambda": {"type": "random_trig", "seed": 1, "max_mode": 10**12,
                            "offset": 2.0, "amplitude": 0.01}},
        "lambda: random_trig max_mode = 1000000000000 exceeds the limit of 1000000"),
    "random-trig-many-modes": (
        {"N": 1, "lambda": {"type": "random_trig", "seed": 1, "modes": 10**6,
                            "max_mode": 1000, "offset": 2.0, "amplitude": 1e-4}},
        "lambda: random_trig modes = 1000000 exceeds the limit of 1000"),
    "nested-json": ("[" * 100000, "malformed scenario JSON in"),
    "period-overflows-the-grid": (
        {"N": 1, "lambda": 2.0, "geometry": {"period_x": 1e308, "period_y": 1e308},
         "trajectories": [{"initial": [0.1, 0.2, 0.3], "t_end": 1.0}]},
        "torus period_x = 1e+308 puts the nodes of a 64x64 grid beyond float64"),
}


@pytest.mark.parametrize("name", LOAD_REFUSALS)
def test_input_refused_at_load_by_every_command(tmp_path, name):
    data, message = LOAD_REFUSALS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    with ThreadPoolExecutor(3) as pool:
        procs = list(pool.map(
            lambda command: run_python("-W", "error", "-m", "magtorus", command, str(path),
                                       "--out", str(tmp_path / command), timeout=30.0),
            ["verify", "simulate", "assemble"]))
    for proc in procs:
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert message in proc.stderr and "Traceback" not in proc.stderr
