"""Command-line interface: scenario-driven verification, simulation and
assembly with machine-readable reports.

Exit codes: 0 when every requested check passes, 1 on a check failure or an
aborted integration, 2 on input errors (malformed JSON, unknown presets or
scenario names, nonpositive conformal factor, wrong state-vector length, an
``--at`` state whose A or B is not finite in float64, step, tolerance,
trajectory or torus-period values that are not finite and positive).

Reports are JSON with sorted keys and floats printed to 17 significant
digits, so identical scenarios and flags produce byte-identical payloads;
wall-clock timings and the work counters (``stats``: integration steps and
RHS calls, or how the assembled pencils were solved) live outside the
comparison payload.  Trajectories are written as CSV, one file per
trajectory.  ``--plot-data`` additionally emits gnuplot-ready columnar files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .fields import DomainError, FieldError, SamplingGrid
from .flow import export_csv, integrate, monitor
from .ansatz import (conservation_residuals, constraint_residual,
                     first_integral_observable, rescale, residual_harmonic,
                     residual_stationarity)
from .quasilinear import (StateVector, assemble, certificate_from_reports,
                          geodesic_matrix, spectra, spectrum)
from .scenarios import Scenario, ScenarioError, bundled_scenario_names, load_scenario

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


# ---------------------------------------------------------------------------
# Canonical JSON (deterministic: sorted keys, 17-significant-digit floats)
# ---------------------------------------------------------------------------


NON_FINITE_REPORT = "reports must not contain NaN or infinity"


def _fmt_float(x: float) -> str:
    """The report form of a finite float: integral values below 1e16 as
    ``.1f``, everything else at 17 significant digits."""
    return f"{x:.1f}" if abs(x) < 1e16 and x.is_integer() else f"{x:.17g}"


def canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(NON_FINITE_REPORT)
        return _fmt_float(float(obj))
    # Members are joined from a generator and bracketed in one copy, so a
    # large report is held at most twice while it is written.
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        body = ",\n".join(f'{inner}"{key}": {canonical_json(obj[key], indent + 1)}'
                          for key in sorted(obj))
        return f"{{\n{body}\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(type(v) is float for v in seq):   # plain floats: one check, one join
            if not all(map(math.isfinite, seq)):
                raise ValueError(NON_FINITE_REPORT)
            items = map(_fmt_float, seq)
        else:
            items = (canonical_json(v, indent + 1) for v in seq)
        body = (",\n" + inner).join(items)
        return f"[\n{inner}{body}\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _residual_entries(report) -> list:
    return [{"label": e.label, "sup": e.sup, "rms": e.rms,
             "rel_sup": e.rel_sup, "rel_rms": e.rel_rms}
            for e in report.entries]


def _write_grid_dat(path: Path, grid: SamplingGrid, values: np.ndarray):
    lines = []
    for i in range(grid.nx):
        for j in range(grid.ny):
            lines.append(f"{grid.xs[i]:.17g} {grid.ys[j]:.17g} {values[i, j]:.17g}")
        lines.append("")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify_checks(scenario: Scenario, want_grids: bool = False):
    """Run the scenario's requested residual/certificate checks.  The
    constraint and conservation reports are computed at most once each; the
    certificate judges the same reports.

    Returns (payload dict, timings dict, residual grids for --plot-data)."""
    ansatz = scenario.ansatz
    omega = scenario.omega
    grid = scenario.grid
    tol = scenario.tolerance
    checks = []
    timings = {}
    grids = {}
    constraint = functools.cache(lambda: constraint_residual(ansatz, grid))
    conservation = functools.cache(lambda: conservation_residuals(rescale(ansatz), grid))

    for check in scenario.checks:
        t0 = time.perf_counter()
        if check == "stationarity":
            report = residual_stationarity(ansatz, omega, grid)
            passed = report.max_sup < tol
            if want_grids:
                grids["stationarity"] = report.values
            entry = {"check": check, "pass": passed,
                     "residuals": _residual_entries(report),
                     "periodic": report.periodic}
        elif check == "harmonics":
            residuals = []
            periodic = True
            worst = 0.0
            for k in range(ansatz.n + 2):
                rep = residual_harmonic(ansatz, omega, k, grid)
                residuals.extend(_residual_entries(rep))
                periodic = periodic and rep.periodic
                worst = max(worst, rep.max_sup)
                if want_grids:
                    grids[f"harmonic_{k}"] = rep.values
            entry = {"check": check, "pass": worst < tol,
                     "residuals": residuals, "periodic": periodic}
        elif check == "constraint":
            report = constraint()
            entry = {"check": check, "pass": report.max_sup < tol,
                     "residuals": _residual_entries(report),
                     "periodic": report.periodic}
        elif check == "conservation":
            report = conservation()
            entry = {"check": check, "pass": report.max_sup < tol,
                     "residuals": _residual_entries(report),
                     "periodic": report.periodic, "flags": list(report.flags)}
        elif check == "certificate":
            cert = certificate_from_reports(constraint(), conservation(), tol)
            entry = {"check": check, "pass": cert.certified,
                     "certified": cert.certified, "tolerance": cert.tolerance,
                     "residual_sups": dict(cert.residual_sups),
                     "flags": list(cert.flags)}
        else:  # unreachable: scenario validation rejects unknown checks
            raise ScenarioError(f"unknown check {check!r}")
        timings[check + "_s"] = time.perf_counter() - t0
        checks.append(entry)

    payload = {
        "name": scenario.name,
        "N": scenario.n,
        "grid": [scenario.grid.nx, scenario.grid.ny],
        "tolerance": tol,
        "omega_source": scenario.omega_source,
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
    }
    return payload, timings, grids


def cmd_verify(args) -> int:
    scenario = _load(args)
    payload, timings, grids = run_verify_checks(scenario,
                                                want_grids=args.plot_data)
    report = {"schema_version": 1, "kind": "verify", "payload": payload,
              "timings": timings}
    text = canonical_json(report) + "\n"
    print(text, end="")
    if args.out:
        out = _ensure_out(args.out)
        _atomic_write(out / f"{scenario.name}_verify.json", text)
        if args.plot_data:
            for label, values in grids.items():
                _write_grid_dat(out / f"{scenario.name}_{label}.dat",
                                scenario.grid, values)
    return EXIT_PASS if payload["overall_pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _load(args)
    if not scenario.trajectories:
        print("scenario contains no trajectory requests", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out = _ensure_out(args.out if args.out else "magtorus_out")
    f_obs = first_integral_observable(scenario.ansatz)
    results = []
    timings = {}
    work = {}
    overall = True
    for req in scenario.trajectories:
        t0 = time.perf_counter()
        observables = {"F": f_obs} if "F" in req.observables else {}
        traj = integrate(scenario.system, req.initial_state(), req.t_end,
                         req.control, observables)
        timings[req.name + "_s"] = time.perf_counter() - t0
        work[req.name] = _step_stats(traj.stats)
        stats = monitor(traj)
        csv_path = out / f"{scenario.name}_{req.name}.csv"
        csv_tmp = csv_path.with_name(csv_path.name + ".tmp")
        export_csv(traj, csv_tmp)
        os.replace(csv_tmp, csv_path)
        if args.plot_data:
            _write_drift_dat(out / f"{scenario.name}_{req.name}_drift.dat", traj)
        drifts = {name: {"initial": s.initial, "max_abs": s.max_abs_drift,
                         "relative": s.relative_drift}
                  for name, s in stats.items()}
        passed = not traj.aborted
        for name, tol in req.drift_tol.items():
            if name in stats:
                passed = passed and stats[name].relative_drift <= tol
        overall = overall and passed
        results.append({
            "name": req.name,
            "initial": list(req.initial),
            "t_end": req.t_end,
            "step": {"mode": req.control.mode,
                     "dt": req.control.dt, "atol": req.control.atol},
            "samples": len(traj),
            "aborted": traj.aborted,
            "diagnostic": traj.diagnostic,
            "final": [float(traj.t[-1]), float(traj.x[-1]), float(traj.y[-1]),
                      float(traj.phi[-1])],
            "drifts": drifts,
            "csv": csv_path.name,
            "pass": passed,
        })
    payload = {"name": scenario.name, "trajectories": results,
               "overall_pass": overall}
    report = {"schema_version": 1, "kind": "simulate", "payload": payload,
              "stats": work, "timings": timings}
    text = canonical_json(report) + "\n"
    print(text, end="")
    _atomic_write(out / f"{scenario.name}_simulate.json", text)
    return EXIT_PASS if overall else EXIT_CHECK_FAILED


def _step_stats(stats) -> dict:
    """Integration work of one trajectory; h_min/h_max are null without an
    accepted step."""
    accepted = stats.accepted > 0
    return {"rk4_steps_accepted": stats.accepted, "rk4_steps_rejected": stats.rejected,
            "rhs_calls": stats.rhs_calls,
            "h_min": stats.h_min if accepted else None,
            "h_max": stats.h_max if accepted else None}


def _write_drift_dat(path: Path, traj):
    names = sorted(traj.monitored)
    lines = ["# t " + " ".join(f"|d{n}|" for n in names)]
    for i in range(len(traj)):
        drifts = " ".join(
            f"{abs(traj.monitored[n][i] - traj.monitored[n][0]):.17g}" for n in names)
        lines.append(f"{traj.t[i]:.17g} {drifts}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def _parse_geodesic(text: str):
    values = {}
    for part in text.split():
        key, _, val = part.partition("=")
        if key not in ("n", "a"):
            raise ScenarioError(f"unknown --geodesic key {key!r} (use n=.. a=..)")
        values[key] = val
    if set(values) != {"n", "a"}:
        raise ScenarioError("--geodesic needs 'n=<degree> a=<a_0,...,a_n>'")
    try:
        n, avals = int(values["n"]), [float(tok) for tok in values["a"].split(",")]
    except ValueError:
        raise ScenarioError(f"--geodesic needs an integer n and numbers a, got {text!r}") from None
    if not all(map(math.isfinite, avals)):
        raise ScenarioError(f"--geodesic a values must be finite, got {avals}")
    return n, avals


def _spectrum_payload(report) -> dict:
    diagnostics = {}
    for key, val in report.diagnostics.items():
        if isinstance(val, float) and not math.isfinite(val):
            diagnostics[key] = repr(val)
        elif isinstance(val, (int, float, str)):
            diagnostics[key] = val
    return {
        "eigenvalues": [[ev.real, ev.imag] for ev in report.eigenvalues.tolist()],
        "class": report.classification,
        "diagnostics": diagnostics,
    }


def _spectra_stats(reports, states: int) -> dict:
    """How the pencils were solved: by QZ, by the A^{-1} B fallback, or not
    at all (left degenerate)."""
    fallback = sum(r.diagnostics.get("method") == "a_inverse_b" for r in reports)
    failed = sum("qz_error" in r.diagnostics for r in reports)
    return {"states": states, "qz": len(reports) - failed, "a_inverse_b": fallback,
            "degenerate_without_qz": failed - fallback}


def _parse_states(texts, n: int) -> np.ndarray:
    """The --at states as an (M, 2N) array; the first bad state is refused
    with the message it gets on its own."""
    rows = []
    for text in texts:
        values = [float(tok) for tok in text.split(",")]
        if len(values) != 2 * n:
            raise ScenarioError(f"state vector must have length 2N = {2 * n}, "
                                f"got {len(values)}")
        if not (all(map(math.isfinite, values)) and values[0] > 0.0):
            StateVector(np.asarray(values))   # raises the state's own error
        rows.append(values)
    return np.array(rows)


def _state_entries(texts, points: np.ndarray):
    """Report entries and solve counts of the --at states, assembled and
    solved as one stack; the stacked arrays are freed on return, before the
    report is written."""
    with np.errstate(all="ignore"):   # a non-finite A or B is refused below
        mats = assemble(points)
    finite = np.isfinite(mats.a).all(axis=(1, 2)) & np.isfinite(mats.b).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"--at state {texts[int(np.argmin(finite))]} gives a "
                          "non-finite A or B (float64 overflow or underflow)")
    reports = spectra(mats)
    entries = [{"point": point, "a": a, "b": b, **_spectrum_payload(report)}
               for point, a, b, report in zip(points.tolist(), mats.a.tolist(),
                                              mats.b.tolist(), reports)]
    return entries, _spectra_stats(reports, len(entries))


def cmd_assemble(args) -> int:
    timings = {}
    t0 = time.perf_counter()
    if args.geodesic:
        n, avals = _parse_geodesic(args.geodesic)
        mat = geodesic_matrix(n, avals)
        report = spectrum(mat)
        payload = {"geodesic": {"n": n, "a": avals, "matrix": mat.tolist(),
                                **_spectrum_payload(report)}}
        stats = _spectra_stats([report], 0)
    else:
        if not args.scenario:
            print("assemble needs a scenario (or --geodesic)", file=sys.stderr)
            return EXIT_INPUT_ERROR
        scenario = _load(args)
        if not args.at:
            print("assemble needs at least one --at U-vector", file=sys.stderr)
            return EXIT_INPUT_ERROR
        entries, stats = _state_entries(args.at, _parse_states(args.at, scenario.n))
        payload = {"name": scenario.name, "N": scenario.n, "entries": entries}
    timings["assemble_s"] = time.perf_counter() - t0
    report_doc = {"schema_version": 1, "kind": "assemble", "payload": payload,
                  "stats": stats, "timings": timings}
    text = canonical_json(report_doc) + "\n"
    print(text, end="")
    if args.out:
        out = _ensure_out(args.out)
        _atomic_write(out / "assemble.json", text)
        if args.plot_data:
            lines = []
            entries = payload.get("entries") or [payload["geodesic"]]
            for entry in entries:
                for re_part, im_part in entry["eigenvalues"]:
                    lines.append(f"{re_part:.17g} {im_part:.17g}")
            _atomic_write(out / "spectrum.dat", "\n".join(lines) + "\n")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _ensure_out(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> Scenario:
    grid_override = None
    if getattr(args, "grid", None):
        try:
            nx, ny = map(int, args.grid.split(","))
        except ValueError:
            raise ScenarioError(f"--grid expects two integers NX,NY, got {args.grid!r}") from None
        grid_override = (nx, ny)
    return load_scenario(
        args.scenario,
        seed=getattr(args, "seed", None),
        grid_override=grid_override,
        tol_override=getattr(args, "tol", None),
        dt_override=getattr(args, "dt", None),
        adaptive_override=getattr(args, "adaptive", None))


def _add_common(parser):
    parser.add_argument("--grid", help="override the sampling grid, NX,NY")
    parser.add_argument("--tol", type=float, help="override the pass tolerance")
    parser.add_argument("--out", help="output directory for reports and artifacts")
    parser.add_argument("--plot-data", action="store_true",
                        help="emit gnuplot-ready columnar files (with --out)")
    parser.add_argument("--seed", type=int,
                        help="override seeds of randomized field specs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magtorus",
        description="Verification and simulation of magnetic geodesic flows "
                    "on a flat 2-torus with trigonometric first integrals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run residual/certificate checks")
    p_verify.add_argument("scenario",
                          help="bundled scenario name or JSON file "
                               f"(bundled: {', '.join(bundled_scenario_names())})")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate trajectories, monitor drifts")
    p_sim.add_argument("scenario")
    step = p_sim.add_mutually_exclusive_group()
    step.add_argument("--dt", type=float, help="fixed integration step")
    step.add_argument("--adaptive", type=float, metavar="ATOL",
                      help="step-doubling tolerance per step")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_asm = sub.add_parser("assemble", help="assemble the quasi-linear system "
                                            "and classify its spectrum")
    p_asm.add_argument("scenario", nargs="?")
    p_asm.add_argument("--at", action="append", metavar="U",
                       help="state vector (Lambda,u_0,...,v_1,...), repeatable")
    p_asm.add_argument("--geodesic", metavar="SPEC",
                       help="geodesic coefficient matrix, e.g. 'n=2 a=0,1,1'")
    _add_common(p_asm)
    p_asm.set_defaults(func=cmd_assemble)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, FieldError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
