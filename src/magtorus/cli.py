"""Command-line interface: scenario-driven verification, simulation and
assembly with machine-readable reports.

Exit codes: 0 when every requested check passes, 1 on a check failure (a
certificate withheld because the grid does not resolve a trigonometric mode
of Lambda, a u_k or a v_k, and a residual check whose fields have one,
included) or an aborted integration (at the positivity floor, at a
non-finite state, or at the step floor or budget), 2 on input errors
(malformed JSON, nested too deep to parse included, unknown presets or
scenario names, nonpositive conformal factor, wrong state-vector length, an
``--at`` state whose A or B is not finite in float64, step, tolerance,
trajectory or torus-period values that are not finite and positive, a torus
period whose grid nodes overflow float64, a fixed step or ``t_end`` above
the step or sample budget of ``flow``, a ``drift_tol`` that is NaN or
negative or names no monitored observable, an ansatz degree, ``--geodesic``
degree, grid, trigonometric field table or ``random_trig`` ``modes`` or
``max_mode`` above its limit, a verify whose stationarity or harmonic work
exceeds its budget, a ``--geodesic`` degree below 2 or a grid side below 4,
a trigonometric field whose coefficients, wavenumbers, values or first
partials overflow float64).

One pass rule: a check passes when every sup it judges is below the
tolerance, so a NaN sup fails, and the grid resolves every mode of its
fields (|m| < nx/2, |n| < ny/2; the certificate's fields are its inputs,
conservation's the fields its laws read).  An unresolved check fails,
flagged with its largest |m| and |n| and the grid.  A residual norm,
certificate sup or trajectory drift that is not finite fails its check or
trajectory and is named under the entry's ``non_finite`` key.

Reports are JSON with sorted keys and floats printed to 17 significant
digits, so identical scenarios and flags produce byte-identical payloads;
wall-clock timings and the work counters (``stats``: the grid points, the
blocks they were evaluated in and the field jets evaluated on them, with
each verify check's largest |m| and |n| and whether the grid resolves them;
integration steps and RHS calls; or how the assembled pencils were solved)
live outside the comparison payload.
A simulate ``stats`` entry also says that H is 1/2 by construction on the
angle form, and gives ``rhs_kernel``: the trigonometric terms the system's
compiled point kernel inlines, the node rules it traced into arithmetic,
and the node rules it calls because they could not be traced (affine leaves
are inlined and counted in none).  Trajectories are written as CSV, one
file per trajectory.  ``--plot-data`` additionally emits gnuplot-ready
columnar files, each written one column of the grid at a time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .fields import DomainError, SamplingGrid, bandwidth
from .flow import (atomic_write as _atomic_write, atomic_write_chunks, export_csv, integrate,
                   monitor, write_table)
from .ansatz import (conservation_plan, constraint_plan, first_integral_observable,
                     harmonic_plan, rescale, stationarity_plan, streamed_reports,
                     unresolved_flag, unresolved_inputs)
from .quasilinear import (assemble, certificate_from_reports, geodesic_matrix, spectra,
                          spectrum)
from .scenarios import (MAX_N, Scenario, ScenarioError, bundled_scenario_names,
                        check_verify_work, load_scenario)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


# ---------------------------------------------------------------------------
# Canonical JSON (deterministic: sorted keys, 17-significant-digit floats)
# ---------------------------------------------------------------------------


NON_FINITE_REPORT = "reports must not contain NaN or infinity"


def _fmt_floats(values) -> list:
    """The report form of finite floats: integral values below 1e16 as
    ``.1f``, everything else at 17 significant digits."""
    return [f"{x:.1f}" if -1e16 < x < 1e16 and x.is_integer() else f"{x:.17g}"
            for x in values]


def canonical_json(obj, indent: int = 0) -> str:
    """`obj` as report text at `indent`: dict keys sorted, one member per
    line, floats by `_fmt_floats`, NaN or infinity refused with ValueError.
    Each kind of value has one path.  A list, tuple or other array is
    written member by member; a float64 array of one or more dimensions is
    written as its nested lists would be, in one pass: its values are
    formatted inline into the layout of its shape (`_array_layout`)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(NON_FINITE_REPORT)
        return _fmt_floats([float(obj)])[0]
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
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype == np.float64:
        values = obj.ravel().tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError(NON_FINITE_REPORT)
        return _array_layout(obj.shape, indent) % tuple(_fmt_floats(values))
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        body = (",\n" + inner).join(canonical_json(v, indent + 1) for v in seq)
        return f"[\n{inner}{body}\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


@functools.lru_cache(maxsize=256)
def _array_layout(shape: tuple, indent: int) -> str:
    """The canonical text of nested float lists of `shape` at `indent`, with
    a `%s` slot for each value in row-major order ("[]" on an empty axis)."""
    if not shape[0]:
        return "[]"
    inner = "  " * (indent + 1)
    item = _array_layout(shape[1:], indent + 1) if len(shape) > 1 else "%s"
    body = (",\n" + inner).join([item] * shape[0])
    return f"[\n{inner}{body}\n{'  ' * indent}]"


def _write_report(kind: str, payload: dict, stats: dict, timings: dict, path):
    """Print the `kind` report of `payload`, with its work counters and
    timings outside the payload, and write the same text to `path`, making
    its directory, if a path is given."""
    text = canonical_json({"schema_version": 1, "kind": kind, "payload": payload,
                           "stats": stats, "timings": timings}) + "\n"
    print(text, end="")
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, text)   # positional: perfbench/tracer.py reads the text as args[1]


def _fail_non_finite(entry: dict) -> dict:
    """The check or trajectory entry, failed if a residual norm or a drift is
    not finite: each such number is written as its string ("inf", "nan") and
    named in `non_finite`."""
    named = []
    tables = [(res["label"], res) for res in entry.get("residuals", [])]
    tables.append(("residual_sups", entry.get("residual_sups", {})))
    tables += [(f"drifts {name}", drift) for name, drift in entry.get("drifts", {}).items()]
    for label, norms in tables:
        for key, value in norms.items():
            if isinstance(value, float) and not math.isfinite(value):
                norms[key] = repr(value)
                named.append(f"{label} {key}")
    if named:
        entry.update({"pass": False, "non_finite": named})
    return entry


def _write_grid_dat(path: Path, grid: SamplingGrid, values: np.ndarray):
    """`x y value` rows at 17 significant digits, one block per x node, each
    block followed by a blank line (gnuplot's `splot` grid layout), written
    one block at a time with each x and y formatted once."""
    ys = [f" {y:.17g} " for y in grid.ys.tolist()]

    def columns():
        for x, column in zip(grid.xs.tolist(), values):
            x = f"{x:.17g}"
            yield "".join([f"{x}{y}{value:.17g}\n" for y, value in zip(ys, column.tolist())])
            yield "\n"

    atomic_write_chunks(path, columns())


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@np.errstate(all="ignore")   # a check whose norms are not finite fails
def run_verify_checks(scenario: Scenario, want_grids: bool = False):
    """Run the scenario's requested checks in one pass over the grid's
    blocks (`streamed_reports`): on each block every report the checks need
    samples in turn from the block's one memo, the constraint and
    conservation reports once however many checks read them.  A residual
    check passes when every sup of its reports is below the tolerance, so a
    NaN sup fails it, and the grid resolves the modes of its fields; an
    unresolved check is flagged and fails.  The certificate judges the sups
    of the constraint and conservation reports, and is withheld when the
    grid does not resolve a mode of its inputs (`unresolved_inputs`).

    Returns (payload dict, stats dict, timings dict, residual grids for
    --plot-data).  The stats give the grid's points and blocks, the jets the
    pass evaluated (one per field and block), and per check the `bandwidth`
    of the fields it evaluates and whether the grid resolves it.  A check's
    timing is the sampling time of the reports it is the first to read,
    plus its own."""
    ansatz, omega, grid, tol = (scenario.ansatz, scenario.system.omega,
                                scenario.grid, scenario.tolerance)
    # Residual check -> its (label, plan) pairs.  A block samples them in this
    # order, so conservation's many intermediate nodes have left its memo
    # before stationarity fills it with every coefficient.
    plans = {
        "conservation": lambda: [("conservation", conservation_plan(rescale(ansatz)))],
        "constraint": lambda: [("constraint", constraint_plan(ansatz))],
        "stationarity": lambda: [("stationarity", stationarity_plan(ansatz, omega, want_grids))],
        "harmonics": lambda: [(f"harmonic_{k}", harmonic_plan(ansatz, omega, k, want_grids))
                              for k in range(ansatz.n + 2)],
    }
    reads = {check: (check,) for check in plans}
    reads["certificate"] = ("constraint", "conservation")
    needed = {name for check in scenario.checks for name in reads[check]}
    labelled = [(check, label, plan) for check, make in plans.items() if check in needed
                for label, plan in make()]
    reports, seconds, jets = streamed_reports(grid, [plan for *_, plan in labelled])
    sampled, unpaid = {}, dict.fromkeys(needed, 0.0)   # sampling time not yet in a timing
    for (check, label, _), report, spent in zip(labelled, reports, seconds):
        sampled.setdefault(check, []).append((label, report))
        unpaid[check] += spent
    checks, timings, grids, modes = [], {}, {}, {}
    for check in scenario.checks:
        # the timing starts with the sampling of the reports it is the first to read
        t0 = time.perf_counter() - sum(unpaid.pop(name, 0.0) for name in reads[check])
        if check == "certificate":
            cert = certificate_from_reports(sampled["constraint"][0][1],
                                            sampled["conservation"][0][1], tol,
                                            unresolved_inputs(ansatz, grid))
            # shares residual_sups, which _fail_non_finite may rewrite: the
            # certificate is not read again
            entry = {"check": check, "pass": cert.certified, **cert._asdict()}
            modes[check] = bandwidth(*ansatz.fields())   # the inputs it judges
        else:
            entry = {"check": check, "residuals": [], "periodic": True}
            for label, report in sampled[check]:
                entry["residuals"] += (res._asdict() for res in report.entries)
                entry["periodic"] &= report.periodic
                modes[check] = tuple(map(max, modes.get(check, (0, 0)), report.modes))
                if report.flags is not None:
                    entry.setdefault("flags", []).extend(report.flags)
                if report.values is not None:
                    grids[label] = report.values
            entry["pass"] = all(res["sup"] < tol for res in entry["residuals"])
            m, n = modes[check]
            if not grid.resolves(m, n):   # the node sups alone cannot pass the check
                entry.setdefault("flags", []).append(
                    unresolved_flag(f"its fields reach |m| = {m} and |n| = {n}", grid))
                entry["pass"] = False
        timings[check + "_s"] = time.perf_counter() - t0
        checks.append(_fail_non_finite(entry))

    payload = {
        "name": scenario.name,
        "N": ansatz.n,
        "grid": [scenario.grid.nx, scenario.grid.ny],
        "tolerance": tol,
        "omega_source": scenario.omega_source,
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
    }
    stats = {"grid_points": grid.nx * grid.ny, "blocks": len(grid.spans),
             "largest_block_points": max(stop - start for start, stop in grid.spans),
             "jets": jets,
             "bandwidth": {check: {"max_m": m, "max_n": n, "resolved": grid.resolves(m, n)}
                           for check, (m, n) in modes.items()}}
    return payload, stats, timings, grids


def cmd_verify(args) -> int:
    scenario = _load(args)
    check_verify_work(scenario)
    payload, stats, timings, grids = run_verify_checks(   # grids only for files to write
        scenario, want_grids=bool(args.plot_data and args.out))
    out = Path(args.out) if args.out else None
    _write_report("verify", payload, stats, timings, out and out / f"{scenario.name}_verify.json")
    for label, values in grids.items():   # kept only with --out and --plot-data
        _write_grid_dat(out / f"{scenario.name}_{label}.dat", scenario.grid, values)
    return EXIT_PASS if payload["overall_pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _load(args)
    if not scenario.trajectories:
        print("scenario contains no trajectory requests", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out = Path(args.out or "magtorus_out")
    out.mkdir(parents=True, exist_ok=True)
    quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")   # a non-finite drift fails
    f_obs = quiet()(first_integral_observable(scenario.ansatz))
    results = []
    timings = {}
    work = {}
    for req in scenario.trajectories:
        t0 = time.perf_counter()
        observables = {"F": f_obs} if "F" in req.observables else {}
        traj = integrate(scenario.system, req.initial_state(), req.t_end,
                         req.control, observables)
        timings[req.name + "_s"] = time.perf_counter() - t0
        work[req.name] = dict(_step_stats(traj.stats), H=H_BY_CONSTRUCTION,
                              rhs_kernel=scenario.system.kernel.counts)
        csv_path = out / f"{scenario.name}_{req.name}.csv"
        export_csv(traj, csv_path)
        with quiet():
            stats = monitor(traj)
            if args.plot_data:
                _write_drift_dat(out / f"{scenario.name}_{req.name}_drift.dat", traj)
        drifts = {name: {"initial": s.initial, "max_abs": s.max_abs_drift,
                         "relative": s.relative_drift}
                  for name, s in stats.items()}
        passed = not traj.aborted and all(stats[name].relative_drift <= tol
                                          for name, tol in req.drift_tol.items())
        results.append(_fail_non_finite({
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
        }))
    overall = all(r["pass"] for r in results)
    payload = {"name": scenario.name, "trajectories": results,
               "overall_pass": overall}
    _write_report("simulate", payload, work, timings, out / f"{scenario.name}_simulate.json")
    return EXIT_PASS if overall else EXIT_CHECK_FAILED


#: The stats note on the H column of simulate reports.
H_BY_CONSTRUCTION = "identically 1/2 on the angle form; its drift is 0 by construction"


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
    drifts = [np.abs(traj.monitored[n] - traj.monitored[n][0]).tolist() for n in names]
    write_table(path, zip(traj.t.tolist(), *drifts),
                header="# t " + " ".join(f"|d{n}|" for n in names))


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def _parse_geodesic(text: str):
    """(n, a values, geodesic matrix) of a --geodesic spec; a degree below 2
    or above MAX_N, a count of a values other than n + 1 or a matrix that
    overflows float64 is refused here, naming the flag."""
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
    if n > MAX_N:
        raise ScenarioError(f"--geodesic degree n = {n} exceeds the limit of {MAX_N}")
    if n < 2:
        raise ScenarioError(f"--geodesic degree n = {n} is below 2")
    if len(avals) != n + 1:
        raise ScenarioError(f"--geodesic n={n} needs {n + 1} values a_0..a_{n}, "
                            f"got {len(avals)}")
    if not all(map(math.isfinite, avals)):
        raise ScenarioError(f"--geodesic a values must be finite, got {avals}")
    with np.errstate(over="ignore", invalid="ignore"):
        mat = geodesic_matrix(n, avals)
    if not np.isfinite(mat).all():
        raise ScenarioError(f"--geodesic matrix overflows float64 for a = {avals}")
    return n, avals, mat


def _spectrum_payload(report) -> dict:
    diagnostics = {key: repr(val) if isinstance(val, float) and not math.isfinite(val) else val
                   for key, val in report.diagnostics.items()}
    eigenvalues = report.eigenvalues
    return {
        "eigenvalues": np.stack((eigenvalues.real, eigenvalues.imag), axis=-1),
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
    """The --at states as an (M, 2N) array; the first state that is not
    2N numbers is refused here, and the first non-finite or Lambda <= 0
    state by `assemble`'s `StateVector`."""
    rows = []
    for text in texts:
        try:
            values = [float(tok) for tok in text.split(",")]
        except ValueError:
            raise ScenarioError(f"--at state {text!r} must be numbers separated "
                                "by commas") from None
        if len(values) != 2 * n:
            raise ScenarioError(f"--at state {text!r} has length {len(values)}, "
                                f"not 2N = {2 * n}")
        rows.append(values)
    return np.array(rows)


def _state_entries(texts, points: np.ndarray):
    """Report entries and solve counts of the --at states, assembled and
    solved as one stack.  Each entry's point, A and B are rows of the
    stacked arrays, so the stacks live until the report is written."""
    with np.errstate(all="ignore"):   # a non-finite A or B is refused below
        mats = assemble(points)
    finite = np.isfinite(mats.a).all(axis=(1, 2)) & np.isfinite(mats.b).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"--at state {texts[int(np.argmin(finite))]} gives a "
                          "non-finite A or B (float64 overflow or underflow)")
    reports = spectra(mats)
    entries = [{"point": point, "a": a, "b": b, **_spectrum_payload(report)}
               for point, a, b, report in zip(points, mats.a, mats.b, reports)]
    return entries, _spectra_stats(reports, len(entries))


def cmd_assemble(args) -> int:
    timings = {}
    t0 = time.perf_counter()
    if args.geodesic:
        n, avals, mat = _parse_geodesic(args.geodesic)
        report = spectrum(mat)
        payload = {"geodesic": {"n": n, "a": avals, "matrix": mat,
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
        n = scenario.ansatz.n
        entries, stats = _state_entries(args.at, _parse_states(args.at, n))
        payload = {"name": scenario.name, "N": n, "entries": entries}
    timings["assemble_s"] = time.perf_counter() - t0
    out = Path(args.out) if args.out else None
    _write_report("assemble", payload, stats, timings, out and out / "assemble.json")
    if out and args.plot_data:
        entries = payload.get("entries") or [payload["geodesic"]]
        write_table(out / "spectrum.dat",
                    np.concatenate([entry["eigenvalues"] for entry in entries]).tolist())
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


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


def _add_output(parser):
    parser.add_argument("--out", help="output directory for reports and artifacts")
    parser.add_argument("--plot-data", action="store_true",
                        help="emit gnuplot-ready columnar files (with --out)")


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
    p_verify.add_argument("--grid", help="override the sampling grid, NX,NY")
    p_verify.add_argument("--tol", type=float, help="override the pass tolerance")
    p_verify.add_argument("--seed", type=int, help="override seeds of randomized field specs")
    _add_output(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate trajectories, monitor drifts")
    p_sim.add_argument("scenario")
    step = p_sim.add_mutually_exclusive_group()
    step.add_argument("--dt", type=float, help="fixed integration step")
    step.add_argument("--adaptive", type=float, metavar="ATOL",
                      help="step-doubling tolerance per step")
    p_sim.add_argument("--seed", type=int, help="override seeds of randomized field specs")
    _add_output(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_asm = sub.add_parser("assemble", help="assemble the quasi-linear system "
                                            "and classify its spectrum")
    p_asm.add_argument("scenario", nargs="?")
    p_asm.add_argument("--at", action="append", metavar="U",
                       help="state vector (Lambda,u_0,...,v_1,...), repeatable")
    p_asm.add_argument("--geodesic", metavar="SPEC",
                       help="geodesic coefficient matrix, e.g. 'n=2 a=0,1,1'")
    _add_output(p_asm)
    p_asm.set_defaults(func=cmd_assemble)
    return parser


def _take_trailing_states(argv: list) -> tuple:
    """(argv without its trailing run of --at states, those states in order)
    for an `assemble` argv holding no "--"; otherwise (argv, []).

    argparse scans every option index once per option, so 1000 --at options
    cost it tens of milliseconds; the trailing run is taken here in one
    backward scan.  An `--at=STATE` token counts unless STATE is "--" (which
    argparse drops from a value), and an `--at STATE` pair only when STATE
    does not start with "-" (argparse would read it as an option).
    Everything before the run, abbreviations (--a) and option-like values
    included, is left to argparse, which reads the run's states as it would
    have."""
    if not argv or argv[0] != "assemble" or "--" in argv:
        return argv, []
    states = []
    end = len(argv)
    while end > 1:
        last = argv[end - 1]
        if last.startswith("--at=") and last != "--at=--":
            states.append(last[5:])
            end -= 1
        elif end > 2 and argv[end - 2] == "--at" and not last.startswith("-"):
            states.append(last)
            end -= 2
        else:
            break
    states.reverse()
    return argv[:end], states


def parse_args(argv=None) -> argparse.Namespace:
    """The namespace `build_parser().parse_args(argv)` gives (argv defaults
    to sys.argv[1:]), with the trailing --at states of an assemble argv
    taken off in one pass and appended to `at`."""
    argv = sys.argv[1:] if argv is None else list(argv)
    argv, states = _take_trailing_states(argv)
    args = build_parser().parse_args(argv)
    if states:
        args.at = (args.at or []) + states
    return args


def main(argv=None) -> int:
    """Run the command of `argv` (default sys.argv[1:]) and return its exit
    code.  `argv` is read by `parse_args`, which takes an assemble argv's
    trailing --at states off in one pass; argparse exits with 2 on a
    malformed command line."""
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
