"""Seeded input generator for the magtorus benchmark.

Every input is derived from ``--seed``: the same seed writes the same
scenario files and the same argument lists.  The CLI receives only the
generated files and flags.  Three kinds of input are made:

* random trigonometric scenarios of degree N whose conformal factor is
  bounded below by ``c0 - 2 sum |c|`` >= c0 / 2 (far above the 1e-8 floor);
* exact degree-1 families built from y-only profiles Lambda(y), A(y) with
  u_0 = 2 A, for which every residual vanishes and F is conserved;
* ``--at`` state vectors (Lambda, u_0.., v_1..) with Lambda > 0, and
  ``--geodesic`` specifications with a_n = 1.

Run ``python3 perfbench/gen.py --workload verify-grid --seed 1 --out DIR``
to write one workload's inputs and print its manifest.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-grid", "simulate-orbits", "assemble-spectra")


def _canonical_pool(max_mode: int) -> list:
    return [(m, n) for m in range(0, max_mode + 1)
            for n in range(-max_mode, max_mode + 1) if m > 0 or n > 0]


def _trig_spec(rng, *, modes: int, max_mode: int, amplitude: float,
               offset: float = 0.0, y_only: bool = False) -> dict:
    """Trig field spec with `modes` canonical modes of total weight
    sum |c| = amplitude, so the field stays within offset +- 2 * amplitude."""
    pool = ([(0, n) for n in range(1, max_mode + 1)] if y_only
            else _canonical_pool(max_mode))
    picks = rng.choice(len(pool), size=min(modes, len(pool)), replace=False)
    raw = rng.uniform(-1.0, 1.0, size=(len(picks), 2))
    weights = np.hypot(raw[:, 0], raw[:, 1])
    raw *= amplitude / weights.sum()
    coeffs = [{"m": 0, "n": 0, "re": float(offset), "im": 0.0}]
    for (re, im), i in zip(raw, np.sort(picks)):
        m, n = pool[int(i)]
        coeffs.append({"m": m, "n": n, "re": float(re), "im": float(im)})
    return {"type": "trig", "coeffs": coeffs}


def random_scenario(rng, name: str, n: int, grid: int) -> dict:
    """Generic degree-n scenario; Lambda in [1, 3], derived Omega."""
    coefficients = []
    for k in range(n):
        rec = {"k": k, "u": _trig_spec(rng, modes=4, max_mode=2, amplitude=0.15)}
        if k >= 1:
            rec["v"] = _trig_spec(rng, modes=4, max_mode=2, amplitude=0.15)
        coefficients.append(rec)
    return {
        "schema_version": 1, "name": name, "N": n,
        "lambda": _trig_spec(rng, modes=4, max_mode=2, amplitude=0.5, offset=2.0),
        "coefficients": coefficients, "omega": "derive",
        "grid": [grid, grid], "tolerance": 1e-8,
        "checks": ["stationarity", "harmonics", "constraint", "conservation",
                   "certificate"],
    }


def exact_family(rng, name: str, grid: int) -> dict:
    """Degree-1 family from y-only profiles: u_0 = 2 A(y), Omega = -A'(y)."""
    a_profile = _trig_spec(rng, modes=2, max_mode=3, amplitude=0.08, y_only=True)
    u0 = {"type": "trig", "coeffs": [dict(c, re=2.0 * c["re"], im=2.0 * c["im"])
                                     for c in a_profile["coeffs"]]}
    return {
        "schema_version": 1, "name": name, "N": 1,
        "lambda": _trig_spec(rng, modes=2, max_mode=3, amplitude=0.4,
                             offset=2.0, y_only=True),
        "coefficients": [{"k": 0, "u": u0}], "omega": "derive",
        "grid": [grid, grid], "tolerance": 1e-10,
        "checks": ["stationarity", "harmonics", "constraint", "conservation",
                   "certificate"],
    }


def _orbit_requests(rng, count: int, t_end: float, dt: float, atol: float,
                    drift_tol: dict) -> list:
    """`count` orbits, each requested once fixed-step and once adaptive from
    the same initial state, so their end states can be compared."""
    requests = []
    for i in range(count):
        initial = [float(v) for v in rng.uniform(0.0, 2.0 * np.pi, size=3)]
        requests.append({"name": f"o{i}_fixed", "initial": initial,
                         "t_end": t_end, "dt": dt, "observables": ["H", "F"],
                         "drift_tol": dict(drift_tol)})
        requests.append({"name": f"o{i}_adaptive", "initial": initial,
                         "t_end": t_end, "adaptive": atol,
                         "observables": ["H", "F"],
                         "drift_tol": dict(drift_tol)})
    return requests


def _state_vector(rng, n: int) -> list:
    lam = rng.uniform(0.5, 3.0)
    rest = rng.uniform(-1.0, 1.0, size=2 * n - 1)
    return [float(lam)] + [float(v) for v in rest]


def _fmt(values) -> str:
    return ",".join(f"{v:.12g}" for v in values)


# Sizes of one round of each workload.  A round invokes every input once.
VERIFY_GRID = 256
VERIFY_DEGREES = (2, 3, 4)
SIM_GENERIC_DEGREES = (2, 3)
SIM_EXACT_FAMILIES = 2
SIM_ORBITS = 3
ASSEMBLE_STATES = 1000
ASSEMBLE_DEGREES = (1, 2, 3, 4)
GEODESIC_DEGREES = (3, 4)


def _invocation(ident, n, argv, out, expect, work) -> dict:
    return {"id": ident, "N": n, "argv": argv, "out": out,
            "expect": expect, "work": work}


def make_inputs(workload: str, seed: int, root: Path, *,
                grid: int = VERIFY_GRID, states: int = ASSEMBLE_STATES,
                orbit_scale: float = 1.0) -> list:
    """Write one workload's input files under `root` and return its manifest:
    one entry per CLI invocation of a round, with argv, output directory,
    the expected outcome and the amount of work it represents.  The keyword
    sizes exist so that tests can run the same inputs at tiny sizes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {WORKLOADS})")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    root.mkdir(parents=True, exist_ok=True)
    manifest = []

    def scenario_file(data):
        path = root / f"{data['name']}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        return str(path)

    def out_dir(ident):
        return str(root / "out" / ident)

    if workload == "verify-grid":
        specs = [exact_family(rng, "exact-n1", grid)]
        specs += [random_scenario(rng, f"random-n{n}", n, grid)
                  for n in VERIFY_DEGREES]
        for data in specs:
            ident = data["name"]
            exact = ident.startswith("exact")
            manifest.append(_invocation(
                ident, data["N"],
                ["verify", scenario_file(data), "--out", out_dir(ident)],
                out_dir(ident),
                {"kind": "verify", "exit": 0 if exact else 1, "exact": exact,
                 "tolerance": data["tolerance"], "name": ident},
                {"grid_points": grid * grid}))

    elif workload == "simulate-orbits":
        specs = []
        for n in SIM_GENERIC_DEGREES:
            data = random_scenario(rng, f"generic-n{n}", n, 64)
            data["trajectories"] = _orbit_requests(
                rng, SIM_ORBITS, 1.0 * orbit_scale, 2e-3, 1e-9, {})
            specs.append((data, False))
        for i in range(SIM_EXACT_FAMILIES):
            data = exact_family(rng, f"exact-n1-{i}", 64)
            data["trajectories"] = _orbit_requests(
                rng, SIM_ORBITS, 3.0 * orbit_scale, 1e-3, 1e-10, {"F": 1e-7})
            specs.append((data, True))
        for data, exact in specs:
            ident = data["name"]
            manifest.append(_invocation(
                ident, data["N"],
                ["simulate", scenario_file(data), "--out", out_dir(ident),
                 "--plot-data"],
                out_dir(ident),
                {"kind": "simulate", "exit": 0, "exact": exact, "name": ident,
                 "requests": data["trajectories"]},
                {"model_time": sum(r["t_end"] for r in data["trajectories"])}))

    else:  # assemble-spectra
        for n in ASSEMBLE_DEGREES:
            data = random_scenario(rng, f"states-n{n}", n, 64)
            data["checks"] = []
            path = scenario_file(data)
            ident = f"assemble-n{n}"
            argv = ["assemble", path, "--out", out_dir(ident), "--plot-data"]
            for _ in range(states):
                argv += ["--at", _fmt(_state_vector(rng, n))]
            manifest.append(_invocation(
                ident, n, argv, out_dir(ident),
                {"kind": "assemble", "exit": 0, "states": states},
                {"spectra": states}))
        for n in GEODESIC_DEGREES:
            avals = [float(f"{v:.12g}") for v in rng.uniform(-1.0, 1.0, size=n)] + [1.0]
            ident = f"geodesic-n{n}"
            manifest.append(_invocation(
                ident, n,
                ["assemble", "--geodesic", f"n={n} a={_fmt(avals)}",
                 "--out", out_dir(ident), "--plot-data"],
                out_dir(ident),
                {"kind": "geodesic", "exit": 0, "n": n, "a": avals},
                {"spectra": 1}))

    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the inputs")
    args = parser.parse_args(argv)
    manifest = make_inputs(args.workload, args.seed, Path(args.out))
    print(json.dumps([{k: m[k] for k in ("id", "N", "work")} for m in manifest]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
