"""Per-layer metrics computed from the spans of one traced round.

Each entry of `LAYERS` names a metric, the degrees it is split by (a
``.n<N>`` suffix per degree, since every workload mixes degrees), and the
end-to-end metric and workload it should move.  Metrics of layers that a
workload does not run read 0 there; that is the "stays flat" prediction.
"""

from __future__ import annotations

from collections import defaultdict

ALL_DEGREES = (1, 2, 3, 4)
ORBIT_DEGREES = (1, 2, 3)

# (metric, degrees or None, end-to-end metric it should move, workload)
LAYERS = (
    ("fields.grid_eval_s", ALL_DEGREES, "grid_points_per_s, peak_rss_mb", "verify-grid"),
    ("fields.derived_grid_eval_s", ALL_DEGREES, "grid_points_per_s, peak_rss_mb", "verify-grid"),
    ("fields.grid_points", ALL_DEGREES, "grid_points_per_s", "verify-grid"),
    ("ansatz.rescale_s", ALL_DEGREES, "grid_points_per_s", "verify-grid"),
    ("ansatz.stationarity_s", ALL_DEGREES, "grid_points_per_s", "verify-grid"),
    ("ansatz.harmonics_s", ALL_DEGREES, "grid_points_per_s", "verify-grid"),
    ("ansatz.constraint_s", ALL_DEGREES, "grid_points_per_s", "verify-grid"),
    ("ansatz.conservation_s", ALL_DEGREES, "grid_points_per_s", "verify-grid"),
    ("quasilinear.certificate_s", ALL_DEGREES, "grid_points_per_s", "verify-grid"),
    ("fields.point_eval_us", ORBIT_DEGREES, "orbit_time_per_s", "simulate-orbits"),
    ("flow.rhs_us", ORBIT_DEGREES, "orbit_time_per_s", "simulate-orbits"),
    ("flow.integrate_fixed_s", ORBIT_DEGREES, "orbit_time_per_s", "simulate-orbits"),
    ("flow.integrate_adaptive_s", ORBIT_DEGREES, "orbit_time_per_s", "simulate-orbits"),
    ("flow.rk4_steps", ORBIT_DEGREES, "orbit_time_per_s", "simulate-orbits"),
    ("flow.rhs_calls", ORBIT_DEGREES, "orbit_time_per_s", "simulate-orbits"),
    ("flow.rhs_calls_per_time", ORBIT_DEGREES, "orbit_time_per_s", "simulate-orbits"),
    ("ansatz.eval_F_s", None, "cli_wall_s", "simulate-orbits"),
    ("flow.monitor_s", None, "cli_wall_s", "simulate-orbits"),
    ("flow.export_csv_s", None, "cli_wall_s", "simulate-orbits"),
    ("flow.csv_bytes", None, "cli_wall_s", "simulate-orbits"),
    ("quasilinear.assemble_us", ALL_DEGREES, "spectra_per_s", "assemble-spectra"),
    ("quasilinear.spectrum_us", ALL_DEGREES, "spectra_per_s", "assemble-spectra"),
    ("quasilinear.geodesic_us", None, "spectra_per_s", "assemble-spectra"),
    ("quasilinear.qz_fallback_ratio", None, "spectra_per_s", "assemble-spectra"),
    ("cli.canonical_json_s", None, "cli_wall_s", "assemble-spectra"),
    ("cli.report_bytes", None, "cli_wall_s", "assemble-spectra"),
    ("cli.write_s", None, "cli_wall_s", "assemble-spectra"),
    ("cli.import_s", None, "setup_s", "every workload"),
    ("scenarios.load_s", None, "setup_s", "every workload"),
    ("fields.self_s", None, "cli_wall_s", "every workload"),
    ("flow.self_s", None, "cli_wall_s", "simulate-orbits"),
    ("ansatz.self_s", None, "cli_wall_s", "verify-grid"),
    ("quasilinear.self_s", None, "cli_wall_s", "verify-grid, assemble-spectra"),
    ("scenarios.self_s", None, "setup_s", "every workload"),
    ("cli.self_s", None, "cli_wall_s", "assemble-spectra"),
    ("trace.overhead_s", None, "none (cost of tracing)", "every workload"),
    ("trace.overhead_ratio", None, "none (cost of tracing)", "every workload"),
)

def metric_names() -> list:
    names = []
    for base, degrees, _, _ in LAYERS:
        names += [f"{base}.n{n}" for n in degrees] if degrees else [base]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: dict, manifest: list) -> dict:
    """Per-layer metrics of one traced round (without the tracing overhead,
    which needs an untraced round to compare with)."""
    spans = {s["id"]: s for s in result["spans"]}
    degree = [inv["N"] for inv in manifest]
    kind = [inv["expect"]["kind"] for inv in manifest]
    m = defaultdict(float)
    sums = defaultdict(float)   # numerators and denominators of means

    def under_certificate(span):
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] == "quasilinear.egorov_certificate":
                return True
            parent = spans[parent]["parent"]
        return False

    simple = {"ansatz.rescale": "ansatz.rescale_s.n{}",
              "ansatz.residual_stationarity": "ansatz.stationarity_s.n{}",
              "ansatz.residual_harmonic": "ansatz.harmonics_s.n{}",
              "quasilinear.egorov_certificate": "quasilinear.certificate_s.n{}",
              "ansatz.eval_F": "ansatz.eval_F_s",
              "flow.monitor": "flow.monitor_s",
              "flow.export_csv": "flow.export_csv_s",
              "cli.canonical_json": "cli.canonical_json_s",
              "cli.write": "cli.write_s",
              "scenarios.load_scenario": "scenarios.load_s"}
    for s in result["spans"]:
        name, n, k = s["name"], degree[s["invocation"]], kind[s["invocation"]]
        dur = s["end"] - s["start"]
        attrs = s.get("attrs", {})
        m[f"{name.split('.')[0]}.self_s"] += s["self"]
        if name in simple:
            m[simple[name].format(n)] += dur
        elif name in ("ansatz.constraint_residual", "ansatz.conservation_residuals"):
            if not under_certificate(s):
                short = "constraint" if "constraint" in name else "conservation"
                m[f"ansatz.{short}_s.n{n}"] += dur
        elif name == "flow.integrate":
            m[f"flow.integrate_{attrs['mode']}_s.n{n}"] += dur
            sums[f"model_time.n{n}"] += attrs["t_end"]
        elif name == "quasilinear.assemble" and k == "assemble":
            sums[f"assemble_s.n{n}"] += dur
            sums[f"assemble_calls.n{n}"] += 1
        elif name == "quasilinear.spectrum":
            sums["spectra"] += 1
            sums["fallbacks"] += attrs["method"] == "a_inverse_b"
            if k == "assemble":
                sums[f"spectrum_s.n{n}"] += dur
                sums[f"spectrum_calls.n{n}"] += 1
            else:
                sums["geodesic_s"] += dur
        elif name == "quasilinear.geodesic_matrix":
            sums["geodesic_s"] += dur
            sums["geodesic_calls"] += 1
        if name == "flow.export_csv":
            m["flow.csv_bytes"] += attrs["bytes"]
        if name == "cli.canonical_json":
            m["cli.report_bytes"] += attrs["bytes"]

    for agg in result["aggregates"]:
        name = agg["name"]
        n = degree[spans[agg["parent"]]["invocation"]]
        m[f"{name.split('.')[0]}.self_s"] += agg["self"]
        if name == "fields.trig.array":
            m[f"fields.grid_eval_s.n{n}"] += agg["total"]
            m[f"fields.grid_points.n{n}"] += agg["nodes"]
        elif name == "fields.derived.array":
            m[f"fields.derived_grid_eval_s.n{n}"] += agg["total"]
            m[f"fields.grid_points.n{n}"] += agg["nodes"]
        elif name.startswith("fields.") and name.endswith(".point"):
            sums[f"point_s.n{n}"] += agg["total"]
            sums[f"point_calls.n{n}"] += agg["count"]
        elif name == "flow.flow_rhs":
            sums[f"rhs_s.n{n}"] += agg["total"]
            m[f"flow.rhs_calls.n{n}"] += agg["count"]
        elif name == "flow.rk4_step":
            m[f"flow.rk4_steps.n{n}"] += agg["count"]

    for n in ALL_DEGREES:
        m[f"fields.point_eval_us.n{n}"] = 1e6 * _ratio(sums[f"point_s.n{n}"],
                                                      sums[f"point_calls.n{n}"])
        m[f"flow.rhs_us.n{n}"] = 1e6 * _ratio(sums[f"rhs_s.n{n}"],
                                             m[f"flow.rhs_calls.n{n}"])
        m[f"flow.rhs_calls_per_time.n{n}"] = _ratio(m[f"flow.rhs_calls.n{n}"],
                                                    sums[f"model_time.n{n}"])
        m[f"quasilinear.assemble_us.n{n}"] = 1e6 * _ratio(
            sums[f"assemble_s.n{n}"], sums[f"assemble_calls.n{n}"])
        m[f"quasilinear.spectrum_us.n{n}"] = 1e6 * _ratio(
            sums[f"spectrum_s.n{n}"], sums[f"spectrum_calls.n{n}"])
    m["quasilinear.geodesic_us"] = 1e6 * _ratio(sums["geodesic_s"], sums["geodesic_calls"])
    m["quasilinear.qz_fallback_ratio"] = _ratio(sums["fallbacks"], sums["spectra"])
    m["cli.import_s"] = result["import_s"]

    names = metric_names()
    return {name: float(m[name]) for name in names if not name.startswith("trace.")}


def self_time_table(result: dict) -> list:
    """(name, calls, total_s, self_s) per span or aggregate name, by self time."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in result["spans"]:
        row = table[s["name"]]
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += s["self"]
    for agg in result["aggregates"]:
        row = table[agg["name"]]
        row[0] += agg["count"]
        row[1] += agg["total"]
        row[2] += agg["self"]
    return sorted(((name, c, t, s) for name, (c, t, s) in table.items()),
                  key=lambda r: -r[3])
