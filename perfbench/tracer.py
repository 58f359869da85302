"""One round of a workload, run in process through ``magtorus.cli.main``.

``python3 perfbench/tracer.py --src SRC --manifest M --result R --trace 0|1``
imports magtorus from SRC in this fresh interpreter (timing the import),
then calls ``cli.main`` once per manifest entry, in manifest order, with the
entry's argv.  With ``--trace 1`` the layer functions are wrapped first, so
the CLI makes the same calls with the same arguments while every call into
a layer records a span.  The result file holds the exit codes, the wall time
of each invocation and, when traced, the spans.

Spans are kept in memory and written once, at exit.  Calls that happen
thousands of times per invocation (field evaluations, ``flow_rhs``, RK4
steps, ``stacked_residual``) are aggregated per (name, parent span) into a
count, a total and a self time instead of one record each.  Self time is a
call's duration minus the time of the wrapped calls made inside it.

Only the standard library is imported before magtorus, so the import time
includes numpy and scipy as a CLI start does.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter

# Coarse calls: one span per call.  (module, attribute, span name)
SPAN_TARGETS = (
    ("scenarios", "load_scenario", "scenarios.load_scenario"),
    ("scenarios", "build_scenario", "scenarios.build_scenario"),
    ("ansatz", "rescale", "ansatz.rescale"),
    ("ansatz", "omega_rescaled", "ansatz.omega_rescaled"),
    ("ansatz", "residual_stationarity", "ansatz.residual_stationarity"),
    ("ansatz", "stationarity_residual_values", "ansatz.stationarity_residual_values"),
    ("ansatz", "residual_harmonic", "ansatz.residual_harmonic"),
    ("ansatz", "harmonic_residual_values", "ansatz.harmonic_residual_values"),
    ("ansatz", "constraint_residual", "ansatz.constraint_residual"),
    ("ansatz", "conservation_residuals", "ansatz.conservation_residuals"),
    ("ansatz", "conservation_flux_fields", "ansatz.conservation_flux_fields"),
    ("ansatz", "unrescale", "ansatz.unrescale"),
    ("ansatz", "first_integral_observable", "ansatz.first_integral_observable"),
    ("ansatz", "eval_F", "ansatz.eval_F"),
    ("quasilinear", "egorov_certificate", "quasilinear.egorov_certificate"),
    ("quasilinear", "assemble", "quasilinear.assemble"),
    ("quasilinear", "spectrum", "quasilinear.spectrum"),
    ("quasilinear", "geodesic_matrix", "quasilinear.geodesic_matrix"),
    ("flow", "integrate", "flow.integrate"),
    ("flow", "monitor", "flow.monitor"),
    ("flow", "export_csv", "flow.export_csv"),
    ("cli", "run_verify_checks", "cli.run_verify_checks"),
    ("cli", "canonical_json", "cli.canonical_json"),
    ("cli", "_atomic_write", "cli.write"),
)

# Hot calls: aggregated per (name, parent span).
HOT_TARGETS = (
    ("flow", "flow_rhs", "flow.flow_rhs"),
    ("flow", "_rk4_step", "flow.rk4_step"),
    ("quasilinear", "stacked_residual", "quasilinear.stacked_residual"),
)

FIELD_METHODS = ("eval", "d_dx", "d_dy")


def _annotate(name, args, kwargs, result) -> dict:
    """Per-call attributes that the per-layer metrics need."""
    if name == "flow.integrate":
        control = args[3] if len(args) > 3 else kwargs.get("control")
        return {"mode": getattr(control, "mode", "fixed"), "t_end": float(args[2])}
    if name == "flow.export_csv":
        return {"bytes": os.path.getsize(args[1])}
    if name == "cli.canonical_json":
        return {"bytes": len(result.encode())}
    if name == "cli.write":
        return {"bytes": len(args[1].encode())}
    if name == "quasilinear.spectrum":
        return {"method": result.diagnostics.get("method", "qz")}
    return {}


class Tracer:
    """Span recorder.  Each call in progress has a frame [span id, child
    time] on the stack; an aggregated call carries the id of the span it
    runs in, and a span frame appends its name.  A call adds its duration to
    the child time of the frame below it."""

    def __init__(self):
        self.spans = []
        self.aggregates = {}
        self.stack = []
        self.invocation = None
        self.field_depth = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, parent):
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "invocation": self.invocation})
        return sid

    def _close(self, sid, start, end, child, attrs):
        rec = self.spans[sid]
        rec.update(start=start, end=end, self=(end - start) - child)
        if attrs:
            rec["attrs"] = attrs
        if self.stack:
            self.stack[-1][1] += end - start

    def _aggregate(self, key, start, end, child, nodes=0):
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += (end - start) - child
        agg[3] += nodes
        if self.stack:
            self.stack[-1][1] += end - start

    def _parent(self):
        return self.stack[-1][0] if self.stack else None

    @contextlib.contextmanager
    def root(self, invocation, name="cli.main"):
        self.invocation = invocation
        sid = self._open(name, None)
        self.stack.append([sid, 0.0])
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            frame = self.stack.pop()
            self._close(sid, start, end, frame[1], None)
            self.invocation = None

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name, fn):
        tracer = self
        reentrant = name == "cli.canonical_json"   # recursive: outermost only

        def wrapped(*args, **kwargs):
            if reentrant and tracer.stack and tracer.stack[-1][2:] == [name]:
                return fn(*args, **kwargs)
            sid = tracer._open(name, tracer._parent())
            frame = [sid, 0.0, name]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
            tracer._close(sid, start, end, frame[1],
                          _annotate(name, args, kwargs, result))
            return result

        return wrapped

    def hot_wrapper(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [parent, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer._aggregate((name, parent), start, end, frame[1])

        return wrapped

    def field_wrapper(self, kind, fn):
        """Field evaluation: only the outermost call is timed, bucketed by
        point (scalar arguments) or array evaluation; nested evaluations of
        the same expression tree belong to it."""
        tracer = self

        def wrapped(field, x, y):
            if tracer.field_depth:
                tracer.field_depth += 1
                try:
                    return fn(field, x, y)
                finally:
                    tracer.field_depth -= 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [parent, 0.0]
            tracer.stack.append(frame)
            tracer.field_depth = 1
            start = perf_counter()
            try:
                result = fn(field, x, y)
            finally:
                end = perf_counter()
                tracer.field_depth = 0
                tracer.stack.pop()
            size = getattr(result, "size", 1)
            shape = "array" if getattr(result, "ndim", 0) else "point"
            tracer._aggregate((f"fields.{kind}.{shape}", parent), start, end,
                              frame[1], size)
            return result

        return wrapped

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap every target, under every module name that refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for targets, make in ((SPAN_TARGETS, self.span_wrapper),
                              (HOT_TARGETS, self.hot_wrapper)):
            for mod_name, attr, span_name in targets:
                home = sys.modules[f"{package.__name__}.{mod_name}"]
                original = getattr(home, attr, None)
                if original is None:
                    print(f"tracer: {mod_name}.{attr} not found; "
                          f"span {span_name} is not recorded", file=sys.stderr)
                    continue
                wrapped = make(span_name, original)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, original))
        fields = sys.modules[f"{package.__name__}.fields"]
        for cls, kind in ((fields.TrigField, "trig"), (fields.AnalyticField, "derived")):
            for meth in FIELD_METHODS:
                original = cls.__dict__[meth]
                setattr(cls, meth, self.field_wrapper(kind, original))
                self._restore.append((cls, meth, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans,
                "aggregates": [{"name": name, "parent": parent, "count": c,
                                "total": t, "self": s, "nodes": nodes}
                               for (name, parent), (c, t, s, nodes)
                               in self.aggregates.items()]}


def run_round(src: Path, manifest: list, trace: bool) -> dict:
    sys.path.insert(0, str(src))
    start = perf_counter()
    import magtorus
    import magtorus.cli as cli
    import_s = perf_counter() - start
    origin = Path(magtorus.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"magtorus imported from {origin}, not from {src}")

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(magtorus)
    invocations = []
    try:
        with open(os.devnull, "w") as devnull:
            for index, inv in enumerate(manifest):
                scope = tracer.root(index) if tracer else contextlib.nullcontext()
                t0 = perf_counter()
                with contextlib.redirect_stdout(devnull), scope:
                    code = cli.main(list(inv["argv"]))
                invocations.append({"id": inv["id"], "exit": code,
                                    "wall_s": perf_counter() - t0})
    finally:
        if tracer:
            tracer.uninstall()
    result = {"import_s": import_s, "invocations": invocations,
              "total_s": sum(i["wall_s"] for i in invocations)}
    if tracer:
        result.update(tracer.dump())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding magtorus/")
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())
    result = run_round(Path(args.src), manifest, bool(args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
