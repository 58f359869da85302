"""The CLI runs whose outputs `tests/golden/digests.json` pins, and how their
outputs are digested.

Each run is one in-process `magtorus` invocation with its own output
directory.  Its record is the exit code, the SHA-256 of every file it wrote
(a report without its `stats` and `timings` members, every CSV and `.dat`
file as written) and, for simulate runs, the `rhs_kernel` counts of each
trajectory.  The runs are the four bundled scenarios with their documented
flags and the seed-1 inputs of the three benchmark workloads, written by
`perfbench/gen.py`.

Bits can differ across CPUs, libm and numpy builds, so the record comes with
a platform fingerprint; on another platform `tests/test_golden.py` compares
numbers at the benchmark's tolerances instead.  Rewrite the record with
``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from magtorus.cli import main
from magtorus.scenarios import BUNDLED

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402  (read-only: the benchmark's output checks)
import gen  # noqa: E402  (read-only: the benchmark's input generator)

BENCHMARK_SEED = 1

#: Top-level report members left out of a report's digest: wall-clock times
#: and work counters, which are not part of the byte-identical payload.
UNPINNED_MEMBERS = ("stats", "timings")


def bundled_runs() -> dict:
    """run id -> argv (without --out) over the bundled scenarios."""
    runs = {}
    for name in sorted(BUNDLED):
        runs[f"bundled/verify/{name}"] = ["verify", name, "--plot-data"]
        if BUNDLED[name].get("trajectories"):
            for label, flags in (("default", []), ("dt", ["--dt", "0.01"]),
                                 ("adaptive", ["--adaptive", "1e-10"])):
                runs[f"bundled/simulate-{label}/{name}"] = (
                    ["simulate", name, "--plot-data"] + flags)
        state = ["2.0", "0.5"] if BUNDLED[name]["N"] == 1 else ["2.0", "0.1", "0.2", "0.3"]
        runs[f"bundled/assemble-at/{name}"] = [
            "assemble", name, "--plot-data", "--at", ",".join(state),
            "--at", ",".join(state[:1] + ["-0.25"] * (len(state) - 1))]
    runs["bundled/assemble-geodesic/n2"] = ["assemble", "--geodesic", "n=2 a=0,1,1",
                                            "--plot-data"]
    runs["bundled/assemble-geodesic/n3"] = ["assemble", "--geodesic", "n=3 a=0.5,1,1,1",
                                            "--plot-data"]
    return runs


def benchmark_runs(root: Path) -> dict:
    """run id -> (workload, manifest entry) of the seed-1 benchmark inputs,
    written under `root`."""
    runs = {}
    for workload in gen.WORKLOADS:
        for inv in gen.make_inputs(workload, BENCHMARK_SEED, root / workload):
            runs[f"{workload}/{inv['id']}"] = (workload, inv)
    return runs


def report_digest_text(text: str) -> str:
    """The report text up to its first unpinned member.  Reports are
    canonical JSON with sorted keys, so `stats` and `timings` come last."""
    ends = [text.find(f'\n  "{key}": ') for key in UNPINNED_MEMBERS]
    ends = [i for i in ends if i >= 0]
    return text[:min(ends)] if ends else text


def digest_outputs(out: Path) -> dict:
    """file name -> SHA-256 of every file a run wrote."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = report_digest_text(data.decode()).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def reports(out: Path) -> dict:
    """file name -> parsed report of every report a run wrote."""
    return {p.name: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}


def record(code: int, out: Path) -> dict:
    """What a run leaves: exit code, file digests and kernel counts."""
    entry = {"exit": code, "files": digest_outputs(out)}
    kernels = {}
    for report in reports(out).values():
        if report.get("kind") == "simulate":
            for name, stats in sorted(report["stats"].items()):
                kernels[name] = stats["rhs_kernel"]
    if kernels:
        entry["rhs_kernel"] = kernels
    return entry


def record_changes(want: dict, got: dict) -> list:
    """What differs from the records `want` to the records `got` (run id ->
    record): each run added or removed, each file added, removed or with
    another digest, and each change of exit code or `rhs_kernel` counts."""
    changes = [f"{ident}: run {'added' if ident in got else 'removed'}"
               for ident in sorted(set(want) ^ set(got))]
    for ident in sorted(set(want) & set(got)):
        old, new = want[ident], got[ident]
        changes += [f"{ident}: {name}"
                    for name in sorted(set(old["files"]) | set(new["files"]))
                    if old["files"].get(name) != new["files"].get(name)]
        if {**old, "files": None} != {**new, "files": None}:
            changes.append(f"{ident}: exit {old['exit']} -> {new['exit']}, rhs_kernel "
                           f"{old.get('rhs_kernel')} -> {new.get('rhs_kernel')}")
    return changes


def run_all(root: Path):
    """Run every golden run under `root`.  Returns (records by run id,
    bundled payloads by run id, benchmark (workload, manifest entry) by run
    id)."""
    records, payloads = {}, {}
    for ident, argv in bundled_runs().items():
        out = root / "bundled-out" / ident
        records[ident] = record(run_cli(argv + ["--out", str(out)]), out)
        payloads[ident] = {name: report["payload"] for name, report in reports(out).items()}
    bench = benchmark_runs(root / "benchmark")
    for ident, (_, inv) in bench.items():
        records[ident] = record(run_cli(inv["argv"]), Path(inv["out"]))
    return records, payloads, bench


def fingerprint() -> dict:
    """What the bits of the outputs may depend on besides the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(),
            "libc": " ".join(platform.libc_ver()),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "numpy_cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}
