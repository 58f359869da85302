"""magtorus benchmark: end-to-end CLI runs, output checks and a traced run.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the real CLI (``python3 -m magtorus``) runs in a fresh
subprocess per invocation, one at a time in a closed loop with a single
client, in whole rounds (every input of the workload once per round) until
``--seconds`` have passed.  Every output is checked.  Set-up time is the
median over fresh interpreters, two before each round, that import magtorus
and load the workload's scenarios.  The last line of standard output is one JSON object
with the end-to-end metrics of BENCHMARK.json.

With ``--trace 1`` the same rounds run in process (perfbench/tracer.py):
untraced and traced rounds alternate until ``--seconds`` have passed, and
the last line carries the per-layer metrics of BENCHMARK.json, computed from
the spans, with the tracing overhead (traced minus untraced round time).

Inputs come from ``--seed`` (perfbench/gen.py).  Work files go to
``.perfbench_work/`` at the root of the checkout.  The benchmark builds
nothing: magtorus is imported from ``src/`` of the checkout, and the run
exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import gen
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

# Seed whose residual norms and eigenvalues are recorded in reference.json.
DEFAULT_SEED = 1
SETUP_PER_ROUND = 2
INVOCATION_TIMEOUT_S = 60.0
ROUND_TIMEOUT_S = 150.0
# Every child is stopped in time for the whole run to end within 180 s.
RUN_LIMIT_S = 170.0

# BLAS runs single-threaded so that the CLI uses one core and the harness
# the other.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# Unit of work per workload: (manifest work key, what work_per_s means there).
WORK_UNITS = {
    "verify-grid": ("grid_points", "grid_points_per_s"),
    "simulate-orbits": ("model_time", "orbit_time_per_s"),
    "assemble-spectra": ("spectra", "spectra_per_s"),
}

SETUP_CODE = (
    "import sys\n"
    "import magtorus\n"
    "from magtorus.scenarios import load_scenario\n"
    "for path in sys.argv[2:]:\n"
    "    load_scenario(path)\n"
    "if sys.argv[1] == 'origin':\n"
    "    print(magtorus.__file__)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(cmd, env, timeout, stdout=subprocess.DEVNULL, stderr=None):
    """Run `cmd` to completion; returns (wall_s, exit code, max RSS in KiB,
    timed_out).  The resource usage comes from os.wait4 on this child."""
    fired = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)

    def kill():
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, fired.is_set()


def timeout_until(deadline: float, cap: float) -> float:
    return max(1.0, min(cap, deadline - time.perf_counter()))


def scenario_files(manifest) -> list:
    return [inv["argv"][1] for inv in manifest if inv["expect"]["kind"] != "geodesic"]


def check_origin(files, env, deadline):
    """Start one untimed interpreter: it writes bytecode caches and reports
    where magtorus is imported from, which must be this checkout."""
    origin = subprocess.run([sys.executable, "-c", SETUP_CODE, "origin", *files],
                            env=env, cwd=ROOT, capture_output=True, text=True,
                            timeout=timeout_until(deadline, INVOCATION_TIMEOUT_S))
    if origin.returncode != 0:
        raise RuntimeError(f"set-up failed: {origin.stderr.strip()[-400:]}")
    where = Path(origin.stdout.strip()).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"magtorus imported from {where}, not from {SRC}")


def time_setup(files, env, err, deadline) -> float:
    """Wall time of a fresh interpreter importing magtorus and loading the
    workload's scenarios."""
    wall, code, _, timed_out = spawn([sys.executable, "-c", SETUP_CODE, "time", *files],
                                     env, timeout_until(deadline, INVOCATION_TIMEOUT_S),
                                     stderr=err)
    if code != 0 or timed_out:
        raise RuntimeError(f"set-up exited with {code}")
    return wall


def run_end_to_end(manifest, seconds, env, checker, work: Path, deadline) -> dict:
    """Whole rounds of CLI invocations until `seconds` have passed.  Set-up is
    timed SETUP_PER_ROUND times before each round, so that its samples span
    the run as the invocations do."""
    files = scenario_files(manifest)
    check_origin(files, env, deadline)
    samples = []
    setup = []
    rounds = 0
    start = time.perf_counter()
    with open(work / "cli.stderr", "w") as err:
        while rounds == 0 or time.perf_counter() - start < seconds:
            setup += [time_setup(files, env, err, deadline)
                      for _ in range(SETUP_PER_ROUND)]
            for inv in manifest:
                wall, code, rss_kib, timed_out = spawn(
                    [sys.executable, "-m", "magtorus", *inv["argv"]], env,
                    timeout_until(deadline, INVOCATION_TIMEOUT_S), stderr=err)
                problems = checker.check(inv, code, timed_out)
                samples.append({"id": inv["id"], "wall_s": wall, "rss_kib": rss_kib,
                                "exit": code, "problems": problems})
            rounds += 1
    return {"samples": samples, "rounds": rounds, "setup": setup}


def tail_percentile(values) -> tuple | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100.0 >= 10:
            return p, float(np.percentile(ordered, p))
    return None


def end_to_end_metrics(workload, manifest, e2e, setup_s) -> tuple:
    work_key, work_name = WORK_UNITS[workload]
    by_id = {inv["id"]: inv for inv in manifest}
    samples = e2e["samples"]
    walls = [s["wall_s"] for s in samples]
    work_total = sum(by_id[s["id"]]["work"][work_key] for s in samples)
    metrics = {
        "setup_s": setup_s,
        "cli_wall_s": statistics.median(walls),
        "work_per_s": work_total / sum(walls),
        "peak_rss_mb": max(s["rss_kib"] for s in samples) / 1024.0,
    }
    failed = sum(1 for s in samples if s["problems"])
    lines = [f"{work_name} = {metrics['work_per_s']!r} 1/s (reported as work_per_s)",
             f"failed_ratio = {failed / len(samples)!r} ({failed}/{len(samples)} "
             f"invocations; carried by 'failed'/'attempted')"]
    for inv in manifest:
        mine = [s["wall_s"] for s in samples if s["id"] == inv["id"]]
        lines.append(f"  {inv['id']}: median {statistics.median(mine):.4f} s "
                     f"over {len(mine)} invocations")
    tail = tail_percentile(walls)
    if tail:
        lines.append(f"cli_wall_s.p{tail[0]} = {tail[1]!r} s ({len(walls)} samples)")
    else:
        lines.append(f"cli_wall_s tail percentile: not reported, {len(walls)} samples "
                     f"leave fewer than 10 beyond p75")
    return metrics, lines


def run_traced(manifest, seconds, env, checker, work: Path, deadline) -> dict:
    """Alternate untraced and traced in-process rounds until `seconds` pass."""
    (work / "trace").mkdir()
    manifest_path = work / "inputs" / "manifest.json"
    rounds = {0: [], 1: []}
    attempted = failed = 0
    problems_seen = []
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < seconds:
        for trace in (0, 1):
            result_path = work / "trace" / f"round{pair}-trace{trace}.json"
            with open(work / "trace" / f"round{pair}-trace{trace}.stderr", "w") as err:
                _, code, _, timed_out = spawn(
                    [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC),
                     "--manifest", str(manifest_path), "--result", str(result_path),
                     "--trace", str(trace)], env,
                    timeout_until(deadline, ROUND_TIMEOUT_S), stderr=err)
            attempted += len(manifest)
            if code != 0 or timed_out:
                failed += len(manifest)
                problems_seen.append(f"round {pair} trace {trace}: tracer exited {code}")
                continue
            result = json.loads(result_path.read_text())
            for inv, rec in zip(manifest, result["invocations"]):
                problems = checker.check(inv, rec["exit"])
                if problems:
                    failed += 1
                    problems_seen.append(f"{inv['id']}: {problems[:3]}")
            rounds[trace].append(result)
        pair += 1
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "problems": problems_seen}


def per_layer_metrics(manifest, traced, work: Path) -> tuple:
    rounds = traced["rounds"]
    if not rounds[0] or not rounds[1]:
        return None, ["no complete traced and untraced round"]
    per_round = [layers.layer_metrics(r, manifest) for r in rounds[1]]
    metrics = {name: statistics.median(m[name] for m in per_round)
               for name in per_round[0]}
    untraced = statistics.median(r["total_s"] for r in rounds[0])
    traced_s = statistics.median(r["total_s"] for r in rounds[1])
    metrics["trace.overhead_s"] = traced_s - untraced
    metrics["trace.overhead_ratio"] = (traced_s - untraced) / untraced
    table = layers.self_time_table(rounds[1][0])
    lines = [f"tracing overhead: traced {traced_s:.4f} s - untraced {untraced:.4f} s "
             f"per round ({len(rounds[1])} traced, {len(rounds[0])} untraced rounds)",
             "self time per span (first traced round): name calls total_s self_s"]
    lines += [f"  {name} {calls} {total:.6f} {self_s:.6f}"
              for name, calls, total, self_s in table]
    lines.append("per-layer metric -> end-to-end metric it should move, on workload")
    lines += [f"  {base}{'.n<N>' if degrees else ''} -> {target} on {wl}"
              for base, degrees, target, wl in layers.LAYERS]
    summary = {"metrics": metrics, "self_time": table,
               "targets": [list(row) for row in layers.LAYERS]}
    (work / "trace" / "summary.json").write_text(json.dumps(summary, indent=1))
    return metrics, lines


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, manifest, counts) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [{"id": inv["id"], "N": inv["N"], "work": inv["work"]}
                   for inv in manifest],
        "samples": counts,
    }


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {name: {"value": float(value), "unit": units[name]}
                                  for name, value in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "magtorus" / "__init__.py").is_file():
        print(f"error: no magtorus sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = gen.make_inputs(args.workload, args.seed, work / "inputs")
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    checker = checks.Checker(reference)
    env = child_env()

    if args.trace:
        traced = run_traced(manifest, args.seconds, env, checker, work, deadline)
        metrics, lines = per_layer_metrics(manifest, traced, work)
        attempted, failed = traced["attempted"], traced["failed"]
        lines += [f"problem: {p}" for p in traced["problems"][:20]]
        if metrics is None:
            print("\n".join(lines), file=sys.stderr)
            return 1
        counts = {"untraced_rounds": len(traced["rounds"][0]),
                  "traced_rounds": len(traced["rounds"][1])}
    else:
        e2e = run_end_to_end(manifest, args.seconds, env, checker, work, deadline)
        metrics, lines = end_to_end_metrics(args.workload, manifest, e2e,
                                            statistics.median(e2e["setup"]))
        lines.append(f"setup_s samples: {e2e['setup']}")
        samples = e2e["samples"]
        attempted = len(samples)
        failed = sum(1 for s in samples if s["problems"])
        lines += [f"problem: {s['id']}: {s['problems'][:3]}"
                  for s in samples if s["problems"]][:20]
        counts = {"rounds": e2e["rounds"], "invocations": attempted,
                  "setup_samples": len(e2e["setup"])}

    if set(metrics) != set(units):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(units))} "
              f"do not match BENCHMARK.json", file=sys.stderr)
        return 3
    record = provenance(args, manifest, counts)
    (work / "provenance.json").write_text(json.dumps(record, indent=1))
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print("provenance " + json.dumps(record))
    emit(failed == 0, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
