"""Record the reference values that runs with the default seed compare with.

    python3 perfbench/record_reference.py

Runs every input of every workload once, with the default seed, through the
CLI, checks the outputs, and writes the residual norms and leading
eigenvalues to perfbench/reference.json.  Run it only on a commit whose
results are trusted (the values in the repository were recorded at the
commit that introduced the benchmark).
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import gen
import run


def main() -> int:
    env = run.child_env()
    reference = {}
    for workload in gen.WORKLOADS:
        work = run.WORK / "reference" / workload
        shutil.rmtree(work, ignore_errors=True)
        manifest = gen.make_inputs(workload, run.DEFAULT_SEED, work)
        checker = checks.Checker()
        values = {}
        for inv in manifest:
            _, code, _, timed_out = run.spawn(
                [sys.executable, "-m", "magtorus", *inv["argv"]], env,
                run.INVOCATION_TIMEOUT_S)
            problems = checker.check(inv, code, timed_out)
            if problems:
                print(f"{workload}/{inv['id']}: {problems[:3]}", file=sys.stderr)
                return 1
            report = json.loads(checks.report_path(inv).read_text())
            found = checks.reference_values(inv, report)
            if found is not None:
                values[inv["id"]] = found
        reference[workload] = values
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
