"""Same answers: the outputs of the golden runs (`golden_runs.py`) against
the record in `tests/golden/`.

On the platform the record was made on (same fingerprint), every digest must
be equal.  Elsewhere the numbers are compared at the benchmark's tolerances
(`perfbench/checks.py`): benchmark inputs against `perfbench/reference.json`
(the benchmark's reference comparison), bundled runs against their payloads
in `tests/golden/payloads.json`; exit codes, file names and kernel counts
must be equal on both paths.  The number comparison also runs on the
recording platform, so that it cannot rot unseen.
"""

import json

import pytest

import golden_runs
from golden_runs import GOLDEN, checks

DIGESTS = json.loads((GOLDEN / "digests.json").read_text())
PAYLOADS = json.loads((GOLDEN / "payloads.json").read_text())
REFERENCE = json.loads((golden_runs.ROOT / "perfbench" / "reference.json").read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_runs.run_all(tmp_path_factory.mktemp("golden"))


def number_problems(got, want, where="") -> list:
    """Where `got` and `want` (parsed report payloads) differ beyond the
    benchmark's residual tolerance; eigenvalue lists are matched as sets at
    its eigenvalue tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [p for key in sorted(want)
                for p in number_problems(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        if where.endswith("/eigenvalues"):
            return [f"{where}: {p}" for p in checks._eigen_problems(got, want)]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in number_problems(g, w, f"{where}[{i}]")]
    if type(want) is float and type(got) is float:
        tol = checks.RESIDUAL_RTOL * abs(want) + checks.RESIDUAL_ATOL
        return [] if abs(got - want) <= tol else [f"{where}: {got!r} vs {want!r}"]
    return [] if got == want else [f"{where}: {got!r} vs {want!r}"]


def compare_numbers(records, payloads, bench) -> list:
    problems = []
    for ident, want in DIGESTS["runs"].items():
        got = records[ident]
        if got["exit"] != want["exit"] or sorted(got["files"]) != sorted(want["files"]):
            problems.append(f"{ident}: exit {got['exit']} with files {sorted(got['files'])}")
        if got.get("rhs_kernel") != want.get("rhs_kernel"):
            problems.append(f"{ident}: rhs_kernel counts {got.get('rhs_kernel')}")
        if ident in bench:
            workload, inv = bench[ident]
            report = json.loads(checks.report_path(inv).read_text())
            problems += [f"{ident}: {p}" for p in
                         checks.compare_reference(inv, report, REFERENCE[workload])]
        else:
            problems += number_problems(payloads[ident], PAYLOADS[ident], ident)
    return problems


def test_golden_runs_are_the_recorded_runs(outputs):
    records, _, _ = outputs
    assert sorted(records) == sorted(DIGESTS["runs"])


def test_outputs_match_golden(outputs):
    records, payloads, bench = outputs
    if golden_runs.fingerprint() == DIGESTS["fingerprint"]:
        print("golden: platform fingerprint matches; comparing digests")
        changed = golden_runs.record_changes(DIGESTS["runs"], records)
        assert changed == [], "outputs changed:\n" + "\n".join(changed)
    else:
        print("golden: another platform; comparing numbers at perfbench/checks.py "
              "tolerances")
        problems = compare_numbers(records, payloads, bench)
        assert problems == [], "\n".join(problems)


def test_numbers_match_golden_at_benchmark_tolerances(outputs):
    problems = compare_numbers(*outputs)
    assert problems == [], "\n".join(problems)
