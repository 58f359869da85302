"""Smoke tests for the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

They run the generator, the output checks (on real CLI outputs, plus inputs
that must fail) and the metric printer.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {"grid": 16, "states": 4, "orbit_scale": 0.05}


def tiny_inputs(workload, seed, root):
    return gen.make_inputs(workload, seed, root, **TINY)


def run_cli(manifest):
    from magtorus.cli import main
    codes = []
    for inv in manifest:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(list(inv["argv"])))
    return codes


def written_inputs(workload, seed, root):
    """The manifest and every file the generator wrote, with `root` masked."""
    tiny_inputs(workload, seed, root)
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [(p.name, p.read_text().replace(str(root), "ROOT")) for p in files]


def test_generator_is_seeded(tmp_path):
    for workload in gen.WORKLOADS:
        first = written_inputs(workload, 7, tmp_path / workload / "a")
        assert first == written_inputs(workload, 7, tmp_path / workload / "b")
        assert first != written_inputs(workload, 8, tmp_path / workload / "c")


def test_generated_domains(tmp_path):
    for workload in gen.WORKLOADS:
        manifest = tiny_inputs(workload, 3, tmp_path / workload)
        for inv in manifest:
            if inv["expect"]["kind"] in ("verify", "simulate", "assemble"):
                data = json.loads(Path(inv["argv"][1]).read_text())
                coeffs = data["lambda"]["coeffs"]
                c0 = sum(c["re"] for c in coeffs if (c["m"], c["n"]) == (0, 0))
                bound = c0 - 2.0 * sum(abs(complex(c["re"], c["im"]))
                                       for c in coeffs if (c["m"], c["n"]) != (0, 0))
                assert bound >= 1.0
            if inv["expect"]["kind"] == "assemble":
                states = [inv["argv"][i + 1] for i, a in enumerate(inv["argv"])
                          if a == "--at"]
                assert len(states) == TINY["states"]
                for text in states:
                    values = [float(v) for v in text.split(",")]
                    assert len(values) == 2 * inv["N"] and values[0] > 0.0


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_checks_pass_on_cli_outputs(tmp_path, workload):
    manifest = tiny_inputs(workload, 5, tmp_path)
    checker = checks.Checker()
    for rnd in range(2):   # the repeat must reproduce the payloads
        for inv, code in zip(manifest, run_cli(manifest)):
            assert checker.check(inv, code) == [], inv["id"]


def test_checks_reject_bad_outputs(tmp_path):
    manifest = tiny_inputs("assemble-spectra", 5, tmp_path)
    codes = run_cli(manifest)
    checker = checks.Checker()
    inv = manifest[1]
    assert checker.check(inv, codes[1]) == []
    assert checker.check(inv, 1) != []                    # wrong exit code
    assert checker.check(inv, 0, timed_out=True) != []    # timeout

    path = checks.report_path(inv)
    report = json.loads(path.read_text())
    re, im = report["payload"]["entries"][0]["eigenvalues"][0]
    report["payload"]["entries"][0]["eigenvalues"][0] = [re + 0.5, im]
    from magtorus.cli import canonical_json
    path.write_text(canonical_json(report) + "\n")
    problems = checker.check(inv, 0)
    assert any("regular" in p for p in problems)
    assert any("earlier repeat" in p for p in problems)

    geo = manifest[-1]
    geo_bad = dict(geo, expect=dict(geo["expect"], a=[0.0] + geo["expect"]["a"][1:]))
    assert checks.Checker().check(geo, 0) == []
    assert checks.Checker().check(geo_bad, 0) != []


def test_checks_reject_wrong_verify_outcome(tmp_path):
    manifest = tiny_inputs("verify-grid", 5, tmp_path)
    codes = run_cli(manifest)
    exact, random_n2 = manifest[0], manifest[1]
    assert codes[:2] == [0, 1]
    as_exact = dict(random_n2, expect=dict(random_n2["expect"], exact=True, exit=1))
    assert checks.Checker().check(as_exact, codes[1]) != []


def test_reference_comparison(tmp_path):
    manifest = tiny_inputs("verify-grid", 5, tmp_path)
    run_cli(manifest)
    inv = manifest[2]
    report = json.loads(checks.report_path(inv).read_text())
    values = checks.reference_values(inv, report)
    assert checks.compare_reference(inv, report, {inv["id"]: values}) == []
    label = next(iter(values))
    shifted = dict(values, **{label: values[label] * (1 + 1e-6) + 1e-6})
    assert checks.compare_reference(inv, report, {inv["id"]: shifted}) != []


def test_traced_round_and_metric_printer(tmp_path, capsys):
    manifest = tiny_inputs("simulate-orbits", 5, tmp_path)
    result = tracer.run_round(run.SRC, manifest, trace=True)
    assert [i["exit"] for i in result["invocations"]] == [0] * len(manifest)
    metrics = layers.layer_metrics(result, manifest)
    names = layers.metric_names()
    assert set(metrics) == {n for n in names if not n.startswith("trace.")}
    assert metrics["flow.rhs_calls.n1"] == 4 * metrics["flow.rk4_steps.n1"] > 0
    assert metrics["flow.rhs_us.n2"] > 0.0 and metrics["ansatz.harmonics_s.n2"] == 0.0

    spans = result["spans"]
    for s in spans:
        children = [c for c in spans if c["parent"] == s["id"]]
        assert s["self"] <= s["end"] - s["start"] + 1e-9
        assert sum(c["end"] - c["start"] for c in children) <= s["end"] - s["start"]

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == names
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    e2e = {"samples": [{"id": inv["id"], "wall_s": 1.0 + i, "rss_kib": 2048,
                        "problems": []} for i, inv in enumerate(manifest)]}
    values, lines = run.end_to_end_metrics("simulate-orbits", manifest, e2e, 0.5)
    assert set(values) == set(units)
    run.emit(True, len(manifest), 0, values, units)
    line = capsys.readouterr().out.strip().splitlines()[-1]
    printed = json.loads(line)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["metrics"]["peak_rss_mb"] == {"value": 2.0, "unit": "MB"}
    assert printed["metrics"]["cli_wall_s"]["value"] == 2.5
