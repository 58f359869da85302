"""Output checks for the benchmark's CLI invocations.

A check returns a list of problems; an empty list means the invocation's
exit code and outputs are right.  Besides the per-kind checks, `Checker`
requires repeats of one input within a run to give byte-identical report
payloads (and CSV files), and, for the default seed, compares residual
norms and eigenvalues with the values in `reference.json`, recorded when
the benchmark was introduced.  Those are compared at a relative tolerance,
never by digest, because a valid kernel rewrite may reorder sums.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# A fixed-step and an adaptive integration of one orbit must end this close
# (x, y on the cover; phi modulo 2 pi).  Observed differences are ~1e-12.
ORBIT_AGREEMENT = 1e-6
# sigma_min(B - lambda A) must stay below this multiple of
# |B| + |lambda| |A| for each finite eigenvalue lambda (QZ is backward stable).
SINGULAR_RTOL = 1e-8
# Comparison with reference.json: |a - b| <= RTOL |b| + ATOL.
RESIDUAL_RTOL, RESIDUAL_ATOL = 1e-9, 1e-12
EIGEN_RTOL = 1e-6
# Number of leading states per assemble invocation recorded in reference.json.
REFERENCE_STATES = 25


def report_path(inv) -> Path:
    out = Path(inv["out"])
    kind = inv["expect"]["kind"]
    if kind == "verify":
        return out / f"{inv['expect']['name']}_verify.json"
    if kind == "simulate":
        return out / f"{inv['expect']['name']}_simulate.json"
    return out / "assemble.json"


def payload_bytes(text: str) -> bytes:
    """The report's "payload" member as written (the report is canonical
    JSON with sorted keys, so it ends where "schema_version" begins)."""
    start = text.index('\n  "payload": ')
    end = text.index('\n  "schema_version": ', start)
    return text[start:end].encode()


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def check_verify(inv, report) -> list:
    exp = inv["expect"]
    payload = report["payload"]
    checks = {c["check"]: c for c in payload["checks"]}
    problems = []
    if "certificate" not in checks:
        return ["no certificate check in the report"]
    if exp["exact"]:
        if not payload["overall_pass"]:
            problems.append("exact family did not pass")
        for c in payload["checks"]:
            for r in c.get("residuals", []):
                if not r["sup"] < exp["tolerance"]:
                    problems.append(f"{c['check']}/{r['label']} sup {r['sup']:g} "
                                    f">= tolerance {exp['tolerance']:g}")
        if not checks["certificate"]["certified"]:
            problems.append("certificate refused on an exact family")
    elif checks["certificate"]["certified"] or checks["certificate"]["pass"]:
        problems.append("certificate accepted on a random non-solution")
    return problems


def _angle_gap(a: float, b: float) -> float:
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def check_simulate(inv, report) -> list:
    exp = inv["expect"]
    trajs = {t["name"]: t for t in report["payload"]["trajectories"]}
    problems = []
    for req in exp["requests"]:
        t = trajs.get(req["name"])
        if t is None:
            problems.append(f"trajectory {req['name']} missing")
            continue
        if t["aborted"]:
            problems.append(f"trajectory {req['name']} aborted: {t['diagnostic']}")
        if t["final"][0] != req["t_end"]:
            problems.append(f"trajectory {req['name']} ended at t={t['final'][0]}")
        for name, tol in req.get("drift_tol", {}).items():
            drift = t["drifts"][name]["relative"]
            if exp["exact"] and not drift <= tol:
                problems.append(f"{req['name']}: {name} drift {drift:g} > {tol:g}")
        csv = Path(inv["out"]) / t["csv"]
        if not csv.is_file() or not csv.read_text().startswith("t,x,y,phi,H,F\n"):
            problems.append(f"{req['name']}: CSV missing or without header")
    for name, t in trajs.items():
        if not name.endswith("_fixed"):
            continue
        other = trajs.get(name[:-len("_fixed")] + "_adaptive")
        if other is None:
            continue
        (_, x1, y1, p1), (_, x2, y2, p2) = t["final"], other["final"]
        gap = max(abs(x1 - x2), abs(y1 - y2), _angle_gap(p1, p2))
        if not gap <= ORBIT_AGREEMENT:
            problems.append(f"{name}: fixed and adaptive end states differ by {gap:g}")
    return problems


def singular_problems(a, b, eigenvalues, dim) -> list:
    """Each finite eigenvalue must make B - lambda A numerically singular."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (dim, dim) or b.shape != (dim, dim):
        return [f"matrices are not {dim}x{dim}"]
    norm_a, norm_b = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
    problems = []
    for re, im in eigenvalues:
        lam = complex(re, im)
        smin = np.linalg.svd(b - lam * a, compute_uv=False)[-1]
        if not smin <= SINGULAR_RTOL * (norm_b + abs(lam) * norm_a):
            problems.append(f"eigenvalue {lam} leaves B - lambda A regular "
                            f"(sigma_min {smin:g})")
    return problems


def _count_problems(spec, dim) -> list:
    diag = spec["diagnostics"]
    total = len(spec["eigenvalues"]) + diag["n_infinite"] + diag["n_indeterminate"]
    return [] if total == dim else [f"{total} eigenvalues for a {dim}x{dim} pencil"]


def check_assemble(inv, report) -> list:
    exp = inv["expect"]
    entries = report["payload"]["entries"]
    n = inv["N"]
    if len(entries) != exp["states"]:
        return [f"{len(entries)} entries for {exp['states']} states"]
    problems = []
    for i, e in enumerate(entries):
        if len(e["point"]) != 2 * n:
            problems.append(f"state {i} has length {len(e['point'])}")
            continue
        found = (_count_problems(e, 2 * n)
                 + singular_problems(e["a"], e["b"], e["eigenvalues"], 2 * n))
        problems += [f"state {i}: {p}" for p in found]
    return problems


def geodesic_closed_form(n: int, a) -> np.ndarray:
    """Subdiagonal a_{n-1}; last column (a_1, 2 a_2 - n a_0,
    3 a_3 - (n-1) a_1, ..., n a_n - 2 a_{n-2})."""
    mat = np.zeros((n, n))
    for i in range(1, n):
        mat[i, i - 1] = a[n - 1]
    mat[0, n - 1] = a[1]
    for j in range(2, n + 1):
        mat[j - 1, n - 1] = j * a[j] - (n - j + 2) * a[j - 2]
    return mat


def check_geodesic(inv, report) -> list:
    exp = inv["expect"]
    geo = report["payload"]["geodesic"]
    n = exp["n"]
    mat = np.asarray(geo["matrix"], dtype=float)
    want = geodesic_closed_form(n, exp["a"])
    if mat.shape != want.shape or not np.allclose(mat, want, rtol=1e-14, atol=1e-14):
        return ["geodesic matrix differs from the closed form"]
    return (_count_problems(geo, n)
            + singular_problems(np.eye(n), mat, geo["eigenvalues"], n))


KIND_CHECKS = {"verify": check_verify, "simulate": check_simulate,
               "assemble": check_assemble, "geodesic": check_geodesic}


# ---------------------------------------------------------------------------
# reference values (default seed)
# ---------------------------------------------------------------------------


def reference_values(inv, report):
    """Residual norms (verify) or leading eigenvalues (assemble, geodesic)."""
    kind = inv["expect"]["kind"]
    payload = report["payload"]
    if kind == "verify":
        values = {}
        for c in payload["checks"]:
            for r in c.get("residuals", []):
                values[f"{c['check']}/{r['label']}"] = r["sup"]
            for label, sup in c.get("residual_sups", {}).items():
                values[f"{c['check']}/{label}"] = sup
        return values
    if kind == "assemble":
        return [e["eigenvalues"] for e in payload["entries"][:REFERENCE_STATES]]
    if kind == "geodesic":
        return [payload["geodesic"]["eigenvalues"]]
    return None


def _eigen_problems(got, want) -> list:
    if len(got) != len(want):
        return [f"{len(got)} eigenvalues, reference has {len(want)}"]
    left = [complex(*g) for g in got]
    problems = []
    for w in (complex(*w) for w in want):
        best = min(range(len(left)), key=lambda i: abs(left[i] - w))
        if not abs(left[best] - w) <= EIGEN_RTOL * (1.0 + abs(w)):
            problems.append(f"eigenvalue {left[best]} vs reference {w}")
        left.pop(best)
    return problems


def compare_reference(inv, report, reference) -> list:
    got = reference_values(inv, report)
    if got is None:
        return []
    want = reference.get(inv["id"])
    if want is None:
        return [f"no reference values for {inv['id']}"]
    problems = []
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"residual labels {sorted(got)} differ from the reference"]
        for label, ref in want.items():
            if not abs(got[label] - ref) <= RESIDUAL_RTOL * abs(ref) + RESIDUAL_ATOL:
                problems.append(f"{label}: {got[label]!r} vs reference {ref!r}")
        return problems
    if len(got) != len(want):
        return [f"{len(got)} spectra, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        problems += [f"spectrum {i}: {p}" for p in _eigen_problems(g, w)]
    return problems


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------


class Checker:
    """Checks invocations of one run; remembers payload digests so that
    repeats of an input must reproduce their first payload byte for byte."""

    def __init__(self, reference: dict | None = None):
        self.reference = reference
        self.digests = {}

    def check(self, inv, exit_code, timed_out=False) -> list:
        if timed_out:
            return ["timed out"]
        if exit_code != inv["expect"]["exit"]:
            return [f"exit code {exit_code}, expected {inv['expect']['exit']}"]
        path = report_path(inv)
        try:
            text = path.read_text()
            report = json.loads(text)
            problems = KIND_CHECKS[inv["expect"]["kind"]](inv, report)
            digest = hashlib.sha256(payload_bytes(text))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable report {path.name}: {exc!r}"]
        if inv["expect"]["kind"] == "simulate":
            for t in report["payload"]["trajectories"]:
                digest.update((Path(inv["out"]) / t["csv"]).read_bytes())
        digest = digest.hexdigest()
        first = self.digests.setdefault(inv["id"], digest)
        if first != digest:
            problems.append("payload differs from an earlier repeat of this input")
        if self.reference is not None:
            problems += compare_reference(inv, report, self.reference)
        return problems
