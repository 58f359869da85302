"""Rewrite the golden record: run every golden run and store its digests
(`digests.json`, with this platform's fingerprint) and the payloads of the
bundled runs (`payloads.json`).

    PYTHONPATH=src python tests/golden/regenerate.py

Before writing, it prints what differs from the committed record: each run
and file whose digest moved, and each change of exit code or `rhs_kernel`
counts.  A change that alters a digest says in CHANGES.md which one and why.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import golden_runs  # noqa: E402


def print_changes(digests: dict):
    """Print what differs from the committed record: each run and file whose
    digest moved and each change of exit code or kernel counts."""
    committed = json.loads((golden_runs.GOLDEN / "digests.json").read_text())
    if committed["fingerprint"] != digests["fingerprint"]:
        print("the platform fingerprint differs from the committed record's")
    changes = golden_runs.record_changes(committed["runs"], digests["runs"])
    print("changed from the committed record:" if changes else
          "no change from the committed record")
    for line in changes:
        print(f"  {line}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        records, payloads, _ = golden_runs.run_all(Path(tmp))
    digests = {"fingerprint": golden_runs.fingerprint(), "runs": records}
    print_changes(digests)
    for name, data in (("digests.json", digests), ("payloads.json", payloads)):
        path = golden_runs.GOLDEN / name
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
