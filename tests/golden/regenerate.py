"""Rewrite the golden record: run every golden run and store its digests
(`digests.json`, with this platform's fingerprint) and the payloads of the
bundled runs (`payloads.json`).

    PYTHONPATH=src python tests/golden/regenerate.py

A change that alters a digest says in CHANGES.md which one and why.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import golden_runs  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        records, payloads, _ = golden_runs.run_all(Path(tmp))
    digests = {"fingerprint": golden_runs.fingerprint(), "runs": records}
    for name, data in (("digests.json", digests), ("payloads.json", payloads)):
        path = golden_runs.GOLDEN / name
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
