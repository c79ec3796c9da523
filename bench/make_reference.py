"""Record the expected corpus64 and ladder outputs in bench/reference.json.

    python3 bench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.
The benchmark compares each report, and the whole serialized envelope,
against these hashes; a change that alters the output on purpose
records a new reference and says so.
"""

import json
import time

from run import BENCH, spawn

reference = {}
for workload in ("corpus64", "ladder"):
    child = spawn(workload, 0, "run", time.monotonic() + 600)
    summary = child["summary"]
    if summary is None or summary["disagreements"]:
        raise SystemExit(f"{workload}: no clean pass to record")
    reference[workload] = {
        "envelope_sha256": summary["envelope_sha256"],
        "reports": summary["reports"],
    }
(BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
