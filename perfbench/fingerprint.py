"""Fingerprints of simulated results, and the gate that compares them.

A fingerprint holds the simulated outcome of one run: makespan, tasks,
engine events, the final counter totals and the verification/abort
outcome.  Host timings are never part of it, so every run of the same
input must give the same fingerprint, traced or not.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The seed whose fingerprints are committed in ``expected.json``.
DEFAULT_SEED = 1


def fingerprint(result: dict[str, Any]) -> dict[str, Any]:
    """Fingerprint of a run in its persisted form (``run_result_to_dict`` / a served result)."""
    # The last sample of each counter is its total (``TelemetryFrame.totals``).
    totals = {row["name"]: float(row["value"]) for row in result.get("telemetry") or ()}
    fields = {
        "exec_time_ns": result["exec_time_ns"],
        "tasks_executed": result["tasks_executed"],
        "engine_events": result["engine_events"],
        "verified": result["verified"],
        "aborted": result["aborted"],
        "abort_reason": result["abort_reason"],
    }
    blob = json.dumps({**fields, "counters": totals}, sort_keys=True, separators=(",", ":"))
    return {**fields, "counters": hashlib.sha256(blob.encode()).hexdigest()[:16]}


def load_expected(workload: str, seed: int, path: Path = EXPECTED_PATH) -> dict[str, Any] | None:
    """Committed fingerprints for *workload*, or None when *seed* has none."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(path.read_text()).get(workload, {})


class Gate:
    """Collects fingerprint mismatches over one benchmark run.

    Every label (an input, or a serve cache key) must keep one
    fingerprint across all of its observations, and match the committed
    one when the run uses the default seed.
    """

    def __init__(self, expected: dict[str, Any] | None) -> None:
        self.expected = expected
        self.seen: dict[str, dict[str, Any]] = {}
        self.mismatches: list[str] = []

    def observe(self, label: str, fp: dict[str, Any], source: str) -> bool:
        first = self.seen.setdefault(label, fp)
        ok = True
        if fp != first:
            self.mismatches.append(f"{label}: {source} gave {fp}, earlier {first}")
            ok = False
        if self.expected is not None:
            want = self.expected.get(label)
            if want != fp:
                self.mismatches.append(f"{label}: {source} gave {fp}, expected {want}")
                ok = False
        return ok
