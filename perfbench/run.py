"""Benchmark command: one workload, one seed, one pass.

    python3 perfbench/run.py --workload hpx-fine --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
Human-readable notes go first; the last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).  The
exit code is 0 only when every fingerprint matched and no run failed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package and the library from source; the
# script's own directory must not shadow anything.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import exact, serving  # noqa: E402
from perfbench.fingerprint import DEFAULT_SEED, EXPECTED_PATH, load_expected  # noqa: E402

RUNNERS = {"hpx-fine": exact, "std-observed": exact, "serve-mixed": serving}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help=f"write this run's fingerprints to {EXPECTED_PATH.name} (default seed only)",
    )
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so a spawned server and its pool are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import repro  # noqa: F401
    except ImportError:
        print(f"error: the repro sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_expected and args.seed != DEFAULT_SEED:
        parser.error(f"--record-expected needs --seed {DEFAULT_SEED}")

    module = RUNNERS[args.workload]
    if args.record_expected:
        table = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
        recorded = module.record_expected(args.workload, args.seed)
        table[args.workload] = dict(sorted(recorded.items()))
        EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(table[args.workload])} fingerprints for {args.workload}")
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    expected = load_expected(args.workload, args.seed)
    run = module.traced if args.trace else module.measure
    outcome = run(args.workload, args.seed, args.seconds, expected)

    reported = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if reported != declared:
        raise SystemExit(f"metrics {reported} do not match BENCHMARK.json {declared}")

    for note in outcome.notes:
        print(note)
    for mismatch in outcome.mismatches[:20]:
        print(f"MISMATCH {mismatch}")
    attempted = max(outcome.attempted, 1)
    print(
        f"failed_frac {outcome.failed / attempted:.4f} "
        f"({outcome.failed} of {outcome.attempted} runs)"
    )
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = not outcome.mismatches and outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": outcome.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in outcome.metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
