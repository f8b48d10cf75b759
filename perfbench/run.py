"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-lossy --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
per-layer wrappers off.  ``--trace 1`` is the separate traced run: each
trial is served once unwrapped and once wrapped, the two are checked
byte-identical, and the wrapped pass gives the per-layer split.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Any failed
correctness, repeatability or passivity check prints the problems to
standard error and exits with code 1.  Run from a tree without ``src/repro``
it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import measure, traced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    OUT_DIR.mkdir(exist_ok=True)
    run = traced if args.trace else measure
    metrics, details, problems = run(workload, args.seed, args.seconds, OUT_DIR)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print("  " + json.dumps(details, sort_keys=True))
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": details["queries"],
                "failed": details["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
