"""Check that work counters repeat across workload orderings.

Runs trial 0 of every workload, with query counts cut to a tenth, in the
registered order and then in reverse, in one process and under the full
per-layer wrappers.  Every trial's simulated outputs and work counters
(loop events, oracle cells, rebuilds, maintenance probes, repair probes,
spans) must come out identical whatever ran before it in the process.

Usage, from the repository root::

    python3 perfbench/selfcheck.py --seed 1

Exits 1 and lists the differences when any counter or output moved.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed: int, out_dir: Path) -> tuple[tuple, list[str]]:
    """Trial 0 under the full wrappers: ``(fingerprint, problems)``."""
    from perfbench.spans import Recorder
    from perfbench.trial import run_trial

    recorder = Recorder(full=True)
    with recorder.installed():
        trial = run_trial(workload, seed, 0, recorder, out_dir)
    fingerprint = (
        recorder.oracle_cells,
        tuple((s.label, s.digest, tuple(s.counters.items())) for s in trial.schemes),
    )
    return fingerprint, trial.problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"selfcheck: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    small = [
        replace(
            w,
            schemes=tuple(
                replace(s, queries=max(20, s.queries // 10)) for s in w.schemes
            ),
        )
        for w in WORKLOADS.values()
    ]
    seen: dict[str, tuple] = {}
    problems: list[str] = []
    for order in (small, small[::-1]):
        for workload in order:
            fingerprint, trial_problems = run_once(workload, args.seed, out_dir)
            problems += trial_problems
            if seen.setdefault(workload.name, fingerprint) != fingerprint:
                problems.append(
                    f"{workload.name}: outputs or counters moved with the ordering"
                )
            oracle_cells, schemes = fingerprint
            print(f"{workload.name:14s} oracle_cells={oracle_cells}")
            for label, digest, counts in schemes:
                print(f"    {label:14s} {digest[:16]} {dict(counts)}")
    for problem in problems:
        print(f"selfcheck: FAILED: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
