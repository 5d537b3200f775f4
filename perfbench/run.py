"""The repository's benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-queries --seed 1 \\
        --seconds 8 --trace 0

It generates the workload's inputs from ``--seed``, sets the program up
(``setup_s`` is the median of several set-ups), measures for
``--seconds``, audits a seeded sample of answers against the BFS oracle,
prints each figure by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` is the separate traced run and
reports the per-layer metrics.

Exit codes: 0 measured; 1 an answer disagreed with the oracle (the
result line still prints, with ``"correct": false``); 2 the checkout has
no program to measure; 3 the run is invalid because the load generator
fell behind its schedule (no result line). Before it exits, every
process the run started has ended.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's "
                             "own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import procs
    import workloads

    procs.guard()
    try:
        return measure(args)
    finally:
        procs.end_all()


def measure(args) -> int:
    """Run the workload and print its figures and the result line."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    report = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.size)
    outcome = report.outcome
    for key, (value, unit) in sorted(report.named.items()):
        print(f"{args.workload}  {key} = {value:.6g} {unit}")
    print(f"{args.workload}  oracle_checked = {outcome.checked} answers")
    print(f"{args.workload}  failed_share = "
          f"{outcome.failed / max(1, outcome.attempted):.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"{args.workload}  failure: {note}", file=sys.stderr)
    if report.invalid:
        print(f"error: invalid run: {report.invalid}", file=sys.stderr)
        return 3

    result = result_line(report, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def result_line(report, trace: bool) -> dict:
    """The last output line; correct only if the oracle audited answers
    and none disagreed."""
    import workloads

    outcome = report.outcome
    chosen = report.per_layer if trace else report.end_to_end
    return {
        "correct": outcome.mismatches == 0 and outcome.checked > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value),
                           "unit": workloads.unit_of(name)}
                    for name, value in chosen.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
