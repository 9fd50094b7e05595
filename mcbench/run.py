"""Monte Carlo decoding benchmark for qecbench's ``run_benchmark`` loop.

Usage, from the repository root:

    python3 mcbench/run.py --workload surface9-bposd0 --seed 1 --seconds 20 --trace 0
    python3 mcbench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see measure.py and README.md).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
package is imported from ``src/`` next to this directory; without it
the command exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name}  operations attempted = {result['attempted']}, "
          f"failed = {result['failed']}, correct = {result['correct']}")


def run_all(args, names) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "qecbench" / "__init__.py").is_file():
        print(f"error: no qecbench sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import WORKLOADS, measure

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
