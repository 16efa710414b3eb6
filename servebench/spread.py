"""Run a workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 servebench/spread.py --workload serve-drain --seeds 1-10 \\
        [--seconds 15] [--trace 0] [--out results.json]

Each seed is one ``run.py`` invocation in a fresh process.
For every metric the script prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, plus the failed/attempted share of each run.
``--out`` appends the raw per-seed results to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    results = []
    for seed in seeds_of(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        shares = result["failed"] / result["attempted"]
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} (share {shares:.6f}) {lines[0]}",
              flush=True)
    names = list(results[0]["metrics"])
    print(f"\n{args.workload} over {len(results)} seeds "
          f"(trace={args.trace}, seconds={args.seconds:g})")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} unit")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        unit = results[0]["metrics"][name]["unit"]
        spread = (q3 - q1) / q2 if q2 else float("inf")
        print(f"{name:32s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {unit}")
    if args.out:
        path = Path(args.out)
        existing = json.loads(path.read_text()) if path.exists() else []
        existing.append({"workload": args.workload, "trace": args.trace,
                         "seconds": args.seconds, "results": results})
        path.write_text(json.dumps(existing, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
