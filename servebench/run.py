"""Benchmark `repro serve` end to end, and each layer under it.

Usage (from the repository root)::

    python3 servebench/run.py --workload serve-drain --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``serve-drain``, ``serve-paced``, ``replay-handshake`` (see
README.md). ``--trace 0`` times the real CLI/HTTP API and a fresh
replay process and prints the end-to-end metrics; ``--trace 1`` runs
the separate traced run and prints the per-layer metrics. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``). The exit code is 0 only
when every correctness check passed.

The program is run from ``src/`` of the checkout. A classifier bank is
trained once per checkout with ``repro train`` into ``.servebench/``;
every run's captures and daemon state live in a per-run directory
there, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import SRC, WORK, BenchError, program_env  # noqa: E402


def ensure_bank() -> Path:
    """The bank every workload classifies with: ``repro train`` at its
    defaults (seed 0), built once per checkout."""
    bank = WORK / "bank"
    if (bank / "manifest.json").exists():
        return bank
    staging = WORK / f"bank-{os.getpid()}"
    subprocess.run([sys.executable, "-m", "repro.cli", "train", "--out",
                    str(staging), "--seed", "0"], env=program_env(),
                   check=True, stdout=subprocess.DEVNULL, timeout=800.0)
    try:
        staging.rename(bank)
    except OSError:  # another run finished first
        shutil.rmtree(staging, ignore_errors=True)
    return bank


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"servebench: the program is missing ({SRC}/repro); run "
              f"from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # A SIGTERM (a harness's timeout) unwinds like an error, so every
    # daemon this run started is stopped and its directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    bank = ensure_bank()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    started = time.perf_counter()
    try:
        if args.trace:
            import layers
            outcome = layers.traced(args.workload, bank, args.seed,
                                    args.seconds, workdir)
            units = layers.PER_LAYER_UNITS
        else:
            outcome = workloads.WORKLOADS[args.workload](
                bank, args.seed, args.seconds, workdir)
            units = workloads.END_TO_END_UNITS
    except BenchError as exc:
        print(f"servebench: {args.workload} failed: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok, detail in outcome.checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"checks={sum(ok for _, ok, _ in outcome.checks)}/"
          f"{len(outcome.checks)} wall={time.perf_counter() - started:.1f}s")
    for key, value in outcome.notes.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, unit in units.items():
        print(f"{name:34s} {outcome.metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
