"""Reference figures: serial ``ingest_pcap`` of the serve-drain capture.

Usage (from the repository root)::

    python3 servebench/reference.py [--seeds 1-3] [--repeats 3]

For each seed, builds the ``serve-drain`` tap capture and replays it
through ``ingest_pcap`` into one ``RealtimePipeline`` (batch 64,
rollup retention) in a fresh process per replay, in ``raw`` and
``bulk`` ingest modes alternately. Prints frames/s (frames divided by
ready-to-report-rendered time) per mode: the serial baseline that
``repro serve``'s drain rate is read against.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import SRC, WORK  # noqa: E402
from spread import seeds_of  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import inputs
    from run import ensure_bank
    from workloads import run_replay

    WORK.mkdir(exist_ok=True)
    bank = ensure_bank()
    workdir = WORK / f"reference-{os.getpid()}"
    workdir.mkdir()
    rows = []
    try:
        for seed in seeds_of(args.seeds):
            capture = inputs.build_capture(inputs.DRAIN_MIX, seed)
            path = workdir / "tap.pcap"
            capture.write(path)
            fps: dict[str, list[float]] = {"raw": [], "bulk": []}
            for _ in range(args.repeats):
                for mode in fps:
                    result, _ = run_replay(bank, path, workdir, False,
                                           ingest=mode)
                    fps[mode].append(capture.truth.frames
                                     / (result["done"] - result["ready"]))
            rows.append((seed, capture.truth.frames,
                         statistics.median(fps["raw"]),
                         statistics.median(fps["bulk"])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'seed':>4s} {'frames':>8s} {'raw fps':>10s} {'bulk fps':>10s}")
    for seed, frames, raw, bulk in rows:
        print(f"{seed:4d} {frames:8d} {raw:10.0f} {bulk:10.0f}")
    print(f"median raw {statistics.median(r[2] for r in rows):.0f} fps, "
          f"bulk {statistics.median(r[3] for r in rows):.0f} fps "
          f"(cpu count {os.cpu_count()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
