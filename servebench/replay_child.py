"""One single-process replay of a capture, run in a fresh interpreter.

Usage::

    python servebench/replay_child.py --bank DIR --capture PCAP \\
        --result OUT.json [--measure --checkpoint-dir DIR]

Without ``--measure`` this is the batch oracle: ``ingest_pcap`` into one
``RealtimePipeline``, ``flush()``, ``render_rollup_report`` -- the
bytes a live daemon's ``GET /api/report`` must equal -- plus the
per-flow predictions the platform-agreement check reads.

The pipeline keeps rollup cells only (``retention="rollup"``), as the
daemon's workers do under ``repro serve``'s default. The per-flow
predictions are read as each record enters the cube.

With ``--measure`` it is the ``replay-handshake`` workload: the same
path with capture-clock idle eviction and checkpoints on, timed from
"pipeline ready" to "report rendered". Light hooks feed the lag
metrics: the replay is timed per block of :data:`LAG_BLOCK` frames
(each block's wall time per frame, sweeps and checkpoints included),
and the completion of each video-flow handshake (the
``extract_attributes`` call) and each classifier batch are stamped, so
each flow's wait for its prediction is known. The hooks cost well
under 1% of the replay's wall time on this feed.

``--ingest bulk`` swaps the ingest mode, for the reference figures
``reference.py`` prints. Timestamps are ``time.monotonic()`` so the parent can compare them with
its own launch and exit times.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from harness import canonical, percentile

#: Capture-clock knobs of the measured replay (seconds of capture time).
IDLE_TIMEOUT_S = 3600.0
CHECKPOINT_INTERVAL_S = 21600.0
BATCH_SIZE = 64          # repro classify's default
QUERY_REPEATS = 31
FINAL_SAVES = 7
#: Frames per timed block of the ingest-lag reading.
LAG_BLOCK = 64


def _hook_lags(pipeline, engine_module) -> dict[str, list]:
    """Install the per-block and per-flow stamps described above."""
    marks: dict[str, list] = {"block": [], "done": [], "batch": [],
                              "checkpoint": []}
    block_marks = marks["block"]
    done_marks = marks["done"]
    clock = time.perf_counter
    process_raw = pipeline.process_raw
    block = [0, clock()]

    def timed_process_raw(raw):
        process_raw(raw)
        block[0] += 1
        if block[0] == LAG_BLOCK:
            now = clock()
            block_marks.append((now - block[1]) / LAG_BLOCK)
            block[0], block[1] = 0, now

    extract = engine_module.extract_attributes

    def stamped_extract(record):
        done_marks.append(clock())
        return extract(record)

    classify_batch = pipeline.bank.classify_batch

    def stamped_batch(items, threshold):
        result = classify_batch(items, threshold)
        marks["batch"].append((clock(), len(items)))
        return result

    save_checkpoint = pipeline.save_checkpoint

    def counted_save(*args, **kwargs):
        save_checkpoint(*args, **kwargs)
        marks["checkpoint"].append(clock())

    pipeline.save_checkpoint = counted_save
    pipeline.process_raw = timed_process_raw
    engine_module.extract_attributes = stamped_extract
    pipeline.bank.classify_batch = stamped_batch
    return marks


def _classify_lags(marks: dict[str, list]) -> list[float]:
    """Per video flow: completion -> end of the batch that classified
    it. Batches drain the pending list in completion order."""
    lags = []
    done = marks["done"]
    position = 0
    for end, size in marks["batch"]:
        for completed in done[position:position + size]:
            lags.append(end - completed)
        position += size
    return lags


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bank", required=True)
    parser.add_argument("--capture", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("--checkpoint-dir")
    parser.add_argument("--ingest", default="raw",
                        help="ingest_pcap mode (reference figures only)")
    args = parser.parse_args(argv)

    from repro.pipeline import RealtimePipeline, ingest_pcap, load_bank
    from repro.pipeline import engine as engine_module
    from repro.reporting import render_rollup_report

    bank = load_bank(args.bank)
    pipeline = RealtimePipeline(bank, batch_size=BATCH_SIZE,
                                retention="rollup")
    seen: list[tuple] = []
    rollup_ingest = pipeline.rollup.ingest

    def kept_ingest(record):
        seen.append((record.key, record.prediction.status,
                     record.prediction.platform))
        rollup_ingest(record)

    pipeline.rollup.ingest = kept_ingest
    ready = time.monotonic()
    cpu_ready = resource.getrusage(resource.RUSAGE_SELF)
    options: dict[str, object] = {}
    marks = None
    if args.measure:
        marks = _hook_lags(pipeline, engine_module)
        options = dict(idle_timeout=IDLE_TIMEOUT_S,
                       checkpoint_dir=args.checkpoint_dir,
                       checkpoint_interval=CHECKPOINT_INTERVAL_S)
    result = ingest_pcap(pipeline, args.capture, mode=args.ingest,
                         **options)
    pipeline.flush()
    report = render_rollup_report(pipeline.rollup)
    done = time.monotonic()
    cpu_done = resource.getrusage(resource.RUSAGE_SELF)

    queries = []
    for _ in range(QUERY_REPEATS):
        start = time.perf_counter()
        render_rollup_report(pipeline.rollup)
        queries.append(time.perf_counter() - start)

    counters = pipeline.counters
    totals: dict[str, list[int]] = {}
    for key, cell in pipeline.rollup.items():
        entry = totals.setdefault(key.provider.value, [0, 0])
        entry[0] += cell.flows
        entry[1] += cell.bytes_down + cell.bytes_up
    predictions = [
        [list(canonical(key.protocol, key.src_ip, key.src_port, key.dst_ip,
                        key.dst_port)), status, platform]
        for key, status, platform in seen]
    payload = {
        "ready": ready,
        "done": done,
        "frames": result.frames,
        "skipped": result.skipped,
        "cpu_s": (cpu_done.ru_utime + cpu_done.ru_stime
                  - cpu_ready.ru_utime - cpu_ready.ru_stime),
        "peak_rss_mb": cpu_done.ru_maxrss / 1024.0,
        "counters": vars(counters),
        "provider_totals": totals,
        "rollup_cells": len(pipeline.rollup),
        "predictions": predictions,
        "report": report,
        "query_s": queries,
    }
    if marks is not None:
        block_lags = marks["block"]
        classify_lags = _classify_lags(marks)
        payload["ingest_lag_s"] = [percentile(block_lags, 50),
                                   percentile(block_lags, 95)]
        payload["classify_lag_s"] = percentile(classify_lags, 50)
        payload["lag_samples"] = [len(block_lags), len(classify_lags)]
        payload["checkpoints"] = len(marks["checkpoint"])
    if args.checkpoint_dir:
        # The replay's shutdown work: the final checkpoint the daemon
        # writes on SIGTERM. Written FINAL_SAVES times over the finished
        # pipeline, so stop_s is a median rather than one sample.
        saves = []
        for i in range(FINAL_SAVES):
            start = time.perf_counter()
            pipeline.save_checkpoint(Path(args.checkpoint_dir) / f"final{i}")
            saves.append(time.perf_counter() - start)
        payload["stop_s"] = percentile(saves, 50)
    Path(args.result).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
