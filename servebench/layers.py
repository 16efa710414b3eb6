"""The traced run: per-layer self times and counts, kept apart from the
timed runs.

Spans are recorded from the benchmark's own files: each layer's public
entry point is wrapped for the duration of the traced run and restored
afterwards, nothing inside the program changes. A span's *self time* is
its duration minus the time of the wrapped spans it encloses, kept per
thread. Spans are aggregated in memory (count, total, self) rather than
stored one by one.

Two parts, both over the workload's own capture:

* **parent** -- an in-process daemon (``build_daemon`` with the serve
  defaults and the workload's eviction/checkpoint flags; its two worker
  processes are forked before any wrapper is installed). The window runs
  from ``start()`` until the ingest thread has routed every frame;
  ``unattributed`` is the window less the ingest thread's self times
  (source poll, decode, route, eviction barriers). After it,
  the flush barrier, ``GET /api/report`` and checkpoints are timed one
  operation at a time.
* **worker** -- one in-process ``RealtimePipeline`` fed the same frames
  through ``ingest_pcap`` (what each worker does with its share), then
  ``flush()`` and ``render_rollup_report``. ``unattributed`` is its
  wall time less its self times.

The run fails its checks if a wrap target is gone from the program or a
wrapped layer records no call, so a renamed or inlined entry point
cannot read as a layer that got free.

Each part also runs untraced first; traced versus untraced frames/s is
the tracing overhead.
"""

from __future__ import annotations

import http.client
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import inputs
import replay_child
import workloads
from harness import BenchError

PER_LAYER_UNITS = {
    "sources.poll_s_per_mframe": "s/Mframe",
    "rawpacket.decode_s_per_mframe": "s/Mframe",
    "parallel.route_s_per_mframe": "s/Mframe",
    "engine.flow_table_s_per_mframe": "s/Mframe",
    "parallel.barrier_wait_ms": "ms",
    "engine.promotions_per_flow": "count",
    "engine.promote_s_per_mframe": "s/Mframe",
    "extract.parse_calls_per_flow": "count",
    "extract.tcp_handshake_ms_per_flow": "ms",
    "quic.unprotect_ms_per_flow": "ms",
    "extract.attributes_ms_per_flow": "ms",
    "providers.detect_us_per_flow": "us",
    "bank.classify_ms_per_flow": "ms",
    "bank.flows_per_batch": "count",
    "rollup.ingest_us_per_record": "us",
    "ticks.sweep_ms": "ms",
    "engine.live_flows_peak": "count",
    "rollup.cells": "count",
    "rollup_report.render_ms": "ms",
    "api.report_handler_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "unattributed_s_per_mframe": "s/Mframe",
    "trace.parent_overhead_pct": "%",
    "trace.worker_overhead_pct": "%",
}

REPORT_QUERIES = 5
CHECKPOINTS = 3


class Tracer:
    """Wraps callables in place; aggregates (calls, total, self) per
    (layer, thread) and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        #: Every layer name a wrapped callable can record under.
        self.layers: set[str] = set()

    def _timed(self, fn, layer, name_of=None):
        local = self._local
        stats = self.stats
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = (name_of(args) if name_of else layer,
                       threading.current_thread().name)
                record = stats[key]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
        return span

    def wrap(self, owner, attr: str, layer: str, name_of=None,
             names: tuple[str, ...] = ()) -> None:
        """Wrap ``owner.attr`` (function, method, classmethod or
        property); a target the program no longer has is noted. With
        ``name_of`` the layer is chosen per call among ``names``."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}."
                                f"{attr}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._timed(raw.__func__, layer, name_of))
        elif isinstance(raw, property):
            new = property(self._timed(raw.fget, layer, name_of))
        else:
            new = self._timed(raw, layer, name_of)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)
        self.layers.update(names if name_of else (layer,))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def total(self, layer: str, thread: str | None = None) -> list[float]:
        out = [0, 0.0, 0.0]
        for (name, where), record in self.stats.items():
            if name == layer and (thread is None or where == thread):
                out = [a + b for a, b in zip(out, record)]
        return out

    def silent(self) -> list[str]:
        """Wrapped layers that recorded no call."""
        return sorted(layer for layer in self.layers
                      if not self.total(layer)[0])

    def snapshot(self, thread: str) -> dict[str, list[float]]:
        return {name: list(record) for (name, where), record in
                self.stats.items() if where == thread}


def _handshake_kind(args) -> str:
    packets = args[0]
    first = packets[0] if packets else None
    return "extract.quic_handshake" if first is not None and first.is_udp \
        else "extract.tcp_handshake"


def _options(workload: str, checkpoint_dir: Path) -> tuple[dict, dict]:
    """(daemon flags, ingest_pcap options) of ``workload``; the daemon
    flags mirror what the CLI passes ``build_daemon`` in the timed runs
    (a checkpoint directory arms the CLI's 300 s default interval)."""
    if workload == "serve-drain":
        return dict(checkpoint_interval=300.0), {}
    daemon = dict(
        idle_timeout=float(workloads.PACED_IDLE_TIMEOUT_S),
        checkpoint_interval=float(workloads.PACED_CHECKPOINT_INTERVAL_S))
    replay = dict(idle_timeout=float(workloads.PACED_IDLE_TIMEOUT_S))
    if workload == "replay-handshake":
        replay.update(checkpoint_dir=checkpoint_dir,
                      checkpoint_interval=replay_child.CHECKPOINT_INTERVAL_S)
    return daemon, replay


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- parent part ---------------------------------------------------------------

def _parent(bank: Path, path: Path, total: int, flags: dict,
            workdir: Path, tracer: Tracer | None) -> dict:
    from repro.pipeline.parallel import ParallelShardedPipeline
    from repro.service import build_daemon
    from repro.service import api as api_module
    from repro.service.sources import PcapTailSource

    checkpoint = workdir / ("ck-traced" if tracer else "ck-plain")
    daemon = build_daemon(bank, PcapTailSource(path), num_workers=2,
                          checkpoint_dir=checkpoint, **flags)
    try:
        if tracer is not None:
            from repro.net.rawpacket import RawPacket

            tracer.wrap(PcapTailSource, "poll", "sources.poll")
            tracer.wrap(RawPacket, "parse", "rawpacket.decode")
            tracer.wrap(ParallelShardedPipeline, "process_raw",
                        "parallel.route")
            for name in ("flush", "flush_idle", "drain"):
                tracer.wrap(ParallelShardedPipeline, name,
                            "parallel.barrier")
            tracer.wrap(ParallelShardedPipeline, "counters",
                        "parallel.barrier")
            tracer.wrap(ParallelShardedPipeline, "rollup",
                        "parallel.barrier")
            tracer.wrap(ParallelShardedPipeline, "save_checkpoint",
                        "checkpoint.save")
            tracer.wrap(api_module.ServiceAPI, "_report", "api.handler")
            tracer.wrap(api_module, "render_rollup_report",
                        "rollup_report.render")
        start = time.perf_counter()
        daemon.start()
        while True:
            status = daemon.status()
            if status["frames"] + status["skipped"] >= total:
                break
            if not status["running"]:
                raise BenchError("in-process daemon ingest stopped")
            time.sleep(0.002)
        window = time.perf_counter() - start
        ingest = tracer.snapshot("repro-serve-ingest") if tracer else {}
        flush_start = time.perf_counter()
        daemon.flush()
        flushed = time.perf_counter()
        handler = []
        for _ in range(REPORT_QUERIES):
            conn = http.client.HTTPConnection("127.0.0.1",
                                              daemon.server.port,
                                              timeout=60)
            try:
                began = time.perf_counter()
                conn.request("GET", "/api/report")
                body = conn.getresponse().read()
                handler.append(time.perf_counter() - began)
            finally:
                conn.close()
        saves = []
        for _ in range(CHECKPOINTS):
            began = time.perf_counter()
            daemon.checkpoint_now()
            saves.append(time.perf_counter() - began)
        cells = len(daemon.rollup_cube())
        ckpt_bytes = _dir_bytes(checkpoint)
    finally:
        if tracer is not None:
            tracer.restore()
        daemon.close()
    return {"window": window, "fps": total / (flushed - start),
            "ingest": ingest, "flush_s": flushed - flush_start,
            "report": body, "handler_s": handler, "save_s": saves,
            "cells": cells, "checkpoint_bytes": ckpt_bytes}


# -- worker part ---------------------------------------------------------------

def _worker(bank: Path, path: Path, total: int, options: dict,
            tracer: Tracer | None) -> dict:
    from repro.net.rawpacket import RawPacket
    from repro.pipeline import RealtimePipeline, ingest_pcap, load_bank
    from repro.pipeline import bank as bank_module
    from repro.pipeline import engine
    from repro.reporting import render_rollup_report
    from repro.telemetry.rollup import RollupCube

    from repro.features import extract

    pipeline = RealtimePipeline(load_bank(bank), batch_size=64,
                                retention="rollup")
    live_peak = [0]
    if tracer is not None:
        sweep, flush = RealtimePipeline.flush_idle, RealtimePipeline.flush

        def watch(fn):
            def watched(self, *args, **kwargs):
                live_peak[0] = max(live_peak[0], self.live_flows)
                return fn(self, *args, **kwargs)
            return watched
        RealtimePipeline.flush_idle = watch(sweep)
        RealtimePipeline.flush = watch(flush)
        tracer.wrap(RawPacket, "parse", "rawpacket.decode")
        tracer.wrap(RawPacket, "promote", "engine.promote")
        tracer.wrap(RealtimePipeline, "process_raw", "engine.flow_table")
        tracer.wrap(engine, "parse_flow_handshake", "", _handshake_kind,
                    ("extract.tcp_handshake", "extract.quic_handshake"))
        tracer.wrap(extract, "unprotect_client_initial", "quic.unprotect")
        tracer.wrap(engine, "extract_attributes", "extract.attributes")
        tracer.wrap(engine, "detect_provider", "providers.detect")
        tracer.wrap(bank_module.ClassifierBank, "classify_batch",
                    "bank.classify")
        tracer.wrap(RollupCube, "ingest", "rollup.ingest")
        tracer.wrap(RealtimePipeline, "flush_idle", "ticks.sweep")
        tracer.wrap(RealtimePipeline, "flush", "ticks.sweep")
        if "checkpoint_dir" in options:
            tracer.wrap(RealtimePipeline, "save_checkpoint",
                        "checkpoint.save")
    try:
        start = time.perf_counter()
        ingest_pcap(pipeline, path, **options)
        pipeline.flush()
        render_start = time.perf_counter()
        report = render_rollup_report(pipeline.rollup)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
            RealtimePipeline.flush_idle, RealtimePipeline.flush = \
                sweep, flush
    renders = []
    for _ in range(REPORT_QUERIES):
        began = time.perf_counter()
        render_rollup_report(pipeline.rollup)
        renders.append(time.perf_counter() - began)
    return {"wall": end - start, "fps": total / (end - start),
            "render_first": end - render_start, "render_s": renders,
            "report": report, "counters": pipeline.counters,
            "cells": len(pipeline.rollup), "live_peak": live_peak[0]}


# -- the traced run ------------------------------------------------------------

def traced(workload: str, bank: Path, seed: int, seconds: float,
           workdir: Path) -> workloads.Outcome:
    outcome = workloads.Outcome()
    if workload == "serve-drain":
        capture = inputs.build_capture(inputs.DRAIN_MIX, seed)
    else:
        days = inputs.handshake_days(seed,
                                     round(seconds * workloads.PACED_FPS))
        # serve-paced gives each daemon one day; the replay takes all.
        capture = days[0] if workload == "serve-paced" \
            else inputs.concat(days)
    path = workdir / "capture.pcap"
    capture.write(path)
    truth = capture.truth
    total = truth.frames
    mframes = total / 1e6
    flags, options = _options(workload, workdir / "replay-ck")

    parent_plain = _parent(bank, path, total, flags, workdir, None)
    parent_tracer = Tracer()
    parent = _parent(bank, path, total, flags, workdir, parent_tracer)
    # Rollup retention, as the daemon's workers and the replay keep.
    worker_plain = _worker(bank, path, total, options, None)
    worker_tracer = Tracer()
    worker = _worker(bank, path, total, options, worker_tracer)
    outcome.attempted = 4
    for name, part in (("parent", parent), ("worker", worker),
                       ("parent untraced", parent_plain)):
        text = part["report"]
        if isinstance(text, bytes):
            text = text.decode()
        outcome.check(f"traced run: {name} report equals the "
                      f"single-process report",
                      text == worker_plain["report"], "report bytes")
    counters = worker["counters"]
    workloads.check_counters(outcome, "traced worker", vars(counters),
                             truth)

    for name, tracer in (("parent", parent_tracer),
                         ("worker", worker_tracer)):
        outcome.check(f"traced run: every {name} wrap target exists",
                      not tracer.missing, tracer.missing)
        outcome.check(f"traced run: every {name} layer recorded a call",
                      not tracer.silent(), tracer.silent())
    # Parent window: ingest-thread self times + unattributed = window.
    ingest = parent["ingest"]
    parent_layers = {name: record[2] for name, record in ingest.items()}
    parent_unattributed = parent["window"] - sum(parent_layers.values())
    # Worker wall: self times + unattributed = wall.
    w = worker_tracer
    worker_layers = {name: record[2] for (name, _), record in
                     w.stats.items()}
    worker_unattributed = worker["wall"] - sum(worker_layers.values())
    # Self times are disjoint, so they cannot sum past the window.
    outcome.check("parent self times fit in the window",
                  parent_unattributed >= 0, parent_unattributed)
    outcome.check("worker self times fit in the wall time",
                  worker_unattributed >= 0, worker_unattributed)

    def self_s(tracer: Tracer, layer: str) -> float:
        return tracer.total(layer)[2]

    def calls(tracer: Tracer, layer: str) -> int:
        return int(tracer.total(layer)[0])

    tcp_flows = truth.flows - truth.quic_flows
    verdicts = counters.video_flows + counters.non_video_flows + \
        counters.parse_failures
    batches = calls(w, "bank.classify")
    predicted = counters.classified + counters.partial + counters.unknown
    if workload == "replay-handshake":
        saves = w.total("checkpoint.save")
        save_ms = saves[1] / max(1, saves[0]) * 1e3
        ckpt_bytes = _dir_bytes(workdir / "replay-ck")
    else:
        save_ms = median(parent["save_s"]) * 1e3
        ckpt_bytes = parent["checkpoint_bytes"]
    handler = parent_tracer.total("api.handler")
    outcome.metrics = {
        "sources.poll_s_per_mframe":
            parent_layers.get("sources.poll", 0.0) / mframes,
        "rawpacket.decode_s_per_mframe":
            (parent_layers.get("rawpacket.decode", 0.0)
             + self_s(w, "rawpacket.decode")) / mframes,
        "parallel.route_s_per_mframe":
            parent_layers.get("parallel.route", 0.0) / mframes,
        "engine.flow_table_s_per_mframe":
            self_s(w, "engine.flow_table") / mframes,
        "parallel.barrier_wait_ms":
            parent_tracer.total("parallel.barrier")[1] * 1e3,
        "engine.promotions_per_flow":
            calls(w, "engine.promote") / max(1, truth.flows),
        "engine.promote_s_per_mframe":
            self_s(w, "engine.promote") / mframes,
        "extract.parse_calls_per_flow":
            (calls(w, "extract.tcp_handshake")
             + calls(w, "extract.quic_handshake")) / max(1, verdicts),
        "extract.tcp_handshake_ms_per_flow":
            self_s(w, "extract.tcp_handshake") / max(1, tcp_flows) * 1e3,
        "quic.unprotect_ms_per_flow":
            self_s(w, "quic.unprotect") / max(1, truth.quic_flows) * 1e3,
        "extract.attributes_ms_per_flow":
            self_s(w, "extract.attributes") / max(1, truth.video_flows)
            * 1e3,
        "providers.detect_us_per_flow":
            self_s(w, "providers.detect")
            / max(1, calls(w, "providers.detect")) * 1e6,
        "bank.classify_ms_per_flow":
            self_s(w, "bank.classify") / max(1, predicted) * 1e3,
        "bank.flows_per_batch": predicted / max(1, batches),
        "rollup.ingest_us_per_record":
            self_s(w, "rollup.ingest") / max(1, calls(w, "rollup.ingest"))
            * 1e6,
        "ticks.sweep_ms":
            self_s(w, "ticks.sweep") / max(1, calls(w, "ticks.sweep"))
            * 1e3,
        "engine.live_flows_peak": float(worker["live_peak"]),
        "rollup.cells": float(parent["cells"]),
        "rollup_report.render_ms": median(worker["render_s"]) * 1e3,
        "api.report_handler_ms":
            handler[1] / max(1, handler[0]) * 1e3,
        "checkpoint.save_ms": save_ms,
        "checkpoint.bytes": float(ckpt_bytes),
        "unattributed_s_per_mframe":
            (parent_unattributed + worker_unattributed) / mframes,
        "trace.parent_overhead_pct":
            (parent_plain["fps"] / parent["fps"] - 1.0) * 100.0,
        "trace.worker_overhead_pct":
            (worker_plain["fps"] / worker["fps"] - 1.0) * 100.0,
    }
    outcome.notes.update(
        capture=truth.summary(),
        parent_window_s=round(parent["window"], 4),
        parent_self_s={k: round(v, 4) for k, v in
                       sorted(parent_layers.items())},
        parent_unattributed_s=round(parent_unattributed, 4),
        worker_wall_s=round(worker["wall"], 4),
        worker_self_s={k: round(v, 4) for k, v in
                       sorted(worker_layers.items())},
        worker_unattributed_s=round(worker_unattributed, 4),
        fps={"parent_untraced": round(parent_plain["fps"], 1),
             "parent_traced": round(parent["fps"], 1),
             "worker_untraced": round(worker_plain["fps"], 1),
             "worker_traced": round(worker["fps"], 1)},
        flush_s=round(parent["flush_s"], 4),
        missing=parent_tracer.missing + worker_tracer.missing)
    return outcome
