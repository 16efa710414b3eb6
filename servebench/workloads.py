"""The three workloads: a drained tap capture, a paced live feed with
queries, and a single-process handshake replay.

Each workload returns a :class:`Outcome`: its end-to-end metrics, the
operations it attempted and saw fail, and the result of every
correctness check. Every run starts the program in fresh processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import inputs
import replay_child
from harness import Api, BenchError, Daemon, percentile, program_env

#: Frames per second the paced feed is appended at (see README for how
#: it was chosen).
PACED_FPS = 1500
#: Seconds of the paced feed appended after each serve-drain drain,
#: at the same rate, to measure the ingest lag of new traffic on a
#: caught-up daemon (status polls only: a counters read stalls ingest).
PROBE_SECONDS = 1.0
#: Seconds of the paced feed serve-drain gives one more fresh daemon,
#: once per run, for its classify lag: long enough that each worker's
#: batch of 64 fills about five times. A fresh daemon's cube holds
#: only the probe's few cells, so its ``/api/counters`` reads are
#: cheap; on the drained daemon each read of the day's cube takes
#: about a second and would set the lag by itself.
CLASSIFY_PROBE_SECONDS = 6.0
#: Counters cadence during that probe.
PROBE_COUNTERS_EVERY_S = 0.1
#: Daemon flags of serve-paced: capture-clock idle eviction, wall-clock
#: checkpoints, and an event log to count the checkpoints.
PACED_IDLE_TIMEOUT_S = 3600
PACED_CHECKPOINT_INTERVAL_S = 2
#: How often the feeding thread appends the frames that fell due.
WRITE_EVERY_S = 0.005
#: Poll cadences (seconds): status on the feeding thread; counters,
#: reports and /proc on the sampler thread; status while a backlog drains.
STATUS_EVERY_S = 0.02
COUNTERS_EVERY_S = 1.0
REPORTS_PER_ROUND = 3
MEMORY_EVERY_S = 0.05
DRAIN_POLL_S = 0.02
#: Rounds each serve-drain / replay-handshake run makes at least.
MIN_ROUNDS = 3
REPORT_QUERIES = 9
#: Platform agreement floor (see README): among flows of trained
#: platforms that the pipeline labels "classified", the share whose
#: platform equals the generator's label.
AGREEMENT_FLOOR = 0.85
#: Labels the campus generator draws from outside the trained space.
UNTRAINED_LABELS = frozenset(("linux_chrome", "webOS_nativeApp"))

END_TO_END_UNITS = {
    "fps": "1/s",
    "cpu_s_per_mframe": "s/Mframe",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "stop_s": "s",
    "query_p50_ms": "ms",
    "ingest_lag_p50_ms": "ms",
    "ingest_lag_p95_ms": "ms",
    "classify_lag_p50_ms": "ms",
}


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks.append((name, bool(ok), str(detail)))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


class Ops:
    """Counts the program operations a run attempts (API requests,
    checkpoints, launches, replays) and those that fail."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self._lock = threading.Lock()

    def record(self, ok: bool, count: int = 1) -> None:
        with self._lock:
            self.outcome.attempted += count
            if not ok:
                self.outcome.failed += count

    def call(self, fn, *args):
        try:
            value = fn(*args)
        except (BenchError, OSError):
            self.record(False)
            raise
        self.record(True)
        return value


# -- truth checks -----------------------------------------------------------

def check_counters(outcome: Outcome, label: str, counters: dict,
                   truth: inputs.Truth) -> None:
    predicted = counters["classified"] + counters["partial"] + \
        counters["unknown"]
    expect = {
        "packets": truth.frames - truth.non_ipv4_frames,
        "flows": truth.flows,
        "video_flows": truth.video_flows,
        "non_video_flows": truth.non_video_flows,
        "parse_failures": 0,
        "incomplete": 0,
    }
    for name, want in expect.items():
        outcome.check(f"{label}: {name}", counters[name] == want,
                      f"{counters[name]} vs {want}")
    outcome.check(f"{label}: every video flow predicted",
                  predicted == truth.video_flows,
                  f"{predicted} vs {truth.video_flows}")


def check_totals(outcome: Outcome, label: str,
                 totals: dict[str, list[int]], truth: inputs.Truth) -> None:
    want = {name: [truth.provider_flows[name], truth.provider_bytes[name]]
            for name in truth.provider_flows}
    outcome.check(f"{label}: per-provider rollup flows and bytes",
                  totals == want, f"{totals} vs {want}")


def check_agreement(outcome: Outcome, label: str, predictions: list,
                    truth: inputs.Truth) -> float:
    considered = agreed = 0
    for key, status, platform in predictions:
        wanted = truth.labels.get(tuple(key))
        if wanted is None or wanted in UNTRAINED_LABELS:
            continue
        if status == "classified":
            considered += 1
            agreed += platform == wanted
    share = agreed / max(1, considered)
    outcome.check(f"{label}: platform agreement >= {AGREEMENT_FLOOR}",
                  share >= AGREEMENT_FLOOR,
                  f"{share:.4f} over {considered} classified flows")
    outcome.notes["agreement"] = round(share, 4)
    return share


def checkpoint_totals(checkpoint: Path) -> dict[str, list[int]]:
    """Per-provider (flows, bytes) of the rollup in a daemon's
    checkpoint, read with the program's own checkpoint loader."""
    from repro.pipeline.checkpoint import load_sharded_states

    totals: dict[str, list[int]] = {}
    for state in load_sharded_states(checkpoint):
        for key, cell in state.rollup.items():
            entry = totals.setdefault(key.provider.value, [0, 0])
            entry[0] += cell.flows
            entry[1] += cell.bytes_down + cell.bytes_up
    return totals


# -- single-process replays -------------------------------------------------

def run_replay(bank: Path, capture: Path, workdir: Path, measure: bool,
               ingest: str = "raw") -> tuple[dict, float]:
    """One ``replay_child.py`` process; returns its result and the
    launch-to-ready set-up time."""
    result_path = workdir / ("replay.json" if measure else "oracle.json")
    command = [sys.executable, str(Path(__file__).with_name(
        "replay_child.py")), "--bank", str(bank), "--capture",
        str(capture), "--result", str(result_path), "--ingest", ingest]
    if measure:
        command += ["--measure", "--checkpoint-dir",
                    str(workdir / "replay-checkpoint")]
    launched = time.monotonic()
    completed = subprocess.run(command, env=program_env(),
                               capture_output=True, text=True,
                               timeout=170.0)
    if completed.returncode != 0:
        raise BenchError(f"replay exited {completed.returncode}: "
                         f"{completed.stderr[-1500:]}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - launched


def oracle(bank: Path, capture: inputs.Capture, path: Path,
           workdir: Path, outcome: Outcome, ops: Ops,
           label: str = "oracle") -> dict:
    """The batch oracle over ``capture`` (written to ``path``), checked
    against the generator's truth."""
    result, _ = ops.call(run_replay, bank, path, workdir, False)
    truth = capture.truth
    check_counters(outcome, label, result["counters"], truth)
    check_totals(outcome, label, result["provider_totals"], truth)
    check_agreement(outcome, label, result["predictions"], truth)
    outcome.check(f"{label}: non-IPv4 frames skipped",
                  result["skipped"] == truth.non_ipv4_frames,
                  f"{result['skipped']} vs {truth.non_ipv4_frames}")
    outcome.notes["rollup_cells"] = result["rollup_cells"]
    return result


# -- paced feeding ----------------------------------------------------------

class Sampler(threading.Thread):
    """The load process's second thread: reads ``/api/counters`` (flows
    predicted) every ``counters_every`` seconds and ``/api/report``
    (query latency) at fixed points, and samples ``/proc`` (PSS); the
    feeding thread polls the status. A ``counters_every`` of 0 or
    ``reports`` false turns that read off."""

    def __init__(self, daemon: Daemon, ops: Ops, counters_every: float,
                 reports: bool, t0: float, window: float) -> None:
        super().__init__(name="servebench-sampler", daemon=True)
        self.daemon_ = daemon
        self.ops = ops
        self.counters_every = counters_every
        # Counters from half a period into the feed; reports at fixed
        # fractions of the feed window, so every round queries the cube
        # at the same feed positions.
        self._counters_at = t0 + counters_every / 2
        self._reports_at = [t0 + window * (k + 0.5) / REPORTS_PER_ROUND
                            for k in range(REPORTS_PER_ROUND)] \
            if reports else []
        self.predicted: list[tuple[float, int]] = []
        self.report_s: list[float] = []
        self.counters_s: list[float] = []
        self.peak_pss = 0.0
        self.error: BaseException | None = None
        self._halt = threading.Event()

    def run(self) -> None:
        api = self.daemon_.api
        clock = time.perf_counter
        next_counters = self._counters_at
        reports = list(self._reports_at)
        next_memory = clock()
        try:
            while not self._halt.is_set():
                now = clock()
                if self.counters_every and now >= next_counters:
                    counters = self.ops.call(api.json, "GET",
                                             "/api/counters")
                    self.predicted.append((clock(), counters["classified"]
                                           + counters["partial"]
                                           + counters["unknown"]))
                    self.counters_s.append(clock() - now)
                    next_counters += self.counters_every
                if reports and now >= reports[0]:
                    reports.pop(0)
                    elapsed, _ = self.ops.call(api.timed, "GET",
                                               "/api/report")
                    self.report_s.append(elapsed)
                if now >= next_memory:
                    self.peak_pss = max(self.peak_pss,
                                        self.daemon_.pss_mb())
                    next_memory = now + MEMORY_EVERY_S
                self._halt.wait(0.005)
        except BaseException as exc:  # replint: disable=RPL004 -- thread boundary: the error is re-raised in the main thread by finish()
            self.error = exc

    def finish(self) -> None:
        self._halt.set()
        self.join(timeout=30.0)
        if self.is_alive():
            raise BenchError("sampler thread did not stop")
        if self.error is not None:
            raise BenchError(f"sampler failed: {self.error}")


def feed(path: Path, records: list[bytes], rate: float, t0: float,
         api: Api, ops: Ops, consumed_target: int
         ) -> tuple[float, list[tuple[float, int]]]:
    """Append ``records`` to the tailed capture at ``rate`` frames/s
    (open loop: frame i is due at ``t0 + i / rate`` whatever the daemon
    does), polling ``/api/status`` every :data:`STATUS_EVERY_S` in
    between and afterwards, until the daemon has consumed
    ``consumed_target`` frames. Status polls live on this thread so the
    sampler's slow reads never delay them. Returns the generator's
    worst lateness and the ``(time, consumed)`` samples."""
    total = len(records)
    written = 0
    worst = 0.0
    samples: list[tuple[float, int]] = []
    next_status = t0
    consumed = 0
    deadline = t0 + total / rate + 120.0
    with open(path, "ab", buffering=0) as fh:
        while True:
            now = time.perf_counter()
            due = min(total, int((now - t0) * rate) + 1)
            if due > written:
                fh.write(b"".join(records[written:due]))
                worst = max(worst, now - (t0 + written / rate))
                written = due
            if now >= next_status:
                consumed = ops.call(api.json, "GET",
                                    "/api/status")["consumed"]
                samples.append((time.perf_counter(), consumed))
                next_status = now + STATUS_EVERY_S
                if written == total and consumed >= consumed_target:
                    return worst, samples
            if now > deadline:
                raise BenchError(f"daemon consumed {consumed} of "
                                 f"{consumed_target} frames in time")
            time.sleep(WRITE_EVERY_S)


def _first_samples(samples: list[tuple[float, int]], base: int,
                   count: int) -> list[float]:
    """For each n in 1..``count``: the time of the first sample whose
    counter, less ``base``, reached n (the moment a client polling the
    API first sees it). Values never reached are left out."""
    times = []
    for at, value in samples:
        while len(times) < count and value - base > len(times):
            times.append(at)
    return times


def ingest_lags(t0: float, rate: float, total: int, base: int,
                samples: list[tuple[float, int]]) -> list[float]:
    """Per frame: the first ``/api/status`` sample counting it
    consumed, minus its due time. ``base`` is the consumed count before
    the feed began."""
    reached = _first_samples(samples, base, total)
    return [at - (t0 + i / rate) for i, at in enumerate(reached)]


def classify_lags(t0: float, rate: float, completions: list[int],
                  base: int, samples: list[tuple[float, int]],
                  final_at: float) -> list[float]:
    """Per video flow (in handshake-completion order): the first
    ``/api/counters`` sample counting that many flows predicted, minus
    the due time of the frame that completed its handshake. Flows
    still unpredicted at the last sample are predicted by the final
    flush, which returned at ``final_at``."""
    reached = _first_samples(samples, base, len(completions))
    reached += [final_at] * (len(completions) - len(reached))
    return [at - (t0 + index / rate)
            for index, at in zip(completions, reached)]


def await_consumed(api: Api, ops: Ops, total: int,
                   timeout: float = 120.0) -> dict:
    deadline = time.perf_counter() + timeout
    while True:
        status = ops.call(api.json, "GET", "/api/status")
        if status["consumed"] >= total:
            return status
        if time.perf_counter() > deadline:
            raise BenchError(f"daemon consumed {status['consumed']} of "
                             f"{total} frames before the deadline")
        time.sleep(DRAIN_POLL_S)


def paced_feed(daemon: Daemon, ops: Ops, source: Path,
               capture: inputs.Capture, base_consumed: int,
               base_predicted: int, counters_every: float,
               reports: bool) -> dict[str, object]:
    """Feed ``capture`` at :data:`PACED_FPS` into the tailed ``source``
    (polling ``/api/status`` on this thread) while the sampler thread
    samples PSS and, as asked, reads ``/api/counters`` and
    ``/api/report``; then flush. Returns lags, fps, query latencies and
    memory."""
    records = [inputs.pcap_records([(data, ts)])
               for data, ts in capture.frame_bytes()]
    total = len(records)
    t0 = time.perf_counter() + 0.1
    sampler = Sampler(daemon, ops, counters_every, reports, t0,
                      total / PACED_FPS)
    cpu0 = daemon.cpu_seconds()
    sampler.start()
    try:
        worst, status = feed(source, records, PACED_FPS, t0, daemon.api,
                             ops, base_consumed + total)
        ops.call(daemon.api.json, "POST", "/api/flush")
        flushed = time.perf_counter()
    finally:
        sampler.finish()
    cpu1 = daemon.cpu_seconds()
    ingest = ingest_lags(t0, PACED_FPS, total, base_consumed, status)
    classify = classify_lags(t0, PACED_FPS, capture.truth.completions,
                             base_predicted, sampler.predicted, flushed)
    return {
        "fps": total / (flushed - t0),
        "cpu_s": cpu1 - cpu0,
        "frames": total,
        "ingest_lag_s": ingest,
        "classify_lag_s": classify,
        "report_s": sampler.report_s,
        "peak_pss": sampler.peak_pss,
        "generator_late_s": worst,
        "counters_s": sampler.counters_s,
    }


def _daemon_counters(daemon: Daemon, ops: Ops) -> dict:
    return ops.call(daemon.api.json, "GET", "/api/counters")


def _stop(daemon: Daemon, ops: Ops) -> float:
    """SIGTERM, which writes the final checkpoint; returns ``stop_s``."""
    try:
        daemon.stop()
    except BenchError:
        ops.record(False)
        raise
    ops.record(True)  # the final checkpoint
    return daemon.stop_s


def _stop_and_check(daemon: Daemon, ops: Ops, outcome: Outcome,
                    label: str, truth: inputs.Truth) -> float:
    """:func:`_stop`, then the checkpoint's rollup totals against the
    truth."""
    stop_s = _stop(daemon, ops)
    check_totals(outcome, f"{label} checkpoint",
                 checkpoint_totals(daemon.workdir / "checkpoint"), truth)
    return stop_s


class MemoryWatch(threading.Thread):
    """Samples the daemon fleet's summed PSS while a drain runs."""

    def __init__(self, daemon: Daemon) -> None:
        super().__init__(name="servebench-memory", daemon=True)
        self.daemon_ = daemon
        self.peak = 0.0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak = max(self.peak, self.daemon_.pss_mb())
            self._halt.wait(MEMORY_EVERY_S)

    def finish(self) -> float:
        self._halt.set()
        self.join(timeout=10.0)
        return self.peak


# -- workloads --------------------------------------------------------------

def serve_drain(bank: Path, seed: int, seconds: float,
                workdir: Path) -> Outcome:
    """Tail a pre-written tap capture and drain it; the clock runs from
    ``/readyz`` 200 until ``POST /api/flush`` returns. After the drain,
    one second of the paced feed measures the ingest lag of new traffic
    on the caught-up daemon. A classify probe on one more fresh daemon
    measures the classify lag (see :func:`_classify_probe`)."""
    outcome = Outcome()
    ops = Ops(outcome)
    tap = inputs.build_capture(inputs.DRAIN_MIX, seed)
    probe = inputs.build_capture(
        inputs.handshake_mix(round(PROBE_SECONDS * PACED_FPS)),
        seed + 1_000_003, after=tap)
    classify_probe = inputs.build_capture(
        inputs.handshake_mix(round(CLASSIFY_PROBE_SECONDS * PACED_FPS)),
        seed + 2_000_003)
    tap_path = workdir / "tap.pcap"
    tap.write(tap_path)
    outcome.notes["tap"] = tap.truth.summary()
    outcome.notes["probe"] = probe.truth.summary()
    outcome.notes["classify_probe"] = classify_probe.truth.summary()
    reference = oracle(bank, tap, tap_path, workdir, outcome, ops)
    fed = inputs.concat([tap, probe]).truth

    rounds: list[dict[str, float]] = []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        rundir = workdir / f"drain{len(rounds)}"
        source = rundir / "tap.pcap"
        if not rundir.exists():
            _stage(tap_path, rundir)
        # The next round's copy is written now, outside every timed
        # window, so no round drains while its file is still flushing.
        _stage(tap_path, workdir / f"drain{len(rounds) + 1}")
        daemon = Daemon(bank, source, rundir, [])
        try:
            ops.call(daemon.launch)
            round_ = _drain_round(daemon, ops, outcome, tap, probe, fed,
                                  reference, source, len(rounds) == 0)
        finally:
            daemon.kill()
        measured += round_.pop("measured_s")
        rounds.append(round_)
    _summarize(outcome, rounds)
    classify = _classify_probe(bank, workdir / "classify", classify_probe,
                               ops, outcome)
    outcome.metrics["classify_lag_p50_ms"] = percentile(classify, 50) * 1e3
    return outcome


def _classify_probe(bank: Path, rundir: Path, capture: inputs.Capture,
                    ops: Ops, outcome: Outcome) -> list[float]:
    """A fresh daemon (default flags) tails an empty capture while
    ``capture`` is appended at :data:`PACED_FPS` and ``/api/counters``
    is read every :data:`PROBE_COUNTERS_EVERY_S`; returns each video
    flow's classify lag. With the default batch of 64 and no idle
    eviction a flow is classified when its worker's batch fills or at
    the closing flush, and counted at the next counters read."""
    rundir.mkdir()
    source = rundir / "feed.pcap"
    source.write_bytes(inputs.PCAP_GLOBAL_HEADER)
    daemon = Daemon(bank, source, rundir, [])
    label = "serve-drain classify probe"
    try:
        ops.call(daemon.launch)
        lag = paced_feed(daemon, ops, source, capture, 0, 0,
                         counters_every=PROBE_COUNTERS_EVERY_S,
                         reports=False)
        check_counters(outcome, label, _daemon_counters(daemon, ops),
                       capture.truth)
        _stop_and_check(daemon, ops, outcome, label, capture.truth)
    finally:
        daemon.kill()
    outcome.notes["classify_probe_counters_ms"] = median(
        lag["counters_s"]) * 1e3
    return lag["classify_lag_s"]


def _stage(tap_path: Path, rundir: Path) -> None:
    """A round's private copy of the tap capture (the probe appends to
    it), synced to disk before any round that could read it runs."""
    rundir.mkdir()
    copy = rundir / "tap.pcap"
    with open(copy, "wb") as fh:
        fh.write(tap_path.read_bytes())
        fh.flush()
        os.fsync(fh.fileno())


def _drain_round(daemon: Daemon, ops: Ops, outcome: Outcome,
                 tap: inputs.Capture, probe: inputs.Capture,
                 fed: inputs.Truth, reference: dict, source: Path,
                 first: bool) -> dict[str, float]:
    """One fresh daemon: drain, flush, query, probe, stop. Every round
    checks counters and live-vs-batch report bytes; the first also
    checks the post-probe counters and the final checkpoint's
    rollup."""
    api = daemon.api
    label = "serve-drain"
    memory = MemoryWatch(daemon)
    start = time.perf_counter()
    cpu0 = daemon.cpu_seconds()
    memory.start()
    try:
        await_consumed(api, ops, tap.truth.frames)
        ops.call(api.json, "POST", "/api/flush")
        end = time.perf_counter()
        cpu1 = daemon.cpu_seconds()
        # Read after the flush: it takes the ingest lock, so the last
        # polled batch has been processed and counted.
        status = ops.call(api.json, "GET", "/api/status")
        queries = []
        body = b""
        for _ in range(REPORT_QUERIES):
            elapsed, body = ops.call(api.timed, "GET", "/api/report")
            queries.append(elapsed)
        counters = _daemon_counters(daemon, ops)
        check_counters(outcome, label, counters, tap.truth)
        outcome.check(f"{label}: frames consumed",
                      status["consumed"] == tap.truth.frames,
                      status["consumed"])
        outcome.check(f"{label}: skipped equals non-IPv4 frames",
                      status["skipped"] == tap.truth.non_ipv4_frames,
                      f"{status['skipped']} vs {tap.truth.non_ipv4_frames}")
        outcome.check(f"{label}: /api/report equals the batch replay's "
                      f"report", body.decode() == reference["report"],
                      "live vs batch bytes")
        predicted = counters["classified"] + counters["partial"] + \
            counters["unknown"]
        lag = paced_feed(daemon, ops, source, probe, tap.truth.frames,
                         predicted, counters_every=0.0, reports=False)
        if first:
            check_counters(outcome, f"{label} after probe",
                           _daemon_counters(daemon, ops), fed)
    finally:
        peak = memory.finish()
    if first:
        stop_s = _stop_and_check(daemon, ops, outcome, label, fed)
    else:
        stop_s = _stop(daemon, ops)
    return {
        "measured_s": end - start + PROBE_SECONDS,
        "fps": tap.truth.frames / (end - start),
        "cpu_s_per_mframe": (cpu1 - cpu0) / (tap.truth.frames / 1e6),
        "setup_s": daemon.setup_s,
        "peak_mem_mb": peak,
        "stop_s": stop_s,
        "query_p50_ms": median(queries) * 1e3,
        "ingest_lag_p50_ms": percentile(lag["ingest_lag_s"], 50) * 1e3,
        "ingest_lag_p95_ms": percentile(lag["ingest_lag_s"], 95) * 1e3,
    }


def serve_paced(bank: Path, seed: int, seconds: float,
                workdir: Path) -> Outcome:
    """Open loop: one simulated day of the handshake-heavy feed per
    round, appended at :data:`PACED_FPS` to a fresh daemon's tailed
    capture while ``/api/status``, ``/api/counters`` and ``/api/report``
    are polled; idle eviction and wall-clock checkpoints on. The run's
    rounds share ``seconds`` of feeding."""
    outcome = Outcome()
    ops = Ops(outcome)
    days = inputs.handshake_days(seed, round(seconds * PACED_FPS))
    outcome.notes["feed"] = inputs.concat(days).truth.summary()
    extra = ["--idle-timeout", str(PACED_IDLE_TIMEOUT_S),
             "--checkpoint-interval", str(PACED_CHECKPOINT_INTERVAL_S)]
    references = []
    for day, capture in enumerate(days):
        path = workdir / f"day{day}.pcap"
        capture.write(path)
        references.append(oracle(bank, capture, path, workdir, outcome,
                                 ops, f"oracle day {day}"))
    rounds = []
    pooled: dict[str, list[float]] = {"ingest": [], "classify": [],
                                      "report": []}
    for day, capture in enumerate(days):
        rundir = workdir / f"paced{day}"
        rundir.mkdir()
        source = rundir / "feed.pcap"
        source.write_bytes(inputs.PCAP_GLOBAL_HEADER)
        events = rundir / "events.jsonl"
        daemon = Daemon(bank, source, rundir,
                        extra + ["--event-log", str(events)])
        try:
            ops.call(daemon.launch)
            lag = paced_feed(daemon, ops, source, capture, 0, 0,
                             counters_every=COUNTERS_EVERY_S, reports=True)
            _check_paced(daemon, ops, outcome, capture, references[day],
                         events)
            stop_s = _stop_and_check(daemon, ops, outcome,
                                     f"serve-paced day {day}",
                                     capture.truth)
        finally:
            daemon.kill()
        lines = [json.loads(line) for line in
                 events.read_text().splitlines() if line.strip()]
        checkpoints = sum(1 for e in lines if e["event"] == "checkpoint")
        ops.record(True, checkpoints - 1)  # periodic; final one counted
        outcome.check(f"serve-paced day {day}: no ingest errors",
                      not any(e["event"] == "service_ingest_error"
                              for e in lines), "event log")
        outcome.check(f"serve-paced day {day}: a periodic checkpoint "
                      f"landed", checkpoints >= 2, checkpoints)
        pooled["ingest"] += lag["ingest_lag_s"]
        pooled["classify"] += lag["classify_lag_s"]
        pooled["report"] += lag["report_s"]
        rounds.append({
            "fps": lag["fps"],
            "cpu_s_per_mframe": lag["cpu_s"] / (lag["frames"] / 1e6),
            "setup_s": daemon.setup_s,
            "peak_mem_mb": lag["peak_pss"],
            "stop_s": stop_s,
            "generator_late_ms": lag["generator_late_s"] * 1e3,
            "counters_ms": median(lag["counters_s"]) * 1e3,
        })
    outcome.metrics = {
        name: median([r[name] for r in rounds])
        for name in ("fps", "cpu_s_per_mframe", "setup_s", "peak_mem_mb",
                     "stop_s")}
    outcome.metrics.update({
        "query_p50_ms": median(pooled["report"]) * 1e3,
        "ingest_lag_p50_ms": percentile(pooled["ingest"], 50) * 1e3,
        "ingest_lag_p95_ms": percentile(pooled["ingest"], 95) * 1e3,
        "classify_lag_p50_ms": percentile(pooled["classify"], 50) * 1e3,
    })
    outcome.notes["rounds"] = {name: [round(r[name], 4) for r in rounds]
                               for name in rounds[0]}
    return outcome


def _check_paced(daemon: Daemon, ops: Ops, outcome: Outcome,
                 capture: inputs.Capture, reference: dict,
                 events: Path) -> None:
    status = ops.call(daemon.api.json, "GET", "/api/status")
    counters = _daemon_counters(daemon, ops)
    _, body = ops.call(daemon.api.timed, "GET", "/api/report")
    truth = capture.truth
    label = "serve-paced"
    check_counters(outcome, label, counters, truth)
    outcome.check(f"{label}: frames consumed",
                  status["consumed"] == truth.frames, status["consumed"])
    outcome.check(f"{label}: skipped equals non-IPv4 frames",
                  status["skipped"] == truth.non_ipv4_frames,
                  f"{status['skipped']} vs {truth.non_ipv4_frames}")
    outcome.check(f"{label}: idle eviction ran", counters["evicted"] > 0,
                  counters["evicted"])
    outcome.check(f"{label}: /api/report equals the batch replay's "
                  f"report", body.decode() == reference["report"],
                  "live vs batch bytes")


def replay_handshake(bank: Path, seed: int, seconds: float,
                     workdir: Path) -> Outcome:
    """All days of the handshake-heavy feed through ``ingest_pcap``
    into one ``RealtimePipeline``, in a fresh process per round."""
    outcome = Outcome()
    ops = Ops(outcome)
    capture = inputs.concat(inputs.handshake_days(
        seed, round(seconds * PACED_FPS)))
    path = workdir / "feed.pcap"
    capture.write(path)
    outcome.notes["feed"] = capture.truth.summary()
    truth = capture.truth
    rounds: list[dict[str, float]] = []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        result, setup_s = ops.call(run_replay, bank, path, workdir, True)
        wall = result["done"] - result["ready"]
        measured += wall
        # The replay's periodic and final checkpoints, and its report
        # renders, are operations too (a failure would fail the replay).
        ops.record(True, result["checkpoints"] + replay_child.FINAL_SAVES
                   + len(result["query_s"]))
        if not rounds:
            label = "replay-handshake"
            check_counters(outcome, label, result["counters"], truth)
            check_totals(outcome, label, result["provider_totals"], truth)
            check_agreement(outcome, label, result["predictions"], truth)
            outcome.check(f"{label}: frames consumed",
                          result["frames"] + result["skipped"] ==
                          truth.frames, result["frames"])
            outcome.check(f"{label}: skipped equals non-IPv4 frames",
                          result["skipped"] == truth.non_ipv4_frames,
                          result["skipped"])
            outcome.check(f"{label}: idle eviction ran",
                          result["counters"]["evicted"] > 0,
                          result["counters"]["evicted"])
            outcome.check(f"{label}: periodic checkpoints landed",
                          result["checkpoints"] >= 2, result["checkpoints"])
            outcome.notes["rollup_cells"] = result["rollup_cells"]
            outcome.notes["lag_samples"] = result["lag_samples"]
        rounds.append({
            "fps": truth.frames / wall,
            "cpu_s_per_mframe": result["cpu_s"] / (truth.frames / 1e6),
            "setup_s": setup_s,
            "peak_mem_mb": result["peak_rss_mb"],
            "stop_s": result["stop_s"],
            "query_p50_ms": median(result["query_s"]) * 1e3,
            "ingest_lag_p50_ms": result["ingest_lag_s"][0] * 1e3,
            "ingest_lag_p95_ms": result["ingest_lag_s"][1] * 1e3,
            "classify_lag_p50_ms": result["classify_lag_s"] * 1e3,
        })
    _summarize(outcome, rounds)
    return outcome


def _summarize(outcome: Outcome, rounds: list[dict[str, float]]) -> None:
    """Median over rounds for every metric the rounds report."""
    names = [name for name in END_TO_END_UNITS if name in rounds[0]]
    outcome.metrics = {name: median([r[name] for r in rounds])
                       for name in names}
    outcome.notes["rounds"] = {name: [round(r[name], 4) for r in rounds]
                               for name in names}


WORKLOADS = {
    "serve-drain": serve_drain,
    "serve-paced": serve_paced,
    "replay-handshake": replay_handshake,
}
