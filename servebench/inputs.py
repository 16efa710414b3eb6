"""Seeded campus-tap captures and the generator truth they are checked against.

Every capture is a pcap (microsecond, Ethernet) built before any timing
starts, from one integer seed:

* video flows come from the campus generator
  (:class:`repro.trafficgen.CampusWorkload`), so every (provider,
  transport) scenario appears in the campus proportions, QUIC included,
  and flow start times follow the campus diurnal model over one day;
* each video flow is followed by server-to-client 443 payload frames:
  in the tap capture they carry the generator's own downstream bytes
  for the flow (``flow.bytes_down``, from the campus bandwidth model)
  scaled by :data:`TAP_BYTES_SCALE`, so a day's drain fits in seconds;
* non-video TLS flows (TCP and QUIC, with SNIs no provider owns),
  non-443 bulk, an 802.1Q-tagged slice and some ARP/IPv6 frames are
  mixed in. Their ratios have no source in the paper or the campus
  model; they are assumptions, listed in README.md.

The :class:`Truth` of a capture is computed here from what the
generator wrote -- never from the program's output -- and is what the
workloads check counters, rollup totals and platform agreement against.
"""

from __future__ import annotations

import dataclasses
import os
import random
import socket
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.fingerprints import Provider, Transport, UserPlatform, get_profile
from repro.net import EthernetHeader
from repro.trafficgen import (
    CampusConfig,
    CampusWorkload,
    FlowBuildRequest,
    FlowFactory,
)
from repro.util import SeededRNG

from harness import canonical

PCAP_MAGIC_USEC = 0xA1B2C3D4
PCAP_GLOBAL_HEADER = struct.pack("<IHHiIII", PCAP_MAGIC_USEC, 2, 4, 0, 0,
                                 65535, 1)
_RECORD = struct.Struct("<IIII")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")
_MAC_PAIR = bytes.fromhex("020000000002" "020000000001")
_VLAN_ID = 112
_HTTPS = 443

# Server address blocks the benchmark's own flows use, disjoint from
# the campus generator's 203.0.0.0/8 servers so no 5-tuple can collide.
_NONVIDEO_NET = "198.18"
_BULK_NET = "198.19"
_NONVIDEO_HOSTS = ("www.wikipedia.org", "mail.example.edu",
                   "cdn.jsdelivr.net", "api.github.com",
                   "static.campus.example.edu", "login.microsoftonline.com",
                   "www.bbc.co.uk", "news.example.org")
_NONVIDEO_PLATFORMS = ("windows_chrome", "macOS_safari", "iOS_safari",
                       "android_chrome", "windows_firefox")
_BULK_PORTS = ((6, 80), (6, 8080), (17, 53), (17, 123), (6, 22))

# Random bytes every payload frame slices its body from.
_PAYLOAD_POOL = random.Random(0).randbytes(1 << 16)


#: Payload bytes of one full server-to-client frame (TCP MSS on a
#: 1500-byte MTU).
FULL_FRAME = 1448
#: Share of the campus generator's downstream bytes the tap capture
#: carries. At the generator's bandwidth medians (1.5-5.7 Mbps) one day
#: of 750 sessions is about 0.6 TB, 4e8 full frames; 1/5000 of it is
#: about 85k payload frames, a drain of a few seconds.
TAP_BYTES_SCALE = 1 / 5000
#: Downstream bytes and duration of one non-video TLS flow: the campus
#: model's non-content (management) flow, 5 s and 400 kB
#: (``trafficgen/campus.py``).
NONVIDEO_BYTES_DOWN = 400_000
NONVIDEO_DURATION_S = 5.0


@dataclass(frozen=True)
class Mix:
    """The make-up knobs of one capture."""

    name: str
    #: Campus sessions generated over the day.
    sessions: int
    #: Share of each flow's generator ``bytes_down`` carried as payload
    #: frames of :data:`FULL_FRAME` bytes (the last one shorter), spread
    #: over the flow's life. 0 selects ``fixed_payload_frames`` instead.
    bytes_scale: float
    #: Full payload frames after each flow's handshake, 0.1 s apart,
    #: when ``bytes_scale`` is 0 (the handshake-heavy feed).
    fixed_payload_frames: int
    #: Non-video TLS flows per campus video flow, and their QUIC share.
    nonvideo_per_flow: float
    nonvideo_quic_share: float
    #: Non-443 bulk frames per 443 frame.
    bulk_per_443_frame: float
    #: Share of all frames that are ARP/IPv6 (never IPv4).
    non_ipv4_share: float
    #: Share of flows (and bulk frames) carried 802.1Q-tagged.
    vlan_share: float


# The last five knobs of both mixes (non-video flows and their QUIC
# share, bulk, ARP/IPv6, VLAN) are assumptions without a source in the
# paper or the campus model; README.md lists them as such.

#: The tap-capture mix `serve-drain` tails: established-flow payload
#: dominates, handshakes are a few percent of frames.
DRAIN_MIX = Mix(name="tap", sessions=750, bytes_scale=TAP_BYTES_SCALE,
                fixed_payload_frames=0, nonvideo_per_flow=0.35,
                nonvideo_quic_share=0.2, bulk_per_443_frame=0.3,
                non_ipv4_share=0.004, vlan_share=0.1)

#: The handshake-heavy feed `serve-paced` and `replay-handshake` share,
#: and that `serve-drain` probes with: two payload frames per flow, by
#: construction, so handshakes are a third of the frames.
#: ``sessions`` is set per run by :func:`handshake_mix` from the frame
#: count wanted.
HANDSHAKE_MIX = Mix(name="handshake", sessions=0, bytes_scale=0.0,
                    fixed_payload_frames=2, nonvideo_per_flow=0.35,
                    nonvideo_quic_share=0.2, bulk_per_443_frame=0.1,
                    non_ipv4_share=0.004, vlan_share=0.1)
#: Mean frames one campus session yields in the handshake mix
#: (measured over seeds 1-5; the feed length follows the seed's draw).
HANDSHAKE_FRAMES_PER_SESSION = 36.8


#: Simulated days in the handshake feed: `serve-paced` feeds one day per
#: round to a fresh daemon, `replay-handshake` replays all of them.
HANDSHAKE_DAYS = 3


def handshake_mix(frames: int) -> Mix:
    """The handshake-heavy mix sized to about ``frames`` frames."""
    return dataclasses.replace(
        HANDSHAKE_MIX,
        sessions=max(20, round(frames / HANDSHAKE_FRAMES_PER_SESSION)))


@dataclass
class Truth:
    """What the generator wrote, tallied as the pipeline should count it."""

    frames: int = 0
    non_ipv4_frames: int = 0
    https_frames: int = 0
    handshake_frames: int = 0
    #: Payload frames written, and the full frames the generator's
    #: unscaled ``bytes_down`` would have filled.
    payload_frames: int = 0
    unscaled_payload_frames: int = 0
    flows: int = 0
    video_flows: int = 0
    non_video_flows: int = 0
    quic_flows: int = 0
    #: provider name -> video flows / payload bytes (both directions).
    provider_flows: dict[str, int] = field(default_factory=dict)
    provider_bytes: dict[str, int] = field(default_factory=dict)
    #: canonical 5-tuple -> generator platform label, per video flow.
    labels: dict[tuple, str] = field(default_factory=dict)
    #: Frame index (capture order) of the frame that completes each
    #: video flow's handshake, ascending.
    completions: list[int] = field(default_factory=list)

    def summary(self) -> dict[str, object]:
        return {
            "frames": self.frames,
            "flows_443": self.flows,
            "video_flows": self.video_flows,
            "non_video_flows": self.non_video_flows,
            "quic_flow_share": round(self.quic_flows / max(1, self.flows), 4),
            "handshake_frame_share": round(
                self.handshake_frames / max(1, self.frames), 4),
            "https_frame_share": round(
                self.https_frames / max(1, self.frames), 4),
            "handshake_share_of_443": round(
                self.handshake_frames / max(1, self.https_frames), 5),
            "unscaled_handshake_share_of_443": round(
                self.handshake_frames / max(1, self.https_frames
                                            - self.payload_frames
                                            + self.unscaled_payload_frames),
                7),
            "non_ipv4_frames": self.non_ipv4_frames,
        }


@dataclass
class Capture:
    """A built capture: frames in capture order plus their truth."""

    mix: Mix
    seed: int
    frames: list[tuple[float, object]]
    truth: Truth
    #: Canonical 5-tuples of every 443 flow in the capture.
    keys: set[tuple]

    def frame_bytes(self) -> Iterator[tuple[bytes, float]]:
        for timestamp, spec in self.frames:
            yield _materialize(spec), timestamp

    def write(self, path: Path) -> None:
        """Write the pcap and sync it, so no write-back overlaps a
        timed window later."""
        with open(path, "wb") as fh:
            fh.write(PCAP_GLOBAL_HEADER)
            fh.write(pcap_records(self.frame_bytes()))
            fh.flush()
            os.fsync(fh.fileno())


def pcap_records(frames) -> bytes:
    """pcap record bytes (header + frame) for ``(bytes, ts)`` pairs."""
    parts = []
    pack = _RECORD.pack
    for data, timestamp in frames:
        sec = int(timestamp)
        usec = round((timestamp - sec) * 1_000_000)
        if usec >= 1_000_000:
            sec, usec = sec + 1, usec - 1_000_000
        parts.append(pack(sec, usec, len(data), len(data)))
        parts.append(data)
    return b"".join(parts)


# -- frame construction ------------------------------------------------------

_ADDR_CACHE: dict[str, bytes] = {}


def _addr(ip: str) -> bytes:
    raw = _ADDR_CACHE.get(ip)
    if raw is None:
        raw = _ADDR_CACHE[ip] = socket.inet_aton(ip)
    return raw


def _checksum(header: bytes) -> int:
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _eth(vlan: bool, ethertype: int) -> bytes:
    if vlan:
        return _MAC_PAIR + struct.pack("!HHH", 0x8100, _VLAN_ID, ethertype)
    return _MAC_PAIR + struct.pack("!H", ethertype)


def _ipv4_frame(vlan: bool, src: str, dst: str, proto: int, sport: int,
                dport: int, seq: int, length: int) -> bytes:
    """An Ethernet/IPv4/TCP-or-UDP frame carrying ``length`` payload
    bytes (L4 checksum left 0: nothing on the measured path reads it)."""
    offset = seq % (len(_PAYLOAD_POOL) - length) if length else 0
    payload = _PAYLOAD_POOL[offset:offset + length]
    if proto == 6:
        l4 = _TCP.pack(sport, dport, seq & 0xFFFFFFFF, 1, 5 << 4, 0x10,
                       65535, 0, 0)
    else:
        l4 = _UDP.pack(sport, dport, 8 + length, 0)
    total = 20 + len(l4) + length
    header = _IPV4.pack(0x45, 0, total, seq & 0xFFFF, 0x4000, 52, proto, 0,
                        _addr(src), _addr(dst))
    header = header[:10] + struct.pack("!H", _checksum(header)) + \
        header[12:]
    return _eth(vlan, 0x0800) + header + l4 + payload


def _non_ipv4_frame(kind: int, seq: int) -> bytes:
    if kind == 0:  # ARP request
        body = struct.pack("!HHBBH6s4s6s4s", 1, 0x0800, 6, 4, 1,
                           bytes(6), _addr(f"10.0.{seq % 250}.1"), bytes(6),
                           _addr(f"10.0.{seq % 250}.2"))
        return _eth(False, 0x0806) + body
    # IPv6 UDP datagram (DNS-sized)
    payload = _PAYLOAD_POOL[:64]
    ip6 = struct.pack("!IHBB16s16s", 6 << 28, 8 + len(payload), 17, 64,
                      bytes(15) + b"\x01", bytes(15) + b"\x02")
    return _eth(False, 0x86DD) + ip6 + _UDP.pack(5353, 5353,
                                                  8 + len(payload), 0) \
        + payload


def _materialize(spec) -> bytes:
    if isinstance(spec, bytes):
        return spec
    if spec[0] == "ip":
        return _ipv4_frame(*spec[1:])
    return _non_ipv4_frame(spec[1], spec[2])


def _tag(packet, vlan: bool) -> bytes:
    if vlan:
        packet = dataclasses.replace(
            packet, eth=EthernetHeader(vlan_id=_VLAN_ID))
    return packet.to_bytes()


# -- capture assembly --------------------------------------------------------

class _Builder:
    def __init__(self, mix: Mix, seed: int, exclude: set[tuple]) -> None:
        self.mix = mix
        self.rng = random.Random(f"servebench:{mix.name}:{seed}")
        self.truth = Truth()
        # (timestamp, insertion order, spec, completes-a-video-handshake)
        self.frames: list[tuple[float, int, object, bool]] = []
        self.keys: set[tuple] = set(exclude)

    def add(self, timestamp: float, spec: object,
            completes: bool = False) -> None:
        self.frames.append((timestamp, len(self.frames), spec, completes))

    def add_flow(self, flow, vlan: bool, video: bool) -> None:
        """One generated flow: its handshake/sample packets plus the
        payload frames that follow it, all 443 traffic."""
        truth = self.truth
        packets = flow.packets
        quic = flow.transport is Transport.QUIC
        handshake_len = 1 if quic else 4
        payload_bytes = sum(len(p.payload) for p in packets)
        for i, packet in enumerate(packets):
            self.add(packet.timestamp, _tag(packet, vlan),
                     completes=video and i == handshake_len - 1)
        truth.handshake_frames += handshake_len
        key = flow.key
        client, server = key.src_ip, key.dst_ip
        proto, cport = key.protocol, key.src_port
        mix = self.mix
        if mix.bytes_scale:
            scaled = round(flow.bytes_down * mix.bytes_scale)
            sizes = [FULL_FRAME] * (scaled // FULL_FRAME)
            if scaled % FULL_FRAME:
                sizes.append(scaled % FULL_FRAME)
            t0 = packets[-1].timestamp + 0.05
            span = max(1.0, flow.duration - 0.2)
            times = sorted(t0 + self.rng.random() * span for _ in sizes)
        else:
            sizes = [FULL_FRAME] * mix.fixed_payload_frames
            times = [packets[-1].timestamp + 0.1 * (i + 1)
                     for i in range(len(sizes))]
        count = len(sizes)
        for t, length in zip(times, sizes):
            payload_bytes += length
            self.add(t, ("ip", vlan, server, client, proto, _HTTPS, cport,
                         self.rng.getrandbits(32), length))
        truth.payload_frames += count
        truth.unscaled_payload_frames += -(-flow.bytes_down // FULL_FRAME)
        frames = len(packets) + count
        truth.https_frames += frames
        truth.flows += 1
        truth.quic_flows += quic
        if video:
            name = flow.provider.value
            truth.video_flows += 1
            truth.provider_flows[name] = truth.provider_flows.get(name, 0) + 1
            truth.provider_bytes[name] = \
                truth.provider_bytes.get(name, 0) + payload_bytes
            truth.labels[self.flow_key(flow)] = flow.platform_label
        else:
            truth.non_video_flows += 1

    @staticmethod
    def flow_key(flow) -> tuple:
        key = flow.key
        return canonical(key.protocol, key.src_ip, key.src_port,
                         key.dst_ip, key.dst_port)

    def campus(self, seed: int) -> list[float]:
        """Campus video sessions over one day; returns flow start times
        (the non-video/bulk generators follow the same diurnal shape)."""
        workload = CampusWorkload(CampusConfig(
            days=1, sessions_per_day=self.mix.sessions, seed=seed))
        starts = []
        for session in workload.sessions():
            vlan = self.rng.random() < self.mix.vlan_share
            for flow in session.flows:
                key = self.flow_key(flow)
                if key in self.keys:  # 5-tuple reuse: drop, keep truth exact
                    continue
                self.keys.add(key)
                self.add_flow(flow, vlan, video=True)
                starts.append(flow.start_time)
        return starts

    def nonvideo(self, starts: list[float], seed: int) -> None:
        count = round(len(starts) * self.mix.nonvideo_per_flow)
        factory = FlowFactory(SeededRNG(seed * 7919 + 11))
        rng = self.rng
        for i in range(count):
            quic = rng.random() < self.mix.nonvideo_quic_share
            label = ("windows_chrome" if quic
                     else rng.choice(_NONVIDEO_PLATFORMS))
            profile = get_profile(UserPlatform.from_label(label),
                                  Provider.YOUTUBE)
            flow = factory.build(FlowBuildRequest(
                platform_label=label, provider=Provider.YOUTUBE,
                transport=Transport.QUIC if quic else Transport.TCP,
                profile=profile, sni=rng.choice(_NONVIDEO_HOSTS),
                start_time=rng.choice(starts) + rng.random() * 30.0,
                duration=NONVIDEO_DURATION_S,
                bytes_down=NONVIDEO_BYTES_DOWN,
                client_ip=f"10.{rng.randint(1, 250)}.{rng.randint(0, 250)}."
                          f"{rng.randint(2, 250)}",
                server_ip=f"{_NONVIDEO_NET}.{i // 250 % 250}.{i % 250 + 1}"))
            key = self.flow_key(flow)
            if key in self.keys:
                continue
            self.keys.add(key)
            self.add_flow(flow, rng.random() < self.mix.vlan_share,
                          video=False)

    def bulk(self, starts: list[float]) -> None:
        rng = self.rng
        count = round(self.truth.https_frames * self.mix.bulk_per_443_frame)
        for i in range(count):
            proto, port = rng.choice(_BULK_PORTS)
            client = f"10.{rng.randint(1, 250)}.{rng.randint(0, 250)}.9"
            server = f"{_BULK_NET}.{i % 200}.{rng.randint(1, 250)}"
            length = rng.choice((1448, 700, 120, 0)) if proto == 6 \
                else rng.choice((64, 180, 48))
            if rng.random() < 0.5:
                src, dst, sport, dport = client, server, 40000 + i % 20000, \
                    port
            else:
                src, dst, sport, dport = server, client, port, \
                    40000 + i % 20000
            self.add(rng.choice(starts) + rng.random() * 600.0,
                     ("ip", rng.random() < self.mix.vlan_share, src, dst,
                      proto, sport, dport, rng.getrandbits(32), length))

    def non_ipv4(self, starts: list[float]) -> None:
        rng = self.rng
        share = self.mix.non_ipv4_share
        count = round(len(self.frames) * share / (1.0 - share))
        for i in range(count):
            self.add(rng.choice(starts) + rng.random() * 60.0,
                     ("other", i % 2, i))
        self.truth.non_ipv4_frames = count

    def finish(self, seed: int) -> Capture:
        self.frames.sort(key=lambda item: (item[0], item[1]))
        truth = self.truth
        truth.frames = len(self.frames)
        truth.completions = [i for i, item in enumerate(self.frames)
                             if item[3]]
        return Capture(self.mix, seed,
                       [(item[0], item[2]) for item in self.frames], truth,
                       self.keys)


def build_capture(mix: Mix, seed: int,
                  after: Capture | None = None) -> Capture:
    """The seeded capture of ``mix``: same seed, same bytes. With
    ``after``, the capture continues that one: its 5-tuples avoid
    ``after``'s and its clock starts a second after ``after`` ends."""
    builder = _Builder(mix, seed, after.keys if after is not None
                       else set())
    starts = builder.campus(seed)
    builder.nonvideo(starts, seed)
    builder.bulk(starts)
    builder.non_ipv4(starts)
    capture = builder.finish(seed)
    if after is not None:
        shift = after.frames[-1][0] + 1.0 - capture.frames[0][0]
        capture.frames = [(ts + shift, spec) for ts, spec in capture.frames]
    return capture


def handshake_days(seed: int, frames: int) -> list[Capture]:
    """The handshake feed of about ``frames`` frames as
    :data:`HANDSHAKE_DAYS` consecutive one-day captures (disjoint
    5-tuples, each day after the previous one)."""
    mix = handshake_mix(round(frames / HANDSHAKE_DAYS))
    days: list[Capture] = []
    for day in range(HANDSHAKE_DAYS):
        days.append(build_capture(mix, seed * HANDSHAKE_DAYS + day,
                                  after=days[-1] if days else None))
    return days


def concat(captures: list[Capture]) -> Capture:
    """One capture holding ``captures`` back to back, with their truths
    summed (labels merged, completion indices shifted)."""
    truth = Truth()
    frames: list[tuple[float, object]] = []
    keys: set[tuple] = set()
    for capture in captures:
        part = capture.truth
        for name in ("non_ipv4_frames", "https_frames", "handshake_frames",
                     "payload_frames", "unscaled_payload_frames",
                     "flows", "video_flows", "non_video_flows",
                     "quic_flows"):
            setattr(truth, name, getattr(truth, name) + getattr(part, name))
        for name, count in part.provider_flows.items():
            truth.provider_flows[name] = \
                truth.provider_flows.get(name, 0) + count
            truth.provider_bytes[name] = \
                truth.provider_bytes.get(name, 0) + part.provider_bytes[name]
        truth.labels.update(part.labels)
        truth.completions.extend(len(frames) + i for i in part.completions)
        frames.extend(capture.frames)
        keys |= capture.keys
    truth.frames = len(frames)
    return Capture(captures[0].mix, captures[0].seed, frames, truth, keys)
