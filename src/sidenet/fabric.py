"""Deterministic simulated network connecting the hosts' NICs.

The fabric stands in for the cloud datapath: it hashes every frame's UDP
four-tuple with a genuine Toeplitz key (never revealed to the stack), walks
a fixed 128-entry indirection table to pick the destination RX queue, and
injects configurable loss, adjacent-pair reordering, and delay, all on a
virtual microsecond clock. A full run is a pure function of (configs,
seeds, input schedule).

Each frame's header is read once, in send(), straight from the raw bytes:
the Ethernet type, IP version/IHL and protocol bytes are checked, the
destination host is found by its 4-byte address, and the 12 bytes
src_ip | dst_ip | src_port | dst_port at offset 26 are hashed through the
hasher's precomputed 12 x 256 table. The event keeps the host and queue,
so delivery decodes nothing.

Each accepted frame is one heap entry, keyed (due, send order) when it is
pushed and never re-keyed. A reorder swaps a new frame with the frame sent
just before it, if that one is still in flight: the two events exchange
frame, host and queue, so the newer frame takes the older slot, and that
slot is the one the next reorder swaps with. The swap moves frames, not
times, so two frames due at the same instant flip as well. Once that slot
is delivered, the next frame has nothing to swap with.
"""

import heapq
from dataclasses import dataclass
from random import Random

from .nic import Nic, NicConfig
from .toeplitz import ToeplitzHasher, KEY_LEN
from .toeplitz import toeplitz_hash as _toeplitz_hash
from .wire import (IP_PROTO_UDP, IPV4_IHL5, MIN_UDP_FRAME, PROTO_AT, TUPLE_AT,
                   extract_four_tuple, pack_ip)

INDIRECTION_ENTRIES = 128
_DST_IP_AT = TUPLE_AT + 4


@dataclass(frozen=True, slots=True)
class FourTuple:
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int

    def pack(self):
        return (pack_ip(self.src_ip) + pack_ip(self.dst_ip)
                + self.src_port.to_bytes(2, "big") + self.dst_port.to_bytes(2, "big"))


def toeplitz_hash(key, tuple_):
    """Standard Toeplitz hash of an IPv4/UDP four-tuple under a 40-byte key."""
    return _toeplitz_hash(key, tuple_.pack())


class VirtualClock:
    """Monotonic virtual time in microseconds, advanced only by the owner."""

    __slots__ = ("now",)

    def __init__(self):
        self.now = 0

    def advance_to(self, t):
        if t < self.now:
            raise ValueError("clock may not move backwards")
        self.now = t


@dataclass
class FabricConfig:
    """Network-side knobs. rss_key=None derives a per-run key from rng_seed,
    so the stack (and tests of the stack) can never bake in key knowledge."""

    rss_key: bytes | None = None
    loss_probability: float = 0.0
    reorder_probability: float = 0.0
    base_delay_us: int = 20
    delay_jitter_us: int = 0
    rng_seed: int = 0
    hash_byteswap: bool = False

    def __post_init__(self):
        if self.rss_key is not None and len(self.rss_key) != KEY_LEN:
            raise ValueError("rss key must be %d bytes" % KEY_LEN)
        for name in ("loss_probability", "reorder_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must be in [0, 1]" % name)
        if self.base_delay_us < 0 or self.delay_jitter_us < 0:
            raise ValueError("delays must be non-negative")


@dataclass
class FabricStats:
    sent: int = 0
    delivered: int = 0
    lost: int = 0
    dropped_ring_full: int = 0
    dropped_unroutable: int = 0


class _Host:
    __slots__ = ("nic", "table")

    def __init__(self, nic, table):
        self.nic = nic
        self.table = table


class _Event:
    __slots__ = ("frame", "host", "queue")

    def __init__(self, frame, host, queue):
        self.frame = frame
        self.host = host
        self.queue = queue


class Fabric:
    def __init__(self, config=None, clock=None):
        self._cfg = config or FabricConfig()
        self.clock = clock or VirtualClock()
        self._rng = Random("fabric/%d" % self._cfg.rng_seed)
        key = self._cfg.rss_key
        if key is None:
            key = Random("rss-key/%d" % self._cfg.rng_seed).randbytes(KEY_LEN)
        self._hasher = ToeplitzHasher(key)
        self._hosts = {}  # 4-byte IPv4 address -> _Host
        self._tx_rings = []  # (host ip, TX ring) in host, then queue order
        self._heap = []
        self._seq = 0
        self._last_pending = None  # slot of the newest frame in flight
        self._tap = None  # test hook: callable(frame) -> True to force-drop
        self.stats = FabricStats()

    @property
    def now(self):
        return self.clock.now

    def add_host(self, ip, num_queues):
        """Register a host; returns the NIC it must do all its I/O through."""
        addr = pack_ip(ip)
        if addr in self._hosts:
            raise ValueError("host %s already registered" % ip)
        nic = Nic(NicConfig(num_queues=num_queues, local_ip=ip))
        table = [i % num_queues for i in range(INDIRECTION_ENTRIES)]
        self._hosts[addr] = _Host(nic, table)
        self._tx_rings.extend((ip, ring) for ring in nic._tx)
        return nic

    def steer(self, dst_ip, frame):
        """Queue the destination NIC would deliver this frame to.

        Unparseable frames fall back to queue 0. Tests use this as the
        steering oracle; stack modules never call it (audited).
        """
        host = self._hosts[pack_ip(dst_ip)]
        if extract_four_tuple(frame) is None:
            return 0
        return self._queue(host, frame)

    def _route(self, frame):
        """Destination host of an IPv4/UDP frame, or None if the frame is
        short, not IPv4 without options, not UDP, or for no known host."""
        if (len(frame) < MIN_UDP_FRAME
                or frame[12:15] != IPV4_IHL5
                or frame[PROTO_AT] != IP_PROTO_UDP):
            return None
        return self._hosts.get(frame[_DST_IP_AT:_DST_IP_AT + 4])

    def _queue(self, host, frame):
        """RX queue of a routed frame, from its 12 tuple bytes hashed where
        they lie in the frame."""
        h = self._hasher.hash_at(frame, TUPLE_AT)
        if self._cfg.hash_byteswap:
            h = int.from_bytes(h.to_bytes(4, "big"), "little")
        return host.table[h % INDIRECTION_ENTRIES]

    def send(self, src_ip, frame):
        """Accept a frame from a host at the current virtual time."""
        cfg = self._cfg
        self.stats.sent += 1
        host = self._route(frame)
        if host is None:
            self.stats.dropped_unroutable += 1
            return
        if self._tap is not None and self._tap(frame):
            self.stats.lost += 1
            return
        if self._rng.random() < cfg.loss_probability:
            self.stats.lost += 1
            return
        delay = cfg.base_delay_us
        jitter = cfg.delay_jitter_us
        if jitter:
            # randint(-jitter, jitter), with its getrandbits draws inlined.
            span = 2 * jitter + 1
            bits = span.bit_length()
            r = self._rng.getrandbits(bits)
            while r >= span:
                r = self._rng.getrandbits(bits)
            delay += r - jitter
        self._seq += 1
        event = _Event(frame, host, self._queue(host, frame))
        heapq.heappush(self._heap,
                       (self.clock.now + max(0, delay), self._seq, event))
        if cfg.reorder_probability:
            prev = self._last_pending
            if (prev is not None
                    and self._rng.random() < cfg.reorder_probability):
                # Swap the two adjacent frames, not their schedule keys.
                prev.frame, event.frame = event.frame, prev.frame
                prev.host, event.host = event.host, prev.host
                prev.queue, event.queue = event.queue, prev.queue
                event = prev
        self._last_pending = event

    def collect_tx(self):
        """Move every frame waiting in a TX ring into the delivery schedule,
        host by host and queue by queue. Popping one frame at a time loses
        nothing that an engine thread appends meanwhile."""
        moved = 0
        for ip, ring in self._tx_rings:
            while ring:
                self.send(ip, ring.popleft())
                moved += 1
        return moved

    def next_event_time(self):
        return self._heap[0][0] if self._heap else None

    def advance_to(self, t):
        """Deliver everything due in (now, t] in timestamp order; now becomes t.
        The clock enforces monotonicity (a wall clock advances itself)."""
        delivered = 0
        heap = self._heap
        while heap and heap[0][0] <= t:
            event = heapq.heappop(heap)[2]
            if event is self._last_pending:
                self._last_pending = None
            self._deliver(event)
            delivered += 1
        self.clock.advance_to(t)
        return delivered

    def advance(self, delta):
        if delta < 0:
            raise ValueError("delta must be >= 0")
        return self.advance_to(self.clock.now + delta)

    def _deliver(self, event):
        if event.host.nic._deliver(event.queue, event.frame):
            self.stats.delivered += 1
        else:
            self.stats.dropped_ring_full += 1

    def in_flight(self):
        return len(self._heap)

    def conservation_ok(self):
        s = self.stats
        return s.sent == (s.delivered + s.lost + s.dropped_ring_full
                          + s.dropped_unroutable + self.in_flight())
