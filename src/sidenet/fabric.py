"""Deterministic simulated network connecting the hosts' NICs.

The fabric stands in for the cloud datapath: it hashes every frame's UDP
four-tuple with a genuine Toeplitz key (never revealed to the stack), walks
a fixed 128-entry indirection table to pick the destination RX queue, and
injects configurable loss, adjacent-pair reordering, and delay, all on a
virtual microsecond clock. A full run is a pure function of (configs,
seeds, input schedule).

Frames move in bursts. collect_tx hands each non-empty TX ring to one
admission loop, which binds the configuration, the random draws, the
4 x 256 port-byte table, the heap and the clock once per ring; send() runs
the same loop over a one-frame batch. Each frame's header is read once
there, straight from the raw bytes: the Ethernet type, IP version/IHL and
protocol bytes are checked, the destination host is found by its 4-byte
address, and the 12 bytes src_ip | dst_ip | src_port | dst_port at offset
26 are hashed. The Toeplitz hash is linear over XOR, so the 8 address
bytes are hashed once per address pair, through the bit-serial reference,
and only the 4 port bytes are looked up in the table per frame. The event
keeps the frame and the destination queue pair, so delivery decodes
nothing: advance_to appends each due frame straight into its RX ring. Under ThreadedRuntime the clock
is read once per collected ring, so a ring's frames share one send time.

Each accepted frame is one heap entry, keyed (due, send order) when it is
pushed and never re-keyed. A reorder swaps a new frame with the frame sent
just before it, if that one is still in flight: the two events exchange
frame and queue, so the newer frame takes the older slot, and that
slot is the one the next reorder swaps with. The swap moves frames, not
times, so two frames due at the same instant flip as well. Once that slot
is delivered, the next frame has nothing to swap with.
"""

import heapq
from collections import deque
from dataclasses import dataclass
from random import Random

from .nic import QUEUE_DEPTH, Nic
from .toeplitz import KEY_LEN, port_rows
from .toeplitz import toeplitz_hash as _toeplitz_hash
from .wire import (IP_PROTO_UDP, IPV4_IHL5, MIN_UDP_FRAME, PROTO_AT, TUPLE_AT,
                   extract_four_tuple, pack_ip)

INDIRECTION_ENTRIES = 128
# Address pairs whose route the admission loop keeps; past this many (only
# forged sources get there) it starts over.
ROUTE_CACHE_PAIRS = 4096
# The admission loop reads the destination address (30-33) and the tuple
# (26-37) at literal offsets.
assert TUPLE_AT == 26


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


class Fabric:
    def __init__(self, config=None, clock=None):
        self._cfg = config or FabricConfig()
        self.clock = clock or VirtualClock()
        self._rng = Random("fabric/%d" % self._cfg.rng_seed)
        key = self._cfg.rss_key
        if key is None:
            key = Random("rss-key/%d" % self._cfg.rng_seed).randbytes(KEY_LEN)
        self._key = key
        self._port_rows = port_rows(key)
        # 4-byte IPv4 address -> the host's indirection table, one NIC queue
        # pair per entry.
        self._hosts = {}
        # Source | destination address (bytes 26-33 of a routed frame) ->
        # (the destination's table, the hash of those 8 bytes alone).
        self._routes = {}
        self._tx_rings = []  # in host, then queue order
        self._heap = []
        self._seq = 0
        self._last_pending = None  # event of the newest frame in flight
        self._tap = None  # test hook: callable(frame) -> True to force-drop
        self.stats = FabricStats()

    @property
    def now(self):
        return self.clock.now

    def add_host(self, ip, num_queues):
        """Register a host; returns the NIC it must do all its I/O through.

        Its indirection table has INDIRECTION_ENTRIES slots, so a queue past
        that count would get no frame."""
        addr = pack_ip(ip)
        if addr in self._hosts:
            raise ValueError("host %s already registered" % ip)
        if num_queues > INDIRECTION_ENTRIES:
            raise ValueError("num_queues must be at most %d"
                             % INDIRECTION_ENTRIES)
        nic = Nic(num_queues)
        queues = nic._queues
        self._hosts[addr] = [queues[i % num_queues]
                             for i in range(INDIRECTION_ENTRIES)]
        self._tx_rings.extend(q.tx for q in queues)
        return nic

    def steer(self, dst_ip, frame):
        """Queue the destination NIC would deliver this frame to.

        Unparseable frames fall back to queue 0. Tests use this as the
        steering oracle; stack modules never call it (audited). It hashes
        all 12 tuple bytes through the bit-serial reference, independently
        of the admission loop's route hash and port-row lookups.
        """
        table = self._hosts[pack_ip(dst_ip)]
        if extract_four_tuple(frame) is None:
            return 0
        h = _toeplitz_hash(self._key, frame[TUPLE_AT:TUPLE_AT + 12])
        return table[h % INDIRECTION_ENTRIES].index

    def send(self, src_ip, frame):
        """Accept one frame from a host at the current virtual time: the
        admission loop over a one-frame batch."""
        self._admit(deque((frame,)))

    def collect_tx(self):
        """Move every frame waiting in a TX ring into the delivery schedule,
        host by host and queue by queue; returns how many were taken."""
        moved = 0
        for ring in self._tx_rings:
            if ring:
                moved += self._admit(ring)
        return moved

    def _admit(self, ring):
        """The admission loop: pop `ring` empty, one frame at a time, and
        schedule each frame; returns how many were popped.

        Everything a frame needs is bound once per ring. Per frame, in this
        order: the raw-byte route test and route lookup, the tap, the loss
        draw, the jitter draw, the port-row lookup, the heap push, then the
        reorder draw and swap. A route keeps the reference hash of the
        frame's 8 address bytes with zero ports, so only the 4 port bytes
        are looked up per frame. Popping one frame at a time loses
        nothing that an engine thread appends meanwhile; that frame is
        taken in this call or the next.
        """
        cfg = self._cfg
        loss = cfg.loss_probability
        reorder = cfg.reorder_probability
        jitter = cfg.delay_jitter_us
        low = cfg.base_delay_us - jitter
        span = 2 * jitter + 1
        bits = span.bit_length()
        random = self._rng.random
        getrandbits = self._rng.getrandbits
        key = self._key
        r8, r9, r10, r11 = self._port_rows
        hosts = self._hosts
        routes = self._routes
        tap = self._tap
        heap = self._heap
        heappush = heapq.heappush
        now = self.clock.now
        seq = self._seq
        prev = self._last_pending
        popleft = ring.popleft
        taken = lost = unroutable = 0
        while ring:
            frame = popleft()
            taken += 1
            if (len(frame) < MIN_UDP_FRAME
                    or frame[12:15] != IPV4_IHL5
                    or frame[PROTO_AT] != IP_PROTO_UDP):
                unroutable += 1
                continue
            route = routes.get(frame[26:34])
            if route is None:
                table = hosts.get(frame[30:34])
                if table is None:
                    unroutable += 1
                    continue
                if len(routes) >= ROUTE_CACHE_PAIRS:
                    routes.clear()
                route = routes[frame[26:34]] = (
                    table, _toeplitz_hash(key, frame[26:34] + bytes(4)))
            table, h = route
            if tap is not None and tap(frame):
                lost += 1
                continue
            if random() < loss:
                lost += 1
                continue
            if jitter:
                # randint(-jitter, jitter), with its getrandbits draws
                # inlined.
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                delay = low + r
                due = now + delay if delay > 0 else now
            else:
                due = now + low
            h ^= (r8[frame[34]] ^ r9[frame[35]] ^ r10[frame[36]]
                  ^ r11[frame[37]])
            seq += 1
            event = [frame, table[h % INDIRECTION_ENTRIES]]
            heappush(heap, (due, seq, event))
            if reorder:
                if prev is not None and random() < reorder:
                    # Swap the two adjacent frames, not their schedule keys.
                    prev[0], event[0] = event[0], prev[0]
                    prev[1], event[1] = event[1], prev[1]
                    event = prev
                prev = event
        self._seq = seq
        self._last_pending = prev
        stats = self.stats
        stats.sent += taken
        stats.lost += lost
        stats.dropped_unroutable += unroutable
        return taken

    def next_event_time(self):
        return self._heap[0][0] if self._heap else None

    def advance_to(self, t):
        """Deliver everything due in (now, t] in timestamp order, straight
        into the RX rings; now becomes t. Returns the number of frames that
        left the schedule. A frame for a full ring is dropped and counted
        on both sides. Delivery touches only the rings: the engine that owns
        a queue finds its frames by polling its RX ring. The clock enforces
        monotonicity (a wall clock advances itself)."""
        heap = self._heap
        heappop = heapq.heappop
        delivered = dropped = 0
        while heap and heap[0][0] <= t:
            event = heappop(heap)[2]
            if event is self._last_pending:
                self._last_pending = None
            frame, queue = event
            ring = queue.rx
            if len(ring) < QUEUE_DEPTH:
                ring.append(frame)
                delivered += 1
            else:
                queue.stats.rx_overflow_drops += 1
                dropped += 1
        if delivered or dropped:
            self.stats.delivered += delivered
            self.stats.dropped_ring_full += dropped
        self.clock.advance_to(t)
        return delivered + dropped

    def advance(self, delta):
        if delta < 0:
            raise ValueError("delta must be >= 0")
        return self.advance_to(self.clock.now + delta)

    def in_flight(self):
        return len(self._heap)

    def conservation_ok(self):
        s = self.stats
        return s.sent == (s.delivered + s.lost + s.dropped_ring_full
                          + s.dropped_unroutable + self.in_flight())
