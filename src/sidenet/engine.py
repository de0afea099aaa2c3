"""Per-core engines: shared-nothing run-to-completion packet processing.

Each engine owns exactly one NIC queue pair and every flow whose packets
steer there; engines never exchange state. It binds the pair's rings once,
at construction, and moves frames through them in bursts: emit() appends
to the TX ring (or, while the ring is full, to a backlog the next
iteration drains first), and one iteration pops a bounded burst off the RX
ring, services its channels' TX queues, fires due timers, and (on a 50
microsecond grid) carries out the connect, listen and close requests
queued on its control inbox.

Listener registrations are replicated to every engine, because connection
setup intentionally sprays SYNs across all queues; flow state is never
replicated, nor is `peer_pairs`, the UDP pair by which each engine's own
connects last reached each listener, nor `peer_rtts`, the round-trip
estimate its accepted set-ups measured per peer (handshake.py).

Each engine keeps one record per connection in one table, `conns`, keyed
(peer_ip, peer_port, local_port): a ClientHandshake or ServerHandshake
during set-up, then the Flow that replaces it at establishment. A frame's
key is looked up once, and the record's class decides which packet types
it takes. A record leaves only through drop(). The stack reserves the keys
of its own connects from connect() until that drop, so a peer's SYN never
opens a second record under one.

Wake contract. Each engine keeps `ready_at`, the first instant its own
queues give it work: the earliest of its waiting messages and TX backlog
(ready at once), its first live timer and its control gate, held back to
the end of its tick throttle; None when nothing is pending. `_refresh`
recomputes it from those queues (so no flag mirrors them) and clears the
engine's `wake` flag. Every iteration ends with a recompute, so the timers
it arms and the frames it emits leave `ready_at` exact.

The RX ring is the one input that fills behind the engine's back (the NIC
and the fabric hold no engine), so `ready_at` never counts frames: like a
poll-mode driver, both drivers (driver.py) and next_due() poll the ring
and read `_next_allowed if _rx_ring else ready_at`. Frames make an engine
ready at the end of its tick throttle, which `ready_at` never precedes:
`_refresh` clamps it, and only an iteration, which ends with one, moves
the throttle.

`wake` means only that the application gave the engine work from outside
its iteration. `_ring()` is the one doorbell: it sets the flag, then
`bell`, the live runner's Event, if any. Two producers ring it:

* a channel, when the application queues a message (Channel.send);
* submit(), for every control request: connect, listen and close all
  arrive on the engine's one control inbox.

A new producer of engine work must ring it too, or the engine sleeps
through the work. Control requests are observed at the first recompute
after they arrive, even while the engine is tick-throttled, and that
instant fixes their 50 us grid gate.
"""

import heapq
from collections import deque
from dataclasses import dataclass

from . import handshake, transport, wire
from .channel import ESTABLISHED, FAILED, FlowHandle
from .nic import QUEUE_DEPTH
from .wire import FRAME_HEAD_LEN, ParsedFrame

RX_BURST = 32
CHANNEL_MSG_BURST = 32
CONTROL_INTERVAL_US = 50
DEFAULT_TICK_US = 5
# Packet types an established flow handles; one for no flow counts as
# rx_unknown_flow.
_FLOW_PKT_TYPES = frozenset((wire.PKT_DATA, wire.PKT_SACK, wire.PKT_FIN,
                             wire.PKT_FINACK))


@dataclass(frozen=True)
class EnginePolicy:
    """Pins an application thread to a specific engine for latency
    isolation; no policy means round-robin over the engines."""

    index: int

    @classmethod
    def pinned(cls, index):
        return cls(index)


def pick_engine(policy, num_engines, attach_count):
    if policy is None:
        return attach_count % num_engines
    if not 0 <= policy.index < num_engines:
        raise ValueError("pinned engine %d out of range [0, %d)"
                         % (policy.index, num_engines))
    return policy.index


@dataclass
class EngineStats:
    iterations: int = 0
    frames_rx: int = 0
    frames_tx: int = 0
    rx_malformed: int = 0
    rx_unknown_flow: int = 0
    stray_syns: int = 0
    wrong_engine_syns: int = 0
    duplicate_syns: int = 0
    syns_sent: int = 0
    syns_rx: int = 0
    synacks_sent: int = 0
    synacks_rx: int = 0
    synacks_discarded: int = 0
    acks_sent: int = 0
    acks_rx: int = 0
    unknown_synacks: int = 0
    unknown_acks: int = 0
    handshake_retries: int = 0
    handshake_failures: int = 0
    handshakes_established: int = 0
    connects_requested: int = 0
    app_msgs_dropped: int = 0
    retransmits: int = 0


class Timer:
    """A callback due at `due`; `live` until it is cancelled or fires. Both
    drop `fn`, which refers back to the owner that holds the timer, so an
    ended flow or handshake is freed without waiting for the cyclic GC."""

    __slots__ = ("due", "fn", "live")

    def __init__(self, due, fn):
        self.due = due
        self.fn = fn
        self.live = True

    def cancel(self):
        self.live = False
        self.fn = None


@dataclass
class Listener:
    """A flow port bound on every engine; the channel's engine owns flows."""

    port: int
    channel: object


class Engine:
    def __init__(self, engine_id, nic, local_ip, num_engines, rng, reserved,
                 tick_us=DEFAULT_TICK_US):
        self.engine_id = engine_id
        self.local_ip = local_ip
        self.num_engines = num_engines
        self.rng = rng
        self.tick_us = tick_us
        # key -> its one record: ClientHandshake, ServerHandshake or Flow
        self.conns = {}
        self._reserved = reserved  # the stack's flow keys of its own connects
        # (peer_ip, peer_port) -> the UDP (src, dst) pair of the last connect
        # there that established; filed and read by ClientHandshake, capped
        # at handshake.PAIR_TABLE_CAP peers.
        self.peer_pairs = {}
        # peer_ip -> (srtt, rttvar) in us, the RFC 6298 estimate that this
        # engine's ServerHandshakes file from set-ups they answered once and
        # start their re-answer ladder from; capped as `peer_pairs` is.
        self.peer_rtts = {}
        self.listeners = {}
        self.channels = []
        self.control_inbox = deque()
        self.tx_backlog = deque()
        self.stats = EngineStats()
        self._timers = []
        self._timer_seq = 0
        self._control_gate = None  # next 50 us grid point once requests wait
        self._next_allowed = 0
        self.ready_at = None  # exact while not `wake`; counts no RX frame
        self.wake = True
        self.bell = None  # the live runner's Event, set by the doorbell
        self.stopped_by = None  # the exception that ended the live runner
        queue = nic._bind(engine_id)
        self._tx_ring = queue.tx
        self._rx_ring = queue.rx

    # The doorbell and the control inbox (see the wake contract).

    def _ring(self):
        self.wake = True
        if self.bell is not None:
            self.bell.set()

    def submit(self, request):
        """Queue a connect, listen or close request for the next 50 us grid
        point. Once the live runner has stopped on an exception, a connect
        fails here instead."""
        self.control_inbox.append(request)
        self._ring()
        if self.stopped_by is not None:
            self.fail_connects(self.stopped_by)

    def fail_connects(self, cause):
        """Settle FAILED, naming `cause`, every connect this engine holds:
        queued on its control inbox or still in its handshake. The live
        runner calls it when `cause` stops it, as no iteration will run
        these again; `stopped_by` then fails each later connect at submit.
        The runner sets it before it looks, and submit queues before it
        reads it, so a connect that races the runner is failed by one."""
        self.stopped_by = cause
        error = "the live runner stopped: %r" % (cause,)
        for request in list(self.control_inbox):
            if request[0] == "connect":
                request[1]._settle(FAILED, error)
        for rec in list(self.conns.values()):
            if type(rec) is handshake.ClientHandshake:
                rec.handle._settle(FAILED, error)

    # Scheduling interface used by the drivers.

    def _control_time(self, now):
        """Control requests are serviced only on the 50 us grid; the first
        grid point after a request is observed becomes its gate."""
        if not self.control_inbox:
            self._control_gate = None
            return None
        if self._control_gate is None:
            self._control_gate = ((now // CONTROL_INTERVAL_US) + 1) * CONTROL_INTERVAL_US
        return self._control_gate

    def _next_timer_due(self):
        timers = self._timers
        while timers:
            due, _, timer = timers[0]
            if not timer.live:
                heapq.heappop(timers)
                continue
            return due
        return None

    def _refresh(self, now):
        """Recompute `ready_at`: `now` if frames wait in the TX backlog or
        messages in a channel's TX queue, else the first live timer or
        control gate, held back to the end of the tick throttle."""
        self.wake = False
        due = self._next_timer_due()
        gate = self._control_time(now)
        if gate is not None and (due is None or gate < due):
            due = gate
        if ((self.tx_backlog or any(ch._tx for ch in self.channels))
                and (due is None or now < due)):
            due = now
        if due is not None and due < self._next_allowed:
            due = self._next_allowed
        self.ready_at = due

    def due(self, now):
        """Whether the engine has work at `now` and is not tick-throttled."""
        ready = self.next_due(now)
        return ready is not None and ready <= now

    def next_due(self, now):
        """Earliest time this engine will have something to do."""
        if self.wake:
            self._refresh(now)
        return self._next_allowed if self._rx_ring else self.ready_at

    def arm_timer(self, due, fn):
        timer = Timer(due, fn)
        self._timer_seq += 1
        heapq.heappush(self._timers, (due, self._timer_seq, timer))
        return timer

    # The run-to-completion loop body.

    def run_iteration(self, now):
        """One bounded iteration; returns the number of items processed."""
        work = 0
        self.stats.iterations += 1

        backlog = self.tx_backlog
        if backlog:
            ring = self._tx_ring
            moved = min(len(backlog), QUEUE_DEPTH - len(ring))
            if moved > 0:
                for _ in range(moved):
                    ring.append(backlog.popleft())
                work += moved

        burst = min(len(self._rx_ring), RX_BURST)
        if burst:
            self.stats.frames_rx += burst
            popleft = self._rx_ring.popleft
            dispatch = self._dispatch
            for _ in range(burst):
                dispatch(popleft(), now)
            work += burst

        for ch in self.channels:
            for handle, payload in ch._pop_tx(CHANNEL_MSG_BURST):
                self._app_send(handle, payload, now)
                work += 1

        while True:
            due = self._next_timer_due()
            if due is None or due > now:
                break
            _, _, timer = heapq.heappop(self._timers)
            fn, timer.fn, timer.live = timer.fn, None, False
            fn(now)
            work += 1

        gate = self._control_time(now)
        if gate is not None and now >= gate:
            # A request another thread queues meanwhile is either taken now
            # or keeps the inbox non-empty; popleft never drops one.
            inbox = self.control_inbox
            while inbox:
                self._process_control(inbox.popleft(), now)
                work += 1
            self._control_gate = None

        self._next_allowed = now + self.tick_us if work else now
        self._refresh(now)
        return work

    def emit(self, frame):
        """Queue a frame built by channel.frame, so within frame bounds:
        onto the TX ring while nothing is backlogged and the ring has room,
        else onto the backlog, which the next iteration drains in order."""
        self.stats.frames_tx += 1
        ring = self._tx_ring
        if self.tx_backlog or len(ring) >= QUEUE_DEPTH:
            self.tx_backlog.append(frame)
        else:
            ring.append(frame)

    # RX dispatch.

    def _dispatch(self, frame, now):
        """Handle one received frame. Its fate is decided from the header
        fields and the one record its key finds, whose class decides the
        packet types it takes; a ParsedFrame is built only for a frame a
        flow or handshake takes."""
        head = wire.parse_header(frame)
        if head is None:
            self.stats.rx_malformed += 1
            return
        # head: src_ip, udp_src, udp_dst, pkt_type, flow_src, flow_dst, seq,
        # then the rest of ParsedFrame's fields up to its payload.
        t = head[3]
        key = (head[0], head[4], head[5])
        rec = self.conns.get(key)
        if t in _FLOW_PKT_TYPES:
            if type(rec) is not transport.Flow:
                self.stats.rx_unknown_flow += 1
                return
            pkt = ParsedFrame(*head, frame[FRAME_HEAD_LEN:])
            if t == wire.PKT_DATA:
                if pkt.flags & wire.FLAG_ACK:
                    rec.on_carried_ack(pkt.ack, now)
                rec.on_data(pkt, now)
            elif t == wire.PKT_SACK:
                rec.on_sack(pkt, now)
            elif t == wire.PKT_FIN:
                rec.on_fin(pkt, now)
            else:
                rec.on_finack(pkt, now)
        elif t == wire.PKT_SYN:
            self.stats.syns_rx += 1
            self._on_syn(head, frame, key, rec, now)
        elif t == wire.PKT_SYNACK:
            self.stats.synacks_rx += 1
            if type(rec) is handshake.ClientHandshake:
                rec.on_synack(now, ParsedFrame(*head, frame[FRAME_HEAD_LEN:]))
            elif type(rec) is transport.Flow and rec.final_ack is not None:
                rec.on_synack(ParsedFrame(*head, frame[FRAME_HEAD_LEN:]))
            else:  # no pending connect and no client flow
                self.stats.unknown_synacks += 1
        elif t == wire.PKT_ACK:
            self.stats.acks_rx += 1
            if type(rec) is handshake.ServerHandshake:
                rec.on_ack(now, ParsedFrame(*head, frame[FRAME_HEAD_LEN:]))
            elif type(rec) is not transport.Flow:  # not a repeated final ACK
                self.stats.unknown_acks += 1
        else:
            self.stats.rx_malformed += 1  # no such packet type

    def _on_syn(self, head, frame, key, rec, now):
        if head[6] == 0:  # seq
            # Attempts count from 1: no client sends seq 0, and the server
            # handshake would file it as a duplicate of attempt 0 and never
            # answer, time out or free it.
            self.stats.rx_malformed += 1
            return
        listener = self.listeners.get(head[5])  # flow_dst
        if listener is None:
            self.stats.stray_syns += 1
            return
        if listener.channel._engine is not self:
            # Expected spray waste; the owning engine sees its own copy.
            self.stats.wrong_engine_syns += 1
            return
        if ((rec is not None and type(rec) is not handshake.ServerHandshake)
                or key in self._reserved):
            # A flow holds the key, or this host's own connect reserved it.
            self.stats.duplicate_syns += 1
            return
        pkt = ParsedFrame(*head, frame[FRAME_HEAD_LEN:])
        if rec is None:
            info = wire.unpack_syn_payload(pkt.payload)
            if info is None:
                self.stats.rx_malformed += 1
                return
            client_engines, _ = info  # the client's engine id is not kept
            mode = (handshake.MODE_OPTIMIZED if pkt.flags & wire.FLAG_OPTIMIZED
                    else handshake.MODE_NAIVE)
            handle = FlowHandle(self.local_ip, pkt.src_ip, listener.port,
                                pkt.flow_src, listener.channel)
            rec = handshake.ServerHandshake(self, handle, mode,
                                            max(1, client_engines))
            self.conns[key] = rec
        rec.on_syn(now, pkt)

    # Channel TX.

    def _app_send(self, handle, payload, now):
        # Channel.send queued it while the handle was established, so the
        # record holding this handle is its flow, unless the flow has ended.
        flow = self.conns.get(handle.key)
        if flow is None or flow.handle is not handle:
            self.stats.app_msgs_dropped += 1
            return
        flow.send_message(payload, now)

    # Control plane (connect/listen/close), serviced on the 50 us grid.

    def _process_control(self, request, now):
        op = request[0]
        if op == "connect":
            _, handle, mode = request
            self.stats.connects_requested += 1
            hs = handshake.ClientHandshake(self, handle, mode)
            self.conns[handle.key] = hs
            hs.start(now)
        elif op == "listen":
            listener = request[1]
            self.listeners[listener.port] = listener
        elif op == "close":
            handle = request[1]
            rec = self.conns.get(handle.key)
            if rec is None or rec.handle is not handle:
                return  # it ended before the close was serviced
            if type(rec) is transport.Flow:
                rec.start_close(now)
            else:  # a pending connect: no server handshake's handle is out
                rec.cancel()

    # The connection table: one record per key, which leaves only by drop.

    @property
    def flows(self):
        """A snapshot of the Flow records in `conns`, keyed as there."""
        return {key: rec for key, rec in self.conns.items()
                if type(rec) is transport.Flow}

    def establish(self, handle, tx_udp, attempts=0):
        """Replace a finished handshake with its flow; settle the handle."""
        flow = transport.Flow(self, handle, tx_udp)
        self.conns[handle.key] = flow
        self.stats.handshakes_established += 1
        handle._settle(ESTABLISHED, attempts=attempts)
        return flow

    def drop(self, key):
        """Remove the record of a connection that failed or ended, and free
        its key for the stack to hand out again."""
        self.conns.pop(key, None)
        # An app thread may be in Stack._alloc_flow_port meanwhile: it adds
        # only absent keys, under the stack's lock, and discard is atomic,
        # so at worst it skips a key freed here. No accepted connection's
        # key is reserved (_on_syn), so this frees only a connect's own.
        self._reserved.discard(key)
