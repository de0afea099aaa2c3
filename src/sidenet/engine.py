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
replicated.

Wake contract. Each engine keeps `ready_at`, the first instant it has
work: the earliest of its waiting frames and messages (ready at once), its
first live timer and its control gate, held back to the end of its tick
throttle; None when nothing is pending. The deterministic driver reads
that attribute on every pass instead of asking each engine. `_refresh`
recomputes it, and clears the engine's `wake` flag; the driver calls it
when the flag is set or a frame waits in the RX ring. It reads what waits
from the queues themselves: the RX ring, the TX backlog and its channels'
TX queues, so no flag mirrors them. The NIC and the fabric hold no engine:
like a poll-mode driver, the engine finds its frames in its own RX ring.
The engine sets the flag itself after each iteration. Everything else
that gives an engine work from outside its own iteration must set it:

* a channel, when the application queues a message (Channel.send);
* submit(), for every control request: connect, listen and close all
  arrive on the engine's one control inbox;
* arm_timer() and emit(), when called from outside the engine.

A new producer of engine work must set the flag too, or the engine sleeps
through the work. Control requests are observed at the first recompute
after they arrive, even while the engine is tick-throttled, and that
instant fixes their 50 us grid gate. The threaded runtime's engine threads
poll their queues directly; the flags only steer the deterministic driver.
"""

import heapq
from collections import deque
from dataclasses import dataclass

from . import handshake, transport, wire
from .channel import ESTABLISHED, FlowHandle
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
    """A callback due at `due`; `live` until it is cancelled or fires."""

    __slots__ = ("due", "fn", "live")

    def __init__(self, due, fn):
        self.due = due
        self.fn = fn
        self.live = True

    def cancel(self):
        self.live = False


@dataclass
class Listener:
    """A flow port bound on every engine; the channel's engine owns flows."""

    port: int
    channel: object


class Engine:
    def __init__(self, engine_id, nic, local_ip, num_engines, rng,
                 tick_us=DEFAULT_TICK_US):
        self.engine_id = engine_id
        self.nic = nic
        self.local_ip = local_ip
        self.num_engines = num_engines
        self.rng = rng
        self.tick_us = tick_us
        self.flows = {}
        self.client_handshakes = {}
        self.server_handshakes = {}
        self.listeners = {}
        self.channels = []
        self.control_inbox = deque()
        self.tx_backlog = deque()
        self.stats = EngineStats()
        self._timers = []
        self._timer_seq = 0
        self._control_gate = None  # next 50 us grid point once requests wait
        self._next_allowed = 0
        self.ready_at = None  # valid while not `wake` and no frame waits
        self.wake = True
        queue = nic._bind(engine_id)
        self._tx_ring = queue.tx
        self._rx_ring = queue.rx

    # Producers from outside the engine's iteration (see the wake contract).

    def add_channel(self, channel):
        """Serve a newly attached channel; it wakes this engine from then on."""
        self.channels.append(channel)
        channel._engine = self

    def submit(self, request):
        """Queue a connect, listen or close request for the next 50 us grid
        point."""
        self.control_inbox.append(request)
        self.wake = True

    # Scheduling interface used by the deterministic driver.

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
        """Recompute `ready_at`: `now` if frames wait in the RX ring or the
        TX backlog or messages in a channel's TX queue, else the first live
        timer or control gate, held back to the end of the tick throttle."""
        self.wake = False
        due = self._next_timer_due()
        gate = self._control_time(now)
        if gate is not None and (due is None or gate < due):
            due = gate
        if ((self.tx_backlog or self._rx_ring
             or any(ch._tx for ch in self.channels))
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
        if self.wake or self._rx_ring:
            self._refresh(now)
        return self.ready_at

    def arm_timer(self, due, fn):
        timer = Timer(due, fn)
        self._timer_seq += 1
        heapq.heappush(self._timers, (due, self._timer_seq, timer))
        self.wake = True
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

        # Frames the fabric appends meanwhile wait for the next burst.
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
            timer.live = False
            timer.fn(now)
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
        self.wake = True
        return work

    def emit(self, frame):
        """Queue a frame built by channel.frame, so within frame bounds:
        onto the TX ring while nothing is backlogged and the ring has room,
        else onto the backlog, which the next iteration drains in order."""
        self.stats.frames_tx += 1
        ring = self._tx_ring
        if self.tx_backlog or len(ring) >= QUEUE_DEPTH:
            self.tx_backlog.append(frame)
            self.wake = True
        else:
            ring.append(frame)

    # RX dispatch.

    def _dispatch(self, frame, now):
        """Handle one received frame. Its fate is decided from the header
        fields and table lookups; a ParsedFrame is built only for a frame a
        flow or handshake takes."""
        head = wire.parse_header(frame)
        if head is None:
            self.stats.rx_malformed += 1
            return
        # head: src_ip, udp_src, udp_dst, pkt_type, flow_src, flow_dst, seq,
        # then the rest of ParsedFrame's fields up to its payload.
        t = head[3]
        key = (head[0], head[4], head[5])
        if t in _FLOW_PKT_TYPES:
            flow = self.flows.get(key)
            if flow is None:
                self.stats.rx_unknown_flow += 1
                return
            pkt = ParsedFrame(*head, frame[FRAME_HEAD_LEN:])
            if t == wire.PKT_DATA:
                if pkt.flags & wire.FLAG_ACK:
                    flow.on_carried_ack(pkt.ack, now)
                flow.on_data(pkt, now)
            elif t == wire.PKT_SACK:
                flow.on_sack(pkt, now)
            elif t == wire.PKT_FIN:
                flow.on_fin(pkt, now)
            else:
                flow.on_finack(pkt, now)
        elif t == wire.PKT_SYN:
            self.stats.syns_rx += 1
            self._on_syn(head, frame, key, now)
        elif t == wire.PKT_SYNACK:
            self.stats.synacks_rx += 1
            hs = self.client_handshakes.get(key)
            if hs is not None:
                hs.on_synack(now, ParsedFrame(*head, frame[FRAME_HEAD_LEN:]))
                return
            flow = self.flows.get(key)
            if flow is None or flow.final_ack is None:  # no client flow
                self.stats.unknown_synacks += 1
            else:
                flow.on_synack(ParsedFrame(*head, frame[FRAME_HEAD_LEN:]))
        elif t == wire.PKT_ACK:
            self.stats.acks_rx += 1
            hs = self.server_handshakes.get(key)
            if hs is not None:
                hs.on_ack(now, ParsedFrame(*head, frame[FRAME_HEAD_LEN:]))
            elif key not in self.flows:  # not a live flow's repeated final ACK
                self.stats.unknown_acks += 1
        else:
            self.stats.rx_malformed += 1  # no such packet type

    def _on_syn(self, head, frame, key, now):
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
        if listener.channel.owner_engine != self.engine_id:
            # Expected spray waste; the owning engine sees its own copy.
            self.stats.wrong_engine_syns += 1
            return
        if key in self.flows:
            self.stats.duplicate_syns += 1
            return
        pkt = ParsedFrame(*head, frame[FRAME_HEAD_LEN:])
        hs = self.server_handshakes.get(key)
        if hs is None:
            info = wire.unpack_syn_payload(pkt.payload)
            if info is None:
                self.stats.rx_malformed += 1
                return
            client_engines, _ = info  # the client's engine id is not kept
            mode = (handshake.MODE_OPTIMIZED if pkt.flags & wire.FLAG_OPTIMIZED
                    else handshake.MODE_NAIVE)
            handle = FlowHandle(self.local_ip, pkt.src_ip, listener.port,
                                pkt.flow_src, listener.channel)
            hs = handshake.ServerHandshake(self, handle, mode,
                                           max(1, client_engines))
            self.server_handshakes[key] = hs
        hs.on_syn(now, pkt)

    # Channel TX.

    def _app_send(self, handle, payload, now):
        flow = self.flows.get(handle.key)
        if flow is None or handle.state != ESTABLISHED:
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
            self.client_handshakes[handle.key] = hs
            hs.start(now)
        elif op == "listen":
            listener = request[1]
            self.listeners[listener.port] = listener
        elif op == "close":
            key = request[1]
            flow = self.flows.get(key)
            if flow is not None:
                flow.start_close(now)
            elif key in self.client_handshakes:
                self.client_handshakes[key].cancel()

    # Flow lifecycle, called by the handshake state machines.

    def establish(self, handle, tx_udp, attempts=0):
        """File the flow a handshake just completed and settle its handle."""
        flow = transport.Flow(self, handle, tx_udp)
        self.flows[handle.key] = flow
        self.stats.handshakes_established += 1
        handle._settle(ESTABLISHED, attempts=attempts)
        return flow

    def drop_flow(self, flow):
        self.flows.pop(flow.key(), None)
