"""Application-facing message channels.

A Channel is the only bridge between one application thread and one engine:
a send queue of at most CHANNEL_CAPACITY messages and a receive queue that
is not bounded. The receive queue is a queue.SimpleQueue, whose blocking get
parks until a put, so a blocking recv never sleeps while a message is
queued. The send queue keeps a deque and a Condition, because the engine
pops a burst of messages under one lock and tests it for emptiness without
one (_pop_tx, Engine._refresh); queue.Queue locks and notifies per message.

Payloads are copied across the channel; the device model has no way to
transmit straight out of application memory.
"""

import queue
import threading
from collections import deque
from dataclasses import dataclass

from . import wire
from .wire import MAX_MESSAGE_BYTES

CHANNEL_CAPACITY = 1024

# Flow handle states.
CONNECTING = "connecting"
ESTABLISHED = "established"
FAILED = "failed"
RESET = "reset"
CLOSED = "closed"


class FlowError(Exception):
    pass


class ConnectError(Exception):
    def __init__(self, message, attempts=0):
        super().__init__(message)
        self.attempts = attempts


@dataclass
class ChannelStats:
    rx_enqueued: int = 0
    rx_dequeued: int = 0
    tx_enqueued: int = 0
    tx_dequeued: int = 0
    empty_polls: int = 0  # non-blocking recvs that found nothing
    rx_highwater: int = 0
    tx_highwater: int = 0


class FlowHandle:
    """One connection, described once: it addresses every frame (`frame`),
    and its channel's engine owns it. That engine writes its fields and the
    application reads them. Only a blocking connect waits, on an Event it
    makes itself (`_done`). `key` is the connection's identity in its
    engine's connection table: (remote_ip, remote_port, local_port). The
    stack reserves the key of a connect of its own until the engine drops
    the connection."""

    def __init__(self, local_ip, remote_ip, local_port, remote_port, channel):
        self.local_ip = local_ip
        self.remote_ip = remote_ip
        self.local_port = local_port
        self.remote_port = remote_port
        self.channel = channel
        self.key = (remote_ip, remote_port, local_port)
        self.state = CONNECTING
        self.error = None
        self.attempts = 0
        self._done = None  # a blocking connect's Event, set on settling

    @property
    def is_established(self):
        return self.state == ESTABLISHED

    @property
    def is_failed(self):
        return self.state in (FAILED, RESET)

    def _settle(self, state, error=None, attempts=0):
        self.state = state
        self.error = error
        if attempts:
            self.attempts = attempts
        if self._done is not None:
            self._done.set()

    def __repr__(self):
        return ("FlowHandle(%s:%d -> %s:%d, %s)"
                % (self.local_ip, self.local_port, self.remote_ip,
                   self.remote_port, self.state))


def frame(handle, udp_src, udp_dst, pkt_type, payload=b"", seq=0, ack=0,
          msg_id=0, frag_offset=0, msg_len=0, flags=0):
    """A frame of the handle's connection, sent from its local end over the
    UDP pair (udp_src, udp_dst).

    Every frame the stack sends is built here, and a payload longer than
    wire.MAX_FRAME_PAYLOAD raises ValueError, so each is within the NIC's
    frame bounds (the 14-byte Ethernet header up to the MTU) and the
    engine puts it on its TX ring unchecked."""
    if len(payload) > wire.MAX_FRAME_PAYLOAD:
        raise ValueError("payload of %d bytes exceeds the %d a frame carries"
                         % (len(payload), wire.MAX_FRAME_PAYLOAD))
    return wire.build_frame(handle.local_ip, handle.remote_ip, udp_src,
                            udp_dst, pkt_type, handle.local_port,
                            handle.remote_port, payload, seq, ack, msg_id,
                            frag_offset, msg_len, flags)


@dataclass(slots=True)
class Message:
    flow: FlowHandle
    payload: bytes


class Channel:
    """Bidirectional SPSC message queues between one app thread and one
    engine. Messages only: connect, listen and close requests go to the
    engine's control inbox (Engine.submit), not through the channel."""

    def __init__(self, engine, app_id):
        self._engine = engine  # serves this channel; woken on app input
        self.app_id = app_id
        self._rx = queue.SimpleQueue()
        self._tx = deque()
        self._tx_cond = threading.Condition()
        self.stats = ChannelStats()

    # Application side.

    def send(self, flow, payload, block=True, timeout=None):
        """Queue a message for transmission; blocks while the queue is full.
        Every check on a message is made here, and the engine trusts what it
        pops: a payload outside 1 byte .. 8 MiB raises ValueError, and a flow
        that is not established, or of another engine, raises FlowError;
        either way nothing is queued."""
        if flow.channel._engine is not self._engine:
            raise FlowError("flow belongs to another engine's channel")
        if flow.state == CONNECTING:
            raise FlowError("flow not established yet")
        if flow.state != ESTABLISHED:
            raise FlowError("flow is %s" % flow.state)
        if not 1 <= len(payload) <= MAX_MESSAGE_BYTES:
            raise ValueError("payload must be 1 byte .. 8 MiB")
        with self._tx_cond:
            while len(self._tx) >= CHANNEL_CAPACITY:
                if not block:
                    return False
                if not self._tx_cond.wait(timeout):
                    return False
            self._tx.append((flow, bytes(payload)))
            self.stats.tx_enqueued += 1
            if len(self._tx) > self.stats.tx_highwater:
                self.stats.tx_highwater = len(self._tx)
        self._engine._ring()
        return True

    def recv(self, block=False, timeout=None):
        """Dequeue one whole message, or None if nothing is available.

        Non-blocking calls count an empty poll when they come back empty;
        a blocking call parks until a message is pushed, or returns None
        after `timeout` seconds (at once for a negative one)."""
        if not block and self._rx.empty():
            self.stats.empty_polls += 1
            return None
        if timeout is not None and timeout < 0:
            timeout = 0
        try:
            msg = self._rx.get(block, timeout)
        except queue.Empty:
            return None  # timeout, distinct from any flow error
        self.stats.rx_dequeued += 1
        return msg

    def rx_pending(self):
        return self._rx.qsize()

    # Engine side.

    def _push_rx(self, msg):
        # Counted before the put, so no reader sees rx_dequeued ahead of it.
        self.stats.rx_enqueued += 1
        self._rx.put(msg)
        depth = self._rx.qsize()
        if depth > self.stats.rx_highwater:
            self.stats.rx_highwater = depth

    def _pop_tx(self, max_msgs):
        """Dequeue up to max_msgs queued messages, oldest first.

        An empty queue returns [] without the lock: the engine is the
        queue's one consumer and len() of a deque is atomic under the GIL,
        so a message the application pushes just after is taken by the next
        call either way.
        A non-empty queue is popped under the lock, which also wakes a
        sender blocked on a full queue.
        """
        if not self._tx:
            return []
        out = []
        with self._tx_cond:
            while self._tx and len(out) < max_msgs:
                out.append(self._tx.popleft())
                self.stats.tx_dequeued += 1
            if out:
                self._tx_cond.notify()
        return out

    def tx_pending(self):
        return len(self._tx)
