"""Application-facing message channels.

A Channel is the only bridge between one application thread and one engine:
a send queue of at most CHANNEL_CAPACITY messages, a receive queue that is
not bounded, and a wakeup signal, so receivers can sleep instead of polling.
The wakeup contract is strict: the engine signals after every enqueue, and a
waiting receiver rechecks the queue before going to sleep, so a blocking recv
can never sleep while a message is available.

Payloads are copied across the channel; the device model has no way to
transmit straight out of application memory.
"""

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


class ChannelError(Exception):
    pass


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
    and its channel's engine owns it. State fields are written by that
    engine and read by the application thread. `key` is the connection's
    identity in its engine's tables: (remote_ip, remote_port, local_port)."""

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
        self._done = threading.Event()

    @property
    def is_established(self):
        return self.state == ESTABLISHED

    @property
    def is_failed(self):
        return self.state in (FAILED, RESET)

    def wait(self, timeout=None):
        """Block until connection setup finished (threaded mode only)."""
        self._done.wait(timeout)
        return self.state

    def _settle(self, state, error=None, attempts=0):
        self.state = state
        self.error = error
        if attempts:
            self.attempts = attempts
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
    """Bounded bidirectional SPSC message queues between one app thread and
    one engine. Messages only: connect, listen and close requests go to the
    engine's control inbox (Engine.submit), not through the channel."""

    def __init__(self, owner_engine, app_id):
        self.owner_engine = owner_engine
        self.app_id = app_id
        self._rx = deque()
        self._tx = deque()
        self._rx_cond = threading.Condition()
        self._tx_cond = threading.Condition()
        self.stats = ChannelStats()
        self._engine = None  # set by Engine.add_channel; woken on app input

    # Application side.

    def send(self, flow, payload, block=True, timeout=None):
        """Queue a message for transmission; blocks while the queue is full."""
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
        if self._engine is not None:
            self._engine.wake = True
        return True

    def recv(self, block=False, timeout=None):
        """Dequeue one whole message, or None if nothing is available.

        Non-blocking calls count an empty poll when they come back empty;
        a blocking call parks until the engine's wakeup signal.

        An empty non-blocking poll takes no lock. The queue has one producer
        (the engine) and one consumer (the application thread), and len() of
        a deque is atomic under the GIL, so finding it empty without the
        lock is no weaker than finding it empty under it: a message pushed
        just after is seen by the next poll either way. The blocking path
        keeps the lock, because it must recheck the queue and park atomically
        with respect to _push_rx's notify, or it could sleep through a
        wakeup.
        """
        if not block and not self._rx:
            self.stats.empty_polls += 1
            return None
        with self._rx_cond:
            if not self._rx and not block:
                self.stats.empty_polls += 1
                return None
            while not self._rx:
                if not self._rx_cond.wait(timeout):
                    return None  # timeout, distinct from any flow error
            msg = self._rx.popleft()
            self.stats.rx_dequeued += 1
            return msg

    def rx_pending(self):
        return len(self._rx)

    # Engine side.

    def _push_rx(self, msg):
        with self._rx_cond:
            self._rx.append(msg)
            self.stats.rx_enqueued += 1
            if len(self._rx) > self.stats.rx_highwater:
                self.stats.rx_highwater = len(self._rx)
            self._rx_cond.notify()

    def _pop_tx(self, max_msgs):
        """Dequeue up to max_msgs queued messages, oldest first.

        An empty queue returns [] without the lock, for the reason an empty
        non-blocking recv does: the engine is the queue's one consumer and
        len() of a deque is atomic under the GIL, so a message the
        application pushes just after is taken by the next call either way.
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
