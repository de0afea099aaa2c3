"""The application-facing stack handle: init / attach / listen / connect /
send / recv, in the spirit of BSD sockets but message-oriented.

A Stack plays the role of the per-host sidecar process: it owns the NIC and
one engine per NIC queue, and applications talk to it only through attached
channels. Handles are explicit so several stacks (hosts) coexist in one
test process.

Blocking variants of connect/send/recv park the calling thread and are
meant for the threaded runtime; under the deterministic driver, use the
non-blocking forms and step the simulation.
"""

import threading
from random import Random

from . import handshake, wire
from .channel import Channel, ConnectError, FAILED, CONNECTING, FlowHandle
from .engine import DEFAULT_TICK_US, Engine, Listener, pick_engine

EPHEMERAL_FLOW_PORT_BASE = 32768


class StackError(Exception):
    pass


def _check_port(port):
    """A flow port is an int in 1..65535; a bool is not one."""
    if (isinstance(port, bool) or not isinstance(port, int)
            or not 0 < port < 65536):
        raise ValueError("port must be an int in [1, 65535], not %r"
                         % (port,))


class Stack:
    def __init__(self, nic, local_ip, seed=0, tick_us=DEFAULT_TICK_US):
        self.nic = nic
        self.local_ip = local_ip
        self.seed = seed
        self.tick_us = tick_us
        self.engines = []
        self._attach_count = 0
        self._listen_ports = set()
        self._reserved = set()  # the flow keys of connects not yet ended
        self._next_flow_port = EPHEMERAL_FLOW_PORT_BASE
        self._lock = threading.Lock()
        self._initialized = False

    def init(self):
        """Bring up one engine per NIC queue. Must precede attach()."""
        if self._initialized:
            return self
        n = self.nic.num_queues()
        for i in range(n):
            rng = Random("%s/%d/engine/%d" % (self.local_ip, self.seed, i))
            self.engines.append(Engine(i, self.nic, self.local_ip, n, rng,
                                       self._reserved, tick_us=self.tick_us))
        self._initialized = True
        return self

    def _require_init(self):
        if not self._initialized:
            raise StackError("stack not initialized; call init() first")

    def _require_attached(self, channel):
        if channel._engine not in self.engines:
            raise ValueError("channel was not attached to this stack")

    def attach(self, policy=None):
        """Create a channel bound to one engine (round-robin by default)."""
        self._require_init()
        with self._lock:
            engine = self.engines[pick_engine(policy, len(self.engines),
                                              self._attach_count)]
            self._attach_count += 1
            channel = Channel(engine, self._attach_count)
        engine.channels.append(channel)
        return channel

    def listen(self, channel, port):
        """Bind a flow port; inbound flows land on this channel's engine."""
        self._require_init()
        self._require_attached(channel)
        _check_port(port)
        with self._lock:
            if port in self._listen_ports:
                raise StackError("port %d already bound" % port)
            self._listen_ports.add(port)
        listener = Listener(port, channel)
        # Replicate to every engine: sprayed SYNs may land on any queue, and
        # each engine decides for itself whether it is the target.
        for eng in self.engines:
            eng.submit(("listen", listener))
        return listener

    bind = listen

    def connect(self, channel, remote_ip, remote_port, mode=None,
                blocking=False, timeout=None):
        """Open a flow to a listening peer; serviced at the engine's
        connect-processing interval. `mode` is MODE_OPTIMIZED (the default)
        or MODE_NAIVE; the spray is sized for the handshake's 95% target
        from this host's engine count. Returns the flow handle immediately
        unless blocking. A channel this stack did not attach, or a bad
        address, port or mode, raises ValueError here, before anything is
        allocated or queued."""
        self._require_init()
        self._require_attached(channel)
        _check_port(remote_port)
        wire.pack_ip(remote_ip)
        if mode not in (None, handshake.MODE_NAIVE, handshake.MODE_OPTIMIZED):
            raise ValueError("unknown mode %r" % (mode,))
        with self._lock:
            local_port = self._alloc_flow_port(remote_ip, remote_port)
        handle = FlowHandle(self.local_ip, remote_ip, local_port, remote_port,
                            channel)
        if blocking:  # made before the engine can settle the handle
            handle._done = threading.Event()
        channel._engine.submit(("connect", handle,
                                mode or handshake.MODE_OPTIMIZED))
        if blocking:
            handle._done.wait(timeout)
            if handle.state == FAILED:
                raise ConnectError(handle.error or "connect failed",
                                   attempts=handle.attempts)
            if handle.state == CONNECTING:
                raise ConnectError("connect timed out", attempts=handle.attempts)
        return handle

    def _alloc_flow_port(self, remote_ip, remote_port):
        """Next port after the last one handed out that is neither a listen
        port nor held by a connect to this peer that has not ended. Its key
        stays reserved until the engine drops the connection."""
        for _ in range(65536):
            port = self._next_flow_port
            self._next_flow_port += 1
            if self._next_flow_port > 65535:
                self._next_flow_port = EPHEMERAL_FLOW_PORT_BASE
            if port in self._listen_ports:
                continue
            key = (remote_ip, remote_port, port)
            if key not in self._reserved:
                self._reserved.add(key)
                return port
        raise StackError("no free flow ports")

    def send(self, channel, flow, payload, blocking=True, timeout=None):
        return channel.send(flow, payload, block=blocking, timeout=timeout)

    def recv(self, channel, blocking=False, timeout=None):
        return channel.recv(block=blocking, timeout=timeout)

    def close(self, flow):
        self._require_attached(flow.channel)
        flow.channel._engine.submit(("close", flow))

    def stats_rows(self):
        """One mapping per engine (NIC queue), for the bench CSV export."""
        rows = []
        for eng in self.engines:
            qstats = self.nic.queue_stats[eng.engine_id]
            row = {"host": self.local_ip, "engine": eng.engine_id}
            row.update(vars(eng.stats))
            row["flows"] = len(eng.flows)
            row["queue_delivered"] = (eng.stats.frames_rx
                                      + self.nic.rx_pending(eng.engine_id))
            row["queue_ring_drops"] = qstats.rx_overflow_drops
            row["channel_rx_highwater"] = max(
                (ch.stats.rx_highwater for ch in eng.channels), default=0)
            row["channel_tx_highwater"] = max(
                (ch.stats.tx_highwater for ch in eng.channels), default=0)
            rows.append(row)
        return rows


def init(nic, local_ip, **kwargs):
    """Build and initialize a stack over an already-registered NIC."""
    return Stack(nic, local_ip, **kwargs).init()
