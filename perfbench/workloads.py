"""The benchmark's workloads: closed loops over sidenet's public API in one
deterministic Sim (single process, single thread).

Each workload builds its stacks and the flows it keeps in setup(), then run()
drives operations until a wall-clock budget has passed and a minimum number
of operations has finished, ticking a speed.SpeedMeter as it goes. Every
operation is checked as it completes, and check_invariants() asserts the
stack-wide conservation laws. Pacing is done with Sim.run_until conditions
only: Sim.run_for overshoots its deadline to the next event (after a close
that is the 3 s idle-reap timer), which would distort virtual-time
throughput.
"""

import heapq
from collections import Counter, deque
from random import Random
from time import perf_counter

from inputs import (BULK_FIRST_BYTES, BulkSizes, CheckError, DeliveryChecker,
                    Payloads, tag)

CLIENT_IP = "10.0.0.1"
SERVER_IP = "10.0.0.2"
SETUP_TIMEOUT_US = 10_000_000
OP_TIMEOUT_US = 60_000_000
RUN_VIRTUAL_CAP_US = 10**12


class Record:
    """One finished operation of the prefix. `lat` is the virtual latency the
    workload reports; `sent` is the fabric's frame count when the op
    finished."""

    __slots__ = ("flow", "submit", "done", "lat", "ok", "attempts", "sent")

    def __init__(self, flow, submit, done, lat, ok, attempts, sent):
        self.flow = flow
        self.submit = submit
        self.done = done
        self.lat = lat
        self.ok = ok
        self.attempts = attempts
        self.sent = sent

    def line(self):
        return "%d %d %d %d %d %d %d" % (self.flow, self.submit, self.done,
                                         self.lat, self.ok, self.attempts,
                                         self.sent)


class Workload:
    name = None
    prefix_ops = None  # ops whose virtual-time records are kept; exact per seed
    tail_ops = None  # leading ops the tail latency is taken over; None: all
    pool_bytes = 64 * 1024

    def __init__(self, sn, seed):
        self.sn = sn
        self.seed = seed
        self.payloads = Payloads(seed, self.pool_bytes)
        # Only the prefix is recorded op by op, so memory does not grow with
        # the number of ops a faster stack completes.
        self.records = []
        self.finished = 0
        self.failed = 0
        self.connects = 0
        self.first_try = 0
        self.closed_flow_stats = Counter()  # FlowStats banked before close
        self.sim = None
        self.stacks = []

    def setup(self):
        raise NotImplementedError

    def run(self, seconds, min_ops, meter):
        raise NotImplementedError

    def _record(self, flow, submit, lat, ok, attempts):
        self.finished += 1
        self.failed += not ok
        if attempts:
            self.connects += 1
            self.first_try += attempts == 1
        if len(self.records) < self.prefix_ops:
            sim = self.sim
            self.records.append(Record(flow, submit, sim.now, lat, ok,
                                       attempts, sim.fabric.stats.sent))

    def _new_sim(self, engines, **fabric):
        sn = self.sn
        cfg = sn.FabricConfig(rng_seed=self.seed, base_delay_us=20, **fabric)
        self.sim = sn.Sim(cfg, seed=self.seed)
        server = self.sim.add_stack(SERVER_IP, engines)
        client = self.sim.add_stack(CLIENT_IP, engines)
        self.stacks = [client, server]
        return client, server

    # Counters for the per-layer view. Flow stats of closed flows are banked
    # before close, because drop_flow discards them.

    def engines(self):
        return [eng for stack in self.stacks for eng in stack.engines]

    def channels(self):
        return [ch for eng in self.engines() for ch in eng.channels]

    def live_flows(self):
        return [f for eng in self.engines() for f in eng.flows.values()]

    def flow_totals(self):
        totals = Counter(self.closed_flow_stats)
        for flow in self.live_flows():
            totals.update(vars(flow.stats))
        return totals

    def engine_totals(self):
        totals = Counter()
        for eng in self.engines():
            totals.update(vars(eng.stats))
        return totals

    def channel_totals(self):
        totals = Counter()
        for ch in self.channels():
            totals.update(vars(ch.stats))
        return totals

    def ring_drops(self):
        return sum(q.rx_overflow_drops for stack in self.stacks
                   for q in stack.nic.queue_stats)

    def _bank(self, flow):
        self.closed_flow_stats.update(vars(flow.stats))

    def check_invariants(self):
        if not self.sim.fabric.conservation_ok():
            raise CheckError("fabric frame conservation violated")
        for flow in self.live_flows():
            if not flow.conservation_ok():
                raise CheckError("flow %r fragment conservation violated"
                                 % (flow.key(),))
        for ch in self.channels():
            s = ch.stats
            if s.rx_enqueued != s.rx_dequeued or s.tx_enqueued != s.tx_dequeued:
                raise CheckError("channel %d left messages behind "
                                 "(rx %d/%d, tx %d/%d)"
                                 % (ch.app_id, s.rx_enqueued, s.rx_dequeued,
                                    s.tx_enqueued, s.tx_dequeued))


class _FlowLoop:
    __slots__ = ("flow", "channel", "handle", "issued", "pending", "ready",
                 "dead")

    def __init__(self, flow, channel, handle, window):
        self.flow = flow
        self.channel = channel
        self.handle = handle
        self.issued = 0
        self.pending = deque()  # submit times of outstanding requests
        self.ready = [0] * window  # heap: when each free window slot may send
        self.dead = False


class ClosedLoopClient:
    """Sim app keeping a window of requests outstanding on each flow. A slot
    freed by a checked reply sends again after a think time, and only while
    `issuing`."""

    def __init__(self, workload, loops, request, checker, think):
        self.w = workload
        self.loops = loops
        self.request = request
        self.checker = checker
        self.think = think
        self.issuing = False

    @property
    def outstanding(self):
        return sum(len(lp.pending) for lp in self.loops)

    def step(self, sim):
        work = 0
        now = sim.now
        for lp in self.loops:
            if lp.dead:
                continue
            ch = lp.channel
            while True:
                msg = ch.recv()
                if msg is None:
                    break
                self.checker.check(lp.flow, msg.payload)
                submit = lp.pending.popleft()
                self.w._record(lp.flow, submit, now - submit, True, 0)
                heapq.heappush(lp.ready, now + self.think())
                work += 1
            if lp.handle.is_failed or (lp.pending
                                       and now - lp.pending[0] > OP_TIMEOUT_US):
                self.kill(lp)
                continue
            while self.issuing and lp.ready and lp.ready[0] <= now:
                if not ch.send(lp.handle, self.request(lp.flow, lp.issued),
                               block=False):
                    raise CheckError("client channel full")
                heapq.heappop(lp.ready)
                lp.issued += 1
                lp.pending.append(now)
                work += 1
        if all(lp.dead for lp in self.loops):
            self.issuing = False
        return work

    def next_wake(self, now):
        if not self.issuing:
            return None
        return min((lp.ready[0] for lp in self.loops
                    if lp.ready and not lp.dead), default=None)

    def kill(self, lp):
        """A reset or timed-out flow: its outstanding requests are failures."""
        lp.dead = True
        for submit in lp.pending:
            self.w._record(lp.flow, submit, 0, False, 0)
        lp.pending.clear()

    def check_complete(self):
        for lp in self.loops:
            if not lp.dead and self.checker.delivered(lp.flow) != lp.issued:
                raise CheckError("flow %d: %d requests issued, %d answered"
                                 % (lp.flow, lp.issued,
                                    self.checker.delivered(lp.flow)))


class Responder:
    """Sim app answering every request on its channels with reply(msg)."""

    def __init__(self, channels, reply):
        self.channels = channels
        self.reply = reply

    def step(self, sim):
        work = 0
        for ch in self.channels:
            while True:
                msg = ch.recv()
                if msg is None:
                    break
                if not ch.send(msg.flow, self.reply(msg), block=False):
                    raise CheckError("server channel full")
                work += 1
        return work


class Pacer:
    """Sim app that makes the driver stop at wake_at, so a think time ends
    exactly on time instead of at the next event."""

    wake_at = 0

    def step(self, sim):
        return 0

    def next_wake(self, now):
        return self.wake_at if now < self.wake_at else None


def _echo(msg):
    return msg.payload


class _LoopWorkload(Workload):
    """Workloads whose flows stay open: the client app drives the load."""

    def run(self, seconds, min_ops, meter):
        app = self.client
        sim = self.sim
        target = self.finished + min_ops
        deadline = perf_counter() + seconds

        def finished():
            meter.tick()
            if (app.issuing and self.finished >= target
                    and perf_counter() >= deadline):
                app.issuing = False
            return not app.issuing and app.outstanding == 0

        app.issuing = True
        if not sim.run_until(finished, max_us=RUN_VIRTUAL_CAP_US):
            app.issuing = False  # the sim went idle with requests unanswered
            for lp in app.loops:
                if lp.pending:
                    app.kill(lp)
        app.check_complete()
        self.check_invariants()

    def _establish(self, handles):
        connecting = self.sn.channel.CONNECTING
        ok = self.sim.run_until(
            lambda: all(h.state != connecting for h in handles),
            max_us=SETUP_TIMEOUT_US)
        if not ok or not all(h.is_established for h in handles):
            raise CheckError("a kept flow failed to establish during setup")


class RpcSmall(_LoopWorkload):
    """2 flows on 2x2 engines, one per engine pair; each keeps `window` 64 B
    echo requests outstanding on a clean 20 us fabric, and a freed slot
    sends again after a seeded think time of 0..think_us us."""

    name = "rpc_small"
    prefix_ops = 20000
    size = 64
    window = 4
    think_us = 20

    def setup(self):
        sn = self.sn
        client, server = self._new_sim(2)
        cchs, schs, handles = [], [], []
        for i in range(2):
            sch = server.attach(sn.EnginePolicy.pinned(i))
            server.listen(sch, 80 + i)
            cch = client.attach(sn.EnginePolicy.pinned(i))
            handles.append(client.connect(cch, SERVER_IP, 80 + i))
            cchs.append(cch)
            schs.append(sch)
        self._establish(handles)
        size, payloads = self.size, self.payloads
        rng = Random("perfbench/think/%d" % self.seed)
        think_us = self.think_us
        self.client = self.sim.add_app(ClosedLoopClient(
            self, [_FlowLoop(i, cchs[i], handles[i], self.window)
                   for i in range(2)],
            lambda flow, index: payloads.make(flow, index, size),
            DeliveryChecker(lambda flow, index, payload: payloads.matches(
                flow, index, size, payload), "echo"),
            lambda: rng.randint(0, think_us)))
        self.sim.add_app(Responder(schs, _echo))


class BulkLossy(_LoopWorkload):
    """2 flows on 1x1 engines over a lossy fabric, each with one request
    outstanding; seeded request sizes (8 MiB first, then log-uniform
    1 KiB..1 MiB), each answered by an 8 B receipt once the server has
    checked it.

    Two flows with one request each, not one flow with two: on one flow a
    second request queues behind the first, so each retransmission timeout
    delays two ops and the largest latencies form clusters 10 ms apart that
    make the tail jump between seeds; with one flow and one request the
    median falls between the lossless and the fast-retransmit latencies and
    jumps instead."""

    name = "bulk_lossy"
    # Throughput here is set by rare 10 ms retransmission timeouts, so it
    # needs many ops to be steady from seed to seed; the largest latencies
    # form clusters 10 ms apart, so the tail is steady only while few ops
    # land beyond the first cluster, that is over few ops.
    prefix_ops = 2000
    tail_ops = 500
    flows = 2
    pool_bytes = BULK_FIRST_BYTES

    def setup(self):
        client, server = self._new_sim(1, loss_probability=0.02,
                                       reorder_probability=0.05,
                                       delay_jitter_us=5)
        loops, schs = [], []
        for i in range(self.flows):
            sch = server.attach()
            server.listen(sch, 80 + i)
            cch = client.attach()
            handle = client.connect(cch, SERVER_IP, 80 + i)
            loops.append(_FlowLoop(i, cch, handle, 1))
            schs.append(sch)
        self._establish([lp.handle for lp in loops])
        sizes = [BulkSizes(self.seed, i) for i in range(self.flows)]
        payloads = self.payloads
        checker = DeliveryChecker(
            lambda flow, index, payload: payloads.matches(
                flow, index, sizes[flow][index], payload), "request")

        def receipt(msg):
            flow = msg.flow.local_port - 80  # the server side's listen port
            return tag(flow, checker.check(flow, msg.payload))

        self.client = self.sim.add_app(ClosedLoopClient(
            self, loops,
            lambda flow, index: payloads.make(flow, index, sizes[flow][index]),
            DeliveryChecker(
                lambda flow, index, payload: payload == tag(flow, index),
                "receipt"),
            lambda: 0))
        self.sim.add_app(Responder(schs, receipt))


class ConnChurn(Workload):
    """8x8 engines, optimized handshake, clean fabric. Connections run one
    after another: connect, one 64 B echo, close, wait for teardown. Each
    picks its client engine and server port (so its server engine) from the
    seed."""

    name = "conn_churn"
    prefix_ops = 3000
    engines_per_host = 8
    size = 64
    base_port = 9000
    think_us = 100

    def setup(self):
        sn = self.sn
        client, server = self._new_sim(self.engines_per_host)
        self.client_stack, self.server_stack = client, server
        n = self.engines_per_host
        schs = [server.attach(sn.EnginePolicy.pinned(i)) for i in range(n)]
        for i, ch in enumerate(schs):
            server.listen(ch, self.base_port + i)
        self.cchs = [client.attach(sn.EnginePolicy.pinned(i)) for i in range(n)]
        self.sim.add_app(Responder(schs, _echo))
        self.pacer = self.sim.add_app(Pacer())
        # Listen requests are serviced on the engines' control grid.
        if not self.sim.run_until(
                lambda: all(len(eng.listeners) == n for eng in server.engines),
                max_us=SETUP_TIMEOUT_US):
            raise CheckError("listeners were not installed")
        self.rng = Random("perfbench/churn/%d" % self.seed)
        self.checker = DeliveryChecker(
            lambda flow, index, payload: self.payloads.matches(
                flow, index, self.size, payload), "echo")
        self.next_op = 0

    def run(self, seconds, min_ops, meter):
        target = self.finished + min_ops
        deadline = perf_counter() + seconds
        while self.finished < target or perf_counter() < deadline:
            self._cycle()
            meter.tick()
        self.check_invariants()

    def _cycle(self):
        sn, sim = self.sn, self.sim
        op = self.next_op
        self.next_op += 1
        n = self.engines_per_host
        ci, si = self.rng.randrange(n), self.rng.randrange(n)
        port = self.base_port + si
        cch = self.cchs[ci]
        # The think time puts each connect at a seeded phase of the 50 us
        # control grid instead of locking every connect to the same phase.
        pacer = self.pacer
        pacer.wake_at = sim.now + self.rng.randrange(self.think_us)
        sim.run_until(lambda: sim.now >= pacer.wake_at, max_us=OP_TIMEOUT_US)
        submit = sim.now
        handle = self.client_stack.connect(cch, SERVER_IP, port,
                                           mode=sn.MODE_OPTIMIZED)
        sim.run_until(lambda: handle.state != sn.channel.CONNECTING,
                      max_us=OP_TIMEOUT_US)
        if not handle.is_established:
            self._record(op, submit, sim.now - submit, False, handle.attempts)
            return
        setup_lat = sim.now - submit
        cch.send(handle, self.payloads.make(op, 0, self.size), block=False)
        if not sim.run_until(lambda: cch.rx_pending() or handle.is_failed,
                             max_us=OP_TIMEOUT_US) or not cch.rx_pending():
            self._record(op, submit, setup_lat, False, handle.attempts)
            return
        self.checker.check(op, cch.recv().payload)
        ceng = self.client_stack.engines[ci]
        seng = self.server_stack.engines[si]
        ckey = (SERVER_IP, port, handle.local_port)
        skey = (CLIENT_IP, handle.local_port, port)
        flows = [ceng.flows[ckey], seng.flows[skey]]
        for flow in flows:
            if not flow.conservation_ok():
                raise CheckError("flow %r fragment conservation violated"
                                 % (flow.key(),))
            self._bank(flow)
        self.client_stack.close(handle)
        torn_down = sim.run_until(
            lambda: ckey not in ceng.flows and skey not in seng.flows,
            max_us=OP_TIMEOUT_US)
        self._record(op, submit, setup_lat, torn_down, handle.attempts)


WORKLOADS = {cls.name: cls for cls in (RpcSmall, BulkLossy, ConnChurn)}
