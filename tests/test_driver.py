"""Sim's scheduling pass: work due at the current instant runs at that
instant, and the pass agrees step by step with a reference that asks every
engine whether it is due."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PollApp, make_pair

from sidenet.channel import CONNECTING, ESTABLISHED
from sidenet.driver import Sim
from sidenet.engine import EnginePolicy
from sidenet.fabric import FabricConfig


def _polled_due_at(eng, now):
    """Earliest pending work of an engine, recomputed only when it is woken
    or a frame waits in its RX ring: `now` if frames or messages wait, else
    the first live timer or control gate. The tick throttle is applied by
    the callers."""
    if eng.wake or eng.nic.rx_pending(eng.engine_id):
        eng.wake = False
        due = eng._next_timer_due()
        gate = eng._control_time(now)
        if gate is not None and (due is None or gate < due):
            due = gate
        if ((any(ch.tx_pending() for ch in eng.channels) or eng.tx_backlog
             or eng.nic.rx_pending(eng.engine_id))
                and (due is None or now < due)):
            due = now
        eng.polled_due_at = due
    return eng.polled_due_at


def _polled_due(eng, now):
    due = _polled_due_at(eng, now)
    return due is not None and due <= now and now >= eng._next_allowed


def _polled_next_due(eng, now):
    due = _polled_due_at(eng, now)
    return None if due is None else max(due, eng._next_allowed)


class PollingSim(Sim):
    """Reference scheduler: every pass asks each engine whether it is due,
    and a pass without work asks each engine when it next will be and each
    app `next_wake(now)`. A frame already due is delivered, and an engine
    ready at `now` gets another pass at `now`, before the clock moves. The
    engines' answers are computed here from their queues, timers and
    throttle, not read from `ready_at`."""

    def step(self, until=None):
        now = self.clock.now
        work = 0
        for eng in self._engines:
            if _polled_due(eng, now):
                work += eng.run_iteration(now)
        for app in self.apps:
            work += app.step(self) or 0
        work += self.fabric.collect_tx()
        if work:
            return True
        nexts = [_polled_next_due(eng, now) for eng in self._engines]
        arrival = self.fabric.next_event_time()
        if arrival is not None and arrival <= now:
            self.fabric.advance_to(now)
            return True
        if any(t is not None and t <= now for t in nexts):
            return True
        nexts.append(arrival)
        nexts += [app.next_wake(now) for app in self.apps
                  if hasattr(app, "next_wake")]
        future = [t for t in nexts if t is not None and t > now]
        if not future:
            return False
        t = min(future)
        self.fabric.advance_to(t if until is None else min(t, until))
        return True


def test_zero_delay_frame_is_delivered_at_once():
    """With no fabric delay a frame is due the instant it is sent. The pass
    that finds it due delivers it, so a connect takes microseconds, not
    two 300 ms SYN-ACK retries, and drain leaves nothing in flight."""
    sim, client, server, cch, sch = make_pair(seed=1, engines=1,
                                              base_delay_us=0)
    t0 = sim.now
    handle = client.connect(cch, "10.0.0.2", 80)
    assert sim.run_until(lambda: handle.state != CONNECTING, max_us=1000)
    assert handle.is_established
    assert sim.now - t0 <= 1000
    cch.send(handle, b"x" * 3000)
    assert sim.drain()
    assert sim.fabric.in_flight() == 0
    assert sch.recv().payload == b"x" * 3000


def test_message_queued_by_a_zero_work_app_is_sent():
    """An app that queues a message but reports no work wakes the engine
    after its turn in the pass. The pass runs again at the same instant
    instead of calling the sim idle, so drain delivers the message."""
    sim, client, server, cch, sch = make_pair(seed=2, engines=1)
    handle = client.connect(cch, "10.0.0.2", 80)
    assert sim.drain() and handle.is_established
    sim.run_for(100)  # past every engine's tick throttle
    sent = []

    def send_quietly(sim_):
        if not sent:
            sent.append(cch.send(handle, b"quiet"))
        return 0

    sim.add_app(PollApp(send_quietly))
    assert sim.drain()
    assert sent == [True] and cch.tx_pending() == 0
    assert sch.recv().payload == b"quiet"


class _Script:
    """Client-side app: carries out (at, action) pairs at their instants,
    reporting work only for actions marked so, and logs every message its
    channels receive. Server channels echo what they receive."""

    def __init__(self, client, cchs, schs, actions):
        self.client, self.cchs, self.schs = client, cchs, schs
        self.actions = actions
        self.next = 0
        self.handles = []
        self.log = []
        self.tag = 0

    def next_wake(self, now):
        if self.next < len(self.actions):
            return self.actions[self.next][0]
        return None

    def step(self, sim):
        work = 0
        now = sim.now
        while (self.next < len(self.actions)
               and self.actions[self.next][0] <= now):
            _, report, action = self.actions[self.next]
            self.next += 1
            self._do(action)
            work += report
        for i, ch in enumerate(self.schs):
            msg = ch.recv()
            if msg is not None:
                self.log.append((now, "server", i, msg.payload))
                if msg.flow.state == ESTABLISHED:
                    ch.send(msg.flow, msg.payload)
                work += 1
        for i, ch in enumerate(self.cchs):
            msg = ch.recv()
            if msg is not None:
                self.log.append((now, "client", i, msg.payload))
                work += 1
        return work

    def _do(self, action):
        kind, a, b = action
        if kind == "connect":
            ch = self.cchs[a % len(self.cchs)]
            self.handles.append(self.client.connect(ch, "10.0.0.2", 80 + b))
        elif not self.handles:
            return
        elif kind == "send":
            handle = self.handles[a % len(self.handles)]
            if handle.state == ESTABLISHED:
                self.tag += 1
                handle.channel.send(handle, bytes([self.tag % 256]) * b)
        else:
            handle = self.handles[a % len(self.handles)]
            if handle.state == ESTABLISHED:
                self.client.close(handle)


def _build(cls, cfg, client_engines, server_engines, actions):
    sim = cls(FabricConfig(**cfg), seed=cfg["rng_seed"])
    server = sim.add_stack("10.0.0.2", server_engines)
    client = sim.add_stack("10.0.0.1", client_engines)
    schs = []
    for port, engine in ((80, 0), (81, server_engines - 1)):
        ch = server.attach(EnginePolicy.pinned(engine))
        schs.append(ch)
        server.listen(ch, port)
    cchs = [client.attach() for _ in range(2)]
    app = sim.add_app(_Script(client, cchs, schs, actions))
    return sim, app


_actions = st.lists(st.tuples(
    st.integers(0, 400),  # gap after the previous action, in us
    st.sampled_from([0, 1]),  # work the app reports for it
    st.one_of(
        st.tuples(st.just("connect"), st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.just("send"), st.integers(0, 7), st.integers(1, 5000)),
        st.tuples(st.just("close"), st.integers(0, 7), st.just(0)))),
    max_size=30)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**16),
       client_engines=st.integers(1, 8),
       server_engines=st.integers(1, 8),
       loss=st.sampled_from([0.0, 0.02, 0.2]),
       reorder=st.sampled_from([0.0, 0.1, 0.5]),
       base=st.sampled_from([0, 1, 20]),
       jitter=st.integers(0, 10),
       script=_actions)
def test_sim_matches_polling_reference(seed, client_engines, server_engines,
                                       loss, reorder, base, jitter, script):
    """After every pass the clock, the fabric's and every engine's counters
    and the messages delivered so far equal the reference's."""
    cfg = dict(rng_seed=seed, loss_probability=loss,
               reorder_probability=reorder, base_delay_us=base,
               delay_jitter_us=jitter)
    actions, at = [], 0
    for gap, report, action in script:
        at += gap
        actions.append((at, report, action))
    sim, app = _build(Sim, cfg, client_engines, server_engines, actions)
    ref, ref_app = _build(PollingSim, cfg, client_engines, server_engines,
                          actions)
    deadline = at + 1_500_000
    for _ in range(20_000):
        busy = sim.step(until=deadline)
        assert busy == ref.step(until=deadline)
        assert sim.now == ref.now
        assert sim.fabric.stats == ref.fabric.stats
        assert ([eng.stats for eng in sim._engines]
                == [eng.stats for eng in ref._engines])
        assert app.log == ref_app.log
        if not busy or sim.now >= deadline:
            break
