"""Cross-thread handoffs in the threaded runtime lose nothing."""

import random
import sys
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from sidenet.channel import (CLOSED, ESTABLISHED, FAILED, Channel,
                             ConnectError, FlowHandle)
from sidenet.driver import ThreadedRuntime
from sidenet.engine import CHANNEL_MSG_BURST, CONTROL_INTERVAL_US
from sidenet.fabric import FabricConfig
from sidenet.nic import Nic
from sidenet.stack import EPHEMERAL_FLOW_PORT_BASE, Stack

FLOWS = 100
MESSAGES_PER_FLOW = 20


def _wait_for(cond, timeout_s):
    deadline = time.monotonic() + timeout_s
    while not cond():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


@contextmanager
def _preempt_often():
    """A 1 us switch interval preempts threads between almost any two
    bytecodes; the old interval is restored afterwards."""
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old_interval)


def test_stress_every_frame_and_control_request_is_handed_over():
    """1x1 engines on the runner thread, preempted often. Every frame a NIC
    accepted must reach the fabric, and every connect and close request
    must be serviced."""
    rt = ThreadedRuntime(FabricConfig(rng_seed=5, base_delay_us=50), seed=5)
    server = rt.add_stack("10.0.0.2", 1)
    client = rt.add_stack("10.0.0.1", 1)
    sch = server.attach()
    server.listen(sch, 80)
    cch = client.attach()
    with _preempt_often():
        rt.start()
        try:
            handles = [client.connect(cch, "10.0.0.2", 80)
                       for _ in range(FLOWS)]
            assert _wait_for(
                lambda: all(h.state == ESTABLISHED for h in handles), 60)
            for h in handles:
                for i in range(MESSAGES_PER_FLOW):
                    cch.send(h, b"%d" % i)
            total = FLOWS * MESSAGES_PER_FLOW
            for n in range(total):
                assert sch.recv(block=True, timeout=60) is not None, (n, total)
            for h in handles:
                client.close(h)
            assert _wait_for(lambda: all(h.state == CLOSED for h in handles),
                             60)
        finally:
            rt.stop()
    assert not client.engines[0].flows and not server.engines[0].flows
    rt.fabric.collect_tx()  # frames queued after the runner stopped
    accepted = sum(e.stats.frames_tx - len(e.tx_backlog)
                   for stack in (client, server) for e in stack.engines)
    assert rt.fabric.stats.sent == accepted
    assert rt.fabric.conservation_ok()


def test_stress_connects_from_many_threads_never_share_a_flow_key():
    """Four application threads, preempted often, connect and close on one
    client stack while the runner ends connections and frees their keys.
    Every fourth connect rewinds the port counter, so freed keys are handed
    out again. A key handed to two live connects would leave one of them
    unable to establish; every connect establishes, and once all are
    closed no key stays reserved."""
    rt = ThreadedRuntime(FabricConfig(rng_seed=9, base_delay_us=50), seed=9)
    server = rt.add_stack("10.0.0.2", 1)
    client = rt.add_stack("10.0.0.1", 1)
    sch = server.attach()
    server.listen(sch, 80)
    channels = [client.attach() for _ in range(4)]
    handles, errors = [], []

    def churn(cch):
        try:
            for i in range(12):
                if i % 4 == 0:
                    with client._lock:
                        client._next_flow_port = EPHEMERAL_FLOW_PORT_BASE
                handle = client.connect(cch, "10.0.0.2", 80, blocking=True,
                                        timeout=30)
                handles.append(handle)
                if i % 2:
                    client.close(handle)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    with _preempt_often():
        rt.start()
        try:
            threads = [threading.Thread(target=churn, args=(cch,))
                       for cch in channels]
            for t in threads:
                t.start()
            for t in threads:
                t.join(90)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            for handle in handles:
                client.close(handle)
            assert _wait_for(lambda: not client._reserved, 60)
        finally:
            rt.stop()
    assert len(handles) == 48
    assert all(handle.state == CLOSED for handle in handles)


def test_faulty_fabric_delivers_every_message_whole_once_in_order():
    """1x1 engines on the runner thread, preempted often, over a fabric that
    drops 2% and reorders 5% of frames with 5 us of jitter: the live
    runtime's ack and loss-recovery path delivers every message of every
    flow whole, once and in send order."""
    sizes = (1, 700, 1408, 1409, 5000, 30_000, 100_000)
    rng = random.Random(7)
    sent = [[rng.randbytes(size) for size in sizes] for _ in range(3)]
    rt = ThreadedRuntime(FabricConfig(
        rng_seed=7, loss_probability=0.02, reorder_probability=0.05,
        delay_jitter_us=5), seed=7)
    server = rt.add_stack("10.0.0.2", 1)
    client = rt.add_stack("10.0.0.1", 1)
    sch = server.attach()
    server.listen(sch, 80)
    cch = client.attach()
    got = {}
    with _preempt_often():
        rt.start()
        try:
            handles = [client.connect(cch, "10.0.0.2", 80) for _ in sent]
            assert _wait_for(
                lambda: all(h.state == ESTABLISHED for h in handles), 60)
            for h, payloads in zip(handles, sent):
                for payload in payloads:
                    cch.send(h, payload)
            total = sum(map(len, sent))
            for n in range(total):
                msg = sch.recv(block=True, timeout=60)
                assert msg is not None, (n, total)
                got.setdefault(msg.flow, []).append(msg.payload)
            assert sch.recv(block=True, timeout=0.2) is None  # no extra copy
            assert all(h.state == ESTABLISHED for h in handles)
        finally:
            rt.stop()
    assert sorted(got.values()) == sorted(sent)
    assert rt.fabric.stats.lost and client.engines[0].stats.retransmits


def test_stress_control_queues_hand_over_every_request():
    """Two application threads submit tagged requests to one engine's
    control inbox while the engine side drains it as fast as it can: each
    request comes out exactly once, in order per producer. The producers
    hand over the GIL every 64 requests, so the drain is interrupted at
    many points, between any two of its steps."""
    nic = Nic(1)
    eng = Stack(nic, "10.0.0.1").init().engines[0]
    count = 20_000
    got = []
    eng._process_control = lambda request, now: got.append(request)
    # One grid interval per pass: the inbox drains every other pass.
    clock = iter(range(0, 10**12, CONTROL_INTERVAL_US))

    def produce(tag):
        for i in range(count):
            eng.submit((tag, i))
            if i % 64 == 0:
                time.sleep(0)

    with _preempt_often():
        producers = [threading.Thread(target=produce, args=(tag,))
                     for tag in ("a", "b")]
        for t in producers:
            t.start()
        deadline = time.monotonic() + 60
        while (any(t.is_alive() for t in producers)
               and time.monotonic() < deadline):
            eng.run_iteration(next(clock))
        for t in producers:
            t.join(timeout=1)
    assert not any(t.is_alive() for t in producers)
    while eng.control_inbox:
        eng.run_iteration(next(clock))
    assert len(got) == 2 * count
    for tag in ("a", "b"):
        assert [i for q, i in got if q == tag] == list(range(count))


def test_stress_channel_tx_queue_hands_over_every_message():
    """An application thread sends 20,000 tagged messages while a second
    thread pops the TX queue as the engine does, preempted often; the pop
    of an empty queue takes no lock. Every message comes out once, in
    order."""
    total = 20_000
    # An engine whose doorbell rings nothing.
    ch = Channel(SimpleNamespace(_ring=lambda: None), 1)
    handle = FlowHandle("10.0.0.1", "10.0.0.2", 1, 80, ch)
    handle._settle(ESTABLISHED)
    popped = []

    def send_all():
        for i in range(total):
            ch.send(handle, i.to_bytes(4, "big"))

    def pop_all():
        deadline = time.monotonic() + 60
        while len(popped) < total and time.monotonic() < deadline:
            popped.extend(int.from_bytes(payload, "big")
                          for _, payload in ch._pop_tx(CHANNEL_MSG_BURST))

    with _preempt_often():
        threads = [threading.Thread(target=send_all),
                   threading.Thread(target=pop_all)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(90)
    assert not any(t.is_alive() for t in threads)
    assert popped == list(range(total))
    assert ch.tx_pending() == 0
    assert ch.stats.tx_enqueued == ch.stats.tx_dequeued == total


def test_start_adds_one_runner_thread_and_stop_ends_it():
    """2x2 engines and the fabric are served by one runner thread: start()
    adds exactly one thread, and stop() ends it."""
    rt = ThreadedRuntime(seed=1)
    rt.add_stack("10.0.0.2", 2)
    rt.add_stack("10.0.0.1", 2)
    before = threading.active_count()
    rt.start()
    try:
        assert threading.active_count() == before + 1
    finally:
        rt.stop()
    assert threading.active_count() == before


def test_parked_runner_wakes_for_every_doorbell():
    """With nothing in flight and no timer armed, the runner parks with no
    timeout, so only a doorbell wakes it. From that state a send is echoed
    back, a close settles the handle closed, and stop() ends the runner,
    each within a few seconds: a lost ring fails the test, not hangs it."""
    rt = ThreadedRuntime(FabricConfig(rng_seed=3, base_delay_us=50), seed=3)
    server = rt.add_stack("10.0.0.2", 1)
    client = rt.add_stack("10.0.0.1", 1)
    sch = server.attach()
    server.listen(sch, 80)
    cch = client.attach()
    engines = client.engines + server.engines

    def park():
        assert _wait_for(lambda: rt.fabric.in_flight() == 0 and all(
            eng.ready_at is None and not eng.wake for eng in engines), 5)
        time.sleep(0.05)

    rt.start()
    try:
        handle = client.connect(cch, "10.0.0.2", 80, blocking=True,
                                timeout=5)
        park()
        cch.send(handle, b"ping")
        request = sch.recv(block=True, timeout=5)
        assert request is not None and request.payload == b"ping"
        park()
        sch.send(request.flow, request.payload)
        reply = cch.recv(block=True, timeout=5)
        assert reply is not None and reply.payload == b"ping"
        park()
        client.close(handle)
        assert _wait_for(lambda: handle.state == CLOSED, 5)
        park()
    finally:
        rt.stop()
    assert not rt._runner.is_alive()


def test_stack_added_after_start_rings_the_parked_runner():
    """A stack added to a running runtime gets the runner's bell. With the
    server alone and the runner parked, a client stack added afterwards
    connects and is answered within a bounded wait, not a timeout."""
    rt = ThreadedRuntime(FabricConfig(rng_seed=4, base_delay_us=50), seed=4)
    server = rt.add_stack("10.0.0.2", 1)
    sch = server.attach()
    server.listen(sch, 80)
    rt.start()
    try:
        (eng,) = server.engines
        assert _wait_for(lambda: 80 in eng.listeners
                         and eng.ready_at is None and not eng.wake, 5)
        time.sleep(0.05)  # the runner parks with no timeout
        client = rt.add_stack("10.0.0.1", 1)
        cch = client.attach()
        handle = client.connect(cch, "10.0.0.2", 80, blocking=True,
                                timeout=2)
        cch.send(handle, b"late")
        msg = sch.recv(block=True, timeout=2)
        assert msg is not None and msg.payload == b"late"
    finally:
        rt.stop()


def test_bad_port_is_refused_at_the_call_and_the_runner_lives():
    """A float port is refused before anything reaches the runner thread,
    so a blocking connect on the same runtime still establishes."""
    rt = ThreadedRuntime(FabricConfig(rng_seed=6, base_delay_us=50), seed=6)
    server = rt.add_stack("10.0.0.2", 1)
    client = rt.add_stack("10.0.0.1", 1)
    sch = server.attach()
    server.listen(sch, 80)
    cch = client.attach()
    rt.start()
    try:
        with pytest.raises(ValueError):
            client.connect(cch, "10.0.0.2", 80.0, blocking=True, timeout=2)
        handle = client.connect(cch, "10.0.0.2", 80, blocking=True,
                                timeout=5)
        assert handle.state == ESTABLISHED and rt._runner.is_alive()
    finally:
        rt.stop()


def _runtime_whose_server_raises(monkeypatch, seed):
    """A runtime whose server, listening on port 80, raises on the first
    SYN, which stops the runner thread. Returns the runtime, the client
    stack and its channel, and the exception."""
    rt = ThreadedRuntime(FabricConfig(rng_seed=seed, base_delay_us=50),
                         seed=seed)
    server = rt.add_stack("10.0.0.2", 1)
    client = rt.add_stack("10.0.0.1", 1)
    server.listen(server.attach(), 80)
    fault = RuntimeError("injected fault")

    def raise_fault(*args):
        raise fault

    monkeypatch.setattr(server.engines[0], "_on_syn", raise_fault)
    return rt, client, client.attach(), fault


def test_runner_stopped_by_an_exception_fails_connects_naming_it(
        monkeypatch):
    """The server engine's iteration raises on the first SYN, which stops
    the runner thread. The blocking connect pending then fails long before
    its 2 s timeout, naming the exception, and so does a later one; stop()
    re-raises the exception."""
    rt, client, cch, fault = _runtime_whose_server_raises(monkeypatch, 7)
    rt.start()
    try:
        for _ in range(2):  # pending when the runner stops, then a later one
            start = time.monotonic()
            with pytest.raises(ConnectError, match="injected fault"):
                client.connect(cch, "10.0.0.2", 80, blocking=True, timeout=2)
            assert time.monotonic() - start < 1.0
        assert rt.error is fault
    finally:
        with pytest.raises(RuntimeError, match="injected fault"):
            rt.stop()
    assert not rt._runner.is_alive()


def test_clean_stop_fails_pending_and_later_connects_naming_it():
    """After a clean stop() nothing runs the engines again: a connect still
    in its handshake settles failed, and a later 5 s blocking connect fails
    within 1 s; both name stop(), which raises nothing. A runtime that never
    started fails a queued connect at stop() too."""
    rt = ThreadedRuntime(FabricConfig(rng_seed=9, base_delay_us=50), seed=9)
    server = rt.add_stack("10.0.0.2", 1)
    client = rt.add_stack("10.0.0.1", 1)
    server.listen(server.attach(), 80)
    cch = client.attach()
    rt.start()
    try:
        pending = client.connect(cch, "10.0.0.3", 80)  # no such host: retries
        assert _wait_for(lambda: client.engines[0].conns, 5)
    finally:
        rt.stop()
    assert rt.error is None and not rt._runner.is_alive()
    assert pending.state == FAILED and "stop()" in pending.error
    start = time.monotonic()
    with pytest.raises(ConnectError, match=r"stop\(\)"):
        client.connect(cch, "10.0.0.2", 80, blocking=True, timeout=5)
    assert time.monotonic() - start < 1.0

    idle = ThreadedRuntime(seed=9)
    stack = idle.add_stack("10.0.0.1", 1)
    queued = stack.connect(stack.attach(), "10.0.0.2", 80)
    idle.stop()
    assert queued.state == FAILED and "stop()" in queued.error


def test_stack_added_after_the_runner_stopped_fails_its_connects_at_once(
        monkeypatch):
    """Once an exception has stopped the runner, a stack added afterwards
    is told too: its blocking connect fails long before its 5 s timeout,
    naming the exception."""
    rt, client, cch, fault = _runtime_whose_server_raises(monkeypatch, 7)
    rt.start()
    try:
        with pytest.raises(ConnectError, match="injected fault"):
            client.connect(cch, "10.0.0.2", 80, blocking=True, timeout=2)
        assert rt.error is fault
        late = rt.add_stack("10.0.0.3", 1)
        lch = late.attach()
        start = time.monotonic()
        with pytest.raises(ConnectError, match="injected fault"):
            late.connect(lch, "10.0.0.2", 80, blocking=True, timeout=5)
        assert time.monotonic() - start < 1.0
    finally:
        with pytest.raises(RuntimeError, match="injected fault"):
            rt.stop()


def test_stress_stacks_added_while_the_runner_stops_are_all_told(
        monkeypatch):
    """Stacks added from another thread while an exception stops the
    runner are each told, by the runner or by add_stack, however the two
    interleave: every engine of every stack holds the exception."""
    rt, client, cch, fault = _runtime_whose_server_raises(monkeypatch, 8)

    def add_stacks():
        for i in range(200):
            rt.add_stack("10.1.0.%d" % (i + 1), 1)

    adder = threading.Thread(target=add_stacks)
    rt.start()
    try:
        with _preempt_often():
            adder.start()
            client.connect(cch, "10.0.0.2", 80)  # its SYN stops the runner
            adder.join(timeout=10)
        assert not adder.is_alive()
        assert _wait_for(lambda: rt.error is fault, 5)
        assert len(rt._engines) == 202
        assert all(eng.stopped_by is fault for eng in rt._engines)
    finally:
        with pytest.raises(RuntimeError, match="injected fault"):
            rt.stop()
