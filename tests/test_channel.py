"""Channel semantics: API ordering, backpressure, blocking wakeups."""

import random
import threading

import pytest

from conftest import PollApp, connect_established, make_pair

from sidenet import wire
from sidenet.channel import (CHANNEL_CAPACITY, CLOSED, ESTABLISHED, RESET,
                             Channel, FlowError, Message)
from sidenet.driver import Sim
from sidenet.engine import EnginePolicy
from sidenet.fabric import FabricConfig
from sidenet.nic import Nic
from sidenet.stack import Stack, StackError


def test_attach_before_init_is_a_state_error():
    nic = Nic(1)
    stack = Stack(nic, "10.0.0.1")
    with pytest.raises(StackError):
        stack.attach()
    stack.init()
    assert stack.attach()._engine is stack.engines[0]


def test_two_attaches_get_distinct_channels():
    sim = Sim(FabricConfig(rng_seed=1), seed=1)
    stack = sim.add_stack("10.0.0.1", 2)
    a, b = stack.attach(), stack.attach()
    assert a is not b
    assert (a._engine, b._engine) == tuple(stack.engines)


def test_duplicate_listen_port_rejected():
    sim, client, server, cch, sch = make_pair(seed=2)
    with pytest.raises(StackError):
        server.listen(sch, 80)


def test_nonblocking_recv_on_empty_counts_a_poll():
    sim = Sim(FabricConfig(rng_seed=3), seed=3)
    stack = sim.add_stack("10.0.0.1", 1)
    ch = stack.attach()
    assert ch.recv() is None
    assert ch.stats.empty_polls == 1


def test_empty_poll_takes_no_lock_and_next_poll_sees_a_push():
    """An empty non-blocking poll returns None at once while another thread
    is parked in a blocking recv on the same channel (a poll that waited on
    the queue the way the parked receiver does would not return), and a
    push then wakes that receiver."""
    ch = Channel(None, 1)
    got = []
    receiver = threading.Thread(
        target=lambda: got.append(ch.recv(block=True, timeout=10)))
    receiver.start()
    try:
        threading.Event().wait(0.05)  # let the receiver park
        assert ch.recv() is None
        assert receiver.is_alive() and got == []
        ch._push_rx(Message(None, b"m"))
    finally:
        receiver.join(10)
    assert not receiver.is_alive()
    assert [m.payload for m in got] == [b"m"]
    assert ch.stats.empty_polls == 1
    assert ch.stats.rx_dequeued == 1


def test_empty_tx_pop_takes_no_lock():
    """The engine's pop of an empty TX queue does not wait for the lock an
    application-side sender may hold."""
    ch = Channel(None, 1)
    held, release = threading.Event(), threading.Event()

    def hold_tx_lock():
        with ch._tx_cond:
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold_tx_lock)
    holder.start()
    try:
        assert held.wait(10)
        assert ch._pop_tx(32) == []
        # A pop that took the lock would have waited for the holder.
        assert holder.is_alive() and not release.is_set()
    finally:
        release.set()
        holder.join()
    assert ch.stats.tx_dequeued == 0


def test_send_requires_established_flow():
    sim, client, server, cch, sch = make_pair(seed=4)
    handle = client.connect(cch, "10.0.0.2", 80)
    with pytest.raises(FlowError):
        cch.send(handle, b"too soon")


def test_send_is_the_one_gate_and_a_refused_message_queues_nothing():
    """Channel.send makes every check on a message: an empty payload, one
    past MAX_MESSAGE_BYTES, and a reset flow are refused at the call, and
    none of them is queued, counted or seen by the engine."""
    sim, client, server, cch, sch = make_pair(seed=4)
    handle = connect_established(sim, client, cch)
    eng = client.engines[0]
    for payload in (b"", b"x" * (wire.MAX_MESSAGE_BYTES + 1)):
        with pytest.raises(ValueError):
            cch.send(handle, payload)
    assert cch.tx_pending() == cch.stats.tx_enqueued == 0
    # A real reset: every client DATA frame is dropped until its fragment
    # reaches the retransmit cap.
    sim.fabric._tap = lambda frame: (
        wire.parse_frame(frame).pkt_type == wire.PKT_DATA
        and wire.parse_frame(frame).src_ip == client.local_ip)
    assert cch.send(handle, b"never acked")
    assert sim.run_until(lambda: handle.state != ESTABLISHED,
                         max_us=60_000_000)
    assert handle.state == RESET
    enqueued = cch.stats.tx_enqueued
    with pytest.raises(FlowError):
        cch.send(handle, b"after the reset")
    assert cch.tx_pending() == 0 and cch.stats.tx_enqueued == enqueued
    sim.run_for(1000)
    assert eng.stats.app_msgs_dropped == 0
    assert cch.stats.tx_dequeued == enqueued


def test_message_queued_before_its_flow_tore_down_is_counted_dropped():
    """The peer's FIN waits in the client's RX ring when the application
    queues a message: the iteration takes the FIN first, so the flow is
    gone when the message is popped. The engine counts the message in
    app_msgs_dropped and sends no DATA frame for it."""
    sim, client, server, cch, sch = make_pair(seed=4)
    handle = connect_established(sim, client, cch)
    eng = client.engines[0]
    assert sim.run_until(lambda: server.engines[0].flows, max_us=1_000_000)
    (server_flow,) = server.engines[0].flows.values()
    server.close(server_flow.handle)
    assert sim.run_until(lambda: len(eng._rx_ring) > 0, max_us=1_000_000)
    assert [wire.parse_frame(f).pkt_type for f in eng._rx_ring] == [
        wire.PKT_FIN]
    sent = []
    sim.fabric._tap = lambda frame: sent.append(
        wire.parse_frame(frame).pkt_type) and False
    assert cch.send(handle, b"late")
    sim.run_for(1000)
    assert handle.state == CLOSED
    assert eng.stats.app_msgs_dropped == 1
    assert wire.PKT_DATA not in sent
    assert cch.tx_pending() == 0 and sch.rx_pending() == 0


def test_send_through_another_engines_channel_raises():
    """A flow's messages can only leave through its own engine. A channel
    of another engine refuses the flow at the call, rather than accepting a
    message that engine would drop; another channel of the same engine
    carries it."""
    sim, client, server, cch, sch = make_pair(seed=1, engines=2)
    handle = connect_established(sim, client, cch)
    other = client.attach(EnginePolicy.pinned(1))
    with pytest.raises(FlowError):
        other.send(handle, b"hello")
    assert other.tx_pending() == 0
    same = client.attach(EnginePolicy.pinned(0))
    assert same.send(handle, b"hello")
    assert sim.run_until(lambda: sch.rx_pending() > 0, max_us=1_000_000)
    assert sch.recv().payload == b"hello"
    assert sum(e.stats.app_msgs_dropped for e in client.engines) == 0


def test_connect_listen_and_close_refuse_a_channel_of_another_stack():
    """A channel of another stack, or one no stack attached, raises
    ValueError before a flow port is allocated or a request queued; so
    does closing a flow of another stack, whose key this stack's engines
    would look up in vain (or whose engine index they may not have)."""
    sim, client, server, cch, sch = make_pair(seed=1)
    handle = connect_established(sim, client, cch)
    next_port = client._next_flow_port
    for foreign in (sch, Channel(None, 1)):
        with pytest.raises(ValueError):
            client.connect(foreign, "10.0.0.2", 80)
    for foreign in (cch, Channel(None, 1)):
        with pytest.raises(ValueError):
            server.listen(foreign, 81)
    with pytest.raises(ValueError):
        server.close(handle)
    assert handle.is_established
    assert client._next_flow_port == next_port
    assert 81 not in server._listen_ports
    assert not any(eng.control_inbox
                   for stack in (client, server) for eng in stack.engines)


def test_echo_round_trip_byte_identical():
    sim, client, server, cch, sch = make_pair(seed=5)
    handle = connect_established(sim, client, cch)

    def echo(sim_):
        msg = sch.recv()
        if msg:
            server.send(sch, msg.flow, msg.payload)
            return 1
        return 0

    sim.add_app(PollApp(echo))
    payload = bytes(random.Random(0).randbytes(3000))
    client.send(cch, handle, payload)
    assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=5_000_000)
    reply = cch.recv()
    assert reply.payload == payload
    assert reply.flow is handle


def test_backpressure_bounds_tx_queue_at_capacity():
    sim, client, server, cch, sch = make_pair(seed=6)
    handle = connect_established(sim, client, cch)
    accepted = 0
    while cch.send(handle, b"m", block=False):
        accepted += 1
        assert cch.tx_pending() <= CHANNEL_CAPACITY
    assert accepted == CHANNEL_CAPACITY
    assert cch.stats.tx_highwater == CHANNEL_CAPACITY
    # A blocking send with a timeout observes fullness, not a drop.
    assert cch.send(handle, b"m", block=True, timeout=0.01) is False


def test_channel_counter_identity_no_loss_no_duplication():
    sim, client, server, cch, sch = make_pair(seed=7)
    handle = connect_established(sim, client, cch)
    got = []

    def sink(sim_):
        msg = sch.recv()
        if msg:
            got.append(msg.payload)
            return 1
        return 0

    sim.add_app(PollApp(sink))
    for i in range(50):
        client.send(cch, handle, b"m%02d" % i)
    assert sim.run_until(lambda: len(got) == 50, max_us=10_000_000)
    assert sch.stats.rx_enqueued == sch.stats.rx_dequeued == 50
    assert got == [b"m%02d" % i for i in range(50)]


def test_hundred_concurrent_connects_mostly_first_batch():
    sim, client, server, cch, sch = make_pair(seed=1, engines=4,
                                              server_engine=1,
                                              client_engine=2)
    handles = [client.connect(cch, "10.0.0.2", 80) for _ in range(100)]
    ok = sim.run_until(lambda: all(h.state != "connecting" for h in handles),
                       max_us=60_000_000)
    assert ok and all(h.is_established for h in handles)
    first_batch = sum(h.attempts == 1 for h in handles)
    assert first_batch >= 93


def test_blocking_recv_times_out_with_none():
    ch = Channel(None, 1)
    assert ch.recv(block=True, timeout=0.01) is None
    # A zero or negative timeout returns at once: None on an empty queue,
    # a queued message otherwise.
    for timeout in (0, -1):
        assert ch.recv(block=True, timeout=timeout) is None
        ch._push_rx(Message(None, b"%d" % timeout))
        assert ch.recv(block=True, timeout=timeout).payload == b"%d" % timeout
    assert ch.stats.empty_polls == 0


def test_blocking_recv_never_sleeps_with_data_ready():
    ch = Channel(None, 1)
    ch._push_rx(Message(None, b"ready"))
    assert ch.recv(block=True, timeout=5).payload == b"ready"


def test_randomized_interleavings_lose_no_wakeups():
    """Producer and consumer race over one channel; every message must be
    observed by exactly one blocking recv, in push order, with no
    deadlock."""
    ch = Channel(None, 1)
    rng = random.Random(99)
    rounds = 400
    got = []

    def consumer():
        while len(got) < rounds:
            msg = ch.recv(block=True, timeout=5)
            assert msg is not None, "lost wakeup: consumer starved"
            got.append(msg.payload)

    t = threading.Thread(target=consumer)
    t.start()
    for i in range(rounds):
        ch._push_rx(Message(None, i.to_bytes(4, "big")))
        if rng.random() < 0.3:
            threading.Event().wait(rng.random() * 0.0005)
    t.join(timeout=30)
    assert not t.is_alive()
    assert got == [i.to_bytes(4, "big") for i in range(rounds)]
    assert ch.stats.rx_enqueued == ch.stats.rx_dequeued == rounds


def test_blocked_receiver_spin_counter_stays_zero():
    ch = Channel(None, 1)
    seen = []

    def consumer():
        for _ in range(20):
            seen.append(ch.recv(block=True, timeout=5))

    t = threading.Thread(target=consumer)
    t.start()
    for i in range(20):
        ch._push_rx(Message(None, b"%d" % i))
        threading.Event().wait(0.001)
    t.join(timeout=10)
    assert len(seen) == 20 and all(m is not None for m in seen)
    assert ch.stats.empty_polls == 0  # parked, never spinning


def test_polling_receiver_spin_counter_grows():
    ch = Channel(None, 1)
    for _ in range(100):
        assert ch.recv(block=False) is None
    assert ch.stats.empty_polls == 100
