"""Loss recovery end to end: RACK's reorder window, the tail-loss probe and
the RTO backstop over a simulated fabric."""

import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PollApp, connect_established, echo_server, make_pair

from sidenet import transport, wire
from sidenet.channel import ESTABLISHED, RESET
from sidenet.transport import (MAX_FRAGMENT_RETRANSMITS, RTO_BASE_US,
                               RTO_CAP_US)

SRC = Path(__file__).resolve().parent.parent / "src" / "sidenet"


def _warm_flow():
    """An echo pair on 1x1 engines whose client flow has RTT samples, so a
    probe may be armed."""
    sim, client, server, cch, sch = make_pair(seed=21, engines=1)
    handle = connect_established(sim, client, cch)
    echo_server(sim, server, sch)
    for _ in range(3):
        cch.send(handle, b"warm-up")
        assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=1_000_000)
        cch.recv()
    (flow,) = client.engines[0].flows.values()
    assert flow.srtt_us > 0 and flow.stats.retransmits == 0
    return sim, cch, handle, flow


def _drop_client_data(sim, count=None):
    """Force-drop the client's next `count` DATA frames (all if None); the
    returned list gets each dropped frame's (virtual time, seq)."""
    dropped = []

    def tap(frame):
        pkt = wire.parse_frame(frame)
        if (pkt.pkt_type == wire.PKT_DATA and pkt.src_ip == "10.0.0.1"
                and (count is None or len(dropped) < count)):
            dropped.append((sim.now, pkt.seq))
            return True
        return False

    sim.fabric._tap = tap
    return dropped


def test_lone_lost_last_fragment_recovered_by_probe_within_1ms():
    sim, cch, handle, flow = _warm_flow()
    dropped = _drop_client_data(sim, 1)
    sent_at = sim.now
    cch.send(handle, b"tail")
    assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=1_000_000)
    assert cch.recv().payload == b"tail"
    assert dropped and flow.stats.retransmits == 1
    assert sim.now - sent_at <= 1000 < RTO_BASE_US
    assert flow.rto_us == RTO_BASE_US  # no timeout fired


def test_lost_tail_and_its_resend_recovered_by_second_probe_within_2ms():
    sim, cch, handle, flow = _warm_flow()
    dropped = _drop_client_data(sim, 2)
    sent_at = sim.now
    cch.send(handle, b"tail")
    assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=1_000_000)
    assert cch.recv().payload == b"tail"
    assert [seq for _, seq in dropped] == [3, 3]  # the tail, then its resend
    assert flow.stats.retransmits == 2
    assert sim.now - sent_at < 2000 < RTO_BASE_US
    assert flow.rto_us == RTO_BASE_US  # no timeout fired


def test_silent_peer_still_resets_by_the_rto_ladder():
    sim, cch, handle, flow = _warm_flow()
    probes = []
    on_probe = flow._on_probe_timer

    def counted_probe(now):
        probes.append((now, flow.stats.retransmits))
        on_probe(now)

    flow._on_probe_timer = counted_probe
    dropped = _drop_client_data(sim)
    sent_at = sim.now
    cch.send(handle, b"lost")
    assert sim.run_until(lambda: handle.state != ESTABLISHED,
                         max_us=60_000_000)
    assert handle.state == RESET
    assert sim.now - sent_at >= 5_000_000
    # The original, two probes, then one resend per RTO until the reset.
    assert len(dropped) == 1 + MAX_FRAGMENT_RETRANSMITS
    assert [r for _, r in probes] == [0, 1]
    gaps = [b - a for (a, _), (b, _) in zip(dropped[2:], dropped[3:])]
    rto = RTO_BASE_US
    for gap in gaps:
        assert gap == rto
        rto = min(2 * rto, RTO_CAP_US)


def test_retired_heuristics_are_gone():
    assert not hasattr(transport, "FAST_RETRANSMIT_DUPS")
    assert transport._TxEntry.__slots__ == ("frame", "sent_at", "retransmits")
    for path in SRC.glob("*.py"):
        text = path.read_text()
        for name in ("sack_misses", "fast_done", "FAST_RETRANSMIT_DUPS"):
            assert name not in text, (path.name, name)


@settings(max_examples=100)
@given(loss=st.floats(0.0, 0.10), reorder=st.floats(0.0, 0.20),
       jitter=st.integers(0, 10),
       sizes=st.lists(st.integers(1, 64 * 1024), min_size=1, max_size=6),
       seed=st.integers(0, 2**16))
def test_any_fault_schedule_delivers_each_message_once_in_order(
        loss, reorder, jitter, sizes, seed):
    sim, client, server, cch, sch = make_pair(
        seed=seed, engines=1, loss_probability=loss,
        reorder_probability=reorder, delay_jitter_us=jitter)
    handle = connect_established(sim, client, cch)
    rng = random.Random(seed)
    messages = [rng.randbytes(n) for n in sizes]
    for msg in messages:
        cch.send(handle, msg)
    got = []

    def sink(sim_):
        msg = sch.recv()
        if msg:
            got.append(msg.payload)
            return 1
        return 0

    sim.add_app(PollApp(sink))
    assert sim.run_until(lambda: len(got) == len(messages),
                         max_us=60_000_000)
    assert sim.drain()
    assert got == messages  # each once, in order, byte-exact
    assert sim.fabric.conservation_ok()
    flows = [f for st_ in (client, server) for eng in st_.engines
             for f in eng.flows.values()]
    assert len(flows) == 2
    for flow in flows:
        assert flow.conservation_ok()
        assert flow.handle.state == ESTABLISHED
        assert not flow.unacked and flow.lost_out == 0


@settings(max_examples=50)
@given(loss=st.floats(0.0, 0.10), reorder=st.floats(0.0, 0.20),
       jitter=st.integers(0, 10),
       sizes=st.lists(st.integers(1, 16 * 1024), min_size=1, max_size=6),
       seed=st.integers(0, 2**16))
def test_any_fault_schedule_echoes_each_message_once_in_order(
        loss, reorder, jitter, sizes, seed):
    """The request/reply variant: the server echoes every message, so acks
    carried on DATA run in both directions under the drawn faults."""
    sim, client, server, cch, sch = make_pair(
        seed=seed, engines=1, loss_probability=loss,
        reorder_probability=reorder, delay_jitter_us=jitter)
    handle = connect_established(sim, client, cch)
    rng = random.Random(seed)
    messages = [rng.randbytes(n) for n in sizes]
    for msg in messages:
        cch.send(handle, msg)
    echo_server(sim, server, sch)
    got = []

    def sink(sim_):
        msg = cch.recv()
        if msg:
            got.append(msg.payload)
            return 1
        return 0

    sim.add_app(PollApp(sink))
    assert sim.run_until(lambda: len(got) == len(messages),
                         max_us=60_000_000)
    assert sim.drain()
    assert got == messages  # each once, in order, byte-exact
    assert sim.fabric.conservation_ok()
    flows = [f for st_ in (client, server) for eng in st_.engines
             for f in eng.flows.values()]
    assert len(flows) == 2
    for flow in flows:
        assert flow.conservation_ok()
        assert flow.handle.state == ESTABLISHED
        assert not flow.unacked and flow.lost_out == 0
