"""Engine loop contract: iteration order, policies, shared-nothing audit."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PollApp, connect_established, echo_server, make_pair

from sidenet import wire
from sidenet.channel import CLOSED
from sidenet.driver import Sim
from sidenet.engine import (CONTROL_INTERVAL_US, RX_BURST, EnginePolicy,
                            pick_engine)
from sidenet.fabric import FabricConfig
from sidenet.handshake import MODE_NAIVE, MODE_OPTIMIZED
from sidenet.nic import QUEUE_DEPTH
from sidenet.transport import RTO_BASE_US


def test_idle_iteration_does_no_work():
    sim, client, server, cch, sch = make_pair(seed=1, engines=2)
    sim.run_for(200)
    eng = client.engines[1]
    assert eng.run_iteration(sim.now) == 0


def test_pending_app_message_is_processed_within_iteration():
    sim, client, server, cch, sch = make_pair(seed=2, engines=1)
    handle = connect_established(sim, client, cch)
    client.send(cch, handle, b"work")
    eng = client.engines[0]
    assert eng.run_iteration(sim.now) >= 1
    assert eng.stats.frames_tx > 0


def _steer(sim, src_ip, dst_ip, udp):
    """Engine queue the fabric steers src_ip -> dst_ip frames on a UDP pair."""
    frame = wire.build_frame(src_ip, dst_ip, udp.src, udp.dst, wire.PKT_SACK,
                             1, 2)
    return sim.fabric.steer(dst_ip, frame)


def _assert_flows_steer_to_owners(sim, *stacks):
    """Fabric steering oracle: each flow's transmit pair steers to the engine
    holding the peer flow on the other host. Both ends of every flow are
    checked, so each direction is. Returns the number of flows checked."""
    owners = {(stack.local_ip, key): (eng.engine_id, flow)
              for stack in stacks for eng in stack.engines
              for key, flow in eng.flows.items()}
    for (ip, key), (_, flow) in owners.items():
        h = flow.handle
        peer_key = (ip, h.local_port, h.remote_port)
        peer_engine, _ = owners[(h.remote_ip, peer_key)]
        assert _steer(sim, ip, h.remote_ip, flow.tx_udp) == peer_engine, key
    return len(owners)


def test_foreign_flow_frame_dropped_without_touching_owner():
    """A frame for another engine's flow (forced past RSS) is dropped and
    counted; the owning engine's state is untouched, and the flow's own
    port pairs steer only to its owners."""
    sim, client, server, cch, sch = make_pair(seed=3, engines=4,
                                              server_engine=2)
    handle = connect_established(sim, client, cch)
    sim.run_for(2000)
    key = ("10.0.0.1", handle.local_port, 80)
    owner = server.engines[2]
    other = server.engines[0]
    flow = owner.flows[key]
    rx_next_before = flow.rx_next
    rx_buffer_before = set(flow.rx_buffer)
    flow_stats_before = replace(flow.stats)
    owner_stats_before = replace(owner.stats)
    rogue = wire.build_frame(
        "10.0.0.1", "10.0.0.2", 1, 2, wire.PKT_DATA, handle.local_port, 80,
        payload=b"sneak", seq=flow.rx_next, msg_id=0, frag_offset=0,
        msg_len=5, flags=wire.FLAG_LAST_FRAGMENT)
    other.nic._deliver(0, rogue)
    other.run_iteration(sim.now)
    assert other.stats.rx_unknown_flow == 1
    assert flow.rx_next == rx_next_before
    assert set(flow.rx_buffer) == rx_buffer_before
    assert flow.stats == flow_stats_before
    assert owner.stats == owner_stats_before
    assert _assert_flows_steer_to_owners(sim, client, server) == 2


@pytest.mark.parametrize("pkt_type", [wire.PKT_DATA, wire.PKT_SACK,
                                      wire.PKT_FIN, wire.PKT_FINACK],
                         ids=["data", "sack", "fin", "finack"])
def test_flow_frame_for_no_flow_counts_unknown_flow(pkt_type):
    """Each frame type an established flow handles, sent for no flow, counts
    once in rx_unknown_flow and changes nothing else."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)  # the listen request reaches the engine
    eng = server.engines[0]
    before = replace(eng.stats)
    eng._dispatch(wire.build_frame("10.0.0.9", "10.0.0.2", 5000, 6000,
                                   pkt_type, 4242, 80), sim.now)
    assert eng.stats == replace(before,
                                rx_unknown_flow=before.rx_unknown_flow + 1)
    assert not eng.flows and not eng.server_handshakes


def _forged(pkt_type, flow_src=4242, flow_dst=80, seq=1, payload=b""):
    """A frame from a host that is not on the fabric to the server."""
    return wire.build_frame("10.0.0.9", "10.0.0.2", 5000, 6000, pkt_type,
                            flow_src, flow_dst, payload=payload, seq=seq)


_SYN = wire.pack_syn_payload(1, 0)
# (server engine, frame, the counters it bumps by one). Server engine 0 owns
# the listener on port 80; engine 1 sees only spray waste.
_DROPS = {
    "wrong_engine_syn": (1, _forged(wire.PKT_SYN, payload=_SYN),
                         ("syns_rx", "wrong_engine_syns")),
    "stray_syn": (0, _forged(wire.PKT_SYN, flow_dst=81, payload=_SYN),
                  ("syns_rx", "stray_syns")),
    "seq0_syn": (0, _forged(wire.PKT_SYN, seq=0, payload=_SYN),
                 ("syns_rx", "rx_malformed")),
    "unknown_synack": (0, _forged(wire.PKT_SYNACK,
                                  payload=wire.pack_synack_payload(1, 2, 0)),
                       ("synacks_rx", "unknown_synacks")),
    "data": (0, _forged(wire.PKT_DATA), ("rx_unknown_flow",)),
    "sack": (0, _forged(wire.PKT_SACK), ("rx_unknown_flow",)),
    "fin": (0, _forged(wire.PKT_FIN), ("rx_unknown_flow",)),
    "finack": (0, _forged(wire.PKT_FINACK), ("rx_unknown_flow",)),
    "unknown_ack": (0, _forged(wire.PKT_ACK,
                               payload=wire.pack_ack_payload(1, 2)),
                    ("acks_rx", "unknown_acks")),
}


def _count_records(monkeypatch):
    """A list that grows by one for each ParsedFrame built from now on."""
    built = []
    init = wire.ParsedFrame.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(wire.ParsedFrame, "__init__", counting_init)
    return built


@pytest.mark.parametrize("name", list(_DROPS))
def test_each_drop_is_decided_from_the_header_and_builds_no_record(
        monkeypatch, name):
    """A frame the engine drops bumps its drop counter (and its type's
    receive counter) and nothing else, and no ParsedFrame is built for it:
    the header fields and table lookups decide its fate."""
    which, frame, bumped = _DROPS[name]
    sim, client, server, cch, sch = make_pair(seed=5, engines=2)
    sim.run_for(100)  # the listen request reaches both engines
    eng = server.engines[which]
    before = replace(eng.stats)
    built = _count_records(monkeypatch)
    eng._dispatch(frame, sim.now)
    assert eng.stats == replace(
        before, **{k: getattr(before, k) + 1 for k in bumped})
    assert built == []
    assert not eng.flows and not eng.server_handshakes


def test_a_frame_a_handler_takes_builds_one_record(monkeypatch):
    """The control for the test above: the SYN that opens a server
    handshake and the final ACK that completes it each build one
    ParsedFrame."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=2)
    sim.run_for(100)
    eng = server.engines[0]
    built = _count_records(monkeypatch)
    eng._dispatch(_forged(wire.PKT_SYN, payload=_SYN), sim.now)
    assert len(built) == 1 and len(eng.server_handshakes) == 1
    eng._dispatch(_forged(wire.PKT_ACK, payload=wire.pack_ack_payload(1, 2)),
                  sim.now)
    assert len(built) == 2 and len(eng.flows) == 1


def test_flow_port_of_a_live_flow_or_pending_connect_is_skipped():
    """With the port counter wrapped round to a port that a live flow or a
    pending connect to the same peer holds, as after 32768 more connects,
    the next connect gets another port: it establishes, and the live flow
    is untouched and still carries messages."""
    sim, client, server, cch, sch = make_pair(seed=21, engines=1)
    first = connect_established(sim, client, cch)
    sim.run_for(1000)  # the final ACK reaches the server
    ceng, seng = client.engines[0], server.engines[0]
    flow = ceng.flows[("10.0.0.2", 80, first.local_port)]
    peer = seng.flows[("10.0.0.1", first.local_port, 80)]
    client._next_flow_port = first.local_port
    second = connect_established(sim, client, cch)
    assert second.local_port != first.local_port
    assert ceng.flows[("10.0.0.2", 80, first.local_port)] is flow
    assert seng.flows[("10.0.0.1", first.local_port, 80)] is peer
    assert first.is_established
    assert seng.stats.duplicate_syns == 0
    cch.send(first, b"still here")
    assert sim.run_until(lambda: sch.rx_pending() > 0, max_us=1_000_000)
    msg = sch.recv()
    assert (msg.payload, msg.flow.remote_port) == (b"still here",
                                                   first.local_port)

    pending = client.connect(cch, "10.0.0.2", 81)  # nobody listens there
    assert sim.run_until(lambda: ("10.0.0.2", 81, pending.local_port)
                         in ceng.client_handshakes, max_us=1000)
    client._next_flow_port = pending.local_port
    again = client.connect(cch, "10.0.0.2", 81)
    assert again.local_port != pending.local_port


def test_round_robin_assignment_cycles():
    assert [pick_engine(None, 4, k) for k in range(6)] == [0, 1, 2, 3, 0, 1]


def test_pinned_assignment_and_range_check():
    assert pick_engine(EnginePolicy.pinned(2), 4, 99) == 2
    with pytest.raises(ValueError):
        pick_engine(EnginePolicy.pinned(9), 4, 0)


def test_attach_policies_route_channels():
    sim = Sim(FabricConfig(rng_seed=4), seed=4)
    stack = sim.add_stack("10.0.0.1", 4)
    channels = [stack.attach() for _ in range(6)]
    assert [ch.owner_engine for ch in channels] == [0, 1, 2, 3, 0, 1]
    pinned = stack.attach(EnginePolicy.pinned(2))
    assert pinned.owner_engine == 2
    with pytest.raises(ValueError):
        stack.attach(EnginePolicy.pinned(9))


def test_dedicated_engine_services_exactly_one_channel():
    sim = Sim(FabricConfig(rng_seed=5), seed=5)
    stack = sim.add_stack("10.0.0.1", 2)
    for _ in range(3):
        stack.attach(EnginePolicy.pinned(0))  # throughput apps share engine 0
    stack.attach(EnginePolicy.pinned(1))      # latency app gets engine 1
    assert len(stack.engines[0].channels) == 3
    assert len(stack.engines[1].channels) == 1


def test_listener_replicated_to_every_engine():
    sim, client, server, cch, sch = make_pair(seed=6, engines=4,
                                              server_engine=1)
    sim.run_for(2 * CONTROL_INTERVAL_US)
    for eng in server.engines:
        assert 80 in eng.listeners
        assert eng.listeners[80].channel.owner_engine == 1


def test_connect_requests_serviced_on_50us_grid():
    sim, client, server, cch, sch = make_pair(seed=7, engines=1)
    sim.run_for(130)  # now between grid points
    t0 = sim.now
    handle = client.connect(cch, "10.0.0.2", 80)
    eng = client.engines[0]
    syns_at = []

    def watch(sim_):
        if eng.stats.syns_sent and not syns_at:
            syns_at.append(sim_.now)
        return 0

    sim.add_app(PollApp(watch))
    assert sim.run_until(lambda: handle.is_established, max_us=1_000_000)
    assert syns_at[0] >= t0
    assert syns_at[0] % CONTROL_INTERVAL_US == 0


def test_liveness_work_reported_while_anything_pending():
    sim, client, server, cch, sch = make_pair(seed=8, engines=1)
    handle = connect_established(sim, client, cch)
    client.send(cch, handle, b"x" * 5000)
    eng = client.engines[0]
    tx_before = eng.stats.frames_tx
    now = sim.now + eng.tick_us
    assert eng.due(now)
    total = 0
    while eng.due(now):
        total += eng.run_iteration(now)
        now += eng.tick_us
    assert total >= 1  # run to completion: fragmented and transmitted now
    assert eng.stats.frames_tx - tx_before == 4  # 5000 B -> 4 fragments out


def test_timer_wheel_fires_overdue_timer_exactly_once():
    """A 300,000 us timer survives a 300,001 us jump and fires once; firing
    ends its life as cancel() does."""
    sim, client, server, cch, sch = make_pair(seed=10, engines=1)
    eng = client.engines[0]
    fired = []
    timer = eng.arm_timer(300_000, lambda now: fired.append(now))
    sim.fabric.advance_to(300_001)
    assert timer.live
    eng.run_iteration(sim.now)
    assert fired == [300_001]
    assert not timer.live
    eng.run_iteration(sim.now + eng.tick_us)
    assert fired == [300_001]


def test_run_for_keeps_its_deadline():
    """run_for never jumps past its deadline to the next event, however far
    that lies; a message in flight still arrives in 1 us slices."""
    sim, client, server, cch, sch = make_pair(seed=1, engines=1)
    handle = connect_established(sim, client, cch)
    cch.send(handle, b"x" * 5000)
    t0 = sim.now
    sim.run_for(30)
    assert sim.now == t0 + 30
    while not sch.rx_pending():
        assert sim.now < t0 + 1_000_000
        before = sim.now
        sim.run_for(1)
        assert sim.now == before + 1
    assert sch.recv().payload == b"x" * 5000


@pytest.mark.parametrize("flags", [wire.FLAG_OPTIMIZED, 0],
                         ids=["optimized", "naive"])
def test_syn_with_seq_zero_is_malformed_and_leaves_no_handshake(flags):
    """Connect attempts count from 1. An optimized-mode server handshake
    would file a seq-0 SYN as a duplicate of attempt 0 and then never
    answer, time out or free it, so such a SYN is dropped before anything
    is stored."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)  # the listen request reaches the engine
    eng = server.engines[0]
    assert 80 in eng.listeners
    before = replace(eng.stats)
    eng._dispatch(wire.build_frame(
        "10.0.0.9", "10.0.0.2", 5000, 6000, wire.PKT_SYN, 4242, 80,
        payload=wire.pack_syn_payload(1, 0), seq=0, flags=flags), sim.now)
    assert not eng.server_handshakes
    assert eng.stats == replace(before, syns_rx=before.syns_rx + 1,
                                rx_malformed=before.rx_malformed + 1)
    sim.run_for(1_000_000)
    assert not eng.server_handshakes
    assert eng.stats.synacks_sent == 0


def test_every_flow_frame_steers_to_the_owning_engines():
    """Established flows use only their handshake-chosen port pairs, so the
    fabric oracle must steer every one of their frames to the flow owners."""
    sim, client, server, cch, sch = make_pair(seed=11, engines=4,
                                              server_engine=2,
                                              client_engine=1)
    handle = connect_established(sim, client, cch)
    sim.run_for(2000)
    captured = []
    sim.fabric._tap = lambda frame: captured.append(frame) and False
    client.send(cch, handle, b"z" * 100_000)
    echoed = []

    def echo(sim_):
        msg = sch.recv()
        if msg:
            server.send(sch, msg.flow, msg.payload)
            echoed.append(1)
            return 1
        return 0

    sim.add_app(PollApp(echo))
    assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=10_000_000)
    checked = 0
    for frame in captured:
        pkt = wire.parse_frame(frame)
        if pkt.pkt_type not in (wire.PKT_DATA, wire.PKT_SACK):
            continue
        dst_ip = wire.unpack_ip(frame[30:34])
        expected = 2 if dst_ip == "10.0.0.2" else 1
        assert sim.fabric.steer(dst_ip, frame) == expected
        checked += 1
    assert checked > 80  # both directions: data, echo, and their sacks


def test_one_rx_burst_of_in_order_data_gets_one_sack():
    """Ten in-order full-sized DATA frames for one flow, taken in one RX
    burst, put exactly one SACK, covering all ten, on the fabric."""
    sim, client, server, cch, sch = make_pair(seed=5)
    handle = connect_established(sim, client, cch)
    sim.run_for(2000)
    eng = server.engines[0]
    flow = eng.flows[("10.0.0.1", handle.local_port, 80)]
    udp = client.engines[0].flows[handle.key].tx_udp
    first = flow.rx_next
    for i in range(10):
        eng.nic._deliver(0, wire.build_frame(
            "10.0.0.1", "10.0.0.2", udp.src, udp.dst,
            wire.PKT_DATA, handle.local_port, 80,
            payload=b"d" * wire.FRAGMENT_PAYLOAD, seq=first + i,
            msg_id=flow.rx_msg_id + i, frag_offset=0,
            msg_len=wire.FRAGMENT_PAYLOAD, flags=wire.FLAG_LAST_FRAGMENT))
    captured = []
    sim.fabric._tap = lambda frame: captured.append(frame) and False
    eng.run_iteration(sim.now)
    sim.fabric.collect_tx()
    sacks = [p for p in map(wire.parse_frame, captured)
             if p.pkt_type == wire.PKT_SACK]
    assert [p.ack for p in sacks] == [first + 10]
    assert sch.rx_pending() == 10


def test_echo_round_trips_send_no_sack():
    """Each request's ack rides on its reply and each reply's on the next
    request: only the last reply is acked by a SACK, after the ack delay."""
    sim, client, server, cch, sch = make_pair(seed=6)
    handle = connect_established(sim, client, cch)
    echo_server(sim, server, sch)
    sent = []
    sim.fabric._tap = lambda frame: sent.append(frame) and False
    for i in range(20):
        cch.send(handle, b"ping %d" % i)
        assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=1_000_000)
        assert cch.recv().payload == b"ping %d" % i
    types = [wire.parse_frame(f).pkt_type for f in sent]
    assert types == [wire.PKT_DATA] * 40
    # The first request has nothing to ack yet.
    assert [bool(wire.parse_frame(f).flags & wire.FLAG_ACK)
            for f in sent] == [False] + [True] * 39
    assert sim.drain()
    assert wire.parse_frame(sent[-1]).pkt_type == wire.PKT_SACK
    assert len(sent) == 41


def _flagged_data(flow, udp, handle, seq, ack):
    """A one-fragment DATA frame from the server to the client's flow, on
    the pair `udp` the server's flow sends on, carrying `ack` under
    FLAG_ACK."""
    return wire.build_frame(
        "10.0.0.2", "10.0.0.1", udp.src, udp.dst,
        wire.PKT_DATA, 80, handle.local_port, payload=b"h", seq=seq,
        ack=ack, msg_id=flow.rx_msg_id, msg_len=1,
        flags=wire.FLAG_LAST_FRAGMENT | wire.FLAG_ACK)


def test_hostile_flagged_ack_is_counted_not_raised():
    """An ack above anything the flow sent is a protocol error; the DATA
    itself still passes on_data's own checks and is delivered."""
    sim, client, server, cch, sch = make_pair(seed=7)
    handle = connect_established(sim, client, cch)
    sim.run_for(1000)  # let the final ACK land
    udp = server.engines[0].flows[("10.0.0.1", handle.local_port, 80)].tx_udp
    eng = client.engines[0]
    (flow,) = eng.flows.values()
    for ack in (flow.next_tx_seq + 1, 0xFFFFFFFF):
        eng.nic._deliver(0, _flagged_data(flow, udp, handle, flow.rx_next,
                                          ack))
        eng.run_iteration(sim.now)
    assert flow.stats.protocol_errors == 2
    assert flow.acked_upto == 0 and handle.is_established
    assert [cch.recv().payload for _ in range(2)] == [b"h", b"h"]


def test_resent_flagged_fragment_with_a_stale_ack_is_a_no_op():
    """A reply resent with the bytes of its first send carries the ack of
    that time; once the flow has moved past it, it changes nothing on the
    sending side and is re-acked as a duplicate."""
    sim, client, server, cch, sch = make_pair(seed=8)
    handle = connect_established(sim, client, cch)
    echo_server(sim, server, sch)
    replies = []

    def keep_replies(frame):
        if wire.parse_frame(frame).src_ip == "10.0.0.2":
            replies.append(frame)
        return False

    sim.fabric._tap = keep_replies
    for _ in range(2):
        cch.send(handle, b"ping")
        assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=1_000_000)
        cch.recv()
    sim.fabric._tap = None
    eng = client.engines[0]
    (flow,) = eng.flows.values()
    cch.send(handle, b"in flight")
    eng.run_iteration(sim.now)
    first = wire.parse_frame(replies[0])
    assert first.flags & wire.FLAG_ACK and first.ack == 1 < flow.acked_upto
    state = (flow.acked_upto, dict(flow.unacked), flow.loss_timer,
             flow.loss_timer.due, flow.stats.frags_acked_unique,
             flow.rack_seq, flow.rto_us)
    frames_tx = eng.stats.frames_tx
    eng.nic._deliver(0, replies[0])
    eng.run_iteration(sim.now + 1)
    assert (flow.acked_upto, dict(flow.unacked), flow.loss_timer,
            flow.loss_timer.due, flow.stats.frags_acked_unique,
            flow.rack_seq, flow.rto_us) == state
    assert flow.stats.rx_duplicates == 1 and flow.stats.protocol_errors == 0
    assert eng.stats.frames_tx == frames_tx + 1  # the duplicate's re-ack
    assert cch.rx_pending() == 0


def test_whole_run_shared_nothing_audit():
    sim, client, server, cch, sch = make_pair(seed=9, engines=4,
                                              server_engine=3,
                                              client_engine=1)
    handles = [connect_established(sim, client, cch) for _ in range(10)]
    for h in handles:
        client.send(cch, h, b"payload")
    done = []

    def server_app(sim_):
        msg = sch.recv()
        if msg:
            done.append(msg)
            return 1
        return 0

    sim.add_app(PollApp(server_app))
    assert sim.run_until(lambda: len(done) == 10, max_us=30_000_000)

    seen_flows = {}
    for stack in (client, server):
        for eng in stack.engines:
            for key, flow in eng.flows.items():
                assert (stack.local_ip, key) not in seen_flows
                seen_flows[(stack.local_ip, key)] = eng.engine_id
            for ch in eng.channels:  # served by its owner engine alone
                holders = [e.engine_id for e in stack.engines
                           if ch in e.channels]
                assert holders == [ch.owner_engine]
    assert len(seen_flows) == 20  # ten flows, one state per side, never shared
    assert _assert_flows_steer_to_owners(sim, client, server) == 20


@settings(max_examples=10)
@given(st.sampled_from([MODE_NAIVE, MODE_OPTIMIZED]), st.integers(1, 6),
       st.integers(1, 6), st.integers(0, 2**16), st.data())
def test_both_modes_win_affinity_on_unequal_hosts(mode, client_engines,
                                                  server_engines, seed, data):
    """Whatever the handshake mode and the two hosts' engine counts, each
    end of a connection between pinned channels sends on a pair that steers
    to the engine holding the other end."""
    client_engine = data.draw(st.integers(0, client_engines - 1))
    server_engine = data.draw(st.integers(0, server_engines - 1))
    sim = Sim(FabricConfig(rng_seed=seed, base_delay_us=20), seed=seed)
    server = sim.add_stack("10.0.0.2", server_engines)
    client = sim.add_stack("10.0.0.1", client_engines)
    sch = server.attach(EnginePolicy.pinned(server_engine))
    server.listen(sch, 80)
    cch = client.attach(EnginePolicy.pinned(client_engine))
    handle = connect_established(sim, client, cch, mode=mode)
    sim.run_for(1000)  # let the final ACK land
    assert handle.key in client.engines[client_engine].flows
    assert (("10.0.0.1", handle.local_port, 80)
            in server.engines[server_engine].flows)
    assert _assert_flows_steer_to_owners(sim, client, server) == 2


def test_closed_flow_retransmits_still_counted():
    """Retransmits are counted per engine, so they outlive the flow."""
    sim, client, server, cch, sch = make_pair(seed=13, engines=1)
    handle = connect_established(sim, client, cch)
    dropped = []

    def drop_first_data(frame):
        if not dropped and wire.parse_frame(frame).pkt_type == wire.PKT_DATA:
            dropped.append(frame)
            return True
        return False

    sim.fabric._tap = drop_first_data
    cch.send(handle, b"lost once")
    assert sim.run_until(lambda: sch.rx_pending() > 0, max_us=1_000_000)
    eng = client.engines[0]
    (flow,) = eng.flows.values()
    assert flow.stats.retransmits == 1
    client.close(handle)
    assert sim.run_until(lambda: handle.state == CLOSED, max_us=1_000_000)
    assert not eng.flows
    assert client.stats_rows()[0]["retransmits"] == 1


def test_fin_close_leaves_nothing_behind():
    """A FIN/FIN-ACK close ends both flows for good: after the FIN-ACK
    neither side sends a frame, no frame reaches an unknown flow, no live
    timer is left on either engine, and the sim drains within 1 ms."""
    sim, client, server, cch, sch = make_pair(seed=14, engines=1)
    handle = connect_established(sim, client, cch)

    def echo(sim_):
        msg = sch.recv()
        if msg:
            server.send(sch, msg.flow, msg.payload)
            return 1
        return 0

    sim.add_app(PollApp(echo))
    cch.send(handle, b"ping")
    assert sim.run_until(lambda: cch.rx_pending() > 0, max_us=1_000_000)
    assert cch.recv().payload == b"ping"
    sent = []
    sim.fabric._tap = lambda frame: sent.append(
        wire.parse_frame(frame).pkt_type) and False
    client.close(handle)
    closed_at = sim.now
    assert sim.drain()
    assert handle.state == CLOSED
    assert sent[-1] == wire.PKT_FINACK and sent.count(wire.PKT_FINACK) == 1
    engines = client.engines + server.engines
    assert not any(eng.flows for eng in engines)
    assert [eng.stats.rx_unknown_flow for eng in engines] == [0, 0]
    assert not [t for eng in engines for _, _, t in eng._timers if t.live]
    assert sim.now - closed_at <= 1000


@pytest.mark.parametrize("faults", [{}, {"loss_probability": 0.02,
                                         "reorder_probability": 0.05}],
                         ids=["clean", "lossy"])
def test_message_sent_just_before_close_arrives(faults):
    """close() right after send(): the FIN waits until the message, more
    than a send window of fragments, is acked, so the peer, which tears
    down on the FIN, receives the message first. A lost FIN is sent again,
    so after drain neither side keeps a flow."""
    for seed in range(20):
        sim, client, server, cch, sch = make_pair(seed=seed, engines=1,
                                                  **faults)
        handle = connect_established(sim, client, cch)
        got = []

        def sink(sim_):
            msg = sch.recv()
            if msg:
                got.append(msg.payload)
                return 1
            return 0

        sim.add_app(PollApp(sink))
        payload = bytes(range(256)) * 784  # 143 fragments
        cch.send(handle, payload)
        client.close(handle)
        assert sim.drain(), seed
        assert got == [payload], seed
        assert handle.state == CLOSED, seed
        engines = client.engines + server.engines
        assert not any(eng.flows for eng in engines), seed


def test_lost_fin_is_sent_again():
    sim, client, server, cch, sch = make_pair(seed=15, engines=1)
    handle = connect_established(sim, client, cch)
    fins = []

    def drop_first_fin(frame):
        if wire.parse_frame(frame).pkt_type != wire.PKT_FIN:
            return False
        fins.append(sim.now)
        return len(fins) == 1

    sim.fabric._tap = drop_first_fin
    client.close(handle)
    assert sim.drain()
    assert len(fins) == 2 and fins[1] - fins[0] == RTO_BASE_US
    assert handle.state == CLOSED
    assert not any(eng.flows for eng in client.engines + server.engines)


def _idle_pair_at(offset):
    """An established 1x1 pair run until idle, then to the first instant
    that is `offset` past a 50 us grid point."""
    sim, client, server, cch, sch = make_pair(seed=12, engines=1)
    handle = connect_established(sim, client, cch)
    assert sim.drain()
    sim.run_for((offset - sim.now) % CONTROL_INTERVAL_US or CONTROL_INTERVAL_US)
    assert sim.now % CONTROL_INTERVAL_US == offset
    return sim, client, server, cch, sch, handle


def _next_grid(t):
    return (t // CONTROL_INTERVAL_US + 1) * CONTROL_INTERVAL_US


def _first_emitted(sim, pkt_type):
    """Record the virtual instant at which the first frame of a type enters
    the fabric."""
    seen = []

    def tap(frame):
        if not seen and wire.parse_frame(frame).pkt_type == pkt_type:
            seen.append(sim.now)
        return False

    sim.fabric._tap = tap
    return seen


def _first_true(sim, cond):
    """Record the first virtual instant at which cond() holds after the
    engines have run."""
    seen = []

    def watch(sim_):
        if not seen and cond():
            seen.append(sim_.now)

    sim.add_app(PollApp(watch))
    return seen


def _wake_by_channel_send(sim, client, server, cch, sch, handle):
    seen = _first_emitted(sim, wire.PKT_DATA)
    cch.send(handle, b"wake")
    return seen, sim.now


def _wake_by_listen(sim, client, server, cch, sch, handle):
    eng = server.engines[0]
    seen = _first_true(sim, lambda: 81 in eng.listeners)
    server.listen(server.attach(), 81)
    return seen, _next_grid(sim.now)


def _wake_by_close(sim, client, server, cch, sch, handle):
    seen = _first_emitted(sim, wire.PKT_FIN)
    client.close(handle)
    return seen, _next_grid(sim.now)


def _wake_by_delivery(sim, client, server, cch, sch, handle):
    eng = server.engines[0]
    seen = _first_true(sim, lambda: eng.stats.rx_unknown_flow > 0)
    stray = wire.build_frame("10.0.0.1", "10.0.0.2", 1, 2, wire.PKT_DATA,
                             1, 2, payload=b"x", msg_len=1)
    sim.fabric.send("10.0.0.1", stray)
    return seen, sim.now + 20  # the pair's base delay


def _wake_by_timer(sim, client, server, cch, sch, handle):
    seen = []
    due = sim.now + 777
    client.engines[0].arm_timer(due, seen.append)
    return seen, due


@pytest.mark.parametrize("produce", [
    _wake_by_channel_send, _wake_by_listen, _wake_by_close,
    _wake_by_delivery, _wake_by_timer])
def test_idle_engine_is_woken_by_each_producer(produce):
    """Each app-side producer of engine work sets the engine's wake flag,
    and the driver finds a delivered frame by reading the engine's RX ring
    (delivery sets no flag), so work that arrives while the whole sim is
    idle runs at its exact instant: at once for messages and frames, on the
    next 50 us grid point after submission for control requests, at the
    due time for timers."""
    sim, *pair = _idle_pair_at(offset=17)
    seen, expected = produce(sim, *pair)
    assert sim.run_until(lambda: seen, max_us=1_000_000)
    assert seen == [expected]


def test_connect_gate_fixed_when_first_observed_while_throttled():
    """A connect queued right after its engine ran is observed while the
    engine is tick-throttled. Its gate is the grid point after that
    instant, 3 us later, so the SYNs leave when the 5 us throttle ends
    rather than on the grid point after it."""
    sim, client, server, cch, sch, handle = _idle_pair_at(offset=47)
    t0 = sim.now
    eng = client.engines[0]
    assert _next_grid(t0) < t0 + eng.tick_us
    syn_at = _first_emitted(sim, wire.PKT_SYN)
    connects = []

    def connect_after_engine_ran(sim_):
        if not connects:  # apps step after the engines in each pass
            connects.append(client.connect(cch, "10.0.0.2", 80))

    cch.send(handle, b"run the engine now")
    sim.add_app(PollApp(connect_after_engine_ran))
    assert sim.run_until(lambda: syn_at, max_us=1_000_000)
    assert syn_at == [t0 + eng.tick_us]


KNOWN_TYPES = (wire.PKT_SYN, wire.PKT_SYNACK, wire.PKT_ACK, wire.PKT_DATA,
               wire.PKT_SACK, wire.PKT_FIN, wire.PKT_FINACK)


def _hostile_targets():
    """A 1x1 pair. The client engine holds a live flow and a handshake that
    is still waiting for a SYN-ACK; the server engine holds the flow's peer
    and a handshake that is still waiting for its ACK. Returns the sim, the
    two (engine, channel) pairs and valid frames aimed at each engine's
    flow and handshake."""
    sim, client, server, cch, sch = make_pair(seed=31, engines=1)
    handle = connect_established(sim, client, cch)
    ceng, seng = client.engines[0], server.engines[0]
    client.connect(cch, "10.0.0.2", 81)  # nobody listens there
    assert sim.run_until(lambda: any(
        hs.handle.remote_port == 81 for hs in ceng.client_handshakes.values()),
        max_us=1000)
    (hs,) = [hs for hs in ceng.client_handshakes.values()
             if hs.handle.remote_port == 81]
    seng._dispatch(wire.build_frame(
        "10.0.0.9", "10.0.0.2", 5000, 6000, wire.PKT_SYN, 4242, 80,
        payload=wire.pack_syn_payload(1, 0), seq=1), sim.now)
    assert ("10.0.0.9", 4242, 80) in seng.server_handshakes
    port = handle.local_port
    to_client = [
        wire.build_frame("10.0.0.2", "10.0.0.1", 1, 2, wire.PKT_DATA, 80,
                         port, payload=b"d" * 9, seq=0, msg_id=0,
                         frag_offset=0, msg_len=9,
                         flags=wire.FLAG_LAST_FRAGMENT),
        wire.build_frame("10.0.0.2", "10.0.0.1", 1, 2, wire.PKT_SACK, 80,
                         port, payload=wire.pack_sack_payload([(1, 3)]),
                         ack=0),
        wire.build_frame("10.0.0.2", "10.0.0.1", 1, 2, wire.PKT_SYNACK, 81,
                         hs.handle.local_port, seq=1,
                         payload=wire.pack_synack_payload(1, 2, 0)),
        wire.build_frame("10.0.0.2", "10.0.0.1", 1, 2, wire.PKT_FIN, 80,
                         port),
    ]
    to_server = [
        wire.build_frame("10.0.0.1", "10.0.0.2", 1, 2, wire.PKT_DATA, port,
                         80, payload=b"e" * 1408, seq=0, msg_id=0,
                         frag_offset=0, msg_len=2000),
        wire.build_frame("10.0.0.9", "10.0.0.2", 6000, 5000, wire.PKT_ACK,
                         4242, 80, payload=wire.pack_ack_payload(7, 8)),
        wire.build_frame("10.0.0.7", "10.0.0.2", 1, 2, wire.PKT_SYN, 999, 80,
                         payload=wire.pack_syn_payload(2, 1), seq=1),
    ]
    return sim, [(ceng, cch, to_client), (seng, sch, to_server)]


def _bad_data_header(pkt):
    n, off, size = pkt.msg_len, pkt.frag_offset, len(pkt.payload)
    return not (0 < n <= wire.MAX_MESSAGE_BYTES and off % 1408 == 0
                and off < n and size == min(1408, n - off))


@st.composite
def hostile_frames(draw):
    """(side, frame) pairs: arbitrary bytes, or a valid frame for that side
    with some bytes overwritten (header or payload) and maybe cut short."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        side = draw(st.integers(0, 1))
        if draw(st.booleans()):
            out.append((side, None, draw(st.binary(max_size=120))))
            continue
        which = draw(st.integers(0, 3 if side == 0 else 2))
        edits = draw(st.lists(st.tuples(st.integers(0, 1500),
                                        st.integers(0, 255)), max_size=4))
        cut = draw(st.none() | st.integers(0, 120))
        out.append((side, which, (edits, cut)))
    return out


@settings(max_examples=250)
@given(hostile_frames())
def test_hostile_frames_never_raise_and_malformed_is_counted_not_delivered(
        plan):
    sim, sides = _hostile_targets()
    for side, which, spec in plan:
        eng, ch, templates = sides[side]
        if which is None:
            frame = spec
        else:
            edits, cut = spec
            frame = bytearray(templates[which])
            for at, value in edits:
                frame[at % len(frame)] = value
            frame = bytes(frame[:cut] if cut is not None else frame)
        flows = list(eng.flows.values())
        before = (eng.stats.rx_malformed, eng.stats.rx_unknown_flow,
                  sum(f.stats.protocol_errors for f in flows),
                  ch.stats.rx_enqueued)
        eng._dispatch(frame, sim.now)  # must not raise
        pkt = wire.parse_frame(frame)
        after = (eng.stats.rx_malformed, eng.stats.rx_unknown_flow,
                 sum(f.stats.protocol_errors for f in flows),
                 ch.stats.rx_enqueued)
        if pkt is None or pkt.pkt_type not in KNOWN_TYPES:
            assert after == (before[0] + 1,) + before[1:]
        elif pkt.pkt_type == wire.PKT_DATA and _bad_data_header(pkt):
            assert after[3] == before[3]  # never delivered
            # Counted once: by the flow it names, or as an unknown flow.
            assert (after[1] - before[1]) + (after[2] - before[2]) == 1


def test_tx_backlog_keeps_emit_order_when_one_iteration_overflows_the_ring():
    """One iteration emits 100 frames more than the TX ring holds: the rest
    wait in the backlog. Frames emitted from outside the engine while the
    backlog waits queue behind it, even once the fabric has emptied the
    ring. Every frame reaches the fabric once, in emit order, and the
    fabric's sent count equals the frames the TX rings took."""
    sim, client, server, cch, sch = make_pair(seed=6)
    sim.run_for(200)
    eng = client.engines[0]
    frames = [wire.build_frame("10.0.0.1", "10.0.0.2", 40000 + i % 7, 40001,
                               wire.PKT_DATA, 9, 9, payload=b"%05d" % i)
              for i in range(QUEUE_DEPTH + 110)]
    early, late = frames[:QUEUE_DEPTH + 100], frames[QUEUE_DEPTH + 100:]
    backlog = []

    def burst(now):
        for frame in early:
            eng.emit(frame)
        backlog.append(len(eng.tx_backlog))

    eng.arm_timer(sim.now + 1, burst)
    seen = []
    sim.fabric._tap = lambda frame: seen.append(frame) and False
    assert sim.run_until(lambda: sim.fabric.stats.sent == QUEUE_DEPTH)
    assert backlog == [100] and len(eng.tx_backlog) == 100
    for frame in late:
        eng.emit(frame)
    assert len(eng.tx_backlog) == 110
    sim.run_for(2000)
    assert not eng.tx_backlog
    assert seen == frames
    tx_frames = sum(e.stats.frames_tx for stack in (client, server)
                    for e in stack.engines)
    assert sim.fabric.stats.sent == tx_frames == len(frames)


def test_one_iteration_takes_at_most_rx_burst_frames():
    """Frames waiting past RX_BURST stay in the ring for the next
    iteration."""
    sim, client, server, cch, sch = make_pair(seed=7)
    sim.run_for(200)
    eng = server.engines[0]
    for i in range(RX_BURST + 8):
        eng.nic._deliver(0, wire.build_frame(
            "10.0.0.1", "10.0.0.2", 40000, 40001, wire.PKT_DATA, 9, 9,
            payload=b"r", seq=i))
    assert eng.run_iteration(sim.now) == RX_BURST
    assert eng.stats.frames_rx == RX_BURST
    assert eng.nic.rx_pending(0) == 8
    assert eng.run_iteration(sim.now) == 8
    assert eng.stats.rx_unknown_flow == RX_BURST + 8


def test_queue_delivered_counts_frames_still_in_the_rx_ring():
    """stats_rows' queue_delivered is every frame put into the RX ring:
    those the engine took plus those still waiting in it."""
    sim, client, server, cch, sch = make_pair(seed=7)
    sim.run_for(200)
    eng = server.engines[0]
    for i in range(RX_BURST + 8):
        eng.nic._deliver(0, wire.build_frame(
            "10.0.0.1", "10.0.0.2", 40000, 40001, wire.PKT_DATA, 9, 9,
            payload=b"r", seq=i))
    eng.run_iteration(sim.now)
    assert eng.nic.rx_pending(0) == 8
    assert server.stats_rows()[0]["queue_delivered"] == RX_BURST + 8
