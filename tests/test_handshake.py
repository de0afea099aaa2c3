"""Connection-setup behavior over the simulated fabric."""

import inspect
import random
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PollApp, connect_established, make_pair

from sidenet import handshake, wire
from sidenet.channel import CLOSED, CONNECTING, ConnectError
from sidenet.handshake import (BATCH_CAP, EPHEMERAL_HI, EPHEMERAL_LO,
                               MAX_ATTEMPTS, MODE_NAIVE, MODE_OPTIMIZED,
                               RETRY_TIMEOUT_US, draw_udp_pairs,
                               optimized_batch_size, rtt_update)
from sidenet.engine import EnginePolicy
from sidenet.stack import Stack
from sidenet.transport import RTO_BASE_US

SRC = Path(__file__).resolve().parent.parent / "src" / "sidenet"


def engine_stat(stack, name):
    return sum(getattr(e.stats, name) for e in stack.engines)


def test_single_engine_handshake_is_three_packets():
    sim, client, server, cch, sch = make_pair(seed=1, engines=1)
    connect_established(sim, client, cch, mode=MODE_NAIVE)
    assert engine_stat(client, "syns_sent") == 1
    assert engine_stat(server, "synacks_sent") == 1
    assert engine_stat(client, "acks_sent") == 1


def test_naive_spray_is_47_distinct_pairs_at_n4():
    sim, client, server, cch, sch = make_pair(seed=2, engines=4,
                                              server_engine=1,
                                              client_engine=2)
    syn_pairs = []

    def record_syns(frame):
        pkt = wire.parse_frame(frame)
        if pkt is not None and pkt.pkt_type == wire.PKT_SYN:
            syn_pairs.append((pkt.udp_src, pkt.udp_dst))
        return False

    sim.fabric._tap = record_syns
    handle = connect_established(sim, client, cch, mode=MODE_NAIVE)
    assert handle.attempts == 1
    assert engine_stat(client, "syns_sent") == 47
    assert len(syn_pairs) == 47
    assert len(set(syn_pairs)) == 47  # no repeat among these 47 draws


def test_optimized_server_sprays_thirteen_synacks_at_n4():
    # Seed chosen to land the handshake on the first batch.
    sim, client, server, cch, sch = make_pair(seed=4, engines=4,
                                              server_engine=3)
    handle = connect_established(sim, client, cch, mode=MODE_OPTIMIZED)
    assert handle.attempts == 1
    assert engine_stat(client, "syns_sent") == 13
    assert engine_stat(server, "synacks_sent") == 13


def test_wrong_engine_syns_are_ignored_not_answered():
    sim, client, server, cch, sch = make_pair(seed=4, engines=4,
                                              server_engine=0)
    connect_established(sim, client, cch, mode=MODE_NAIVE)
    assert engine_stat(server, "wrong_engine_syns") > 0
    for eng in server.engines:
        if eng.engine_id != 0:
            assert eng.stats.synacks_sent == 0
            assert not eng.flows


def test_duplicate_syn_after_establishment_absorbed():
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    handle = connect_established(sim, client, cch, mode=MODE_OPTIMIZED)
    sim.run_for(1000)  # let the server finish its side
    target = server.engines[0]
    assert ("10.0.0.1", handle.local_port, 80) in target.flows
    before = target.stats.synacks_sent
    dups_before = target.stats.duplicate_syns
    # Replay the accepted SYN (same flow ports, and the UDP pair the client
    # flow sends on).
    from sidenet import wire

    udp = client.engines[0].flows[handle.key].tx_udp
    replay = wire.build_frame(
        "10.0.0.1", "10.0.0.2", udp.src, udp.dst,
        wire.PKT_SYN, handle.local_port, 80,
        payload=wire.pack_syn_payload(1, 0), seq=1, flags=wire.FLAG_OPTIMIZED)
    sim.fabric.send(replay)
    sim.run_for(1000)
    assert target.stats.duplicate_syns == dups_before + 1
    assert target.stats.synacks_sent == before  # no new batch


def test_later_synacks_of_batch_discarded():
    sim, client, server, cch, sch = make_pair(seed=6, engines=4,
                                              server_engine=2,
                                              client_engine=1)
    handle = connect_established(sim, client, cch, mode=MODE_OPTIMIZED)
    sim.run_for(1000)
    acks = engine_stat(client, "acks_sent")
    assert acks == 1  # straggler SYN-ACKs from the same batch answered nothing
    assert (engine_stat(client, "synacks_discarded")
            + engine_stat(client, "unknown_synacks")) > 0


def test_retry_doubles_batch_and_caps():
    sim, client, server, cch, sch = make_pair(seed=7, engines=4,
                                              loss_probability=1.0)
    handle = client.connect(cch, "10.0.0.2", 80, mode=MODE_NAIVE)
    ok = sim.run_until(lambda: handle.state != "connecting",
                       max_us=10 * RETRY_TIMEOUT_US)
    assert ok and handle.is_failed
    assert handle.attempts == 8
    assert sim.now >= 8 * RETRY_TIMEOUT_US
    eng = client.engines[0]
    # Handshake was dropped on failure; schedule is visible in total SYNs.
    expected = [47, 94, 188, 376, 752, 1504, 3008, 4096]
    assert engine_stat(client, "syns_sent") == sum(expected)


def test_connect_to_unbound_port_fails_after_eight_retries():
    sim, client, server, cch, sch = make_pair(seed=8, engines=2)
    handle = client.connect(cch, "10.0.0.2", 9999)
    sim.run_until(lambda: handle.is_failed, max_us=10 * RETRY_TIMEOUT_US)
    assert handle.is_failed and handle.attempts == 8
    assert sim.now >= 8 * RETRY_TIMEOUT_US  # 2.4 s of virtual time
    assert engine_stat(server, "stray_syns") > 0


def test_blocking_connect_raises_connect_error(tmp_path):
    sim, client, server, cch, sch = make_pair(seed=9, engines=1,
                                              loss_probability=1.0)

    import threading

    handle_box = {}

    def dial():
        try:
            client.connect(cch, "10.0.0.2", 80, blocking=True, timeout=30)
        except ConnectError as exc:
            handle_box["err"] = exc

    t = threading.Thread(target=dial)
    t.start()
    sim.run_until(lambda: "err" in handle_box, max_us=10 * RETRY_TIMEOUT_US)
    t.join(timeout=5)
    assert handle_box["err"].attempts == 8


def test_handles_hold_no_event_when_nothing_blocks():
    """Only a blocking connect makes an Event to wait on. After an echo
    under Sim, a non-blocking connect's handle and the handle the server
    accepted hold none."""
    sim, client, server, cch, sch = make_pair(seed=1, engines=2)
    handle = connect_established(sim, client, cch)
    cch.send(handle, b"ping")
    assert sim.run_until(lambda: sch.rx_pending() > 0)
    accepted = sch.recv().flow
    server.send(sch, accepted, b"pong")
    assert sim.run_until(lambda: cch.rx_pending() > 0)
    assert cch.recv().payload == b"pong"
    assert handle._done is None and accepted._done is None


def test_affinity_both_directions_steer_to_owning_engines():
    sim, client, server, cch, sch = make_pair(seed=10, engines=4,
                                              server_engine=1,
                                              client_engine=3)
    handles = [connect_established(sim, client, cch) for _ in range(20)]
    sim.run_for(2000)  # let the final ACKs land so the server side settles
    client_eng = client.engines[3]
    for handle in handles:
        key = (handle.remote_ip, handle.remote_port, handle.local_port)
        flow = client_eng.flows[key]
        # The pair we transmit with must steer to the server-side owner...
        tx_frame_queue = sim.fabric.steer("10.0.0.2", _fake_frame(
            "10.0.0.1", "10.0.0.2", flow.tx_udp.src, flow.tx_udp.dst))
        server_owner = _owner_engine(server, ("10.0.0.1", handle.local_port, 80))
        assert tx_frame_queue == server_owner == 1
        # ...and the pair the peer answers with must steer back to ours.
        server_flow = server.engines[server_owner].flows[
            ("10.0.0.1", handle.local_port, 80)]
        rx_frame_queue = sim.fabric.steer("10.0.0.1", _fake_frame(
            "10.0.0.2", "10.0.0.1", server_flow.tx_udp.src,
            server_flow.tx_udp.dst))
        assert rx_frame_queue == 3


def _fake_frame(src, dst, sport, dport):
    from sidenet import wire

    return wire.build_frame(src, dst, sport, dport, wire.PKT_DATA, 1, 2)


def _owner_engine(stack, key):
    owners = [e.engine_id for e in stack.engines if key in e.flows]
    assert len(owners) == 1, owners
    return owners[0]


def test_spray_steers_connects_to_fresh_ports_on_every_listener_engine():
    """Connects from one engine to many ports, each connected once, so none
    finds a known UDP pair and each sprays. Every winning pair must steer
    to its listener's engine, and every server flow's pair back to the
    client's."""
    sim, client, server, cch, sch = make_pair(seed=14, engines=8,
                                              client_engine=2,
                                              base_delay_us=5)
    schs = [server.attach(EnginePolicy.pinned(i)) for i in range(8)]
    ports = range(2000, 2048)
    for port in ports:
        server.listen(schs[port % 8], port)
    handles = [connect_established(sim, client, cch, port=port)
               for port in ports]
    sim.run_for(2000)  # let the final ACKs land so the server side settles
    assert (engine_stat(client, "syns_sent")
            >= len(ports) * optimized_batch_size(8))
    client_eng = client.engines[2]
    assert len(client_eng.peer_pairs) == len(ports)
    for handle in handles:
        owner = handle.remote_port % 8
        server_key = ("10.0.0.1", handle.local_port, handle.remote_port)
        assert _owner_engine(server, server_key) == owner
        flow = client_eng.flows[handle.key]
        assert sim.fabric.steer("10.0.0.2", _fake_frame(
            "10.0.0.1", "10.0.0.2", flow.tx_udp.src,
            flow.tx_udp.dst)) == owner
        server_flow = server.engines[owner].flows[server_key]
        assert sim.fabric.steer("10.0.0.1", _fake_frame(
            "10.0.0.2", "10.0.0.1", server_flow.tx_udp.src,
            server_flow.tx_udp.dst)) == 2


def test_flow_count_unaffected_by_engine_count():
    """Decoupled flow ports: many flows coexist at n=8 between two hosts."""
    sim, client, server, cch, sch = make_pair(seed=11, engines=8,
                                              server_engine=5,
                                              client_engine=2,
                                              base_delay_us=5)
    handles = []
    for _ in range(100):
        handles.append(client.connect(cch, "10.0.0.2", 80))
    ok = sim.run_until(lambda: all(h.state != "connecting" for h in handles),
                       max_us=60_000_000)
    assert ok
    assert all(h.is_established for h in handles)
    ports = {h.local_port for h in handles}
    assert len(ports) == 100


@pytest.mark.parametrize("mode", [MODE_NAIVE, MODE_OPTIMIZED])
def test_lost_handshake_ack_recovers_via_synack_retry(mode):
    """Drop the first ACK; the server's 10 ms re-answer SYN-ACK (seq 2) must
    complete the flow. Naive mode sends that re-answer on the reverse of
    the accepted SYN's UDP pair; optimized mode sends a fresh spray."""
    sim, client, server, cch, sch = make_pair(seed=12, engines=1)
    state = {"dropped": 0}
    syns, retries = [], []

    def ack_killer(frame):
        pkt = wire.parse_frame(frame)
        if pkt is None:
            return False
        if pkt.pkt_type == wire.PKT_SYN:
            syns.append(pkt)
        elif pkt.pkt_type == wire.PKT_SYNACK and state["dropped"]:
            retries.append(pkt)
        elif pkt.pkt_type == wire.PKT_ACK and not state["dropped"]:
            state["dropped"] = 1
            return True
        return False

    sim.fabric._tap = ack_killer
    handle = connect_established(sim, client, cch, mode=mode)
    assert state["dropped"] == 1
    # Client side is up; server side completes after the 10 ms re-answer.
    ok = sim.run_until(lambda: any(server.engines[0].flows.values()),
                       max_us=3 * RETRY_TIMEOUT_US)
    assert ok
    assert retries and retries[0].seq == 2
    accepted = wire.unpack_synack_payload(retries[0].payload)[:2]
    assert accepted in {(syn.udp_src, syn.udp_dst) for syn in syns}
    if mode == MODE_NAIVE:
        assert (retries[0].udp_src, retries[0].udp_dst) == accepted[::-1]
    client.send(cch, handle, b"ping")
    ok = sim.run_until(lambda: sch.rx_pending() > 0, max_us=5_000_000)
    assert ok and sch.recv().payload == b"ping"


@pytest.mark.parametrize("engines,seed", [(8, 3), (4, 4)])
def test_missed_synack_spray_costs_a_server_ladder_step_not_a_retry(
        engines, seed):
    """Every SYN-ACK of the server's first answer is lost, as when its whole
    spray misses the client's engine. The server answers again 10 ms later,
    then 20 and 40 ms after that, so the connect needs no second client
    attempt (300 ms). At 8x8, seed 3 the second answer's spray misses too."""
    sim, client, server, cch, sch = make_pair(seed=seed, engines=engines)

    def drop_first_answer(frame):
        pkt = wire.parse_frame(frame)
        return pkt.pkt_type == wire.PKT_SYNACK and pkt.seq == 1

    sim.fabric._tap = drop_first_answer
    start = sim.now
    handle = connect_established(sim, client, cch,
                                 max_us=3 * RETRY_TIMEOUT_US)
    assert handle.attempts == 1
    assert sim.now - start <= 7 * RTO_BASE_US + 1000  # 3 steps, a few RTTs


def test_lost_final_ack_delays_the_first_message_one_ladder_step():
    """The final ACK is lost and the client sends at once. The server counts
    the DATA as for no flow until its 10 ms re-answer draws the ACK again;
    the client's 10 ms RTO resend then lands on the new flow."""
    sim, client, server, cch, sch = make_pair(seed=12, engines=1)
    state = {"dropped": False}

    def drop_first_ack(frame):
        if state["dropped"] or wire.parse_frame(frame).pkt_type != wire.PKT_ACK:
            return False
        state["dropped"] = True
        return True

    sim.fabric._tap = drop_first_ack
    handle = connect_established(sim, client, cch)
    sent_at = sim.now
    client.send(cch, handle, b"first")
    assert sim.run_until(lambda: sch.rx_pending() > 0,
                         max_us=2 * RETRY_TIMEOUT_US)
    assert state["dropped"]
    assert sim.now - sent_at <= 2 * RTO_BASE_US
    assert sch.recv().payload == b"first"


def test_stragglers_of_the_winning_answer_draw_no_final_ack():
    """Every SYN-ACK of the server's first answer is lost, so the connect
    wins on the 10 ms re-answer (seq 2). The rest of that answer's spray
    that reaches the client's engine carries the same seq and proves no
    ACK was lost: the flow discards it and sends one final ACK in all."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=8)
    sim.fabric._tap = lambda frame: (
        wire.parse_frame(frame).pkt_type == wire.PKT_SYNACK
        and wire.parse_frame(frame).seq == 1)
    connect_established(sim, client, cch)
    sim.run_for(RETRY_TIMEOUT_US)
    assert engine_stat(client, "acks_sent") == 1
    assert engine_stat(client, "synacks_discarded") > 0
    assert engine_stat(server, "handshakes_established") == 1


@pytest.mark.parametrize("mode", [MODE_NAIVE, MODE_OPTIMIZED])
def test_repeat_connect_sends_one_syn_on_the_known_pair(mode):
    """A second connect from the same engine to the same listener sends one
    SYN, on the UDP pair the first connect's flow sends on, and needs no
    second attempt. A naive server answers it with one SYN-ACK on the
    reversed pair, which reached the client's engine the first time."""
    sim, client, server, cch, sch = make_pair(seed=3, engines=8)
    first = connect_established(sim, client, cch, mode=mode)
    sim.run_for(RETRY_TIMEOUT_US)  # let the first set-up's stragglers land
    eng = client.engines[0]
    first_pair = eng.flows[first.key].tx_udp
    syns = engine_stat(client, "syns_sent")
    synacks = engine_stat(server, "synacks_sent")
    second = connect_established(sim, client, cch, mode=mode)
    assert engine_stat(client, "syns_sent") - syns == 1
    assert second.attempts == 1
    assert eng.flows[second.key].tx_udp == first_pair
    if mode == MODE_NAIVE:
        assert engine_stat(server, "synacks_sent") - synacks == 1
    assert eng.peer_pairs == {("10.0.0.2", 80):
                              (first_pair.src, first_pair.dst)}


def test_lost_syn_on_the_known_pair_falls_back_to_the_spray_as_attempt_one():
    """The one SYN of a repeat connect is lost. After 2 * RTO_BASE_US
    without a SYN-ACK the connect sprays its first batch, still as
    attempt 1, and connects long before the 300 ms retry."""
    sim, client, server, cch, sch = make_pair(seed=3, engines=8)
    connect_established(sim, client, cch)
    sim.run_for(RETRY_TIMEOUT_US)
    state = {"dropped": False}

    def drop_next_syn(frame):
        if state["dropped"]:
            return False
        state["dropped"] = wire.parse_frame(frame).pkt_type == wire.PKT_SYN
        return state["dropped"]

    sim.fabric._tap = drop_next_syn
    syns = engine_stat(client, "syns_sent")
    start = sim.now
    handle = connect_established(sim, client, cch)
    assert state["dropped"]
    assert handle.attempts == 1
    assert engine_stat(client, "syns_sent") - syns == (
        1 + optimized_batch_size(8))
    assert 2 * RTO_BASE_US <= sim.now - start <= 4 * RTO_BASE_US
    assert engine_stat(client, "handshake_retries") == 0


def test_pair_table_keeps_its_cap_and_drops_the_oldest_entry(monkeypatch):
    """Past PAIR_TABLE_CAP listeners the engine forgets the one whose pair
    it filed longest ago; a connect that re-files a pair makes it the
    newest."""
    monkeypatch.setattr(handshake, "PAIR_TABLE_CAP", 3)
    sim, client, server, cch, sch = make_pair(seed=1, engines=2)
    for port in (81, 82, 83, 84):
        server.listen(sch, port)
    eng = client.engines[0]
    for port in (80, 81, 82, 80, 83):
        connect_established(sim, client, cch, port=port)
    assert list(eng.peer_pairs) == [("10.0.0.2", 82), ("10.0.0.2", 80),
                                    ("10.0.0.2", 83)]
    connect_established(sim, client, cch, port=84)
    assert list(eng.peer_pairs) == [("10.0.0.2", 80), ("10.0.0.2", 83),
                                    ("10.0.0.2", 84)]


def _drop_first_answer(frame):
    pkt = wire.parse_frame(frame)
    return pkt.pkt_type == wire.PKT_SYNACK and pkt.seq == 1


def test_missed_spray_to_a_timed_peer_costs_two_round_trips_not_10_ms():
    """Once a set-up has timed the client, a connect to a second listener
    on the same server engine (so the client knows no pair and sprays)
    loses every SYN-ACK of the first answer. The server answers again one
    measured timeout later, not RTO_BASE_US, so the connect needs no second
    attempt and completes well within RTO_BASE_US."""
    sim, client, server, cch, sch = make_pair(seed=3, engines=8,
                                              server_engine=3,
                                              client_engine=5)
    server.listen(sch, 81)
    connect_established(sim, client, cch)
    sim.run_for(1000)  # the final ACK lands and files the estimate
    seng = server.engines[3]
    assert list(seng.peer_rtts) == ["10.0.0.1"]
    sim.fabric._tap = _drop_first_answer
    start = sim.now
    handle = connect_established(sim, client, cch, port=81)
    assert handle.attempts == 1
    assert sim.now - start < RTO_BASE_US // 10


@pytest.mark.parametrize("lost", ["synack spray", "final ack"])
def test_a_re_answered_set_up_files_no_rtt_sample(lost):
    """Karn's rule: after a re-answer the final ACK does not say which
    answer it acknowledges, so the set-up files no estimate, whether the
    first spray missed or the first final ACK was lost. A later set-up
    answered once files one."""
    sim, client, server, cch, sch = make_pair(seed=3, engines=8)
    state = {"dropped": False}

    def drop_once(frame):
        pkt = wire.parse_frame(frame)
        if lost == "synack spray":
            return pkt.pkt_type == wire.PKT_SYNACK and pkt.seq == 1
        if state["dropped"] or pkt.pkt_type != wire.PKT_ACK:
            return False
        state["dropped"] = True
        return True

    sim.fabric._tap = drop_once
    connect_established(sim, client, cch)
    seng = server.engines[0]
    assert sim.run_until(lambda: seng.flows, max_us=RETRY_TIMEOUT_US)
    assert engine_stat(server, "synacks_sent") > optimized_batch_size(8)
    assert seng.peer_rtts == {}
    sim.fabric._tap = None
    connect_established(sim, client, cch)
    sim.run_for(1000)
    assert list(seng.peer_rtts) == ["10.0.0.1"]


def test_forged_syn_from_a_timed_peer_still_gets_max_attempts_answers():
    """A forged SYN from the IP of a peer the server has timed is answered
    MAX_ATTEMPTS times, each answer the full spray, on the ladder that
    starts from that peer's measured timeout; the half-open record leaves
    the table after the summed ladder, well within 300 ms, not 1.21 s."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    connect_established(sim, client, cch)
    sim.run_for(1000)
    eng = server.engines[0]
    srtt, rttvar = eng.peer_rtts["10.0.0.1"]
    base = max(2 * srtt, srtt + 4 * rttvar)
    ladder = sum(min(base << step, RETRY_TIMEOUT_US)
                 for step in range(MAX_ATTEMPTS))
    assert ladder < RETRY_TIMEOUT_US
    synacks = eng.stats.synacks_sent
    forged = wire.build_frame(
        "10.0.0.1", "10.0.0.2", 5000, 6000, wire.PKT_SYN, 4242, 80,
        payload=wire.pack_syn_payload(8, 0), seq=1, flags=wire.FLAG_OPTIMIZED)
    start = sim.now
    eng._dispatch(forged, sim.now)
    eng.wake = True  # dispatched from outside an iteration
    key = ("10.0.0.1", 4242, 80)
    hs = eng.conns[key]
    assert sim.run_until(lambda: key not in eng.conns,
                         max_us=5 * RETRY_TIMEOUT_US)
    assert sim.now - start == ladder
    assert hs.attempts == MAX_ATTEMPTS
    assert (eng.stats.synacks_sent - synacks
            == MAX_ATTEMPTS * optimized_batch_size(8))


def test_rtt_table_keeps_its_cap_and_drops_the_peer_timed_longest_ago(
        monkeypatch):
    """Past PAIR_TABLE_CAP peers the server engine forgets the one whose
    estimate it filed longest ago; a new sample makes a peer the newest."""
    monkeypatch.setattr(handshake, "PAIR_TABLE_CAP", 3)
    sim, client, server, cch, sch = make_pair(seed=1, engines=1)
    clients = {"10.0.0.1": (client, cch)}
    for ip in ("10.0.0.3", "10.0.0.4", "10.0.0.5"):
        stack = sim.add_stack(ip, 1)
        clients[ip] = (stack, stack.attach())
    seng = server.engines[0]
    for ip in ("10.0.0.1", "10.0.0.3", "10.0.0.4", "10.0.0.1"):
        connect_established(sim, *clients[ip])
        sim.run_for(1000)
    assert list(seng.peer_rtts) == ["10.0.0.3", "10.0.0.4", "10.0.0.1"]
    connect_established(sim, *clients["10.0.0.5"])
    sim.run_for(1000)
    assert list(seng.peer_rtts) == ["10.0.0.4", "10.0.0.1", "10.0.0.5"]


@given(samples=st.lists(st.integers(0, 2 * RETRY_TIMEOUT_US), min_size=1,
                        max_size=20))
def test_first_re_answer_wait_is_an_integer_at_least_two_srtt(samples):
    """Whatever round trips a peer was timed at, the server's first wait
    for the final ACK is a whole number of microseconds, at least 2 * SRTT
    (a spread-free estimate re-answers no ACK that is merely on time) and
    at most RETRY_TIMEOUT_US; SRTT stays within the samples."""
    estimate = None
    for r in samples:
        estimate = rtt_update(estimate, r)
    srtt, rttvar = estimate
    assert min(samples) <= srtt <= max(samples) and rttvar >= 0
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)  # the listen request reaches the engine
    eng = server.engines[0]
    eng.peer_rtts["10.0.0.9"] = estimate
    eng._dispatch(_forged_syn(8), sim.now)
    (hs,) = eng.conns.values()
    wait = hs.retry_timer.due - sim.now
    assert type(wait) is int
    assert min(2 * srtt, RETRY_TIMEOUT_US) <= wait <= RETRY_TIMEOUT_US


def test_server_handshake_freed_at_establishment_and_repeat_ack_silent():
    """Once the final ACK establishes the flow, the server keeps no handshake
    state; a replay of that ACK is counted as received and nothing else."""
    sim, client, server, cch, sch = make_pair(seed=13, engines=4,
                                              server_engine=2,
                                              client_engine=1)
    acks = []

    def record_acks(frame):
        pkt = wire.parse_frame(frame)
        if pkt is not None and pkt.pkt_type == wire.PKT_ACK:
            acks.append(frame)
        return False

    sim.fabric._tap = record_acks
    handle = connect_established(sim, client, cch)
    sim.run_for(1000)  # let the final ACK land
    target = server.engines[2]
    key = ("10.0.0.1", handle.local_port, 80)
    flow = target.flows[key]
    assert all(eng.conns == eng.flows for eng in server.engines)
    (final_ack,) = acks
    before = asdict(target.stats)
    target._dispatch(final_ack, sim.now)
    after = asdict(target.stats)
    changed = {k: after[k] - before[k] for k in after if after[k] != before[k]}
    assert changed == {"acks_rx": 1}
    assert target.flows[key] is flow
    assert target.conns == target.flows


def _stats_delta(eng, frame, now):
    """The engine counters that dispatching one frame changes, and by how
    much."""
    before = asdict(eng.stats)
    eng._dispatch(frame, now)
    after = asdict(eng.stats)
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


def test_client_handshake_freed_at_establishment_and_retry_synack_reacked():
    """Once the winning SYN-ACK establishes the flow, the client keeps no
    handshake state. The flow answers a retry SYN-ACK (seq 2: the final ACK
    was lost) with the same ACK bytes and discards a leftover of the batch
    it answered (seq 1); a SYN-ACK for a server flow's key is unknown."""
    sim, client, server, cch, sch = make_pair(seed=13, engines=4,
                                              server_engine=2,
                                              client_engine=1)
    acks = []

    def record_acks(frame):
        pkt = wire.parse_frame(frame)
        if pkt is not None and pkt.pkt_type == wire.PKT_ACK:
            acks.append(frame)
        return False

    sim.fabric._tap = record_acks
    handle = connect_established(sim, client, cch)
    sim.run_for(1000)  # let the final ACK land
    assert all(eng.conns == eng.flows for eng in client.engines)
    ceng, seng = client.engines[1], server.engines[2]
    flow = ceng.flows[("10.0.0.2", 80, handle.local_port)]
    server_flow = seng.flows[("10.0.0.1", handle.local_port, 80)]
    (final_ack,) = acks

    def synack(seq):
        return wire.build_frame(
            "10.0.0.2", "10.0.0.1", server_flow.tx_udp.src,
            server_flow.tx_udp.dst,
            wire.PKT_SYNACK, 80, handle.local_port, seq=seq,
            payload=wire.pack_synack_payload(flow.tx_udp.src,
                                             flow.tx_udp.dst, 2))

    assert _stats_delta(ceng, synack(2), sim.now) == {
        "synacks_rx": 1, "acks_sent": 1, "frames_tx": 1}
    sim.run_for(1000)
    assert acks == [final_ack, final_ack]
    assert _stats_delta(ceng, synack(1), sim.now) == {
        "synacks_rx": 1, "synacks_discarded": 1}
    sim.run_for(1000)
    assert len(acks) == 2
    assert ceng.flows[("10.0.0.2", 80, handle.local_port)] is flow
    assert ceng.conns == ceng.flows

    to_server_flow = wire.build_frame(
        "10.0.0.1", "10.0.0.2", flow.tx_udp.src, flow.tx_udp.dst,
        wire.PKT_SYNACK, handle.local_port, 80,
        seq=2, payload=wire.pack_synack_payload(1, 2, 1))
    assert _stats_delta(seng, to_server_flow, sim.now) == {
        "synacks_rx": 1, "unknown_synacks": 1}


def test_close_while_connecting_cancels_the_handshake():
    """A close serviced before establishment stops the client's spray and
    settles the handle closed; neither side is left holding a flow, and
    the server's half-open handshake runs out its retries and is freed."""
    sim, client, server, cch, sch = make_pair(seed=1, engines=2)
    handle = client.connect(cch, "10.0.0.2", 80)
    client.close(handle)
    sim.run_for(1_000_000)
    assert handle.state == CLOSED
    syns = engine_stat(client, "syns_sent")
    assert syns > 0 and engine_stat(client, "handshake_retries") == 0
    sim.run_for(MAX_ATTEMPTS * RETRY_TIMEOUT_US)
    assert engine_stat(client, "syns_sent") == syns
    for stack in (client, server):
        for eng in stack.engines:
            assert not eng.conns


def test_syn_for_the_key_of_a_pending_connect_builds_nothing():
    """One record per key. A connects from port 32768, then listens on that
    port, and B connects to it from its own port 32768: B's SYNs carry the
    key of A's pending connect, so A counts them as duplicates and builds
    no handshake. No flow is filed under the key while A's connect is
    pending, and A's close ends A's own connect."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    a = client.connect(cch, "10.0.0.2", 32768)  # nobody listens there
    client.listen(cch, a.local_port)
    b = server.connect(sch, "10.0.0.1", 32768)
    assert a.local_port == b.local_port == 32768
    ceng = client.engines[0]
    filed = []
    sim.add_app(PollApp(lambda _: filed.append(a.key in ceng.flows)))
    sim.run_for(1_000)
    assert ceng.stats.duplicate_syns > 0 and b.state == CONNECTING
    client.close(a)
    assert sim.run_until(lambda: a.state != CONNECTING, max_us=1_000)
    assert a.state == CLOSED
    assert filed and not any(filed)
    # With A's connect gone, B's retry finds the key free.
    assert sim.run_until(lambda: b.state != CONNECTING, max_us=1_000_000)
    assert b.is_established and b.attempts == 2


def test_retired_set_up_names_are_gone():
    """One flow key per handle and one establish path: neither handshake
    keeps a key method or flow ports, the client keeps no winning SYN-ACK,
    and no peer engine id is stored. The handle is the one description of
    a connection: no flow copies its ports, and no listener copies its
    channel's engine."""
    retired = ("establish_client_flow", "establish_server_flow",
               "drop_client_handshake", "drop_server_handshake",
               "_winning_synack", "_emit_ack", "client_engine_id",
               "remote_engine", "FlowPorts", "target_engine", "self.ports")
    for path in SRC.glob("*.py"):
        text = path.read_text()
        for name in retired:
            assert not re.search(r"\b%s\b" % re.escape(name), text), (
                path.name, name)
    text = (SRC / "handshake.py").read_text()
    assert "def key(" not in text


def test_removed_connect_options_are_gone():
    """The spray target, the spray sizing and the handshake phase are not
    settable and not stored: connect takes only the documented options."""
    params = list(inspect.signature(Stack.connect).parameters)
    assert params == ["self", "channel", "remote_ip", "remote_port", "mode",
                      "blocking", "timeout"]
    for path in SRC.glob("*.py"):
        text = path.read_text()
        for name in ("default_p", "default_mode", "remote_engines"):
            assert name not in text, (path.name, name)
        assert not re.search(r"\bHS_[A-Z]", text), path.name


def _randint_pairs(rng, count):
    """Reference spray draw: two randint calls per pair, as the handshake
    drew them before it called getrandbits directly."""
    return [(rng.randint(EPHEMERAL_LO, EPHEMERAL_HI),
             rng.randint(EPHEMERAL_LO, EPHEMERAL_HI)) for _ in range(count)]


@pytest.mark.parametrize("seed", [1, 2, 3, 2024])
def test_spray_draws_match_randint_reference(seed):
    """The pinned CSVs and digests depend on the spray's RNG draw order:
    draw_udp_pairs must consume the generator exactly as randint does."""
    fast, ref = random.Random(seed), random.Random(seed)
    for count in (1, 13, 47, 400):
        assert draw_udp_pairs(fast, count) == _randint_pairs(ref, count)
    assert fast.random() == ref.random()  # the same state afterwards


def _forged_syn(client_engines):
    """An optimized first-attempt SYN for port 80 from a host that is not
    on the fabric, claiming `client_engines` engines."""
    return wire.build_frame(
        "10.0.0.9", "10.0.0.2", 5000, 6000, wire.PKT_SYN, 4242, 80,
        payload=wire.pack_syn_payload(client_engines, 0), seq=1,
        flags=wire.FLAG_OPTIMIZED)


def test_naive_syn_repeated_on_an_answered_pair_draws_no_second_synack():
    """A naive server answers each UDP pair once: the same SYN again counts
    one duplicate_syns and sends nothing, while a SYN on a new pair is
    answered on that pair reversed."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)  # the listen request reaches the engine
    eng = server.engines[0]

    def naive_syn(udp_src):
        return wire.build_frame(
            "10.0.0.9", "10.0.0.2", udp_src, 6000, wire.PKT_SYN, 4242, 80,
            payload=wire.pack_syn_payload(1, 0), seq=1)

    answered = {"syns_rx": 1, "synacks_sent": 1, "frames_tx": 1}
    assert _stats_delta(eng, naive_syn(5000), sim.now) == answered
    assert _stats_delta(eng, naive_syn(5000), sim.now) == {
        "syns_rx": 1, "duplicate_syns": 1}
    assert _stats_delta(eng, naive_syn(5001), sim.now) == answered
    synack = wire.parse_frame(eng._tx_ring[-1])
    assert (synack.udp_src, synack.udp_dst) == (6000, 5001)


def test_forged_engine_count_gets_at_most_batch_cap_synacks_per_answer():
    """A SYN claiming 65,535 engines would size a spray of 240,914
    SYN-ACKs. The server caps each answer, first and retry, at BATCH_CAP,
    as the client's own batches are capped, and its half-open record keeps
    nothing per answer: no container on it grows with the second."""
    assert optimized_batch_size(65535) == 240_914
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)  # the listen request reaches the engine
    eng = server.engines[0]
    eng._dispatch(_forged_syn(65535), sim.now)
    eng.wake = True  # dispatched from outside an iteration
    (hs,) = eng.conns.values()

    def sizes():
        return {name: len(value) for name, value in vars(hs).items()
                if isinstance(value, (set, dict, list, tuple))}

    assert eng.stats.synacks_sent == BATCH_CAP
    after_first = sizes()
    assert sim.run_until(lambda: eng.stats.synacks_sent > BATCH_CAP,
                         max_us=2 * RETRY_TIMEOUT_US)
    assert eng.stats.synacks_sent == 2 * BATCH_CAP
    assert sizes() == after_first


def test_forged_syn_gets_max_attempts_answers_then_its_record_is_freed():
    """A SYN from a host that never ACKs is answered MAX_ATTEMPTS times,
    each answer a spray sized from its engine count, as before the ladder.
    The answers come 10, 20, 40, 80 and 160 ms apart, then 300 ms, so the
    half-open record leaves the table 1.21 s after the SYN."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)  # the listen request reaches the engine
    eng = server.engines[0]
    start = sim.now
    eng._dispatch(_forged_syn(8), sim.now)
    eng.wake = True  # dispatched from outside an iteration
    (key, hs), = eng.conns.items()
    assert sim.run_until(lambda: key not in eng.conns,
                         max_us=5 * RETRY_TIMEOUT_US)
    assert sim.now - start == 1_210_000
    assert hs.attempts == MAX_ATTEMPTS
    assert eng.stats.synacks_sent == MAX_ATTEMPTS * optimized_batch_size(8)
    sim.run_for(3 * RETRY_TIMEOUT_US)
    assert eng.stats.synacks_sent == MAX_ATTEMPTS * optimized_batch_size(8)
    assert not eng.conns


def test_malformed_final_ack_is_counted_and_leaves_the_handshake_pending():
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)
    eng = server.engines[0]
    eng._dispatch(_forged_syn(1), sim.now)
    (key, hs), = eng.conns.items()
    short_ack = wire.build_frame(
        "10.0.0.9", "10.0.0.2", 5001, 6001, wire.PKT_ACK, 4242, 80,
        payload=b"\x01", seq=1)
    assert _stats_delta(eng, short_ack, sim.now) == {"acks_rx": 1,
                                                     "rx_malformed": 1}
    assert eng.conns == {key: hs}
    assert hs.retry_timer.fn is not None
    assert not eng.flows


def test_malformed_synack_is_counted_and_leaves_the_connect_pending():
    """A SYN-ACK too short to carry its pair is malformed, as a short SYN or
    ACK is: counted in rx_malformed, not taken as a discarded leftover. The
    connect stays pending, and its retry still establishes the flow."""
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.fabric._tap = lambda frame: (
        wire.parse_frame(frame).pkt_type == wire.PKT_SYN)
    handle = client.connect(cch, "10.0.0.2", 80)
    eng = client.engines[0]
    assert sim.run_until(lambda: eng.conns, max_us=1000)
    (key, hs), = eng.conns.items()
    short_synack = wire.build_frame(
        "10.0.0.2", "10.0.0.1", 6001, 5001, wire.PKT_SYNACK, 80,
        handle.local_port, payload=b"\x01", seq=1)
    assert _stats_delta(eng, short_synack, sim.now) == {"synacks_rx": 1,
                                                        "rx_malformed": 1}
    assert eng.conns == {key: hs}
    assert hs.retry_timer.fn is not None
    assert not eng.flows and handle.state == CONNECTING
    sim.fabric._tap = None
    assert sim.run_until(lambda: handle.state != CONNECTING,
                         max_us=2 * RETRY_TIMEOUT_US)
    assert handle.is_established and handle.attempts == 2


def test_malformed_synack_on_an_established_flow_is_counted_not_reacked():
    """A SYN-ACK too short to carry its pair is malformed on an established
    client flow too: a retry-numbered one (seq 2) is counted in
    rx_malformed and does not make the flow re-send its final ACK."""
    sim, client, server, cch, sch = make_pair(seed=13, engines=1)
    handle = connect_established(sim, client, cch)
    sim.run_for(1000)  # let the final ACK land
    eng = client.engines[0]
    assert handle.key in eng.flows and eng.conns == eng.flows
    short_synack = wire.build_frame(
        "10.0.0.2", "10.0.0.1", 6001, 5001, wire.PKT_SYNACK, 80,
        handle.local_port, payload=b"\x01", seq=2)
    assert _stats_delta(eng, short_synack, sim.now) == {"synacks_rx": 1,
                                                        "rx_malformed": 1}


@pytest.mark.parametrize("remote_ip, port, mode", [
    ("10.0.0.2", 70000, None),
    ("10.0.0.2", 65536, None),
    ("10.0.0.2", 0, None),
    ("10.0.0.2", 80.0, None),
    pytest.param("10.0.0.2", "80", None, id="10.0.0.2-str80-None"),
    ("10.0.0.2", True, None),
    ("10.0.0.300", 80, None),
    ("banana", 80, None),
    ("10.0.0", 80, None),
    ("10.0.0.02", 80, None),
    (" 10.0.0.2", 80, None),
    ("1_0.0.0.2", 80, None),
    ("+1.0.0.2", 80, None),
    ("10.0.0.2 ", 80, None),
    ("\uff11.0.0.2", 80, None),  # a full-width digit one
    (None, 80, None),
    (167772162, 80, None),  # 10.0.0.2 as an int
    (b"10.0.0.2", 80, None),
    ("10.0.0.2", 80, "turbo"),
])
def test_bad_connect_arguments_raise_at_the_call_and_queue_nothing(
        remote_ip, port, mode):
    sim, client, server, cch, sch = make_pair(seed=1, engines=2)
    next_port = client._next_flow_port
    with pytest.raises(ValueError):
        client.connect(cch, remote_ip, port, mode=mode)
    assert client._next_flow_port == next_port
    assert not any(eng.control_inbox for eng in client.engines)
    handle = connect_established(sim, client, cch)  # the stack still works
    assert handle.local_port == next_port
    assert sum(eng.stats.connects_requested for eng in client.engines) == 1


@pytest.mark.parametrize("port", [
    0, 65536, 80.0, 83.5, pytest.param("80", id="str80"),
    pytest.param("82", id="str82"), True, None])
def test_bad_listen_port_raises_at_the_call_and_binds_nothing(port):
    sim, client, server, cch, sch = make_pair(seed=1, engines=2)
    inboxes = [list(eng.control_inbox) for eng in server.engines]
    with pytest.raises(ValueError):
        server.listen(sch, port)
    assert server._listen_ports == {80}
    assert [list(eng.control_inbox) for eng in server.engines] == inboxes
    connect_established(sim, client, cch)  # the stack still works
