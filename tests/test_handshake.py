"""Connection-setup behavior over the simulated fabric."""

import inspect
import random
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import connect_established, make_pair

from sidenet import wire
from sidenet.channel import CLOSED, ConnectError
from sidenet.handshake import (BATCH_CAP, EPHEMERAL_HI, EPHEMERAL_LO,
                               MAX_ATTEMPTS, MODE_NAIVE, MODE_OPTIMIZED,
                               RETRY_TIMEOUT_US, draw_udp_pairs,
                               optimized_batch_size)
from sidenet.stack import Stack

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
    assert len(set(syn_pairs)) == 47  # deduplicated random UDP pairs


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
    key = ("10.0.0.1", handle.local_port, 80)
    flow = target.flows[key]
    before = target.stats.synacks_sent
    dups_before = target.stats.duplicate_syns
    # Replay the accepted SYN (same flow ports, same UDP pair).
    from sidenet import wire

    replay = wire.build_frame(
        "10.0.0.1", "10.0.0.2", flow.rx_udp.src, flow.rx_udp.dst,
        wire.PKT_SYN, handle.local_port, 80,
        payload=wire.pack_syn_payload(1, 0), seq=1, flags=wire.FLAG_OPTIMIZED)
    sim.fabric.send("10.0.0.1", replay)
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
        rx_frame_queue = sim.fabric.steer("10.0.0.1", _fake_frame(
            "10.0.0.2", "10.0.0.1", flow.rx_udp.src, flow.rx_udp.dst))
        assert rx_frame_queue == 3


def _fake_frame(src, dst, sport, dport):
    from sidenet import wire

    return wire.build_frame(src, dst, sport, dport, wire.PKT_DATA, 1, 2)


def _owner_engine(stack, key):
    owners = [e.engine_id for e in stack.engines if key in e.flows]
    assert len(owners) == 1, owners
    return owners[0]


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


def test_handshake_insensitive_to_hash_byteswap():
    wins = 0
    for seed in range(30):
        sim, client, server, cch, sch = make_pair(seed=seed, engines=4,
                                                  server_engine=seed % 4,
                                                  client_engine=(seed + 1) % 4,
                                                  hash_byteswap=True)
        handle = client.connect(cch, "10.0.0.2", 80)
        sim.run_until(lambda: handle.state != "connecting", max_us=30_000_000)
        wins += handle.is_established
    assert wins == 30


@pytest.mark.parametrize("mode", [MODE_NAIVE, MODE_OPTIMIZED])
def test_lost_handshake_ack_recovers_via_synack_retry(mode):
    """Drop the first ACK; the server's 300 ms retry SYN-ACK (seq 2) must
    complete the flow. Naive mode sends that retry on the reverse of the
    accepted SYN's UDP pair; optimized mode sends a fresh spray."""
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
    # Client side is up; server side completes after the 300 ms retry.
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
    assert all(not eng.server_handshakes for eng in server.engines)
    (final_ack,) = acks
    before = asdict(target.stats)
    target._dispatch(final_ack, sim.now)
    after = asdict(target.stats)
    changed = {k: after[k] - before[k] for k in after if after[k] != before[k]}
    assert changed == {"acks_rx": 1}
    assert target.flows[key] is flow
    assert not target.server_handshakes


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
    assert all(not eng.client_handshakes for eng in client.engines)
    ceng, seng = client.engines[1], server.engines[2]
    flow = ceng.flows[("10.0.0.2", 80, handle.local_port)]
    (final_ack,) = acks

    def synack(seq):
        return wire.build_frame(
            "10.0.0.2", "10.0.0.1", flow.rx_udp.src, flow.rx_udp.dst,
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
    assert not ceng.client_handshakes

    server_flow = seng.flows[("10.0.0.1", handle.local_port, 80)]
    to_server_flow = wire.build_frame(
        "10.0.0.1", "10.0.0.2", server_flow.rx_udp.src,
        server_flow.rx_udp.dst, wire.PKT_SYNACK, handle.local_port, 80,
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
            assert not (eng.flows or eng.client_handshakes
                        or eng.server_handshakes)


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


def _randint_pairs(rng, count, used):
    """Reference spray draw: two randint calls per pair, as the handshake
    drew them before it called getrandbits directly."""
    pairs = []
    while len(pairs) < count:
        pair = (rng.randint(EPHEMERAL_LO, EPHEMERAL_HI),
                rng.randint(EPHEMERAL_LO, EPHEMERAL_HI))
        if pair in used:
            continue
        used.add(pair)
        pairs.append(pair)
    return pairs


@pytest.mark.parametrize("seed", [1, 2, 3, 2024])
def test_spray_draws_match_randint_reference(seed):
    """The pinned CSVs and digests depend on the spray's RNG draw order:
    draw_udp_pairs must consume the generator exactly as randint does."""
    fast, ref = random.Random(seed), random.Random(seed)
    fast_used, ref_used = set(), set()
    for count in (1, 13, 47, 400):
        assert (draw_udp_pairs(fast, count, fast_used)
                == _randint_pairs(ref, count, ref_used))
        assert fast_used == ref_used
    assert fast.random() == ref.random()  # the same state afterwards


def test_spray_draws_skip_used_pairs_like_the_reference():
    """A `used` set holding most of a small window of upcoming draws forces
    collisions; the rejected draws still advance the generator."""
    upcoming = _randint_pairs(random.Random(7), 64, set())
    used = set(upcoming[::2]) | set(upcoming[1:40:3])
    fast, ref = random.Random(7), random.Random(7)
    fast_used, ref_used = set(used), set(used)
    got = draw_udp_pairs(fast, 30, fast_used)
    assert got == _randint_pairs(ref, 30, ref_used)
    assert not used & set(got)
    assert len(set(got)) == 30
    assert fast_used == ref_used
    assert fast.getrandbits(32) == ref.getrandbits(32)


def _forged_syn(client_engines):
    """An optimized first-attempt SYN for port 80 from a host that is not
    on the fabric, claiming `client_engines` engines."""
    return wire.build_frame(
        "10.0.0.9", "10.0.0.2", 5000, 6000, wire.PKT_SYN, 4242, 80,
        payload=wire.pack_syn_payload(client_engines, 0), seq=1,
        flags=wire.FLAG_OPTIMIZED)


def test_forged_engine_count_gets_at_most_batch_cap_synacks_per_answer():
    """A SYN claiming 65,535 engines would size a spray of 240,914
    SYN-ACKs. The server caps each answer, first and retry, at BATCH_CAP,
    as the client's own batches are capped."""
    assert optimized_batch_size(65535) == 240_914
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)  # the listen request reaches the engine
    eng = server.engines[0]
    eng._dispatch(_forged_syn(65535), sim.now)
    (hs,) = eng.server_handshakes.values()
    assert eng.stats.synacks_sent == len(hs.sprayed) == BATCH_CAP
    assert sim.run_until(lambda: eng.stats.synacks_sent > BATCH_CAP,
                         max_us=2 * RETRY_TIMEOUT_US)
    assert eng.stats.synacks_sent == len(hs.sprayed) == 2 * BATCH_CAP


def test_malformed_final_ack_is_counted_and_leaves_the_handshake_pending():
    sim, client, server, cch, sch = make_pair(seed=5, engines=1)
    sim.run_for(100)
    eng = server.engines[0]
    eng._dispatch(_forged_syn(1), sim.now)
    (key, hs), = eng.server_handshakes.items()
    short_ack = wire.build_frame(
        "10.0.0.9", "10.0.0.2", 5001, 6001, wire.PKT_ACK, 4242, 80,
        payload=b"\x01", seq=1)
    assert _stats_delta(eng, short_ack, sim.now) == {"acks_rx": 1,
                                                     "rx_malformed": 1}
    assert eng.server_handshakes == {key: hs}
    assert hs.retry_timer.live
    assert not eng.flows


@pytest.mark.parametrize("remote_ip, port, mode", [
    ("10.0.0.2", 70000, None),
    ("10.0.0.2", 65536, None),
    ("10.0.0.2", 0, None),
    ("10.0.0.300", 80, None),
    ("banana", 80, None),
    ("10.0.0", 80, None),
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
