"""Transport unit tests over a wired-together pair of flows (no fabric)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidenet import wire
from sidenet.channel import Channel, ESTABLISHED, RESET, FlowHandle
from sidenet.channel import frame as flow_frame
from sidenet.engine import EngineStats, Timer
from sidenet.nic import MIN_FRAME_LEN, Nic
from sidenet.handshake import UdpPorts
from sidenet.transport import (ACK_DELAY_US, MAX_FRAGMENT_RETRANSMITS,
                               RECEIVE_WINDOW, RTO_BASE_US, RTO_CAP_US,
                               SACK_MAX_RANGES, SEND_WINDOW, Flow)


class StubEngine:
    """Just enough engine surface for a Flow: emit, timers, drop, stats."""

    def __init__(self, ip):
        self.engine_id = 0
        self.local_ip = ip
        self.stats = EngineStats()
        self.outbox = []
        self.timers = []
        self.conns = {}
        self.dropped = []

    def emit(self, frame):
        self.outbox.append(frame)

    def arm_timer(self, due, fn):
        timer = Timer(due, fn)
        self.timers.append(timer)
        return timer

    def drop(self, key):
        self.dropped.append(self.conns.pop(key))

    def fire_due(self, now):
        for timer in list(self.timers):
            if timer.fn is not None and timer.due <= now:
                fn, timer.fn = timer.fn, None
                fn(now)

    def next_timer(self):
        live = [t.due for t in self.timers if t.fn is not None]
        return min(live) if live else None


def make_flow(ip="10.0.0.1", peer="10.0.0.2"):
    eng = StubEngine(ip)
    ch = Channel(None, 1)
    handle = FlowHandle(ip, peer, 7000, 80, ch)
    handle._settle(ESTABLISHED)
    flow = Flow(eng, handle, UdpPorts(40001, 40002))
    eng.conns[handle.key] = flow
    return flow, eng, ch


def make_pair(loss_seqs=()):
    """Sender and receiver flows whose emissions are piped to each other,
    minus any sender DATA seqs listed in loss_seqs (dropped once)."""
    tx_flow, tx_eng, _ = make_flow("10.0.0.1", "10.0.0.2")
    rx_flow, rx_eng, rx_ch = make_flow("10.0.0.2", "10.0.0.1")
    to_drop = set(loss_seqs)

    def shuttle(now):
        moved = True
        while moved:
            moved = False
            for frame in tx_eng.outbox[:]:
                tx_eng.outbox.remove(frame)
                pkt = wire.parse_frame(frame)
                if pkt.pkt_type == wire.PKT_DATA and pkt.seq in to_drop:
                    to_drop.discard(pkt.seq)
                    continue
                rx_flow.on_data(pkt, now)
                moved = True
            for frame in rx_eng.outbox[:]:
                rx_eng.outbox.remove(frame)
                tx_flow.on_sack(wire.parse_frame(frame), now)
                moved = True
            rx_eng.fire_due(now)

    return tx_flow, rx_flow, tx_eng, rx_eng, rx_ch, shuttle


def data_pkt(seq, msg_id, frag_offset, msg_len, payload, **fields):
    """A DATA frame from the peer of make_flow's flow, parsed; `fields`
    (ack, flags) go to build_frame."""
    return wire.parse_frame(wire.build_frame(
        "10.0.0.2", "10.0.0.1", 40003, 40004, wire.PKT_DATA, 80, 7000,
        payload=payload, seq=seq, msg_id=msg_id, frag_offset=frag_offset,
        msg_len=msg_len, **fields))


def emitted_data(eng):
    return [wire.parse_frame(f) for f in eng.outbox
            if wire.parse_frame(f).pkt_type == wire.PKT_DATA]


def one_fragment(seq):
    """The peer's single-fragment message `seq` (its msg_id is its seq)."""
    return data_pkt(seq, seq, 0, 1, b"x")


def full_fragment(seq):
    """Like one_fragment, but a full-sized fragment of 1408 bytes."""
    return data_pkt(seq, seq, 0, wire.FRAGMENT_PAYLOAD,
                    b"x" * wire.FRAGMENT_PAYLOAD)


def emitted_sacks(eng):
    """The (ack, ranges) of every SACK the flow has emitted."""
    return [(p.ack, wire.unpack_sack_payload(p.payload))
            for p in map(wire.parse_frame, eng.outbox)
            if p.pkt_type == wire.PKT_SACK]


def test_one_byte_message_is_one_final_fragment():
    flow, eng, _ = make_flow()
    flow.send_message(b"x", now=0)
    frames = emitted_data(eng)
    assert len(frames) == 1
    pkt = frames[0]
    assert pkt.frag_offset == 0
    assert pkt.msg_len == 1
    assert pkt.flags & wire.FLAG_LAST_FRAGMENT


def test_fragment_boundary_single_fragment_at_1408():
    flow, eng, _ = make_flow()
    flow.send_message(b"a" * wire.FRAGMENT_PAYLOAD, now=0)
    assert len(emitted_data(eng)) == 1


def test_8mib_message_fragment_arithmetic():
    flow, eng, _ = make_flow()
    flow.send_message(b"b" * wire.MAX_MESSAGE_BYTES, now=0)
    total = math.ceil(wire.MAX_MESSAGE_BYTES / wire.FRAGMENT_PAYLOAD)
    assert total == 5958
    assert flow.next_tx_seq == total
    assert len(flow.unacked) == SEND_WINDOW
    assert flow.next_tx_seq - flow.snd_nxt == total - SEND_WINDOW
    last_len = wire.MAX_MESSAGE_BYTES - (total - 1) * wire.FRAGMENT_PAYLOAD
    assert last_len == 1152


def test_window_limits_in_flight_fragments():
    flow, eng, _ = make_flow()
    for _ in range(100):
        flow.send_message(b"m", now=0)
    assert len(flow.unacked) == SEND_WINDOW
    assert flow.next_tx_seq - flow.snd_nxt == 100 - SEND_WINDOW


def _cut_up_front(flow, messages):
    """Every DATA frame of `messages` as a sender that cuts each message
    into all its fragments when it is queued would build them, in seq
    order: no ack carried, FLAG_LAST_FRAGMENT on each message's last."""
    frames = []
    for msg_id, payload in enumerate(messages):
        for off in range(0, len(payload), wire.FRAGMENT_PAYLOAD):
            chunk = payload[off:off + wire.FRAGMENT_PAYLOAD]
            last = off + len(chunk) >= len(payload)
            frames.append(flow_frame(
                flow.handle, flow.tx_udp.src, flow.tx_udp.dst, wire.PKT_DATA,
                chunk, seq=len(frames), msg_id=msg_id, frag_offset=off,
                msg_len=len(payload),
                flags=wire.FLAG_LAST_FRAGMENT if last else 0))
    return frames


# Sizes around fragment boundaries and around the sender's blocks of
# SEND_WINDOW fragments.
_BOUNDARY_SIZES = st.sampled_from(sorted(
    {max(1, k * wire.FRAGMENT_PAYLOAD + d)
     for k in (0, 1, 2, 3, 4, SEND_WINDOW, 2 * SEND_WINDOW)
     for d in (-1, 0, 1)}))
_PATTERN = bytes(range(251)) * (
    (2 * SEND_WINDOW + 1) * wire.FRAGMENT_PAYLOAD // 251 + 2)


@settings(max_examples=100)
@given(batches=st.lists(st.lists(_BOUNDARY_SIZES | st.integers(
    1, 6 * wire.FRAGMENT_PAYLOAD), min_size=1, max_size=12),
    min_size=1, max_size=6), data=st.data())
def test_fragments_cut_at_first_send_equal_an_up_front_cut(batches, data):
    """Messages queued in batches between rounds of cumulative acks, so
    that they straddle window refills: each DATA frame the flow emits,
    byte for byte, is the one an up-front cutter builds for its seq."""
    flow, eng, _ = make_flow()
    messages = []
    now = 0
    for batch in batches:
        for size in batch:
            start = len(messages) % 251
            payload = _PATTERN[start:start + size]
            messages.append(payload)
            flow.send_message(payload, now)
        # Each frame is sent once, so the outbox holds seqs 0 .. sent - 1.
        while (flow.acked_upto < len(eng.outbox)
               and data.draw(st.booleans())):
            now += 10
            ack = flow.acked_upto + data.draw(st.integers(1, SEND_WINDOW))
            flow.on_sack(sack_pkt(min(ack, len(eng.outbox)), []), now)
    while flow.acked_upto < flow.next_tx_seq:
        now += 10
        flow.on_sack(sack_pkt(len(eng.outbox), []), now)
    assert not flow.pending
    assert eng.outbox == _cut_up_front(flow, messages)
    assert flow.stats.retransmits == 0


def test_in_order_delivery_and_cumulative_ack():
    tx, rx, tx_eng, rx_eng, rx_ch, shuttle = make_pair()
    payload = bytes(range(256)) * 20  # 5120 bytes -> 4 fragments
    tx.send_message(payload, now=0)
    shuttle(now=0)
    msg = rx_ch.recv()
    assert msg.payload == payload
    assert rx.rx_next == 4
    assert tx.acked_upto == 4
    assert not tx.unacked


def test_reassembly_identical_across_8mib(tmp_path):
    tx, rx, tx_eng, rx_eng, rx_ch, shuttle = make_pair()
    payload = random.Random(3).randbytes(wire.MAX_MESSAGE_BYTES)
    tx.send_message(payload, now=0)
    now = 0
    while rx_ch.rx_pending() == 0:
        shuttle(now)
        tx.pump(now)
        now += 100
        assert now < 10_000_000
    assert rx_ch.recv().payload == payload
    assert tx.conservation_ok() and rx.conservation_ok()


def test_gap_produces_cumulative_stop_and_sack_range():
    _, rx, _, rx_eng, _, _ = make_pair()
    tx2, eng2, _ = make_flow()
    tx2.send_message(b"z" * (wire.FRAGMENT_PAYLOAD * 4), now=0)  # seqs 0..3
    frames = [wire.parse_frame(f) for f in eng2.outbox]
    rx.on_data(frames[0], 0)  # seq 0
    rx.on_data(frames[1], 0)  # seq 1
    rx.on_data(frames[3], 0)  # seq 3; seq 2 missing
    rx_eng.fire_due(200)
    sacks = [wire.parse_frame(f) for f in rx_eng.outbox
             if wire.parse_frame(f).pkt_type == wire.PKT_SACK]
    assert sacks, "expected an ack after two data frames"
    last = sacks[-1]
    assert last.ack == 2
    assert wire.unpack_sack_payload(last.payload) == [(3, 4)]


def test_duplicate_fragment_idempotent_and_reacked():
    tx, rx, tx_eng, rx_eng, rx_ch, shuttle = make_pair()
    tx.send_message(b"q" * 3000, now=0)
    frames = [wire.parse_frame(f) for f in tx_eng.outbox]
    for pkt in frames + [frames[0]]:  # replay first fragment
        rx.on_data(pkt, 0)
    assert rx.stats.rx_duplicates == 1
    # The duplicate is re-acked at once, and that ack covers all three.
    assert emitted_sacks(rx_eng) == [(3, [])]
    assert rx_eng.next_timer() is None
    assert rx_ch.rx_pending() == 1
    assert rx_ch.recv().payload == b"q" * 3000


def test_in_order_frames_at_one_instant_get_one_sack():
    flow, eng, _ = make_flow()
    for seq in range(5):
        flow.on_data(full_fragment(seq), 100)
    assert emitted_sacks(eng) == []  # due now, sent when timers fire
    eng.fire_due(100)
    assert emitted_sacks(eng) == [(5, [])]
    assert eng.next_timer() is None


def test_lone_in_order_frame_is_acked_after_the_ack_delay():
    flow, eng, _ = make_flow()
    flow.on_data(one_fragment(0), 100)
    eng.fire_due(100 + ACK_DELAY_US - 1)
    assert emitted_sacks(eng) == []
    eng.fire_due(100 + ACK_DELAY_US)
    assert emitted_sacks(eng) == [(1, [])]


def test_small_frames_wait_for_the_ack_delay():
    """Only full-sized frames count toward the every-second-frame ack, so
    two small in-order frames still wait ACK_DELAY_US."""
    flow, eng, _ = make_flow()
    flow.on_data(one_fragment(0), 100)
    flow.on_data(one_fragment(1), 110)
    eng.fire_due(100 + ACK_DELAY_US - 1)
    assert emitted_sacks(eng) == []
    eng.fire_due(100 + ACK_DELAY_US)
    assert emitted_sacks(eng) == [(2, [])]


def test_reply_carries_the_due_ack_in_place_of_a_sack():
    flow, eng, _ = make_flow()
    flow.on_data(full_fragment(0), 100)  # one full frame: the ack waits
    assert flow.frames_since_ack == 1
    flow.send_message(b"reply" * 400, now=110)  # 2 fragments
    first, second = emitted_data(eng)
    assert first.flags & wire.FLAG_ACK and first.ack == 1
    assert not second.flags & wire.FLAG_ACK and second.ack == 0
    assert flow.frames_since_ack == 0 and flow.ack_timer.fn is None
    eng.fire_due(100 + ACK_DELAY_US)
    assert emitted_sacks(eng) == []


def test_no_ack_rides_on_data_while_the_receive_buffer_has_a_hole():
    """A cumulative ack alone would hide the SACK range, so the SACK still
    goes out and the DATA carries no ack."""
    flow, eng, _ = make_flow()
    flow.on_data(one_fragment(0), 100)
    flow.on_data(one_fragment(2), 100)  # 1 missing
    flow.send_message(b"reply", now=100)
    (data,) = emitted_data(eng)
    assert not data.flags & wire.FLAG_ACK and data.ack == 0
    eng.fire_due(100)
    assert emitted_sacks(eng) == [(1, [(2, 3)])]


def test_out_of_order_frame_and_hole_fills_are_acked_at_once():
    flow, eng, _ = make_flow()
    flow.on_data(one_fragment(2), 100)  # 0 and 1 missing
    eng.fire_due(100)
    assert emitted_sacks(eng) == [(0, [(2, 3)])]
    eng.outbox.clear()
    flow.on_data(one_fragment(0), 200)  # fills part of the hole
    eng.fire_due(200)
    assert emitted_sacks(eng) == [(1, [(2, 3)])]
    eng.outbox.clear()
    flow.on_data(one_fragment(1), 300)  # fills the rest
    eng.fire_due(300)
    assert emitted_sacks(eng) == [(3, [])]


def sack_pkt(ack, ranges):
    """A SACK from the peer of make_flow's flow, parsed."""
    return wire.parse_frame(wire.build_frame(
        "10.0.0.2", "10.0.0.1", 40003, 40004, wire.PKT_SACK, 80, 7000,
        payload=wire.pack_sack_payload(ranges), ack=ack))


def test_hole_below_sacked_fragment_resent_once_past_reorder_window():
    flow, eng, _ = make_flow()
    for _ in range(8):
        flow.send_message(b"w", now=0)  # seqs 0..7 in flight, sent at 0
    eng.outbox.clear()
    sack = sack_pkt(3, [(5, 8)])
    # RTT 100 and min RTT 100: 3 and 4 are lost once 100 + 100/4 has
    # passed since they were sent, not before.
    flow.on_sack(sack, now=100)
    assert emitted_data(eng) == []
    assert eng.next_timer() == 125
    eng.fire_due(125)
    assert sorted(p.seq for p in emitted_data(eng)) == [3, 4]
    assert flow.stats.retransmits == 2
    # The resends went out after the mark; the same report again is no
    # evidence against them.
    eng.outbox.clear()
    flow.on_sack(sack, now=200)
    assert emitted_data(eng) == []


def test_burst_reordered_within_reorder_window_not_retransmitted():
    flow, eng, _ = make_flow()
    for _ in range(8):
        flow.send_message(b"w", now=0)
    eng.outbox.clear()
    flow.on_sack(sack_pkt(0, [(2, 3), (5, 8)]), now=100)
    flow.on_sack(sack_pkt(3, [(5, 8)]), now=110)
    flow.on_sack(sack_pkt(8, []), now=124)  # the last of the burst, in time
    eng.fire_due(RTO_CAP_US)
    assert emitted_data(eng) == []
    assert flow.stats.retransmits == 0
    assert not flow.unacked and eng.next_timer() is None


def _resend_then_ack(ack_after):
    """Seqs 0..7 sent at 0 and acked at 100 (min RTT 100, window 25) but for
    3 and 4, resent at 125; the originals' ack then comes `ack_after` us
    after the resends. Returns the flow."""
    flow, eng, _ = make_flow()
    for _ in range(8):
        flow.send_message(b"w", now=0)
    flow.on_sack(sack_pkt(3, [(5, 8)]), now=100)
    eng.fire_due(125)  # 3 and 4 resent
    assert flow.reo_wnd_mult == 1 and flow.stats.retransmits == 2
    flow.on_sack(sack_pkt(8, []), now=125 + ack_after)
    assert flow.rack_seq == 7  # the ambiguous acks did not move the mark
    assert not flow.unacked and flow.lost_out == 0
    return flow


def test_resend_acked_within_a_window_step_widens_the_window():
    # 5 us after the resends: spurious, and one more step (25 us) of window
    # would have spared them.
    assert _resend_then_ack(5).reo_wnd_mult == 2
    # Within two steps (half the min RTT): it widens too.
    assert _resend_then_ack(30).reo_wnd_mult == 2
    assert _resend_then_ack(49).reo_wnd_mult == 2
    # From half the min RTT on, the ack may be the resend's own: no change.
    assert _resend_then_ack(50).reo_wnd_mult == 1
    assert _resend_then_ack(99).reo_wnd_mult == 1


@settings(max_examples=200)
@given(ack=st.integers(0, 80), ranges=st.lists(
    st.tuples(st.integers(0, 82), st.integers(0, 82)), max_size=8))
def test_any_sack_ranges_ack_exactly_the_seqs_they_cover(ack, ranges):
    # Unsorted, overlapping and empty ranges included. 80 messages: seqs
    # 0..63 in flight, 64..79 queued; an ack past the send point is
    # refused, and a valid one refills the window in seq order.
    flow, _, _ = make_flow()
    for _ in range(80):
        flow.send_message(b"s", now=0)
    flow.on_sack(sack_pkt(ack, ranges), now=1)
    if ack > SEND_WINDOW:
        assert flow.stats.protocol_errors == 1
        assert list(flow.unacked) == list(range(SEND_WINDOW))
    else:
        kept = [s for s in range(SEND_WINDOW)
                if s >= ack and not any(a <= s < b for a, b in ranges)]
        refill = range(SEND_WINDOW, min(80, 2 * SEND_WINDOW - len(kept)))
        assert flow.stats.protocol_errors == 0
        assert list(flow.unacked) == kept + list(refill)
    assert flow.conservation_ok()


def _ack_by_sack(flow, ack, now):
    flow.on_sack(sack_pkt(ack, []), now)


def _ack_on_data(flow, ack, now):
    """As the engine hands its flow a DATA frame flagged FLAG_ACK: the
    carried ack first, then the DATA."""
    pkt = data_pkt(flow.rx_next, flow.rx_msg_id, 0, 1, b"d", ack=ack,
                   flags=wire.FLAG_LAST_FRAGMENT | wire.FLAG_ACK)
    flow.on_carried_ack(pkt.ack, now)
    flow.on_data(pkt, now)


@pytest.mark.parametrize("deliver", [_ack_by_sack, _ack_on_data],
                         ids=["sack", "carried"])
@pytest.mark.parametrize("messages,ack", [(1, 99), (100, 65), (100, 80)],
                         ids=["past_queued", "next_unsent", "queued"])
def test_ack_beyond_next_seq_is_protocol_error(deliver, messages, ack):
    """An ack for a seq the flow has not sent, queued or not, counts once
    as a protocol error and moves neither the cumulative ack nor the
    unacked fragments."""
    flow, eng, _ = make_flow()
    for _ in range(messages):
        flow.send_message(b"e", now=0)
    unacked = list(flow.unacked)
    assert len(unacked) < ack
    deliver(flow, ack, now=1)
    assert flow.stats.protocol_errors == 1
    assert flow.acked_upto == 0
    assert list(flow.unacked) == unacked


def test_full_cumulative_ack_empties_unacked():
    flow, eng, _ = make_flow()
    for _ in range(5):
        flow.send_message(b"k", now=0)
    ack = wire.parse_frame(wire.build_frame(
        "10.0.0.2", "10.0.0.1", 40003, 40004, wire.PKT_SACK, 80, 7000,
        payload=wire.pack_sack_payload([]), ack=flow.next_tx_seq))
    flow.on_sack(ack, now=1)
    assert not flow.unacked
    assert flow.stats.frags_acked_unique == 5


def test_tail_loss_recovers_after_one_rto():
    # The last fragment is lost, so no SACK range ever names the hole.
    tx, rx, tx_eng, rx_eng, rx_ch, shuttle = make_pair(loss_seqs=[2])
    tx.send_message(b"r" * (wire.FRAGMENT_PAYLOAD * 3), now=0)  # seqs 0,1,2
    shuttle(now=0)
    assert rx_ch.rx_pending() == 0
    assert rx.rx_next == 2
    # Exactly one RTO at the base interval recovers the hole.
    due = tx_eng.next_timer()
    assert due == RTO_BASE_US
    tx_eng.fire_due(RTO_BASE_US)
    assert tx.stats.retransmits == 1
    shuttle(now=RTO_BASE_US)
    assert rx_ch.recv().payload == b"r" * (wire.FRAGMENT_PAYLOAD * 3)


def test_rto_doubles_and_caps_and_resets_flow_after_sixteen():
    flow, eng, _ = make_flow()  # emissions never delivered
    flow.send_message(b"n", now=0)
    rtos = []
    now = 0
    for _ in range(40):
        due = eng.next_timer()
        if due is None:
            break
        now = max(now, due)
        rtos.append(flow.rto_us)
        eng.fire_due(now)
        if flow.handle.state != ESTABLISHED:
            break
    assert flow.handle.state == RESET
    assert flow.stats.retransmits == MAX_FRAGMENT_RETRANSMITS
    assert eng.dropped == [flow]
    assert eng.next_timer() is None  # the reset flow armed nothing after
    doubling = [RTO_BASE_US * (2 ** i) for i in range(len(rtos))]
    assert rtos == [min(r, RTO_CAP_US) for r in doubling]


def test_rack_resends_from_on_sack_reset_the_flow_and_leave_no_timer():
    """Seq 0 is never acked; every 200 us a new fragment goes out and is
    SACKed 100 us later, so RACK re-sends seq 0 from on_sack each time. Its
    17th resend resets the flow inside on_sack, while the same SACK leaves
    seq 17 waiting for its reorder deadline: the flow is dropped once, and
    its loss, ack and reap timers are all dead."""
    flow, eng, _ = make_flow()
    flow.on_data(one_fragment(0), 0)  # arms the delayed ack
    flow.start_close(0)  # arms the reaper; the flow stays established
    flow.send_message(b"0", now=0)
    for i in range(1, MAX_FRAGMENT_RETRANSMITS + 2):
        now = 200 * i
        if i > MAX_FRAGMENT_RETRANSMITS:
            flow.send_message(b"a", now=now)  # seq 17, sent with seq 18
        flow.send_message(b"b", now=now)
        top = flow.next_tx_seq - 1
        assert flow.handle.state == ESTABLISHED
        flow.on_sack(sack_pkt(0, [(top, top + 1)]), now=now + 100)
    assert flow.handle.state == RESET
    assert [p.seq for p in emitted_data(eng)].count(0) == (
        1 + MAX_FRAGMENT_RETRANSMITS)
    assert list(flow.unacked) == [0, MAX_FRAGMENT_RETRANSMITS + 1]
    assert eng.dropped == [flow]
    assert all(t.fn is None for t in (flow.loss_timer, flow.ack_timer,
                                      flow.reap_timer))
    assert eng.next_timer() is None


def test_no_rto_fires_on_clean_path():
    tx, rx, tx_eng, rx_eng, rx_ch, shuttle = make_pair()
    now = 0
    for i in range(200):
        tx.send_message(b"ok%d" % i, now=now)
        shuttle(now)
        now += 50
    rx_eng.fire_due(now + ACK_DELAY_US)
    shuttle(now + ACK_DELAY_US)
    assert tx.stats.retransmits == 0
    assert rx_ch.stats.rx_enqueued == 200
    assert tx.conservation_ok()


def test_messages_released_in_msg_id_order():
    tx, rx, tx_eng, rx_eng, rx_ch, shuttle = make_pair()
    tx.send_message(b"first" * 1000, now=0)   # msg 0: seqs 0..3
    tx.send_message(b"second", now=0)         # msg 1: seq 4
    frames = [wire.parse_frame(f) for f in tx_eng.outbox]
    rx.on_data(frames[4], 0)  # msg 1 complete first
    assert rx_ch.rx_pending() == 0, "msg 1 must wait for msg 0"
    for pkt in frames[:4]:
        rx.on_data(pkt, 0)
    assert rx_ch.rx_pending() == 2
    assert rx_ch.recv().payload == b"first" * 1000
    assert rx_ch.recv().payload == b"second"


def test_receive_window_bounds_buffered_seqs():
    flow, eng, ch = make_flow()
    far = wire.parse_frame(wire.build_frame(
        "10.0.0.2", "10.0.0.1", 40003, 40004, wire.PKT_DATA, 80, 7000,
        payload=b"x", seq=RECEIVE_WINDOW + 5, msg_id=0, frag_offset=0,
        msg_len=1, flags=wire.FLAG_LAST_FRAGMENT))
    flow.on_data(far, 0)
    assert flow.stats.rx_out_of_window == 1
    assert not flow.rx_buffer


def test_receive_window_edge():
    flow, _, _ = make_flow()
    flow.on_data(data_pkt(RECEIVE_WINDOW - 1, 9, 0, 1, b"e"), 0)
    flow.on_data(data_pkt(RECEIVE_WINDOW, 9, 0, 1, b"e"), 0)
    assert list(flow.rx_buffer) == [RECEIVE_WINDOW - 1]
    assert flow.stats.rx_out_of_window == 1


def test_sack_ranges_capped_at_eight():
    flow, eng, _ = make_flow()
    # Alternating received/missing seqs: 1, 3, 5, ... -> many runs.
    for seq in range(1, 40, 2):
        pkt = wire.parse_frame(wire.build_frame(
            "10.0.0.2", "10.0.0.1", 40003, 40004, wire.PKT_DATA, 80, 7000,
            payload=b"y", seq=seq, msg_id=seq, frag_offset=0, msg_len=1,
            flags=wire.FLAG_LAST_FRAGMENT))
        flow.on_data(pkt, 0)
    ranges = flow._sack_ranges()
    assert len(ranges) == 8
    assert ranges == [(s, s + 1) for s in range(1, 17, 2)]


def sorted_runs(seqs):
    """Runs of `seqs` rebuilt by sorting them: the reference that
    `_sack_ranges` is checked against."""
    runs = []
    for seq in sorted(seqs):
        if runs and runs[-1][1] == seq:
            runs[-1] = (runs[-1][0], seq + 1)
        else:
            runs.append((seq, seq + 1))
    return runs


@settings(max_examples=200)
@given(order=st.permutations(range(40)) | st.lists(
    st.integers(0, RECEIVE_WINDOW + 40), max_size=300))
def test_sack_runs_equal_a_sorted_rebuild_for_any_arrival_order(order):
    flow, _, _ = make_flow()
    for seq in order:  # one single-fragment message per seq
        flow.on_data(data_pkt(seq, seq, 0, 1, b"s"), 0)
        want = sorted_runs(flow.rx_buffer)
        assert flow._sack_ranges() == want[:SACK_MAX_RANGES]
    assert flow.stats.protocol_errors == 0


FP = wire.FRAGMENT_PAYLOAD


@pytest.mark.parametrize("off, msg_len, size", [
    (0, 10, 100),  # payload longer than the message it claims
    (0, 0, 0),  # empty message
    (0, wire.MAX_MESSAGE_BYTES + 1, FP),  # over 8 MiB
    (5, 3000, FP),  # offset off the fragment grid
    (FP, FP, 0),  # offset at or past the end
    (0, 3000, FP - 1),  # short non-final fragment
])
def test_malformed_data_header_counted_and_dropped(off, msg_len, size):
    flow, eng, ch = make_flow()
    flow.on_data(data_pkt(0, 0, off, msg_len, b"p" * size), 0)
    assert flow.stats.protocol_errors == 1
    assert ch.rx_pending() == 0
    assert flow.rx_next == 0 and not flow.rx_buffer
    assert eng.outbox == [] and eng.next_timer() is None  # not acked


def test_fragment_not_continuing_its_message_resets_flow():
    flow, eng, ch = make_flow()
    flow.on_data(data_pkt(0, 0, 0, 3000, b"a" * FP), 0)
    # Well-formed on its own, but msg_len disagrees with its first fragment.
    flow.on_data(data_pkt(1, 0, FP, 2000,
                          b"b" * (2000 - FP)), 0)
    assert flow.stats.protocol_errors == 1
    assert flow.handle.state == RESET
    assert eng.dropped == [flow]
    assert ch.rx_pending() == 0


def test_uncompletable_msg_ids_leave_no_state_behind():
    flow, eng, ch = make_flow()
    for seq in range(5000):
        flow.on_data(data_pkt(seq, seq + 1000, 0, 1, b"u"), 0)
    assert flow.handle.state == RESET
    assert flow.stats.protocol_errors == 1
    assert ch.rx_pending() == 0
    assert not flow.rx_buffer and not flow.rx_parts
    assert eng.dropped == [flow]


@settings(max_examples=100)
@given(sizes=st.lists(st.integers(1, 20_000), min_size=1, max_size=4),
       data=st.data())
def test_any_arrival_order_delivers_each_message_once_in_order(sizes, data):
    tx, tx_eng, _ = make_flow("10.0.0.2", "10.0.0.1")
    rx, _, rx_ch = make_flow()
    messages = [random.Random(i * 31 + n).randbytes(n)
                for i, n in enumerate(sizes)]
    for msg in messages:
        tx.send_message(msg, now=0)
    frames = [wire.parse_frame(f) for f in tx_eng.outbox]
    assert len(frames) == tx.next_tx_seq  # all inside the send window
    order = list(data.draw(st.permutations(frames)))
    for dup, at in data.draw(st.lists(
            st.tuples(st.sampled_from(frames),
                      st.integers(0, len(frames))), max_size=len(frames))):
        order.insert(at, dup)
    for pkt in order:
        rx.on_data(pkt, 0)
        assert len(rx.rx_buffer) <= RECEIVE_WINDOW
    delivered = []
    while rx_ch.rx_pending():
        delivered.append(rx_ch.recv().payload)
    assert delivered == messages
    assert rx.stats.protocol_errors == 0
    assert rx.handle.state == ESTABLISHED


def _valid_header(pkt):
    return (0 < pkt.msg_len <= wire.MAX_MESSAGE_BYTES
            and pkt.frag_offset % FP == 0 and pkt.frag_offset < pkt.msg_len
            and len(pkt.payload) == min(FP, pkt.msg_len - pkt.frag_offset))


# Strategies for each DATA header field a hostile stream may corrupt:
# seq, msg_id, frag_offset, msg_len and payload size.
_FIELDS = (st.integers(0, 12), st.integers(0, 3),
           st.one_of(st.sampled_from([0, 1408, 2816]),
                     st.integers(0, 2**32 - 1)),
           st.one_of(st.integers(0, 3000), st.integers(0, 2**32 - 1)),
           st.integers(0, 1500))


@st.composite
def hostile_stream(draw):
    """Honest fragments of up to three messages with up to two header
    fields corrupted, plus a few arbitrary frames, in any order."""
    rows = []
    sizes = st.one_of(st.sampled_from([1, 1408, 1409, 2816, 3000]),
                      st.integers(1, 3000))
    for msg_id, n in enumerate(draw(st.lists(sizes, max_size=3))):
        for off in range(0, n, FP):
            rows.append([len(rows), msg_id, off, n, None])
    if rows:
        for row, i in draw(st.lists(st.tuples(
                st.integers(0, len(rows) - 1), st.integers(0, 4)),
                max_size=2)):
            rows[row][i] = draw(_FIELDS[i])
    rows += draw(st.lists(st.tuples(*_FIELDS[:4], st.none() | _FIELDS[4]),
                          max_size=5))
    pkts = []
    # A size of None is the one an honest sender gives that offset and length.
    for seq, msg_id, off, msg_len, size in draw(st.permutations(rows)):
        if size is None:
            size = max(0, min(FP, msg_len - off))
        pkts.append(data_pkt(seq, msg_id, off, msg_len, bytes([seq]) * size))
    return pkts


@settings(max_examples=500)
@given(hostile_stream())
def test_arbitrary_data_headers_never_raise_or_misdeliver(pkts):
    flow, _, ch = make_flow()
    first = {}  # seq -> the fragment the receiver keeps for it
    for pkt in pkts:
        flow.on_data(pkt, 0)
        if _valid_header(pkt):
            first.setdefault(pkt.seq, pkt)
    seq = 0
    msg_id = 0
    while ch.rx_pending():
        payload = ch.recv().payload
        got = b""
        while len(got) < len(payload):
            pkt = first[seq]
            seq += 1
            assert (pkt.msg_id, pkt.frag_offset) == (msg_id, len(got))
            assert pkt.msg_len == len(payload)
            got += pkt.payload
        assert got == payload
        msg_id += 1


def test_largest_frames_the_stack_builds_are_within_nic_bounds():
    """A full 1408-byte DATA fragment and an eight-range SACK are the largest
    frames a flow builds; both fit the NIC's frame bounds, and a payload
    longer than a frame carries raises at the build, so the engine's TX ring
    never holds a frame that tx_burst would refuse."""
    flow, eng, _ = make_flow()
    flow.send_message(b"d" * (3 * wire.FRAGMENT_PAYLOAD), now=0)
    for seq in range(1, 40, 2):  # 20 runs in the receive buffer
        flow.on_data(one_fragment(seq), 0)
    eng.fire_due(0)
    data = [f for f in eng.outbox
            if wire.parse_frame(f).pkt_type == wire.PKT_DATA]
    sacks = [f for f in eng.outbox
             if wire.parse_frame(f).pkt_type == wire.PKT_SACK]
    assert max(map(len, data)) == wire.FRAME_HEAD_LEN + wire.FRAGMENT_PAYLOAD
    assert len(wire.unpack_sack_payload(
        wire.parse_frame(sacks[-1]).payload)) == SACK_MAX_RANGES
    assert max(map(len, sacks)) == wire.FRAME_HEAD_LEN + 2 + 8 * SACK_MAX_RANGES
    assert all(MIN_FRAME_LEN <= len(f) <= wire.MTU for f in eng.outbox)
    nic = Nic(1)
    assert nic.tx_burst(0, eng.outbox) == len(eng.outbox)
    udp = flow.tx_udp
    assert len(flow_frame(flow.handle, udp.src, udp.dst, wire.PKT_DATA,
                          b"m" * wire.MAX_FRAME_PAYLOAD)) == wire.MTU
    with pytest.raises(ValueError):
        flow_frame(flow.handle, udp.src, udp.dst, wire.PKT_DATA,
                   b"m" * (wire.MAX_FRAME_PAYLOAD + 1))


def test_receiver_at_the_seq_limit_acks_without_wrapping():
    """Seqs up to 2**32 - 2 are delivered and acked (the ack, 2**32 - 1,
    still fits its field); a DATA frame at seq 2**32 - 1, which no sender
    uses, is counted as a protocol error and never raises."""
    flow, eng, ch = make_flow()
    top = 2**32 - 1
    flow.rx_next = flow.rx_msg_id = top - 2
    for seq in (top - 2, top - 1):
        flow.on_data(data_pkt(seq, seq, 0, 1, b"z"), 0)
    flow.on_data(data_pkt(top, top, 0, 1, b"z"), 0)
    eng.fire_due(ACK_DELAY_US)
    assert ch.rx_pending() == 2
    assert flow.rx_next == top
    assert flow.stats.protocol_errors == 1
    assert emitted_sacks(eng)[-1] == (top, [])
