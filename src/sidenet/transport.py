"""Reliable message transport over the flow's chosen UDP port pairs.

Messages (1 byte to 8 MiB) are split into fixed 1408-byte fragments that
carry a per-flow packet sequence number, a message id, and byte placement
within the message, numbered one message after another. The sender queues
a message in blocks of up to SEND_WINDOW fragments, cuts each fragment when
it first sends it and frees a block once its last fragment is out; `snd_nxt`,
the next seq not yet sent, bounds a valid ack. The receiver consumes
fragments in seq order, so messages reach the application whole, in send
order, never split or coalesced; a fragment that does not continue its
message resets the flow, and a DATA header no honest sender could emit is
counted and dropped. Acks are cumulative plus up to eight selective ranges.
Seqs and message ids do not wrap: a message whose fragments would need a seq
past U32_MAX - 1, or a message id past U32_MAX, resets the flow instead.

The receiver sends at most one SACK per flow per RX burst: a new DATA frame
moves the flow's one ack timer, which the engine fires after the burst, to
`now` when two or more full-sized frames are unacked or the frame arrived
out of order or filled part of a hole (RFC 5681, section 4.2); otherwise
the ack waits up to 100 us (ACK_DELAY_US). A duplicate is re-acked at once.
While the ack waits and no SACK range is pending, the flow's next new DATA
fragment carries the cumulative ack instead (FLAG_ACK), so a reply acks its
request (RFC 9293, section 3.8.6.3). A close holds its FIN until every
fragment sent is acked, so the FIN never overtakes data, and re-sends the
FIN on the RTO ladder until the FIN-ACK comes back.

Loss recovery is RACK-TLP (RFC 8985), driven by one timer per flow. RACK
keeps a mark: the most recently sent fragment known delivered. An unacked
fragment sent before the mark (earlier, or at the same instant with a
lower seq) is lost once the mark's RTT plus a reorder window has passed
since its own send; one not yet past that deadline arms the timer for it.
The window starts at a quarter of the min RTT, capped by the smoothed RTT,
and widens a quarter at a time, at most once per round trip, when a resend
proves spurious: the original's ack comes back within half the min RTT of
the resend. It narrows back after 16 loss episodes without one. While
nothing is marked lost, the timer is a tail-loss probe, armed where the RTO
would be (on a send while no timer runs, on each ack that advances the
cumulative ack) for 2 x SRTT, plus the receiver's ack delay when one
fragment is in flight (the PTO); it re-sends the highest-seq unacked
fragment, whose ack then lets RACK see any other loss. While no reorder
deadline is pending, it is a probe too when that fragment has been resent
exactly once: if the tail and its resend (or the resend's ack) are both
lost, the tail goes out again one PTO later, not at the RTO. So no probe is
a fragment's third resend, and there is none before the first RTT sample.
The retransmission timeout (10 ms, doubling to 1 s) stays as the backstop;
no deadline is ever later than it, and a silent peer resets by it.

A fixed 64-packet send window stands in for congestion control, which this
stack deliberately does not have; the window constant is the seam where a
real controller would go.
"""

from collections import deque
from dataclasses import dataclass

from . import wire
from .channel import ESTABLISHED, RESET, CLOSED, Message, frame

SEND_WINDOW = 64
RECEIVE_WINDOW = 256
RTO_BASE_US = 10_000
RTO_CAP_US = 1_000_000
MAX_FRAGMENT_RETRANSMITS = 16
ACK_EVERY_FRAMES = 2
ACK_DELAY_US = 100
SACK_MAX_RANGES = 8
IDLE_REAP_US = 3_000_000
REO_WND_PERSIST = 16
# seq, ack and msg_id are u32 on the wire. A sender's last seq is
# U32_MAX - 1, so the ack that covers it, seq + 1, fits as well; its last
# msg id is U32_MAX.
U32_MAX = 0xFFFFFFFF


@dataclass(slots=True)
class _TxEntry:
    frame: bytes
    sent_at: int  # of the latest transmission
    retransmits: int = 0


@dataclass
class FlowStats:
    frags_sent_unique: int = 0
    frags_acked_unique: int = 0
    retransmits: int = 0
    rx_duplicates: int = 0
    rx_out_of_window: int = 0
    protocol_errors: int = 0
    sacks_sent: int = 0


class Flow:
    """One established connection's engine-local sequencing/reassembly state.

    Owned by exactly one engine; the application only ever sees the paired
    FlowHandle, which addresses its frames, and whole messages.
    """

    def __init__(self, eng, handle, tx_udp):
        self.eng = eng
        self.handle = handle
        self.tx_udp = tx_udp
        self.stats = FlowStats()
        # Closing: start_close arms the reaper; the FIN timer runs from the
        # FIN, which waits until every fragment sent is acked.
        self.reap_timer = None
        self.fin_timer = None
        self.final_ack = None  # a client flow's last handshake frame
        self.synack_seq = 0  # the seq of the SYN-ACK that established it

        # Sender state.
        self.next_tx_seq = 0
        self.snd_nxt = 0  # the next seq not yet sent, <= next_tx_seq
        self.next_msg_id = 0
        self.acked_upto = 0  # peer's cumulative ack (next seq it expects)
        self.pending = deque()  # (first_seq, msg_id, offset, msg_len, block)
        self.unacked = {}  # seq -> _TxEntry, insertion order == seq order
        self.lost_out = 0  # unacked entries that have been retransmitted
        self.srtt_us = 0  # RTT of never-resent fragments; 0 until sampled
        self.min_rtt_us = 0
        # RACK's mark: the most recently sent fragment known delivered.
        self.rack_sent_at = -1
        self.rack_seq = -1
        self.rack_rtt_us = 0
        self.reo_wnd_mult = 1  # reorder window in quarters of the min RTT
        self.reo_round_end = 0  # it grows again once the ack passes this seq
        self.reo_persist = 0  # loss episodes until the window shrinks back
        self.rto_us = RTO_BASE_US
        self.loss_timer = None  # the one reorder, probe or RTO timer

        # Receiver state.
        self.rx_next = 0
        self.rx_buffer = {}  # seq -> ParsedFrame, rx_next <= seq < window end
        self.rx_msg_id = 0  # message being assembled
        self.rx_msg_len = 0
        self.rx_parts = []  # its payloads consumed so far
        self.frames_since_ack = 0  # full-sized ones since the last ack
        self.ack_timer = None

    def key(self):
        return self.handle.key

    def on_synack(self, pkt):
        """A SYN-ACK for this client flow. One whose payload does not unpack
        is counted malformed. A later answer (seq above the one that
        established the flow) means the peer never got the final ACK: send
        it again. Leftovers of the answer the handshake won on, or of an
        earlier one, are discarded."""
        if wire.unpack_synack_payload(pkt.payload) is None:
            self.eng.stats.rx_malformed += 1
        elif pkt.seq > self.synack_seq:
            self.eng.emit(self.final_ack)
            self.eng.stats.acks_sent += 1
        else:
            self.eng.stats.synacks_discarded += 1

    # Sending.

    def send_message(self, payload, now):
        """Queue one message of 1 byte .. 8 MiB, as Channel.send admits it,
        or reset the flow if its sequence space cannot hold it."""
        msg_id = self.next_msg_id
        frags = -(-len(payload) // wire.FRAGMENT_PAYLOAD)
        if msg_id > U32_MAX or self.next_tx_seq + frags > U32_MAX:
            self._teardown(RESET, "sequence space exhausted at seq %d, "
                           "message id %d" % (self.next_tx_seq, msg_id))
            return
        self.next_msg_id += 1
        seq, msg_len = self.next_tx_seq, len(payload)
        step = SEND_WINDOW * wire.FRAGMENT_PAYLOAD
        for off in range(0, msg_len, step):
            self.pending.append((seq, msg_id, off, msg_len,
                                 payload[off:off + step]))
            seq += SEND_WINDOW
        self.next_tx_seq += frags
        self.pump(now)

    def pump(self, now):
        """Cut and emit queued fragments while the send window has room.

        Besides the 64-packet cap, never run more than the receiver's window
        past the cumulative ack: SACKed holes free window slots, and without
        this bound a persistent hole would let new fragments sail beyond
        what the receiver is willing to buffer.

        While an ack is due and the receive buffer holds no SACK range, the
        first fragment carries the cumulative ack (FLAG_ACK) in place of a
        SACK. A resend keeps the bytes of its first send; its ack is then
        at or below what the peer has already seen, so it is a no-op there.
        """
        if self.handle.state != ESTABLISHED:
            return
        pending, unacked, emit = self.pending, self.unacked, self.eng.emit
        handle, udp = self.handle, self.tx_udp
        horizon = self.acked_upto + RECEIVE_WINDOW
        timer = self.ack_timer
        carry = timer is not None and timer.live and not self.rx_buffer
        seq = self.snd_nxt
        while pending and len(unacked) < SEND_WINDOW and seq < horizon:
            first, msg_id, base, msg_len, block = pending[0]
            off = (seq - first) * wire.FRAGMENT_PAYLOAD
            end = off + wire.FRAGMENT_PAYLOAD
            flags = 0
            if end >= len(block):
                pending.popleft()
                if base + end >= msg_len:
                    flags = wire.FLAG_LAST_FRAGMENT
            ack = 0
            if carry:
                carry = False
                timer.cancel()
                self.frames_since_ack = 0
                ack = self.rx_next
                flags |= wire.FLAG_ACK
            data = frame(handle, udp.src, udp.dst, wire.PKT_DATA,
                         block[off:end], seq=seq, ack=ack, msg_id=msg_id,
                         frag_offset=base + off, msg_len=msg_len, flags=flags)
            unacked[seq] = _TxEntry(data, now)
            emit(data)
            seq += 1
        self.stats.frags_sent_unique += seq - self.snd_nxt
        self.snd_nxt = seq
        if self.unacked and (self.loss_timer is None
                             or not self.loss_timer.live):
            self._arm_loss_timer(now)

    def on_sack(self, pkt, now):
        self.on_ack(pkt.ack, wire.unpack_sack_payload(pkt.payload), now)

    def on_carried_ack(self, ack, now):
        """The cumulative ack a DATA frame carries (FLAG_ACK). One at or
        below acked_upto, as a resend's stored ack is, changes nothing."""
        if ack > self.acked_upto:
            self.on_ack(ack, (), now)

    def on_ack(self, ack, ranges, now):
        """Drop what the cumulative and selective acks cover, sample the RTT,
        advance the RACK mark, retransmit what RACK finds lost, refill the
        window, and send a waiting FIN once nothing is left to send."""
        if ack > self.snd_nxt:
            self.stats.protocol_errors += 1
            return
        progressed = ack > self.acked_upto
        if progressed:
            self.acked_upto = ack
        # Sorted by start, one cursor finds each seq's cover, overlaps too.
        ranges = sorted(ranges)
        highest = max((end for _, end in ranges), default=ack)
        i, n = 0, len(ranges)
        covered = []  # deleted after the walk: a dict may not shrink mid-walk
        for seq, entry in self.unacked.items():
            if seq >= ack:
                if seq >= highest:
                    break
                while i < n and ranges[i][1] <= seq:
                    i += 1
                if i == n or ranges[i][0] > seq:
                    continue  # a hole: RACK decides below
            else:
                progressed = True
            covered.append(seq)
            self.stats.frags_acked_unique += 1
            sent_at = entry.sent_at
            rtt = now - sent_at
            if entry.retransmits:
                self.lost_out -= 1
                # Karn: no RTT sample. An ack sooner than the min RTT after
                # the resend (or before any RTT is known) may be for the
                # original, so RACK skips it. One within two window steps
                # (half the min RTT) means a wider window would have spared
                # the resend: widen it, at most once per round trip.
                if not self.min_rtt_us or rtt < self.min_rtt_us:
                    if (rtt < self.min_rtt_us // 2
                            and self.acked_upto > self.reo_round_end):
                        self.reo_wnd_mult += 1
                        self.reo_persist = REO_WND_PERSIST
                        self.reo_round_end = self.snd_nxt
                    continue
            else:
                self.srtt_us = (rtt if self.srtt_us == 0
                                else (7 * self.srtt_us + rtt) // 8)
                if self.min_rtt_us == 0 or rtt < self.min_rtt_us:
                    self.min_rtt_us = rtt
            if sent_at > self.rack_sent_at or (
                    sent_at == self.rack_sent_at and seq > self.rack_seq):
                self.rack_sent_at = sent_at
                self.rack_seq = seq
                self.rack_rtt_us = rtt
        for seq in covered:
            del self.unacked[seq]
        if progressed:
            self.rto_us = RTO_BASE_US
        reorder_at = self._detect_losses(now)
        timer = self.loss_timer
        if timer is not None and (progressed or (
                reorder_at is not None and reorder_at < timer.due)):
            timer.cancel()
            if self.unacked:
                self._arm_loss_timer(now, reorder_at)
        self.pump(now)
        if (self.reap_timer is not None and self.fin_timer is None
                and not self.unacked):
            self._send_fin(now)  # the FIN start_close held back

    def _detect_losses(self, now):
        """RACK: retransmit every fragment sent before the most recently sent
        delivered one (the mark) once `rack_rtt + reo_wnd` has passed since
        its own send; return the earliest such deadline still to come.

        Fragments are first sent in seq order, so the walk stops at the first
        never-retransmitted fragment sent after the mark; a resent one that
        is after the mark is skipped."""
        mark_at, mark_seq = self.rack_sent_at, self.rack_seq
        reo_wnd = self.reo_wnd_mult * self.min_rtt_us // 4
        if self.srtt_us:
            reo_wnd = min(reo_wnd, self.srtt_us)
        wait = self.rack_rtt_us + reo_wnd
        reorder_at = None
        for seq, entry in self.unacked.items():
            sent_at = entry.sent_at
            if sent_at > mark_at or (sent_at == mark_at and seq > mark_seq):
                if entry.retransmits:
                    continue
                break
            deadline = sent_at + wait
            if now >= deadline:
                self._retransmit(seq, entry, now)
            elif reorder_at is None or deadline < reorder_at:
                reorder_at = deadline
        return reorder_at

    def _may_probe(self):
        """A tail-loss probe is allowed while nothing is marked lost, or while
        the highest-seq unacked fragment has been resent exactly once. So no
        probe is a fragment's third resend; past its second, the RTO is the
        backstop."""
        return (not self.lost_out
                or next(reversed(self.unacked.values())).retransmits == 1)

    def _arm_loss_timer(self, now, reorder_at=None):
        """Arm the flow's one loss timer, never later than the RTO: for a
        pending reorder deadline; else, once there is an RTT sample and
        `_may_probe` allows it, for a tail-loss probe; else for the RTO.
        A torn-down flow arms nothing."""
        if self.handle.state != ESTABLISHED:
            return
        due = next(iter(self.unacked.values())).sent_at + self.rto_us
        fn = self._on_loss_timer
        if reorder_at is not None:
            due = min(due, reorder_at)
        elif self.srtt_us and self._may_probe():
            pto = 2 * self.srtt_us
            if len(self.unacked) == 1:
                pto += ACK_DELAY_US  # its ack may wait for the delayed ack
            if now + pto < due:
                due = now + pto
                fn = self._on_probe_timer
        self.loss_timer = self.eng.arm_timer(due, fn)

    def _on_loss_timer(self, now, probe=False):
        """The RTO if the oldest fragment is overdue; else RACK's reorder
        deadlines; else, for a probe timer with no reorder deadline pending
        and `_may_probe` still true, re-send the highest-seq unacked
        fragment. Then re-arm for what is left."""
        if not self.unacked:
            return
        if now - next(iter(self.unacked.values())).sent_at >= self.rto_us:
            self.on_rto(now)
            return
        reorder_at = self._detect_losses(now)
        if probe and reorder_at is None and self._may_probe():
            seq, entry = next(reversed(self.unacked.items()))
            self._retransmit(seq, entry, now)
        self._arm_loss_timer(now, reorder_at)

    def _on_probe_timer(self, now):
        self._on_loss_timer(now, probe=True)

    def on_rto(self, now):
        """The retransmission timeout: re-send the oldest unacked fragment,
        double the timeout and re-arm for it (the resend is marked lost)."""
        seq, oldest = next(iter(self.unacked.items()))
        self._retransmit(seq, oldest, now)
        self.rto_us = min(self.rto_us * 2, RTO_CAP_US)
        self._arm_loss_timer(now)

    def _retransmit(self, seq, entry, now):
        if self.handle.state != ESTABLISHED:
            return
        if entry.retransmits == 0:
            if self.lost_out == 0 and self.reo_persist:
                self.reo_persist -= 1
                if self.reo_persist == 0:
                    self.reo_wnd_mult = 1
            self.lost_out += 1
        entry.retransmits += 1
        if entry.retransmits > MAX_FRAGMENT_RETRANSMITS:
            self._teardown(RESET, "fragment %d retransmitted %d times without "
                           "an ack" % (seq, MAX_FRAGMENT_RETRANSMITS))
            return
        entry.sent_at = now
        self.eng.emit(entry.frame)
        self.stats.retransmits += 1
        self.eng.stats.retransmits += 1

    # Receiving.

    def on_data(self, pkt, now):
        if self.handle.state != ESTABLISHED:
            return  # torn down: a dropped flow takes no more data
        msg_len, off = pkt.msg_len, pkt.frag_offset
        if (msg_len > wire.MAX_MESSAGE_BYTES or off >= msg_len
                or off % wire.FRAGMENT_PAYLOAD or len(pkt.payload)
                != min(wire.FRAGMENT_PAYLOAD, msg_len - off)):
            self.stats.protocol_errors += 1
            return
        seq = pkt.seq
        if seq < self.rx_next or seq in self.rx_buffer:
            self.stats.rx_duplicates += 1
            self._emit_sack(now)  # re-ack only
            return
        if seq >= self.rx_next + RECEIVE_WINDOW:
            self.stats.rx_out_of_window += 1
            return
        if seq >= U32_MAX:  # no sender uses it: its ack would not fit
            self.stats.protocol_errors += 1
            return
        # Out of order, or filling part of a hole: the sender needs to know.
        urgent = seq > self.rx_next or bool(self.rx_buffer)
        self.rx_buffer[seq] = pkt
        if seq == self.rx_next and not self._consume():
            return
        # Only full-sized frames count toward the every-second-frame ack: a
        # small one waits the ack delay, in which a reply usually carries
        # the ack (pump). The engine fires due timers after the RX burst, so
        # an ack due now goes out once, covering the whole burst.
        if len(pkt.payload) == wire.FRAGMENT_PAYLOAD:
            self.frames_since_ack += 1
        due = (now if urgent or self.frames_since_ack >= ACK_EVERY_FRAMES
               else now + ACK_DELAY_US)
        timer = self.ack_timer
        if timer is None or not timer.live or timer.due > due:
            if timer is not None:
                timer.cancel()
            self.ack_timer = self.eng.arm_timer(due, self._emit_sack)

    def _consume(self):
        """Consume the in-order run at rx_next; False if it reset the flow."""
        while self.rx_next in self.rx_buffer:
            pkt = self.rx_buffer.pop(self.rx_next)
            self.rx_next += 1
            parts = self.rx_parts
            if (pkt.msg_id, pkt.frag_offset, pkt.msg_len) != (
                    self.rx_msg_id, len(parts) * wire.FRAGMENT_PAYLOAD,
                    self.rx_msg_len if parts else pkt.msg_len):
                self.stats.protocol_errors += 1
                self._teardown(RESET, "fragment %d does not continue message "
                               "%d" % (pkt.seq, self.rx_msg_id))
                return False
            self.rx_msg_len = pkt.msg_len
            parts.append(pkt.payload)
            if pkt.frag_offset + len(pkt.payload) == pkt.msg_len:
                self.rx_parts = []
                self.rx_msg_id += 1
                self.handle.channel._push_rx(
                    Message(self.handle, b"".join(parts)))
        return True

    def _emit_sack(self, now):
        self.frames_since_ack = 0
        if self.ack_timer is not None:
            self.ack_timer.cancel()
        self.eng.emit(frame(
            self.handle, self.tx_udp.src, self.tx_udp.dst, wire.PKT_SACK,
            wire.pack_sack_payload(self._sack_ranges()), ack=self.rx_next))
        self.stats.sacks_sent += 1

    def _sack_ranges(self):
        """Runs of buffered seqs as (start, end) tuples, lowest first, at
        most SACK_MAX_RANGES."""
        runs = []
        start = end = None
        for seq in sorted(self.rx_buffer):
            if seq != end:
                if end is not None:
                    runs.append((start, end))
                    if len(runs) == SACK_MAX_RANGES:
                        return runs
                start = seq
            end = seq + 1
        if end is not None:
            runs.append((start, end))
        return runs

    # Teardown.

    def on_fin(self, pkt, now):
        self.eng.emit(frame(self.handle, self.tx_udp.src, self.tx_udp.dst,
                            wire.PKT_FINACK))
        self._teardown(CLOSED)

    def on_finack(self, pkt, now):
        """A FIN-ACK answers this flow's own FIN, and _send_fin arms
        fin_timer; one the flow never asked for is a protocol error."""
        if self.fin_timer is None:
            self.stats.protocol_errors += 1
            return
        self._teardown(CLOSED)

    def start_close(self, now):
        """Send the FIN, or, while fragments are pending or unacked, have
        on_ack send it once they are all acked: the peer tears down on the
        FIN, so it must not overtake data. A second close changes nothing."""
        if self.reap_timer is not None:
            return
        # The idle reaper ends the flow if no FIN-ACK comes back.
        self.reap_timer = self.eng.arm_timer(now + IDLE_REAP_US,
                                             self._on_reap_timer)
        if not (self.pending or self.unacked):
            self._send_fin(now)

    def _send_fin(self, now, wait=RTO_BASE_US):
        """Send the FIN, and again after `wait`, doubling on the RTO ladder,
        until the FIN-ACK or the reaper ends the flow: a lost FIN would
        leave the peer's flow open for good."""
        self.eng.emit(frame(self.handle, self.tx_udp.src, self.tx_udp.dst,
                            wire.PKT_FIN))
        again = min(2 * wait, RTO_CAP_US)
        self.fin_timer = self.eng.arm_timer(
            now + wait, lambda t: self._send_fin(t, again))

    def _on_reap_timer(self, now):
        self._teardown(CLOSED)

    def _teardown(self, state, reason=None):
        """The one way a flow ends: settle the handle (a reset always, a
        close only while established), stop every timer the flow armed,
        and drop it from its engine."""
        if state == RESET or self.handle.state == ESTABLISHED:
            self.handle._settle(state, reason)
        for timer in (self.loss_timer, self.ack_timer, self.reap_timer,
                      self.fin_timer):
            if timer is not None:
                timer.cancel()
        self.eng.drop(self.handle.key)

    def conservation_ok(self):
        s = self.stats
        return s.frags_sent_unique == s.frags_acked_unique + len(self.unacked)
