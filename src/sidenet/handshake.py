"""Randomized port-spraying connection setup.

The NIC hashes each packet's UDP four-tuple to an RX queue with a key the
stack cannot read, so no port can be *chosen* to reach a wanted engine.
Instead, connection setup sprays SYNs over random UDP port pairs until, by
chance, one lands on the right queue at each end. Flow identity lives in
two dedicated 16-bit header ports, decoupled from the UDP ports, so each
direction is free to settle on whatever UDP pair happened to hash well.

Two spray strategies are provided:

* naive: the server answers every correctly-landed SYN with one SYN-ACK on
  the reversed UDP pair, so a single packet succeeds with probability
  1/(n*n) and the 95% batch is log(1-0.95)/log(1-1/n^2) packets.
* optimized: the server answers the first correctly-landed SYN with its own
  spray of fresh random pairs, decoupling the two directions; each side
  needs only log(1-sqrt(0.95))/log(1-1/n) packets.

Every batch is sized for DEFAULT_TARGET_P. The client sizes its SYN batch
from its own engine count, as if the server ran as many engines, and
carries that count in the SYN, from which the server sizes its SYN-ACK
spray, capped at BATCH_CAP as the client's retry batches are: a forged
engine count costs the listener at most that many SYN-ACKs per answer.
Each pair is an independent draw, and no side keeps the pairs it sprayed:
a repeat, with odds |sprayed| in 28,232 ** 2 (5e-7 over an 8-engine spray
of 28), costs one redundant frame, and a history would grow per answer.

Whichever pairs win are exchanged in the SYN-ACK and ACK payloads and used
for every subsequent packet of the flow, pinning it to one engine per side.

The NIC's steering never changes, so a UDP pair that once reached a
listener's engine reaches it again. Each engine keeps, in `peer_pairs`, the
pair its last established connect to each (peer_ip, peer_port) sent on:
the accepted pair its winning SYN-ACK carried, which is the flow's TX pair.
The table holds at most PAIR_TABLE_CAP peers and forgets the one filed
longest ago. A connect that finds its peer there sends one SYN, in either
mode, on that pair; only if no SYN-ACK answers within 2 * RTO_BASE_US
does it spray its first batch, still as attempt 1. By then the server has
answered again: RTO_BASE_US after its first answer, or one measured
timeout after it (below), which is shorter for a peer whose round trips
stay well under 10 ms. A naive server answers that SYN on the
reversed pair, which reached the client's engine the first time; an
optimized one answers with its usual spray.

Both sides retry until MAX_ATTEMPTS. The client re-sprays its SYNs every
RETRY_TIMEOUT_US (300 ms) after its first spray, doubling the batch each
time. The server, which sees a missed SYN-ACK spray and a lost final ACK
alike as an ACK that does not arrive, answers again on a doubling ladder
capped at 300 ms. The ladder starts from the peer's measured timeout:
each engine keeps, in `peer_rtts`, an RFC 6298 estimate (SRTT, RTTVAR)
per peer IP, filed from the time between the first answer and the final
ACK of every set-up it answered once (Karn's rule: after a re-answer the
ACK does not say which answer it acknowledges). For a timed peer the
first re-answer comes max(2 * SRTT, SRTT + 4 * RTTVAR) after the first
answer, about two round trips; for any other it comes after RTO_BASE_US,
so 10, 20, 40, 80 and 160 ms after its first five answers, then every
300 ms. Either loss thus costs one ladder step, not a client retry, and a
SYN that nothing follows up (no ACK, no retried SYN) leaves the server's
table after the summed ladder: 1.21 s after the first answer for an
untimed peer. The estimate table holds at most PAIR_TABLE_CAP peers, as
`peer_pairs` does, and forgets the one timed longest ago.

Each handshake holds, as its flow will, its engine and the connection's
FlowHandle, which addresses every frame it sends. Set-up state ends at
establishment on both sides: the client's handshake when its winning
SYN-ACK arrives, the server's when the final ACK does. The flow then
replaces the handshake as its key's record in the engine's table; a client
flow re-sends its final ACK when a SYN-ACK of a later answer than the one
it was established on shows that the ACK was lost, and discards the rest
of that answer's spray. A handshake that fails, is cancelled or runs out
its retries leaves the table through Engine.drop. SYNs and SYN-ACKs carry
the sender's engine id, which neither side stores.
"""

import math
from dataclasses import dataclass

from . import wire
from .channel import CLOSED, FAILED, frame
from .transport import RTO_BASE_US

MODE_NAIVE = "naive"
MODE_OPTIMIZED = "optimized"

DEFAULT_TARGET_P = 0.95
RETRY_TIMEOUT_US = 300_000
MAX_ATTEMPTS = 8
BATCH_CAP = 4096
PAIR_TABLE_CAP = 1024  # peers an engine keeps a UDP pair or an RTT for
EPHEMERAL_LO = 32768
EPHEMERAL_HI = 60999
_EPHEMERAL_SPAN = EPHEMERAL_HI - EPHEMERAL_LO + 1
_PORT_BITS = _EPHEMERAL_SPAN.bit_length()  # as random.randint draws them


@dataclass(frozen=True, slots=True)
class UdpPorts:
    """One direction's UDP (src, dst) pair, as chosen by its sender."""

    src: int
    dst: int


def _check_args(n, p):
    if n < 1:
        raise ValueError("engine count must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("target probability must be in (0, 1)")


def naive_batch_size(n, p=DEFAULT_TARGET_P):
    """Naive SYN count when both hosts run n engines: SYN and reflected
    SYN-ACK both land correctly with probability >= p, when one random pair
    does so with odds 1 in n*n."""
    _check_args(n, p)
    if n == 1:
        return 1
    return math.ceil(math.log(1.0 - p) / math.log(1.0 - 1.0 / (n * n)))


def optimized_batch_exact(n, p=DEFAULT_TARGET_P):
    """Unrounded per-side spray size for the reduced scheme (1.0 when n=1)."""
    _check_args(n, p)
    if n == 1:
        return 1.0
    return math.log(1.0 - math.sqrt(p)) / math.log(1.0 - 1.0 / n)


def optimized_batch_size(n, p=DEFAULT_TARGET_P):
    """Per-side spray count (ceiling) for the reduced scheme."""
    return math.ceil(optimized_batch_exact(n, p))


def optimized_batch_total(n, p=DEFAULT_TARGET_P):
    """Both directions combined, floor(2x) of the unrounded per-side value.
    n=1 needs no spraying at all, so the total is a single packet."""
    if n == 1:
        _check_args(n, p)
        return 1
    return math.floor(2.0 * optimized_batch_exact(n, p))


def rtt_update(estimate, r):
    """The RFC 6298 estimate (srtt, rttvar), in integer microseconds, after
    the round trip `r`; `estimate` is None before the first sample."""
    if estimate is None:
        return r, r // 2
    srtt, rttvar = estimate
    return (7 * srtt + r) // 8, (3 * rttvar + abs(srtt - r)) // 4


def file_newest(table, key, value):
    """File `value` under `key` as the table's newest entry. Past
    PAIR_TABLE_CAP keys the table drops the one filed longest ago."""
    table.pop(key, None)
    table[key] = value
    if len(table) > PAIR_TABLE_CAP:
        del table[next(iter(table))]


def draw_udp_pairs(rng, count):
    """`count` independent random ephemeral-range UDP pairs, as (src, dst)
    tuples, which may repeat a pair drawn before (see the module docstring).

    Each port is what rng.randint(EPHEMERAL_LO, EPHEMERAL_HI) would return,
    drawn with the same getrandbits calls (15 bits, rejecting values past
    the range), so a seed yields the same pairs in the same order."""
    bits = rng.getrandbits
    pairs = []
    for _ in range(count):
        src = bits(_PORT_BITS)
        while src >= _EPHEMERAL_SPAN:
            src = bits(_PORT_BITS)
        dst = bits(_PORT_BITS)
        while dst >= _EPHEMERAL_SPAN:
            dst = bits(_PORT_BITS)
        pairs.append((src + EPHEMERAL_LO, dst + EPHEMERAL_LO))
    return pairs


class ClientHandshake:
    """Connect-side state machine; lives on the engine that must own the flow.

    Its first spray is sized from its mode and this host's engine count;
    each retry doubles `batch_size`. It ends when its winning SYN-ACK
    establishes the flow: the flow takes its place in the engine's table
    and keeps the final ACK. A SYN-ACK of a later answer (our ACK was lost)
    is then answered by the flow, with the same ACK bytes."""

    def __init__(self, eng, handle, mode):
        self.eng = eng
        self.handle = handle
        self.mode = mode
        self.attempt = 1
        self.batch_size = (optimized_batch_size(eng.num_engines)
                           if mode == MODE_OPTIMIZED
                           else naive_batch_size(eng.num_engines))
        self.retry_timer = None

    def start(self, now):
        """Send one SYN on the UDP pair this engine's last connect to the
        same listener established on, if it knows one; the first spray
        follows only if no SYN-ACK answers within 2 * RTO_BASE_US. With no
        known pair, spray at once."""
        pair = self.eng.peer_pairs.get(self.handle.key[:2])
        if pair is None:
            self._spray(now)
            return
        self._emit_syns([pair])
        self.retry_timer = self.eng.arm_timer(now + 2 * RTO_BASE_US,
                                              self._spray)

    def _spray(self, now):
        eng = self.eng
        self._emit_syns(draw_udp_pairs(eng.rng, self.batch_size))
        self.retry_timer = eng.arm_timer(now + RETRY_TIMEOUT_US,
                                         self.on_timeout)

    def _emit_syns(self, pairs):
        """One SYN of the current attempt per UDP (src, dst) pair."""
        eng, handle = self.eng, self.handle
        flags = wire.FLAG_OPTIMIZED if self.mode == MODE_OPTIMIZED else 0
        payload = wire.pack_syn_payload(eng.num_engines, eng.engine_id)
        for src, dst in pairs:
            eng.emit(frame(handle, src, dst, wire.PKT_SYN, payload,
                           seq=self.attempt, flags=flags))
        eng.stats.syns_sent += len(pairs)

    def on_timeout(self, now):
        if self.attempt >= MAX_ATTEMPTS:
            self.eng.stats.handshake_failures += 1
            self.eng.drop(self.handle.key)
            self.handle._settle(FAILED, "no port pair reached the target "
                                "engines after %d attempts" % self.attempt,
                                attempts=self.attempt)
            return
        self.attempt += 1
        self.batch_size = min(self.batch_size * 2, BATCH_CAP)
        self.eng.stats.handshake_retries += 1
        self._spray(now)

    def cancel(self):
        """A close before establishment: stop retrying, settle CLOSED."""
        self.retry_timer.cancel()
        self.eng.drop(self.handle.key)
        self.handle._settle(CLOSED)

    def on_synack(self, now, pkt):
        """The first well-formed SYN-ACK that steered here wins: it
        establishes the flow and ends the handshake."""
        eng = self.eng
        accepted = wire.unpack_synack_payload(pkt.payload)
        if accepted is None:
            eng.stats.rx_malformed += 1
            return
        tx_src, tx_dst, _ = accepted  # the server's engine id is not kept
        handle = self.handle
        self.retry_timer.cancel()
        file_newest(eng.peer_pairs, handle.key[:2], (tx_src, tx_dst))
        flow = eng.establish(handle, UdpPorts(tx_src, tx_dst),
                             attempts=self.attempt)
        flow.synack_seq = pkt.seq
        flow.final_ack = frame(
            handle, tx_src, tx_dst, wire.PKT_ACK,
            wire.pack_ack_payload(pkt.udp_src, pkt.udp_dst), seq=self.attempt)
        eng.emit(flow.final_ack)
        eng.stats.acks_sent += 1


class ServerHandshake:
    """Accept-side state machine; exists only on the listener's engine, and
    only until the client's final ACK establishes the flow of `handle`,
    which the engine built from the first SYN that landed there."""

    def __init__(self, eng, handle, mode, client_engines):
        self.eng = eng
        self.handle = handle
        self.mode = mode
        self.spray_size = min(optimized_batch_size(client_engines), BATCH_CAP)
        self.attempts = 0
        self.accepted_pair = None  # client's UDP pair, as the client sent it
        self.replied_pairs = set()
        self.last_client_attempt = 0
        self.retry_timer = None
        self.answered_at = None
        # The re-answer ladder starts from RFC 6298's timeout for a peer
        # this engine has timed, floored at 2 * SRTT where the RFC floors
        # at a second (and at 1 us, so no timer is due as it is armed).
        estimate = eng.peer_rtts.get(handle.remote_ip)
        if estimate is None:
            self.ladder_base = RTO_BASE_US
        else:
            srtt, rttvar = estimate
            self.ladder_base = max(2 * srtt, srtt + 4 * rttvar, 1)

    def on_syn(self, now, pkt):
        pair = UdpPorts(pkt.udp_src, pkt.udp_dst)
        if self.mode == MODE_NAIVE:
            # Reply to every correctly-landed SYN: the chance that any one
            # reversed pair reaches the client's engine is what the batch
            # size was computed for. Only the first reply arms the retry.
            if pair in self.replied_pairs:
                self.eng.stats.duplicate_syns += 1
                return
            self.replied_pairs.add(pair)
            self.accepted_pair = pair
            if self.attempts:
                self._emit_synacks([(pair.dst, pair.src)])
            else:
                self._spray_synacks(now)
            return
        if pkt.seq <= self.last_client_attempt:
            self.eng.stats.duplicate_syns += 1
            return
        # First SYN of a (re)try that landed correctly: answer with a fresh
        # spray sized for the client's engine count, carried in the SYN.
        self.last_client_attempt = pkt.seq
        self.accepted_pair = pair
        self._spray_synacks(now)

    def _spray_synacks(self, now):
        """One answer to the accepted SYN, first or retry, then re-arm the
        retry timer on the ladder: `ladder_base` after the first answer
        (the peer's measured timeout, or RTO_BASE_US for a peer not yet
        timed), doubling to RETRY_TIMEOUT_US. Naive mode answers on the
        reversed accepted pair, optimized mode with a fresh spray."""
        self.attempts += 1
        self.answered_at = now
        if self.mode == MODE_NAIVE:
            pairs = [(self.accepted_pair.dst, self.accepted_pair.src)]
        else:
            pairs = draw_udp_pairs(self.eng.rng, self.spray_size)
        self._emit_synacks(pairs)
        if self.retry_timer is not None:
            self.retry_timer.cancel()
        # Each new client attempt is answered too, so a peer that forges
        # rising SYN seqs can push `attempts` past MAX_ATTEMPTS: clamp the
        # shift.
        step = min(self.attempts, MAX_ATTEMPTS) - 1
        wait = min(self.ladder_base << step, RETRY_TIMEOUT_US)
        self.retry_timer = self.eng.arm_timer(now + wait, self.on_timeout)

    def _emit_synacks(self, pairs):
        """One SYN-ACK per UDP (src, dst) pair, all carrying the accepted
        pair in one payload."""
        eng, handle, seq = self.eng, self.handle, self.attempts
        payload = wire.pack_synack_payload(
            self.accepted_pair.src, self.accepted_pair.dst, eng.engine_id)
        for src, dst in pairs:
            eng.emit(frame(handle, src, dst, wire.PKT_SYNACK, payload,
                           seq=seq))
        eng.stats.synacks_sent += len(pairs)

    def on_timeout(self, now):
        """The final ACK has not arrived: answer again, because the last
        spray may have missed the client's engine or the client's ACK may
        have been lost. After MAX_ATTEMPTS answers the handshake leaves the
        table."""
        if self.attempts >= MAX_ATTEMPTS:
            self.eng.drop(self.handle.key)
            return
        self._spray_synacks(now)

    def on_ack(self, now, pkt):
        chosen = wire.unpack_ack_payload(pkt.payload)
        if chosen is None:
            self.eng.stats.rx_malformed += 1
            return
        self.retry_timer.cancel()
        if self.attempts == 1:
            # Karn's rule: after a re-answer the ACK does not say which
            # answer it acknowledges, so only a set-up answered once is
            # timed. In naive mode an ACK to a later SYN's answer reads high.
            rtts, peer = self.eng.peer_rtts, self.handle.remote_ip
            file_newest(rtts, peer,
                        rtt_update(rtts.get(peer), now - self.answered_at))
        # Our TX direction uses the SYN-ACK pair the client confirmed; the
        # client sends on the pair its ACK just arrived on.
        self.eng.establish(self.handle, UdpPorts(chosen[0], chosen[1]))
