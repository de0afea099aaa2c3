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

Whichever pairs win are exchanged in the SYN-ACK and ACK payloads and used
for every subsequent packet of the flow, pinning it to one engine per side.

Each handshake holds, as its flow will, its engine and the connection's
FlowHandle, which addresses every frame it sends. Set-up state ends at
establishment on both sides: the client's handshake when its winning
SYN-ACK arrives, the server's when the final ACK does. From then on the
flow answers for its key; a client flow re-sends its final ACK when a
retry SYN-ACK shows that the ACK was lost. SYNs and SYN-ACKs carry the
sender's engine id, which neither side stores.
"""

import math
from dataclasses import dataclass

from . import wire
from .channel import CLOSED, FAILED, frame

MODE_NAIVE = "naive"
MODE_OPTIMIZED = "optimized"

DEFAULT_TARGET_P = 0.95
RETRY_TIMEOUT_US = 300_000
MAX_ATTEMPTS = 8
BATCH_CAP = 4096
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


def draw_udp_pairs(rng, count, used):
    """Fresh random ephemeral-range UDP pairs, as (src, dst) tuples disjoint
    from `used`, which holds the same tuples.

    Each port is what rng.randint(EPHEMERAL_LO, EPHEMERAL_HI) would return,
    drawn with the same getrandbits calls (15 bits, rejecting values past
    the range), so a seed yields the same pairs in the same order."""
    bits = rng.getrandbits
    pairs = []
    while len(pairs) < count:
        src = bits(_PORT_BITS)
        while src >= _EPHEMERAL_SPAN:
            src = bits(_PORT_BITS)
        dst = bits(_PORT_BITS)
        while dst >= _EPHEMERAL_SPAN:
            dst = bits(_PORT_BITS)
        pair = (src + EPHEMERAL_LO, dst + EPHEMERAL_LO)
        if pair in used:
            continue
        used.add(pair)
        pairs.append(pair)
    return pairs


class ClientHandshake:
    """Connect-side state machine; lives on the engine that must own the flow.

    It ends when its winning SYN-ACK establishes the flow: it leaves the
    engine's table, and the flow keeps the final ACK. A retry SYN-ACK (our
    ACK was lost) is then answered by the flow, with the same ACK bytes."""

    def __init__(self, eng, handle, mode):
        self.eng = eng
        self.handle = handle
        self.mode = mode
        self.attempt = 1
        self.batch_size = 0
        self.sprayed = set()
        self.retry_timer = None

    def start(self, now):
        """Spray the first batch, sized from this host's engine count."""
        if self.mode == MODE_OPTIMIZED:
            self.batch_size = optimized_batch_size(self.eng.num_engines)
        else:
            self.batch_size = naive_batch_size(self.eng.num_engines)
        self._spray(now)

    def _spray(self, now):
        eng, handle = self.eng, self.handle
        flags = wire.FLAG_OPTIMIZED if self.mode == MODE_OPTIMIZED else 0
        payload = wire.pack_syn_payload(eng.num_engines, eng.engine_id)
        for src, dst in draw_udp_pairs(eng.rng, self.batch_size, self.sprayed):
            eng.emit(frame(handle, src, dst, wire.PKT_SYN, payload,
                           seq=self.attempt, flags=flags))
            eng.stats.syns_sent += 1
        self.retry_timer = eng.arm_timer(now + RETRY_TIMEOUT_US,
                                         self.on_timeout)

    def on_timeout(self, now):
        if self.attempt >= MAX_ATTEMPTS:
            self.eng.stats.handshake_failures += 1
            self.eng.client_handshakes.pop(self.handle.key, None)
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
        self.eng.client_handshakes.pop(self.handle.key, None)
        self.handle._settle(CLOSED)

    def on_synack(self, now, pkt):
        """The first well-formed SYN-ACK that steered here wins: it
        establishes the flow and ends the handshake."""
        eng = self.eng
        accepted = wire.unpack_synack_payload(pkt.payload)
        if accepted is None:
            eng.stats.synacks_discarded += 1
            return
        tx_src, tx_dst, _ = accepted  # the server's engine id is not kept
        handle = self.handle
        self.retry_timer.cancel()
        eng.client_handshakes.pop(handle.key, None)
        flow = eng.establish(handle, UdpPorts(tx_src, tx_dst),
                             UdpPorts(pkt.udp_src, pkt.udp_dst),
                             attempts=self.attempt)
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
        self.client_engines = client_engines
        self.attempts = 0
        self.accepted_pair = None  # client's UDP pair, as the client sent it
        self.replied_pairs = set()
        self.sprayed = set()
        self.last_client_attempt = 0
        self.retry_timer = None

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
            answered = self.accepted_pair is not None
            self.accepted_pair = pair
            if answered:
                self._emit_synack(pair.dst, pair.src)
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
        retry timer. Naive mode answers on the reversed accepted pair,
        optimized mode with a fresh spray."""
        self.attempts += 1
        if self.mode == MODE_NAIVE:
            pairs = [(self.accepted_pair.dst, self.accepted_pair.src)]
        else:
            pairs = draw_udp_pairs(
                self.eng.rng,
                min(optimized_batch_size(self.client_engines), BATCH_CAP),
                self.sprayed)
        for src, dst in pairs:
            self._emit_synack(src, dst)
        if self.retry_timer is not None:
            self.retry_timer.cancel()
        self.retry_timer = self.eng.arm_timer(now + RETRY_TIMEOUT_US,
                                              self.on_timeout)

    def _emit_synack(self, udp_src, udp_dst):
        eng = self.eng
        payload = wire.pack_synack_payload(
            self.accepted_pair.src, self.accepted_pair.dst, eng.engine_id)
        eng.emit(frame(self.handle, udp_src, udp_dst, wire.PKT_SYNACK,
                       payload, seq=self.attempts))
        eng.stats.synacks_sent += 1

    def on_timeout(self, now):
        """The final ACK never arrived: answer again so a half-open peer
        recovers."""
        if self.attempts >= MAX_ATTEMPTS:
            self.eng.server_handshakes.pop(self.handle.key, None)
            return
        self._spray_synacks(now)

    def on_ack(self, now, pkt):
        chosen = wire.unpack_ack_payload(pkt.payload)
        if chosen is None:
            self.eng.stats.rx_malformed += 1
            return
        if self.retry_timer is not None:
            self.retry_timer.cancel()
        # From here on the flow answers for this key; a late SYN or ACK
        # finds it in the engine's flow table.
        self.eng.server_handshakes.pop(self.handle.key, None)
        # Our TX direction uses the SYN-ACK pair the client confirmed; the
        # client's TX direction is whatever pair its ACK just arrived on.
        self.eng.establish(self.handle, UdpPorts(chosen[0], chosen[1]),
                           UdpPorts(pkt.udp_src, pkt.udp_dst))
