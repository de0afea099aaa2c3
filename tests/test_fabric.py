"""Simulated network: steering, fault injection, virtual time, determinism."""

import heapq
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidenet import wire
from sidenet.driver import Sim
from sidenet.fabric import ROUTE_CACHE_PAIRS, Fabric, FabricConfig
from sidenet.nic import QUEUE_DEPTH


def data_frame(src="10.0.0.1", dst="10.0.0.2", sport=40001, dport=40002, tag=0):
    return wire.build_frame(src, dst, sport, dport, wire.PKT_DATA, 1, 2,
                            payload=b"t%04d" % tag, seq=tag)


def two_host_fabric(**cfg_kwargs):
    fab = Fabric(FabricConfig(**cfg_kwargs))
    nic_a = fab.add_host("10.0.0.1", 1)
    nic_b = fab.add_host("10.0.0.2", 4)
    return fab, nic_a, nic_b


def test_single_queue_always_steers_to_zero():
    fab, nic_a, _ = two_host_fabric(rng_seed=3)
    for sport in range(41000, 41050):
        assert fab.steer("10.0.0.1", data_frame(dst="10.0.0.1", sport=sport)) == 0


def test_queue_count_is_bounded_by_the_indirection_table():
    """A queue past the 128-slot indirection table would get no frame, so a
    host with more queues is refused, through the fabric and the driver."""
    fab = Fabric(FabricConfig())
    with pytest.raises(ValueError):
        fab.add_host("10.0.0.1", 129)
    assert fab.add_host("10.0.0.1", 128).num_queues() == 128
    with pytest.raises(ValueError):
        Sim(FabricConfig()).add_stack("10.0.0.2", 129)


def test_steering_is_deterministic_per_tuple():
    fab, _, _ = two_host_fabric(rng_seed=4)
    f = data_frame(sport=45555, dport=46666)
    assert fab.steer("10.0.0.2", f) == fab.steer("10.0.0.2", f)


def test_steering_spreads_roughly_uniformly_and_is_affine():
    fab, _, _ = two_host_fabric(rng_seed=5)
    rng = random.Random(11)
    counts = [0, 0, 0, 0]
    trials = 10_000
    for _ in range(trials):
        f = data_frame(sport=rng.randint(1024, 65535),
                       dport=rng.randint(1024, 65535))
        queue = fab.steer("10.0.0.2", f)
        assert fab.steer("10.0.0.2", f) == queue  # per-tuple affinity
        counts[queue] += 1
    for c in counts:
        assert 0.15 * trials <= c <= 0.35 * trials, counts


def test_unparseable_frame_steers_to_queue_zero():
    fab, _, _ = two_host_fabric(rng_seed=6)
    assert fab.steer("10.0.0.2", b"\x00" * 60) == 0


def test_lossless_send_lands_in_exactly_one_rx_ring():
    fab, _, nic_b = two_host_fabric(rng_seed=7, loss_probability=0.0,
                                    base_delay_us=10)
    fab.send("10.0.0.1", data_frame())
    fab.advance(10)
    occupancy = [nic_b.rx_pending(q) for q in range(4)]
    assert sum(occupancy) == 1
    assert fab.stats.delivered == 1


def test_total_loss_never_delivers():
    fab, _, nic_b = two_host_fabric(rng_seed=8, loss_probability=1.0)
    for i in range(50):
        fab.send("10.0.0.1", data_frame(tag=i))
    fab.advance(10_000)
    assert fab.stats.delivered == 0
    assert fab.stats.lost == 50
    assert all(nic_b.rx_pending(q) == 0 for q in range(4))


def test_seeded_replay_is_bit_identical():
    def run(seed):
        fab, _, nic_b = two_host_fabric(rng_seed=seed, loss_probability=0.1,
                                        delay_jitter_us=7, base_delay_us=20,
                                        reorder_probability=0.2)
        for i in range(1000):
            fab.send("10.0.0.1", data_frame(tag=i))
            fab.advance(1)
        fab.advance(1000)
        received = []
        for q in range(4):
            received.extend(nic_b.rx_burst(q, QUEUE_DEPTH))
        return fab.stats.delivered, fab.stats.lost, b"".join(received)

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_advance_boundary_is_inclusive():
    fab, _, _ = two_host_fabric(rng_seed=9, base_delay_us=5)
    fab.send("10.0.0.1", data_frame())
    assert fab.advance(4) == 0
    assert fab.advance(1) == 1
    assert fab.advance(0) == 0


def test_advance_rejects_negative_delta():
    fab, _, _ = two_host_fabric(rng_seed=9)
    with pytest.raises(ValueError):
        fab.advance(-1)


def _patched(frame, offset, value):
    return frame[:offset] + bytes([value]) + frame[offset + 1:]


def test_unknown_destination_counts_unroutable():
    """Every frame the fabric cannot route is counted once and never
    delivered: short, non-IPv4, IP options (IHL != 5), non-UDP, or for an
    unregistered host."""
    fab, nic_a, nic_b = two_host_fabric(rng_seed=10)
    good = data_frame()
    bad = [
        b"\x00" * 20,
        good[:wire.ETH_HEADER_LEN + wire.IP_HEADER_LEN + wire.UDP_HEADER_LEN - 1],
        _patched(good, 12, 0x86),  # ethertype 0x8600, not IPv4
        _patched(good, 14, 0x46),  # IHL 6
        _patched(good, 23, 6),  # TCP
        data_frame(dst="10.9.9.9"),
    ]
    for frame in bad:
        fab.send("10.0.0.1", frame)
    fab.send("10.0.0.1", good)
    fab.advance(1000)
    assert fab.stats.dropped_unroutable == len(bad)
    assert fab.stats.delivered == 1
    assert sum(nic_b.rx_pending(q) for q in range(4)) == 1
    assert nic_a.rx_pending(0) == 0
    assert fab.conservation_ok()


def test_rx_ring_overflow_counts_host_side_drop():
    fab, _, nic_b = two_host_fabric(rng_seed=11, base_delay_us=1)
    # All frames share one tuple, hence one queue; overflow past 256.
    for i in range(QUEUE_DEPTH + 10):
        fab.send("10.0.0.1", data_frame(tag=i))
    fab.advance(5)
    assert fab.stats.dropped_ring_full == 10
    assert fab.stats.delivered == QUEUE_DEPTH
    assert fab.conservation_ok()


def test_route_cache_stays_bounded_and_steers_like_the_oracle():
    """Frames from more forged source addresses than the route cache keeps
    each land in the RX queue the steering oracle names, and the cache
    never holds more than ROUTE_CACHE_PAIRS address pairs."""
    fab, _, nic_b = two_host_fabric(rng_seed=14, base_delay_us=1)
    for i in range(ROUTE_CACHE_PAIRS + 500):
        src = "10.%d.%d.%d" % (i >> 16 & 255, i >> 8 & 255, i & 255)
        frame = data_frame(src=src, sport=40000 + i % 50, tag=i % 100)
        want = fab.steer("10.0.0.2", frame)
        fab.send(src, frame)
        fab.advance(1)
        assert nic_b.rx_burst(want, 1) == [frame]
        assert len(fab._routes) <= ROUTE_CACHE_PAIRS
    assert fab.stats.delivered == ROUTE_CACHE_PAIRS + 500


def test_conservation_identity_under_faults():
    fab, _, nic_b = two_host_fabric(rng_seed=12, loss_probability=0.2,
                                    reorder_probability=0.1, delay_jitter_us=9)
    rng = random.Random(2)
    for i in range(2000):
        fab.send("10.0.0.1", data_frame(sport=rng.randint(32768, 60999),
                                        dport=rng.randint(32768, 60999),
                                        tag=i % 100))
        if i % 5 == 0:
            fab.advance(3)
        for q in range(4):
            nic_b.rx_burst(q, 8)  # keep rings from overflowing
    s = fab.stats
    assert s.sent == 2000
    assert fab.conservation_ok()
    fab.advance(1000)
    assert fab.in_flight() == 0
    assert fab.conservation_ok()


def test_reordering_swaps_adjacent_deliveries():
    def order(reorder_p):
        fab, _, nic_b = two_host_fabric(rng_seed=13, base_delay_us=10,
                                        reorder_probability=reorder_p)
        for i in range(100):
            fab.send("10.0.0.1", data_frame(tag=i))
        fab.advance(100)
        seqs = []
        for q in range(4):
            for f in nic_b.rx_burst(q, QUEUE_DEPTH):
                seqs.append(wire.parse_frame(f).seq)
        return seqs

    assert order(0.0) != order(0.9)
    assert sorted(order(0.9)) == list(range(100))


def test_explicit_key_must_be_40_bytes():
    with pytest.raises(ValueError):
        FabricConfig(rss_key=b"short")
    with pytest.raises(ValueError):
        FabricConfig(loss_probability=1.5)


def test_key_and_table_are_not_public_surface():
    fab = Fabric(FabricConfig(rng_seed=1))
    forbidden = ("key", "indirection", "table", "toeplitz", "hasher")
    for name in dir(fab):
        if name.startswith("_"):
            continue
        lowered = name.lower()
        for bad in forbidden:
            assert bad not in lowered, "fabric leaks %r" % name


def _names_in(module):
    """Every identifier in a sidenet module's code: names, attributes,
    imports, and short string constants (getattr-style indirection).
    Docstrings and other long strings are exempt."""
    import ast
    import pathlib

    import sidenet

    tree = ast.parse((pathlib.Path(sidenet.__file__).parent / module)
                     .read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if len(node.value) < 40:
                yield node.value


def test_stack_modules_never_touch_steering_internals():
    """Structural opaqueness: no identifier in the stack proper names the
    fabric, the hash, or any steering state, so the stack cannot invert RSS
    even by accident. (Docstrings may describe the constraint; code may not
    reference it.)"""
    stack_modules = ["nic.py", "wire.py", "handshake.py", "transport.py",
                     "engine.py", "channel.py", "stack.py"]
    banned = ("toeplitz", "rss", "indirection", "fabric", "steer", "reta")
    for mod in stack_modules:
        for name in _names_in(mod):
            lowered = name.lower()
            for term in banned:
                assert term not in lowered, "%s references %r" % (mod, name)


def test_device_side_never_touches_an_engine():
    """The reverse audit: the NIC and the fabric only fill rings. Nothing
    in their code names an engine's wake flag, its ready instant or a
    queue's owner, so each engine must poll its own RX ring."""
    for mod in ("nic.py", "fabric.py"):
        for name in _names_in(mod):
            assert name not in ("wake", "owner", "ready_at"), (
                "%s references %r" % (mod, name))


class _KeyedEvent:
    __slots__ = ("due", "order", "frame", "nic", "queue", "done")

    def __init__(self, due, order, frame, nic, queue):
        self.due = due
        self.order = order
        self.frame = frame
        self.nic = nic
        self.queue = queue
        self.done = False


class KeySwappingFabric(Fabric):
    """Reference scheduler: a reorder swaps the schedule keys of the two
    adjacent events and pushes the older one again, leaving a stale heap
    entry that every reader skips. It routes by the decoded four-tuple,
    steers through `steer` (the bit-serial reference hash), takes TX rings
    one send per frame, and delivers through each NIC's single-frame
    `_deliver`; the fault draws come from the fabric's seeded stream in
    the same order."""

    def __init__(self, config):
        super().__init__(config)
        self._push_id = 0
        self._nics = {}

    def add_host(self, ip, num_queues):
        nic = super().add_host(ip, num_queues)
        self._nics[ip] = nic
        return nic

    def collect_tx(self):
        moved = 0
        for ip, nic in self._nics.items():
            for queue in nic._queues:
                while queue.tx:
                    self.send(ip, queue.tx.popleft())
                    moved += 1
        return moved

    def send(self, src_ip, frame):
        cfg = self._cfg
        self.stats.sent += 1
        tup = wire.extract_four_tuple(frame)
        nic = None if tup is None else self._nics.get(tup[1])
        if nic is None:
            self.stats.dropped_unroutable += 1
            return
        if self._tap is not None and self._tap(frame):
            self.stats.lost += 1
            return
        if self._rng.random() < cfg.loss_probability:
            self.stats.lost += 1
            return
        delay = cfg.base_delay_us
        if cfg.delay_jitter_us:
            delay += self._rng.randint(-cfg.delay_jitter_us, cfg.delay_jitter_us)
        self._seq += 1
        event = _KeyedEvent(self.clock.now + max(0, delay), self._seq, frame,
                            nic, self.steer(tup[1], frame))
        if cfg.reorder_probability:
            prev = self._last_pending
            if (prev is not None and not prev.done
                    and self._rng.random() < cfg.reorder_probability):
                prev.due, event.due = event.due, prev.due
                prev.order, event.order = event.order, prev.order
                self._push(prev)
        self._push(event)
        self._last_pending = event

    def _push(self, event):
        self._push_id += 1
        heapq.heappush(self._heap, (event.due, event.order, self._push_id, event))

    def _stale(self, entry):
        due, order, _, event = entry
        return event.done or (due, order) != (event.due, event.order)

    def next_event_time(self):
        heap = self._heap
        while heap:
            if self._stale(heap[0]):
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def advance_to(self, t):
        delivered = 0
        heap = self._heap
        while heap and heap[0][0] <= t:
            entry = heapq.heappop(heap)
            if self._stale(entry):
                continue
            event = entry[3]
            event.done = True
            if event.nic._deliver(event.queue, event.frame):
                self.stats.delivered += 1
            else:
                self.stats.dropped_ring_full += 1
            delivered += 1
        self.clock.advance_to(t)
        return delivered

    def in_flight(self):
        live = {id(e[3]) for e in self._heap if not e[3].done}
        return len(live)


_HOSTS = (("10.0.0.1", 1), ("10.0.0.2", 4), ("10.0.0.3", 3))
_NOWHERE = "10.9.9.9"


class _RecordingRing(deque):
    """An RX ring that logs each frame put into it as (clock before the
    advance, host, queue, frame), after `filler` frames it does not log."""

    def __init__(self, log, fab, ip, queue, filler):
        super().__init__(filler)
        self._log = log
        self._fab = fab
        self._where = (ip, queue)

    def append(self, frame):
        self._log.append((self._fab.now,) + self._where + (frame,))
        super().append(frame)


def _logged_fabric(cls, cfg, drop_tag, headroom):
    """A fabric over the three hosts whose RX rings log every delivery.
    With a headroom, each ring starts that many frames short of full, so
    ring-full drops come early."""
    fab = cls(cfg)
    log = []
    nics = []
    filler = [] if headroom is None else [b""] * (QUEUE_DEPTH - headroom)
    for ip, queues in _HOSTS:
        nic = fab.add_host(ip, queues)
        for q, queue in enumerate(nic._queues):
            queue.rx = _RecordingRing(log, fab, ip, q, filler)
        nics.append(nic)
    if drop_tag is not None:
        fab._tap = lambda frame: frame[-1] % 8 == drop_tag
    return fab, log, nics


_ips = st.sampled_from([ip for ip, _ in _HOSTS])
_frames = (_ips, _ips | st.just(_NOWHERE), st.integers(40000, 40063),
           st.integers(40000, 40003), st.integers(1, 6))
_sends = st.tuples(st.just("send"), *_frames)
# Frames put on a TX ring of the source host (queue index taken modulo its
# queue count), for a later collect_tx.
_tx_bursts = st.tuples(st.just("tx"), *_frames, st.integers(0, 3))
_collects = st.tuples(st.just("collect"))
_advances = st.tuples(st.just("advance"), st.integers(0, 40))
_to_next = st.tuples(st.just("next"))


@settings(max_examples=300)
@given(seed=st.integers(0, 2**16),
       loss=st.sampled_from([0.0, 0.05, 0.3]),
       reorder=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       jitter=st.integers(0, 30),
       base=st.integers(0, 30),
       drop_tag=st.none() | st.integers(0, 7),
       headroom=st.none() | st.integers(0, 12),
       ops=st.lists(st.one_of(_sends, _tx_bursts, _collects, _advances,
                              _to_next), max_size=60))
def test_fabric_matches_key_swapping_reference(seed, loss, reorder, jitter,
                                               base, drop_tag, headroom, ops):
    """The fabric delivers the same frames to the same host and queue at the
    same instants as the reference, with equal fabric stats, per-queue
    counters (ring-full drops included), in-flight count and next event
    time after every step, whether frames enter by send or by collect_tx."""
    cfg = dict(rng_seed=seed, loss_probability=loss,
               reorder_probability=reorder, delay_jitter_us=jitter,
               base_delay_us=base)
    fab, got, fab_nics = _logged_fabric(Fabric, FabricConfig(**cfg), drop_tag,
                                        headroom)
    ref, want, ref_nics = _logged_fabric(KeySwappingFabric,
                                         FabricConfig(**cfg), drop_tag,
                                         headroom)
    tag = 0
    for op in ops + [("collect",), ("advance", 10_000)]:
        for f, nics in ((fab, fab_nics), (ref, ref_nics)):
            if op[0] in ("send", "tx"):
                src, dst, sport, dport, burst = op[1:6]
                frames = [data_frame(src, dst, sport, dport, tag + i)
                          for i in range(burst)]
                if op[0] == "send":
                    for frame in frames:
                        f.send(src, frame)
                else:
                    nic = nics[[ip for ip, _ in _HOSTS].index(src)]
                    nic.tx_burst(op[6] % nic.num_queues(), frames)
            elif op[0] == "collect":
                f.collect_tx()
            elif op[0] == "advance":
                f.advance(op[1])
            elif f.next_event_time() is not None:
                f.advance_to(f.next_event_time())
        if op[0] in ("send", "tx"):
            tag += op[5]
        assert got == want
        assert fab.stats == ref.stats
        assert ([n.queue_stats for n in fab_nics]
                == [n.queue_stats for n in ref_nics])
        assert fab.in_flight() == ref.in_flight()
        assert fab.next_event_time() == ref.next_event_time()
        assert fab.now == ref.now
        assert fab.conservation_ok()
    assert fab.in_flight() == 0


@pytest.mark.parametrize("jitter", [1, 5, 10])
def test_jitter_draws_equal_randint(jitter):
    """Each frame's delay is base + randint(-jitter, jitter), drawn after the
    loss draw from the fabric's own seeded stream."""
    seed, base = 17, 20
    fab = Fabric(FabricConfig(rng_seed=seed, base_delay_us=base,
                              delay_jitter_us=jitter))
    fab.add_host("10.0.0.2", 1)
    frame = data_frame()
    for _ in range(10_000):
        fab.send("10.0.0.1", frame)
    got = [due - base for due, _, _ in sorted(fab._heap, key=lambda e: e[1])]
    ref = random.Random("fabric/%d" % seed)
    want = []
    for _ in range(10_000):
        ref.random()  # the loss draw
        want.append(ref.randint(-jitter, jitter))
    assert got == want
