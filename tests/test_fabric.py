"""Simulated network: steering, fault injection, virtual time, determinism."""

import random

import pytest

from sidenet import wire
from sidenet.fabric import Fabric, FabricConfig
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


def test_byteswap_flag_changes_steering_but_stays_deterministic():
    plain = Fabric(FabricConfig(rng_seed=20))
    swapped = Fabric(FabricConfig(rng_seed=20, hash_byteswap=True))
    for fab in (plain, swapped):
        fab.add_host("10.0.0.2", 4)
    rng = random.Random(3)
    diffs = 0
    for _ in range(300):
        f = data_frame(sport=rng.randint(1024, 65535),
                       dport=rng.randint(1024, 65535))
        q1 = plain.steer("10.0.0.2", f)
        q2 = swapped.steer("10.0.0.2", f)
        assert q2 == swapped.steer("10.0.0.2", f)
        diffs += q1 != q2
    assert diffs > 0


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


def test_stack_modules_never_touch_steering_internals():
    """Structural opaqueness: no identifier in the stack proper names the
    fabric, the hash, or any steering state, so the stack cannot invert RSS
    even by accident. (Docstrings may describe the constraint; code may not
    reference it.)"""
    import ast
    import pathlib

    import sidenet

    src_dir = pathlib.Path(sidenet.__file__).parent
    stack_modules = ["nic.py", "wire.py", "handshake.py", "transport.py",
                     "engine.py", "channel.py", "stack.py"]
    banned = ("toeplitz", "rss", "indirection", "fabric", "steer", "reta")

    def names_in(tree):
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
                if len(node.value) < 40:  # catch getattr-style indirection
                    yield node.value

    for mod in stack_modules:
        tree = ast.parse((src_dir / mod).read_text())
        for name in names_in(tree):
            lowered = name.lower()
            for term in banned:
                assert term not in lowered, "%s references %r" % (mod, name)
