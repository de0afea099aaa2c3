"""Device-model contract: 256-slot rings, FIFO, and the frozen feature set."""

import inspect

import pytest

from sidenet import wire
from sidenet.fabric import Fabric, FabricConfig
from sidenet.nic import MIN_FRAME_LEN, Nic, QUEUE_DEPTH


def make_nic(queues=1):
    return Nic(queues)


def frame(tag=0, size=80):
    return wire.build_frame("10.0.0.1", "10.0.0.2", 1000 + tag, 2000,
                            wire.PKT_DATA, 1, 2, payload=b"z" * (size - 74))


def test_queue_depth_is_pinned_at_256():
    assert QUEUE_DEPTH == 256
    for field in ("queue_depth", "mtu"):
        with pytest.raises(TypeError):
            Nic(1, **{field: 512})


def test_num_queues_reported_and_bounded():
    for n in (1, 4, 8):
        assert make_nic(n).num_queues() == n
    with pytest.raises(ValueError):
        Nic(0)
    assert list(inspect.signature(Nic).parameters) == ["num_queues"]


def test_tx_burst_with_room_takes_everything():
    nic = make_nic()
    assert nic.tx_burst(0, [frame()]) == 1


def test_tx_burst_capped_by_ring_depth():
    nic = make_nic()
    assert nic.tx_burst(0, [frame(i) for i in range(300)]) == 256


def test_tx_burst_partial_fill():
    nic = make_nic()
    assert nic.tx_burst(0, [frame(i) for i in range(250)]) == 250
    assert nic.tx_burst(0, [frame(300 + i) for i in range(10)]) == 6


def test_tx_burst_stops_at_oversized_frame():
    nic = make_nic()
    frames = [frame(0), frame(1), b"\x00" * (wire.MTU + 1), frame(2)]
    assert nic.tx_burst(0, frames) == 2
    assert nic.tx_burst(0, [b"\x00" * (MIN_FRAME_LEN - 1)]) == 0


def test_rx_burst_empty_returns_nothing():
    nic = make_nic()
    assert nic.rx_burst(0, 32) == []


def test_rx_burst_fifo_and_drain_across_calls():
    nic = make_nic()
    frames = [frame(i) for i in range(5)]
    nic._bind(0).rx.extend(frames)
    assert nic.rx_burst(0, 3) == frames[:3]
    assert nic.rx_burst(0, 32) == frames[3:]
    assert nic.rx_burst(0, 32) == []


def test_invalid_queue_is_a_hard_error():
    nic = make_nic(2)
    with pytest.raises(IndexError):
        nic.tx_burst(2, [frame()])
    with pytest.raises(IndexError):
        nic.rx_burst(-1, 1)
    with pytest.raises(ValueError):
        nic.rx_burst(0, 0)


def test_rx_ring_full_drops_silently_with_counter():
    """Frames reach an RX ring only through the fabric; one past a full
    ring is dropped and counted on the queue, and the ring keeps 256."""
    fab = Fabric(FabricConfig(rng_seed=1, base_delay_us=1))
    fab.add_host("10.0.0.1", 1)
    nic = fab.add_host("10.0.0.2", 1)
    for i in range(QUEUE_DEPTH + 1):
        fab.send(frame(i % 100))
    fab.advance(5)
    assert nic.queue_stats[0].rx_overflow_drops == 1
    assert nic.rx_pending(0) == QUEUE_DEPTH


def test_public_surface_has_no_forbidden_knobs():
    """The device model must expose no RSS, steering, or DMA controls."""
    forbidden = ("rss", "key", "indirection", "steer", "redirect", "dma",
                 "register_memory", "flow_rule", "filter", "coalesce",
                 "reta", "hash")
    surface = [name for name in dir(Nic) if not name.startswith("_")]
    for name in surface:
        lowered = name.lower()
        for bad in forbidden:
            assert bad not in lowered, "NIC surface leaks %r" % name
    expected = {"tx_burst", "rx_burst", "num_queues", "rx_pending",
                "queue_stats"}
    nic = make_nic()
    public_attrs = {n for n in dir(nic) if not n.startswith("_")}
    assert public_attrs == expected
