"""Hash checks against an independent bit-serial reference.

The reference below walks the key as an explicit bit list and was validated
against the published Microsoft RSS verification vectors before the package
implementation existed; the frozen values in this file came out of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sidenet import wire
from sidenet.fabric import Fabric, FabricConfig, FourTuple, toeplitz_hash
from sidenet import toeplitz
from sidenet.toeplitz import ToeplitzHasher


def reference_hash(key, data):
    """Bit-serial oracle: shift a 32-bit window across an explicit bit list."""
    key_bits = []
    for b in key:
        for i in range(8):
            key_bits.append((b >> (7 - i)) & 1)
    result = 0
    for byte_idx, byte in enumerate(data):
        for bit in range(8):
            if (byte >> (7 - bit)) & 1:
                off = byte_idx * 8 + bit
                window = 0
                for j in range(32):
                    window = (window << 1) | key_bits[off + j]
                result ^= window
    return result


MS_KEY = bytes([
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
    0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
    0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
])

# (src ip, src port, dst ip, dst port) -> published hash over the 4-tuple.
MS_VECTORS = [
    ("66.9.149.187", 2794, "161.142.100.80", 1766, 0x51ccc178),
    ("199.92.111.2", 14230, "65.69.140.83", 4739, 0xc626b0ea),
    ("24.19.198.95", 12898, "12.22.207.184", 38024, 0x5c2b394a),
    ("38.27.205.30", 48228, "209.142.163.6", 2217, 0xafc7327f),
    ("153.39.163.191", 44251, "202.188.127.2", 1303, 0x10e828a2),
]

SYNTH_KEY = bytes(range(1, 41))

# Frozen from the reference implementation.
SYNTH_VECTORS = [
    ("10.0.0.1", 32768, "10.0.0.2", 40000, 0xd2BDC1C9),
    ("192.168.1.17", 53124, "172.16.254.3", 60999, 0xB9216497),
    ("10.1.2.3", 1, "10.3.2.1", 65535, 0x3EB9C436),
]


def test_reference_matches_published_vectors():
    for src, sp, dst, dp, want in MS_VECTORS:
        data = FourTuple(src, dst, sp, dp).pack()
        assert reference_hash(MS_KEY, data) == want


def test_implementation_matches_published_vectors():
    hasher = ToeplitzHasher(MS_KEY)
    for src, sp, dst, dp, want in MS_VECTORS:
        assert toeplitz_hash(MS_KEY, FourTuple(src, dst, sp, dp)) == want
        assert hasher.hash_bytes(FourTuple(src, dst, sp, dp).pack()) == want


def test_frozen_synthetic_vectors():
    for src, sp, dst, dp, want in SYNTH_VECTORS:
        assert toeplitz_hash(SYNTH_KEY, FourTuple(src, dst, sp, dp)) == want


def test_all_zero_tuple_hashes_to_zero():
    assert toeplitz_hash(MS_KEY, FourTuple("0.0.0.0", "0.0.0.0", 0, 0)) == 0


def test_all_zero_key_hashes_to_zero():
    assert toeplitz_hash(bytes(40), FourTuple("1.2.3.4", "5.6.7.8", 9, 10)) == 0


@settings(max_examples=300, deadline=None)
@given(key=st.binary(min_size=40, max_size=40),
       data=st.binary(min_size=12, max_size=12))
def test_table_hasher_agrees_with_reference(key, data):
    """The fabric's split: the hash of the 8 address bytes (with zero
    ports) XOR the four port-row lookups is the hash of all 12 bytes."""
    r8, r9, r10, r11 = toeplitz.port_rows(key)
    split = (toeplitz.toeplitz_hash(key, data[:8] + bytes(4))
             ^ r8[data[8]] ^ r9[data[9]] ^ r10[data[10]] ^ r11[data[11]])
    assert split == toeplitz.toeplitz_hash(key, data)
    assert split == reference_hash(key, data)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32),
       src=st.binary(min_size=4, max_size=4),
       ports=st.tuples(st.integers(0, 65535), st.integers(0, 65535)))
def test_fabric_steering_agrees_with_reference(seed, src, ports):
    """With one queue per indirection entry, the queue a frame steers and
    is delivered to is the reference hash, under the key the fabric drew
    from its seed, mod 128."""
    fab = Fabric(FabricConfig(rng_seed=seed))
    key = fab._key
    nic = fab.add_host("10.0.0.2", 128)
    src_ip = wire.unpack_ip(src)
    frame = wire.build_frame(src_ip, "10.0.0.2", ports[0], ports[1],
                             wire.PKT_DATA, 1, 2)
    want = reference_hash(key, FourTuple(src_ip, "10.0.0.2", *ports).pack())
    assert fab.steer("10.0.0.2", frame) == want % 128
    fab.send(frame)
    fab.advance(FabricConfig.base_delay_us)
    assert nic.rx_pending(want % 128) == 1


def test_hasher_rejects_bad_shapes():
    import pytest

    with pytest.raises(ValueError):
        ToeplitzHasher(b"short")
    with pytest.raises(ValueError):
        ToeplitzHasher(bytes(40)).hash_bytes(b"123")
