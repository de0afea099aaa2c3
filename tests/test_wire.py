"""Wire format: golden byte layouts built field by field, plus roundtrips."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from sidenet import wire


def golden_data_frame():
    """Hand-assembled expected bytes for a small DATA frame, written from the
    documented layout rather than through the codec under test."""
    eth = (bytes([0x02, 0x00, 10, 0, 0, 2])      # destination MAC
           + bytes([0x02, 0x00, 10, 0, 0, 1])    # source MAC
           + (0x0800).to_bytes(2, "big"))
    payload = b"hello"
    udp_len = 8 + 32 + len(payload)
    ip = (bytes([0x45, 0x00])
          + (20 + udp_len).to_bytes(2, "big")
          + bytes([0, 0, 0, 0])                  # id, flags/frag
          + bytes([64, 17])                      # ttl, proto=UDP
          + bytes([0, 0])                        # checksum zero (no offloads)
          + bytes([10, 0, 0, 1]) + bytes([10, 0, 0, 2]))
    udp = ((40001).to_bytes(2, "big") + (40002).to_bytes(2, "big")
           + udp_len.to_bytes(2, "big") + bytes([0, 0]))
    hdr = ((0x4D4E).to_bytes(2, "big")           # magic "MN"
           + bytes([0x01])                       # version
           + bytes([4])                          # DATA
           + (700).to_bytes(2, "big")            # flow src port
           + (80).to_bytes(2, "big")             # flow dst port
           + (9).to_bytes(4, "big")              # seq
           + (0).to_bytes(4, "big")              # ack
           + (3).to_bytes(4, "big")              # msg id
           + (1408).to_bytes(4, "big")           # frag offset
           + (1413).to_bytes(4, "big")           # msg len
           + (0x0001).to_bytes(2, "big")         # flags: last fragment
           + bytes([0, 0]))                      # reserved
    return eth + ip + udp + hdr + payload


def test_data_frame_matches_golden_bytes():
    built = wire.build_frame(
        "10.0.0.1", "10.0.0.2", 40001, 40002, wire.PKT_DATA, 700, 80,
        payload=b"hello", seq=9, msg_id=3, frag_offset=1408, msg_len=1413,
        flags=wire.FLAG_LAST_FRAGMENT)
    assert built == golden_data_frame()


def test_header_is_32_bytes_and_frame_fits_mtu():
    frame = wire.build_frame("10.0.0.1", "10.0.0.2", 1, 2, wire.PKT_DATA,
                             1, 2, payload=b"x" * wire.FRAGMENT_PAYLOAD)
    assert wire.HEADER_LEN == 32
    assert len(frame) == 14 + 20 + 8 + 32 + wire.FRAGMENT_PAYLOAD
    assert len(frame) <= wire.MTU


def test_parse_roundtrip():
    frame = wire.build_frame(
        "192.168.7.9", "172.16.0.5", 54321, 33333, wire.PKT_SACK, 11, 22,
        payload=b"\x00\x01abc", seq=5, ack=17, msg_id=2, frag_offset=99,
        msg_len=100, flags=wire.FLAG_OPTIMIZED)
    pkt = wire.parse_frame(frame)
    assert pkt is not None
    assert pkt.src_ip == "192.168.7.9"
    assert (pkt.udp_src, pkt.udp_dst) == (54321, 33333)
    assert pkt.pkt_type == wire.PKT_SACK
    assert (pkt.flow_src, pkt.flow_dst) == (11, 22)
    assert (pkt.seq, pkt.ack, pkt.msg_id) == (5, 17, 2)
    assert (pkt.frag_offset, pkt.msg_len) == (99, 100)
    assert pkt.flags == wire.FLAG_OPTIMIZED
    assert pkt.payload == b"\x00\x01abc"


def test_four_tuple_extraction():
    frame = wire.build_frame("1.2.3.4", "5.6.7.8", 1111, 2222,
                             wire.PKT_SYN, 1, 2)
    assert wire.extract_four_tuple(frame) == ("1.2.3.4", "5.6.7.8", 1111, 2222)


def test_malformed_frames_rejected():
    assert wire.parse_frame(b"") is None
    assert wire.parse_frame(b"\x00" * 40) is None
    good = wire.build_frame("1.2.3.4", "5.6.7.8", 1, 2, wire.PKT_SYN, 1, 2)
    # Corrupt the magic.
    bad_magic = bytearray(good)
    bad_magic[42] ^= 0xFF
    assert wire.parse_frame(bytes(bad_magic)) is None
    # Corrupt the version.
    bad_version = bytearray(good)
    bad_version[44] ^= 0xFF
    assert wire.parse_frame(bytes(bad_version)) is None
    # Non-UDP protocol byte.
    bad_proto = bytearray(good)
    bad_proto[23] = 6
    assert wire.parse_frame(bytes(bad_proto)) is None


def test_handshake_payload_codecs():
    assert wire.unpack_syn_payload(wire.pack_syn_payload(8, 3)) == (8, 3)
    assert wire.unpack_synack_payload(
        wire.pack_synack_payload(40001, 40002, 5)) == (40001, 40002, 5)
    assert wire.unpack_ack_payload(wire.pack_ack_payload(1, 2)) == (1, 2)
    assert wire.unpack_syn_payload(b"") is None


def test_sack_payload_codec():
    ranges = [(3, 5), (9, 12), (40, 41)]
    assert wire.unpack_sack_payload(wire.pack_sack_payload(ranges)) == ranges
    assert wire.unpack_sack_payload(wire.pack_sack_payload([])) == []


def test_sack_payload_layout():
    raw = wire.pack_sack_payload([(7, 9)])
    assert raw == struct.pack(">HII", 1, 7, 9)


def _golden_fixture_frames():
    import pathlib

    text = (pathlib.Path(__file__).parent / "golden_frames.txt").read_text()
    frames, name, chunks = {}, None, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if name:
                frames[name] = bytes.fromhex("".join(chunks))
            name, chunks = line[1:-1], []
        else:
            chunks.append(line)
    frames[name] = bytes.fromhex("".join(chunks))
    return frames


def test_every_frame_type_matches_its_golden_capture():
    golden = _golden_fixture_frames()
    built = {
        "syn": wire.build_frame(
            "10.0.0.1", "10.0.0.2", 33001, 44002, wire.PKT_SYN, 32768, 80,
            payload=wire.pack_syn_payload(4, 2), seq=1,
            flags=wire.FLAG_OPTIMIZED),
        "synack": wire.build_frame(
            "10.0.0.2", "10.0.0.1", 35000, 36000, wire.PKT_SYNACK, 80, 32768,
            payload=wire.pack_synack_payload(33001, 44002, 5), seq=1),
        "ack": wire.build_frame(
            "10.0.0.1", "10.0.0.2", 33001, 44002, wire.PKT_ACK, 32768, 80,
            payload=wire.pack_ack_payload(35000, 36000), seq=1),
        "data": wire.build_frame(
            "10.0.0.1", "10.0.0.2", 33001, 44002, wire.PKT_DATA, 32768, 80,
            payload=b"hello", seq=9, msg_id=3, frag_offset=1408,
            msg_len=1413, flags=wire.FLAG_LAST_FRAGMENT),
        "sack": wire.build_frame(
            "10.0.0.2", "10.0.0.1", 35000, 36000, wire.PKT_SACK, 80, 32768,
            payload=wire.pack_sack_payload([(3, 5), (9, 12)]), ack=3),
        "fin": wire.build_frame(
            "10.0.0.1", "10.0.0.2", 33001, 44002, wire.PKT_FIN, 32768, 80),
    }
    assert set(built) == set(golden)
    for name, frame in built.items():
        assert frame == golden[name], "wire break in %s frame" % name


# Reference codec: the field-by-field packer and decoder the wire module
# used before it packed and unpacked each frame's headers in one call. The
# fast path must agree with them on every input.

_REF_ETH = struct.Struct(">6s6sH")
_REF_IP = struct.Struct(">BBHHHBBH4s4s")
_REF_UDP = struct.Struct(">HHHH")
_REF_HDR = struct.Struct(">HBBHHIIIIIHH")


def _ref_pack_ip(dotted):
    return bytes(int(x) for x in dotted.split("."))


def reference_build(src_ip, dst_ip, udp_src, udp_dst, pkt_type, flow_src,
                    flow_dst, payload=b"", seq=0, ack=0, msg_id=0,
                    frag_offset=0, msg_len=0, flags=0):
    hdr = _REF_HDR.pack(wire.MAGIC, wire.VERSION, pkt_type, flow_src,
                        flow_dst, seq, ack, msg_id, frag_offset, msg_len,
                        flags, 0)
    udp_len = 8 + 32 + len(payload)
    udp = _REF_UDP.pack(udp_src, udp_dst, udp_len, 0)
    ip = _REF_IP.pack(0x45, 0, 20 + udp_len, 0, 0, 64, 17, 0,
                      _ref_pack_ip(src_ip), _ref_pack_ip(dst_ip))
    eth = _REF_ETH.pack(b"\x02\x00" + _ref_pack_ip(dst_ip),
                        b"\x02\x00" + _ref_pack_ip(src_ip), 0x0800)
    return eth + ip + udp + hdr + payload


def reference_four_tuple(frame):
    if len(frame) < 14 + 20 + 8:
        return None
    if _REF_ETH.unpack_from(frame, 0)[2] != 0x0800:
        return None
    vihl, _, _, _, _, _, proto, _, src, dst = _REF_IP.unpack_from(frame, 14)
    if vihl != 0x45 or proto != 17:
        return None
    sp, dp, _, _ = _REF_UDP.unpack_from(frame, 34)
    return "%d.%d.%d.%d" % tuple(src), "%d.%d.%d.%d" % tuple(dst), sp, dp


def reference_parse(frame):
    """Field tuple of a frame the stack accepts, else None."""
    four = reference_four_tuple(frame)
    if four is None or len(frame) < 42 + 32:
        return None
    (magic, version, pkt_type, flow_src, flow_dst, seq, ack, msg_id,
     frag_offset, msg_len, flags, _) = _REF_HDR.unpack_from(frame, 42)
    if magic != wire.MAGIC or version != wire.VERSION:
        return None
    return four[:1] + four[2:] + (pkt_type, flow_src, flow_dst, seq, ack,
                                  msg_id, frag_offset, msg_len, flags,
                                  bytes(frame[74:]))


def _fields(pkt):
    return (pkt.src_ip, pkt.udp_src, pkt.udp_dst, pkt.pkt_type,
            pkt.flow_src, pkt.flow_dst, pkt.seq, pkt.ack, pkt.msg_id,
            pkt.frag_offset, pkt.msg_len, pkt.flags, pkt.payload)


_ips = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda q: "%d.%d.%d.%d" % q)
_u8 = st.integers(0, 0xFF)
_u16 = st.integers(0, 0xFFFF)
_u32 = st.integers(0, 0xFFFFFFFF)


@st.composite
def frame_fields(draw, max_payload=wire.FRAGMENT_PAYLOAD):
    """Positional and keyword arguments of build_frame, every field over its
    full range."""
    args = (draw(_ips), draw(_ips), draw(_u16), draw(_u16), draw(_u8),
            draw(_u16), draw(_u16))
    kwargs = dict(payload=draw(st.binary(max_size=max_payload)),
                  seq=draw(_u32), ack=draw(_u32), msg_id=draw(_u32),
                  frag_offset=draw(_u32), msg_len=draw(_u32),
                  flags=draw(_u16))
    return args, kwargs


@settings(max_examples=300)
@given(frame_fields())
def test_build_frame_matches_reference_packer(fields):
    args, kwargs = fields
    frame = wire.build_frame(*args, **kwargs)
    assert frame == reference_build(*args, **kwargs)
    assert type(frame) is bytes


# Ethernet type, IPv4 version/IHL, IP protocol, magic and version.
_TESTED_BYTES = (12, 13, 14, 23, 42, 43, 44)


@st.composite
def received_frames(draw):
    """Arbitrary bytes, or a valid frame with up to six bytes overwritten
    (in the headers, often a byte the parser tests) and maybe cut short."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    args, kwargs = draw(frame_fields(max_payload=32))
    frame = bytearray(reference_build(*args, **kwargs))
    where = st.sampled_from(_TESTED_BYTES) | st.integers(0, 90)
    for at, value in draw(st.lists(st.tuples(where, _u8), max_size=6)):
        frame[at % len(frame)] = value
    cut = draw(st.none() | st.integers(0, 100))
    return bytes(frame if cut is None else frame[:cut])


@settings(max_examples=500)
@given(received_frames())
def test_parse_frame_agrees_with_reference_decoder(frame):
    assert wire.extract_four_tuple(frame) == reference_four_tuple(frame)
    want = reference_parse(frame)
    pkt = wire.parse_frame(frame)
    if want is None:
        assert pkt is None
    else:
        assert pkt is not None
        assert _fields(pkt) == want
        assert type(pkt.payload) is bytes


def test_parse_frame_checks_each_header_byte_it_depends_on():
    """Each of the bytes parse_frame tests rejects the frame when changed,
    and the reference agrees."""
    good = wire.build_frame("10.1.2.3", "10.3.2.1", 40001, 40002,
                            wire.PKT_DATA, 7, 8, payload=b"x")
    assert wire.parse_frame(good) is not None
    for at in _TESTED_BYTES:
        bad = bytearray(good)
        bad[at] ^= 0x01
        assert wire.parse_frame(bytes(bad)) is None, at
        assert reference_parse(bytes(bad)) is None, at
    assert wire.parse_frame(good[:73]) is None
    assert wire.parse_frame(good[:74]) is not None
