"""On-wire packet formats.

Every frame the stack emits is a plain Ethernet/IPv4/UDP packet whose UDP
payload starts with a fixed 32-byte transport header. The UDP ports are
steering entropy only; the header's own 16-bit flow ports identify the flow
end to end. Layouts are bit-exact and documented in docs/wire.md.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

MTU = 1514
ETH_HEADER_LEN = 14
IP_HEADER_LEN = 20
UDP_HEADER_LEN = 8
HEADER_LEN = 32

# Fixed fragment payload size; 14 + 20 + 8 + 32 + 1408 = 1482 <= MTU.
FRAGMENT_PAYLOAD = 1408
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

MAGIC = 0x4D4E
VERSION = 1

PKT_SYN = 1
PKT_SYNACK = 2
PKT_ACK = 3
PKT_DATA = 4
PKT_SACK = 5
PKT_FIN = 6
PKT_FINACK = 7

# Header flags.
FLAG_LAST_FRAGMENT = 0x0001
FLAG_OPTIMIZED = 0x0002  # on SYN: sender runs the reduced-spray handshake

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17

_ETH = struct.Struct(">6s6sH")
_IP = struct.Struct(">BBHHHBBH4s4s")
_UDP = struct.Struct(">HHHH")
# magic, version, pkt_type, flow_src, flow_dst, seq, ack, msg_id,
# frag_offset, msg_len, flags, reserved
_HDR = struct.Struct(">HBBHHIIIIIHH")

assert _HDR.size == HEADER_LEN

_SYN_PAYLOAD = struct.Struct(">HH")  # engine count, engine id
_SYNACK_PAYLOAD = struct.Struct(">HHH")  # accepted SYN udp src/dst, engine id
_ACK_PAYLOAD = struct.Struct(">HH")  # successful SYN-ACK udp src/dst
_SACK_RANGE = struct.Struct(">II")


@lru_cache(maxsize=256)
def pack_ip(dotted):
    """4-byte network-order form of a dotted quad. A run uses a handful of
    host addresses, so the bounded cache turns every frame build into
    lookups instead of string parsing."""
    a, b, c, d = (int(x) for x in dotted.split("."))
    return bytes((a, b, c, d))


def unpack_ip(raw):
    return "%d.%d.%d.%d" % (raw[0], raw[1], raw[2], raw[3])


def mac_for_ip(dotted):
    """Deterministic locally-administered MAC; the fabric routes by IP only."""
    return b"\x02\x00" + pack_ip(dotted)


@dataclass(slots=True)
class ParsedFrame:
    """A fully decoded stack frame (Ethernet/IPv4/UDP plus transport header)."""

    src_ip: str
    dst_ip: str
    udp_src: int
    udp_dst: int
    pkt_type: int
    flow_src: int
    flow_dst: int
    seq: int
    ack: int
    msg_id: int
    frag_offset: int
    msg_len: int
    flags: int
    payload: bytes


def build_frame(src_ip, dst_ip, udp_src, udp_dst, pkt_type, flow_src, flow_dst,
                payload=b"", seq=0, ack=0, msg_id=0, frag_offset=0, msg_len=0,
                flags=0):
    """Assemble a complete frame. IP/UDP checksums are left zero (no offloads)."""
    hdr = _HDR.pack(MAGIC, VERSION, pkt_type, flow_src, flow_dst, seq, ack,
                    msg_id, frag_offset, msg_len, flags, 0)
    udp_len = UDP_HEADER_LEN + HEADER_LEN + len(payload)
    udp = _UDP.pack(udp_src, udp_dst, udp_len, 0)
    ip = _IP.pack(0x45, 0, IP_HEADER_LEN + udp_len, 0, 0, 64, IP_PROTO_UDP, 0,
                  pack_ip(src_ip), pack_ip(dst_ip))
    eth = _ETH.pack(mac_for_ip(dst_ip), mac_for_ip(src_ip), ETHERTYPE_IPV4)
    return eth + ip + udp + hdr + payload


def extract_four_tuple(frame):
    """(src_ip, dst_ip, udp_src, udp_dst) of an IPv4/UDP frame, else None.

    This is the only header material the simulated NIC's steering looks at.
    """
    if len(frame) < ETH_HEADER_LEN + IP_HEADER_LEN + UDP_HEADER_LEN:
        return None
    if _ETH.unpack_from(frame, 0)[2] != ETHERTYPE_IPV4:
        return None
    vihl, _, _, _, _, _, proto, _, src, dst = _IP.unpack_from(frame, ETH_HEADER_LEN)
    if vihl != 0x45 or proto != IP_PROTO_UDP:
        return None
    sp, dp, _, _ = _UDP.unpack_from(frame, ETH_HEADER_LEN + IP_HEADER_LEN)
    return unpack_ip(src), unpack_ip(dst), sp, dp


def parse_frame(frame):
    """Decode a frame into a ParsedFrame, or None if malformed for the stack."""
    four = extract_four_tuple(frame)
    if four is None:
        return None
    off = ETH_HEADER_LEN + IP_HEADER_LEN + UDP_HEADER_LEN
    if len(frame) < off + HEADER_LEN:
        return None
    (magic, version, pkt_type, flow_src, flow_dst, seq, ack, msg_id,
     frag_offset, msg_len, flags, _) = _HDR.unpack_from(frame, off)
    if magic != MAGIC or version != VERSION:
        return None
    src_ip, dst_ip, udp_src, udp_dst = four
    return ParsedFrame(src_ip, dst_ip, udp_src, udp_dst, pkt_type, flow_src,
                       flow_dst, seq, ack, msg_id, frag_offset, msg_len, flags,
                       bytes(frame[off + HEADER_LEN:]))


def pack_syn_payload(engine_count, engine_id):
    return _SYN_PAYLOAD.pack(engine_count, engine_id)


def unpack_syn_payload(payload):
    if len(payload) < _SYN_PAYLOAD.size:
        return None
    return _SYN_PAYLOAD.unpack_from(payload)


def pack_synack_payload(udp_src, udp_dst, engine_id):
    return _SYNACK_PAYLOAD.pack(udp_src, udp_dst, engine_id)


def unpack_synack_payload(payload):
    if len(payload) < _SYNACK_PAYLOAD.size:
        return None
    return _SYNACK_PAYLOAD.unpack_from(payload)


def pack_ack_payload(udp_src, udp_dst):
    return _ACK_PAYLOAD.pack(udp_src, udp_dst)


def unpack_ack_payload(payload):
    if len(payload) < _ACK_PAYLOAD.size:
        return None
    return _ACK_PAYLOAD.unpack_from(payload)


def pack_sack_payload(ranges):
    out = [struct.pack(">H", len(ranges))]
    for start, end in ranges:
        out.append(_SACK_RANGE.pack(start, end))
    return b"".join(out)


def unpack_sack_payload(payload):
    if len(payload) < 2:
        return []
    (count,) = struct.unpack_from(">H", payload)
    ranges = []
    off = 2
    for _ in range(count):
        if off + _SACK_RANGE.size > len(payload):
            break
        ranges.append(_SACK_RANGE.unpack_from(payload, off))
        off += _SACK_RANGE.size
    return ranges
