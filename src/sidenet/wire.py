"""On-wire packet formats.

Every frame the stack emits is a plain Ethernet/IPv4/UDP packet whose UDP
payload starts with a fixed 32-byte transport header. The UDP ports are
steering entropy only; the header's own 16-bit flow ports identify the flow
end to end. Layouts are bit-exact and documented in docs/wire.md.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

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
FLAG_ACK = 0x0004  # on DATA: the ack field holds the sender's cumulative ack

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17

_ETH = struct.Struct(">6s6sH")
# Everything a frame carries before its payload, in one pack: the Ethernet
# header, IPv4 without options, UDP and the transport header. Pad bytes are
# the fields that are always zero: IP TOS, id, flags/fragment and checksum,
# the UDP checksum and the header's reserved field.
_HEAD = struct.Struct(">14sBxH4xBBxx8sHHHxxHBBHHIIIIIHxx")
FRAME_HEAD_LEN = _HEAD.size
# The longest payload a frame can carry within the MTU.
MAX_FRAME_PAYLOAD = MTU - FRAME_HEAD_LEN
# The receive side's one unpack, from the ethertype at offset 12 to the end
# of the transport header: the ethertype, IPv4 version/IHL, IP protocol,
# magic and version that parse_header tests, and the fields it returns (the
# source address, both UDP ports, the transport header from pkt_type on).
# Skipped: IP TOS to TTL and checksum, the destination address (the fabric
# has routed the frame by it), the UDP length and checksum, and the
# reserved field.
_RX_HEAD_AT = ETH_HEADER_LEN - 2
_RX_HEAD = struct.Struct(">HB8xBxx4s4xHH4xHBBHHIIIIIHxx")
_FOUR_TUPLE = struct.Struct(">4s4sHH")

assert FRAME_HEAD_LEN == (ETH_HEADER_LEN + IP_HEADER_LEN + UDP_HEADER_LEN
                          + HEADER_LEN) == _RX_HEAD_AT + _RX_HEAD.size

# Raw header tests and offsets for routing and steering: Ethernet type then
# IPv4 version/IHL at 12, the IP protocol at 23, and the 12 bytes
# src ip | dst ip | src port | dst port at 26 (the steering input).
MIN_UDP_FRAME = ETH_HEADER_LEN + IP_HEADER_LEN + UDP_HEADER_LEN
IPV4_IHL5 = b"\x08\x00\x45"
PROTO_AT = ETH_HEADER_LEN + 9
TUPLE_AT = ETH_HEADER_LEN + 12
_IP_LEN_0 = IP_HEADER_LEN + UDP_HEADER_LEN + HEADER_LEN
_UDP_LEN_0 = UDP_HEADER_LEN + HEADER_LEN

_SYN_PAYLOAD = struct.Struct(">HH")  # engine count, engine id
_SYNACK_PAYLOAD = struct.Struct(">HHH")  # accepted SYN udp src/dst, engine id
_ACK_PAYLOAD = struct.Struct(">HH")  # successful SYN-ACK udp src/dst


def pack_ip(dotted):
    """4-byte network-order form of a dotted quad. Anything but the
    canonical dotted quad, the form received frames carry, raises
    ValueError."""
    try:
        raw = bytes(int(x) for x in dotted.split("."))
        if len(raw) == 4 and unpack_ip(raw) == dotted:
            return raw
    except (AttributeError, TypeError, ValueError):
        pass
    raise ValueError("%r is not a dotted-quad IPv4 address" % (dotted,))


def unpack_ip(raw):
    return "%d.%d.%d.%d" % (raw[0], raw[1], raw[2], raw[3])


# Dotted form of a received address. Bounded, so that frames from any number
# of forged sources cost lookups for the hosts of a run and no memory growth.
_dotted = lru_cache(maxsize=1024)(unpack_ip)


@lru_cache(maxsize=256)
def _addressing(src_ip, dst_ip):
    """Ethernet header and the 8 IPv4 address bytes of a frame from src_ip
    to dst_ip. MACs are deterministic and locally administered
    (02:00:<ipv4>); the fabric routes by IP only."""
    src, dst = pack_ip(src_ip), pack_ip(dst_ip)
    return (_ETH.pack(b"\x02\x00" + dst, b"\x02\x00" + src, ETHERTYPE_IPV4),
            src + dst)


@dataclass(slots=True)
class ParsedFrame:
    """A fully decoded stack frame (Ethernet/IPv4/UDP plus transport header)."""

    src_ip: str
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
    eth, addrs = _addressing(src_ip, dst_ip)
    n = len(payload)
    return _HEAD.pack(eth, 0x45, _IP_LEN_0 + n, 64, IP_PROTO_UDP, addrs,
                      udp_src, udp_dst, _UDP_LEN_0 + n, MAGIC, VERSION,
                      pkt_type, flow_src, flow_dst, seq, ack, msg_id,
                      frag_offset, msg_len, flags) + payload


def extract_four_tuple(frame):
    """(src_ip, dst_ip, udp_src, udp_dst) of an IPv4/UDP frame, else None.

    This is the only header material the simulated NIC's steering looks at.
    """
    if (len(frame) < MIN_UDP_FRAME or frame[12:15] != IPV4_IHL5
            or frame[PROTO_AT] != IP_PROTO_UDP):
        return None
    src, dst, sp, dp = _FOUR_TUPLE.unpack_from(frame, TUPLE_AT)
    return _dotted(src), _dotted(dst), sp, dp


def parse_header(frame):
    """The header fields of a frame, in ParsedFrame's order up to its
    payload, or None if the frame is malformed for the stack: shorter than
    the headers (74 bytes), not IPv4 without options, not UDP, or a
    transport header with the wrong magic or version.

    One unpack from offset 12 decodes the fields and the bytes it tests,
    which it compares as integers."""
    if len(frame) < FRAME_HEAD_LEN:
        return None
    (ethertype, version_ihl, proto, src, udp_src, udp_dst, magic, version,
     pkt_type, flow_src, flow_dst, seq, ack, msg_id, frag_offset, msg_len,
     flags) = _RX_HEAD.unpack_from(frame, _RX_HEAD_AT)
    if (ethertype != ETHERTYPE_IPV4 or version_ihl != 0x45
            or proto != IP_PROTO_UDP or magic != MAGIC or version != VERSION):
        return None
    return (_dotted(src), udp_src, udp_dst, pkt_type, flow_src, flow_dst, seq,
            ack, msg_id, frag_offset, msg_len, flags)


def parse_frame(frame):
    """Decode a frame into a ParsedFrame, or None if parse_header rejects
    it. The payload is every byte after the 74 header bytes."""
    header = parse_header(frame)
    if header is None:
        return None
    return ParsedFrame(*header, frame[FRAME_HEAD_LEN:])


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


@lru_cache(maxsize=256)
def _sack_layout(count):
    """A SACK payload of `count` ranges: u16 count, then u32 start, u32 end
    per range."""
    return struct.Struct(">H%dI" % (2 * count))


def pack_sack_payload(ranges):
    return _sack_layout(len(ranges)).pack(len(ranges),
                                          *chain.from_iterable(ranges))


def unpack_sack_payload(payload):
    """The ranges a SACK payload lists; a count that runs past the payload
    yields only the whole ranges present."""
    if len(payload) < 2:
        return []
    count = min(payload[0] << 8 | payload[1], (len(payload) - 2) // 8)
    flat = _sack_layout(count).unpack_from(payload)
    return list(zip(flat[1::2], flat[2::2]))
