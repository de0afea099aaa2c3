"""Toeplitz hash, the receive-side-scaling hash used by the simulated NIC.

The hash of an input bit string is the XOR, over every set input bit at
offset i, of the 32-bit window of the key starting at bit i. For IPv4/UDP
the input is the 12-byte concatenation src_ip | dst_ip | src_port | dst_port
in network byte order.

toeplitz_hash is the one implementation of that sum, bit by bit. Because
the sum is linear over XOR, a hash splits by input byte; port_rows tables
the 4 port bytes so that the fabric, which hashes each address pair once,
looks up only those per frame.

Only the simulated fabric may import this module; the stack proper never
sees the key (checked by the module-visibility audit in the test suite).
"""

KEY_LEN = 40


def toeplitz_hash(key, data):
    """Hash `data` (bytes) under `key` (bytes). Key must cover data + 32 bits."""
    key_bits = len(key) * 8
    if key_bits < len(data) * 8 + 32:
        raise ValueError("key too short for input")
    key_int = int.from_bytes(key, "big")
    top = key_bits - 32
    result = 0
    bit = 0
    for byte in data:
        mask = 0x80
        while mask:
            if byte & mask:
                result ^= (key_int >> (top - bit)) & 0xFFFFFFFF
            bit += 1
            mask >>= 1
    return result


def port_rows(key):
    """The 4 x 256 table of the port bytes (input bytes 8-11) under `key`.

    The hash is linear over XOR, so it splits into one 256-entry row per
    input byte: rows[i][value] is the hash of `value` alone at byte 8 + i.
    Each row is built by doubling, one XOR per entry."""
    key_int = int.from_bytes(key, "big")
    top = len(key) * 8 - 32
    rows = []
    for pos in range(8, 12):
        row = [0]
        for bit in range(pos * 8 + 7, pos * 8 - 1, -1):  # LSB first
            window = (key_int >> (top - bit)) & 0xFFFFFFFF
            row += [h ^ window for h in row]
        rows.append(row)
    return rows


class ToeplitzHasher:
    """The hash of the fixed-layout 12-byte IPv4/UDP input under one key,
    through the bit-serial toeplitz_hash above."""

    def __init__(self, key):
        if len(key) != KEY_LEN:
            raise ValueError("key must be %d bytes" % KEY_LEN)
        self._key = bytes(key)

    def hash_bytes(self, data):
        if len(data) != 12:
            raise ValueError("expected 12-byte four-tuple input")
        return toeplitz_hash(self._key, data)
