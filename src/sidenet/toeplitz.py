"""Toeplitz hash, the receive-side-scaling hash used by the simulated NIC.

The hash of an input bit string is the XOR, over every set input bit at
offset i, of the 32-bit window of the key starting at bit i. For IPv4/UDP
the input is the 12-byte concatenation src_ip | dst_ip | src_port | dst_port
in network byte order.

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


class ToeplitzHasher:
    """Table-driven hasher for the fixed-layout 12-byte IPv4/UDP input.

    The hash is linear over XOR, so it splits into one 256-entry table per
    input byte: row[pos][value] is the hash of `value` alone at byte `pos`.
    Each row is built by doubling, one XOR per entry, so all 12 x 256
    entries take well under a millisecond. toeplitz_hash above stays as the
    bit-serial reference.
    """

    def __init__(self, key):
        if len(key) != KEY_LEN:
            raise ValueError("key must be %d bytes" % KEY_LEN)
        key_int = int.from_bytes(key, "big")
        top = KEY_LEN * 8 - 32
        self._rows = []
        for pos in range(12):
            row = [0]
            for bit in range(pos * 8 + 7, pos * 8 - 1, -1):  # LSB first
                window = (key_int >> (top - bit)) & 0xFFFFFFFF
                row += [h ^ window for h in row]
            self._rows.append(row)

    def hash_bytes(self, data):
        if len(data) != 12:
            raise ValueError("expected 12-byte four-tuple input")
        return self.hash_at(data, 0)

    def hash_at(self, buf, off):
        """Hash of the 12 bytes of `buf` that start at `off`, read in place.
        The caller guarantees that they exist."""
        r = self._rows
        return (r[0][buf[off]] ^ r[1][buf[off + 1]] ^ r[2][buf[off + 2]]
                ^ r[3][buf[off + 3]] ^ r[4][buf[off + 4]] ^ r[5][buf[off + 5]]
                ^ r[6][buf[off + 6]] ^ r[7][buf[off + 7]] ^ r[8][buf[off + 8]]
                ^ r[9][buf[off + 9]] ^ r[10][buf[off + 10]]
                ^ r[11][buf[off + 11]])
