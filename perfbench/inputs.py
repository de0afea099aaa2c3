"""Seeded workload inputs and the delivery checker.

Every request is an 8-byte tag (flow id, per-flow index) followed by a slice
of a seeded random pool, so the expected bytes of any delivery can be
rebuilt from (seed, flow, index, size) alone, and no two requests of a flow
are equal: a duplicated or reordered delivery is caught by comparing
against the next expected payload.
"""

import math
from random import Random

TAG_BYTES = 8
KIB = 1024
MIB = 1024 * KIB
BULK_FIRST_BYTES = 8 * MIB
BULK_MIN_BYTES = 1 * KIB
BULK_MAX_BYTES = 1 * MIB
BULK_CYCLE = 64  # log-uniform sizes are drawn stratified, one per 1/64 of the log range


class CheckError(Exception):
    """A delivery or invariant check failed: the run is incorrect."""


def tag(flow, index):
    return ((flow << 40) | index).to_bytes(TAG_BYTES, "big")


class Payloads:
    """Deterministic request bytes for one seed."""

    def __init__(self, seed, pool_bytes):
        self.pool = memoryview(
            Random("perfbench/pool/%d" % seed).randbytes(pool_bytes))

    def _offset(self, flow, index, size):
        if not TAG_BYTES <= size <= len(self.pool) + TAG_BYTES:
            raise ValueError("request size %d out of range" % size)
        span = len(self.pool) - (size - TAG_BYTES) + 1
        return (index * 7919 + flow * 104729) % span

    def make(self, flow, index, size):
        off = self._offset(flow, index, size)
        return b"".join((tag(flow, index),
                         self.pool[off:off + size - TAG_BYTES]))

    def matches(self, flow, index, size, payload):
        """Whether payload equals make(flow, index, size). Compares against
        the pool in place, so checking a large delivery allocates nothing."""
        off = self._offset(flow, index, size)
        return (len(payload) == size
                and payload.startswith(tag(flow, index))
                and payload.startswith(self.pool[off:off + size - TAG_BYTES],
                                       TAG_BYTES))


class BulkSizes:
    """Request sizes of one bulk_lossy flow: 8 MiB first, then log-uniform
    draws in [1 KiB, 1 MiB]. Each block of BULK_CYCLE draws takes one value
    from every 1/BULK_CYCLE slice of the log range, in seeded order, so the
    mix of small and large requests is the same for every seed while the
    values differ."""

    def __init__(self, seed, flow):
        self._rng = Random("perfbench/bulk-sizes/%d/%d" % (seed, flow))
        self._sizes = [BULK_FIRST_BYTES]

    def __getitem__(self, index):
        while index >= len(self._sizes):
            self._sizes.extend(self._block())
        return self._sizes[index]

    def _block(self):
        lo, hi = math.log(BULK_MIN_BYTES), math.log(BULK_MAX_BYTES)
        width = (hi - lo) / BULK_CYCLE
        block = [int(math.exp(lo + (k + self._rng.random()) * width))
                 for k in range(BULK_CYCLE)]
        self._rng.shuffle(block)
        return block


class DeliveryChecker:
    """Accepts deliveries only exactly once and in per-flow order.

    matches(flow, index, payload) says whether payload is what the index-th
    delivery on that flow must carry; any other payload (corrupted, repeated
    or early) raises.
    """

    def __init__(self, matches, what):
        self._matches = matches
        self._what = what
        self.next_index = {}

    def check(self, flow, payload):
        index = self.next_index.get(flow, 0)
        if not self._matches(flow, index, payload):
            raise CheckError("%s %d on flow %d: bytes differ from the "
                             "generator's (corrupted, duplicated or out of "
                             "order)" % (self._what, index, flow))
        self.next_index[flow] = index + 1
        return index

    def delivered(self, flow):
        return self.next_index.get(flow, 0)
