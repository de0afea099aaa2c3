"""The minimal virtual-NIC surface the stack is allowed to touch.

Cloud vNICs expose plain Ethernet frame I/O over as many TX/RX queue pairs
as there are CPU cores, 256 descriptors per queue, and nothing else the
stack can rely on: no flow steering, no RSS key or indirection-table access,
no DMA registration, no descriptor coalescing. This module is the entire
network surface of the stack; everything above it must cope with opaque
flow-to-queue hashing.
"""

from collections import deque
from dataclasses import dataclass

from .wire import MTU

QUEUE_DEPTH = 256
MIN_FRAME_LEN = 14  # bare Ethernet header


@dataclass
class NicConfig:
    """Static NIC shape. queue_depth and mtu are fixed by the device model."""

    num_queues: int
    local_ip: str
    queue_depth: int = QUEUE_DEPTH
    mtu: int = MTU
    host_cores: int = 0  # 0 means "same as num_queues"

    def __post_init__(self):
        if self.queue_depth != QUEUE_DEPTH:
            raise ValueError("queue depth is fixed at %d descriptors" % QUEUE_DEPTH)
        if self.mtu != MTU:
            raise ValueError("mtu is fixed at %d" % MTU)
        cores = self.host_cores or self.num_queues
        if not 1 <= self.num_queues <= cores:
            raise ValueError("num_queues must be in [1, %d]" % cores)


@dataclass
class QueueStats:
    rx_delivered: int = 0
    rx_overflow_drops: int = 0
    tx_frames: int = 0


class Nic:
    """Per-queue TX/RX rings of raw frames.

    Each queue id is owned by exactly one engine thread; the fabric is the
    single party on the other side of every ring, so each ring is SPSC.
    The fabric pops the TX rings (`_tx`) directly.
    """

    def __init__(self, config):
        self.config = config
        n = config.num_queues
        self._rx = [deque() for _ in range(n)]
        self._tx = [deque() for _ in range(n)]
        self._owners = [None] * n  # engine woken by each RX delivery
        self.queue_stats = [QueueStats() for _ in range(n)]

    def num_queues(self):
        return self.config.num_queues

    def _check_queue(self, queue):
        if not 0 <= queue < self.config.num_queues:
            raise IndexError("invalid queue id %r" % (queue,))

    def tx_burst(self, queue, frames):
        """Enqueue frames on the queue's TX ring; returns how many were taken.

        Stops at the first frame that does not fit the ring or violates frame
        bounds; frames are never partially enqueued or reordered.
        """
        self._check_queue(queue)
        ring = self._tx[queue]
        accepted = 0
        for frame in frames:
            if len(ring) >= QUEUE_DEPTH:
                break
            if not MIN_FRAME_LEN <= len(frame) <= self.config.mtu:
                break
            ring.append(frame)
            accepted += 1
        self.queue_stats[queue].tx_frames += accepted
        return accepted

    def rx_burst(self, queue, max_frames):
        """Remove and return up to max_frames frames in delivery order."""
        self._check_queue(queue)
        if max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        ring = self._rx[queue]
        out = []
        while ring and len(out) < max_frames:
            out.append(ring.popleft())
        return out

    def rx_pending(self, queue):
        self._check_queue(queue)
        return len(self._rx[queue])

    def _set_owner(self, queue, engine):
        """Called by the engine that owns a queue: each frame delivered to
        the queue's RX ring then sets that engine's `wake` flag."""
        self._check_queue(queue)
        self._owners[queue] = engine

    # Fabric-side entry points; not part of the stack-facing surface.

    def _deliver(self, queue, frame):
        ring = self._rx[queue]
        if len(ring) >= QUEUE_DEPTH:
            self.queue_stats[queue].rx_overflow_drops += 1
            return False
        ring.append(frame)
        self.queue_stats[queue].rx_delivered += 1
        owner = self._owners[queue]
        if owner is not None:
            owner.wake = True
        return True
