"""The minimal virtual-NIC surface the stack is allowed to touch.

Cloud vNICs expose plain Ethernet frame I/O over as many TX/RX queue pairs
as there are CPU cores, 256 descriptors per queue, and nothing else the
stack can rely on: no flow steering, no RSS key or indirection-table access,
no DMA registration, no descriptor coalescing. This module is the entire
network surface of the stack; everything above it must cope with opaque
flow-to-queue hashing.

The rings are burst I/O in the device model too: each side binds a queue
pair once and moves frames through its rings without a NIC call per frame.
The engine that owns a queue appends to its TX ring and pops its RX ring;
the fabric pops every TX ring and appends to the RX ring of the queue a
frame steers to. tx_burst and rx_burst are the same moves for a caller
that holds no binding. Both sides poll: the device holds no engine and
wakes none, so an engine finds its frames by reading its own RX ring.
"""

from collections import deque
from dataclasses import dataclass

from .wire import MTU

QUEUE_DEPTH = 256
MIN_FRAME_LEN = 14  # bare Ethernet header


@dataclass
class QueueStats:
    rx_overflow_drops: int = 0


class _Queue:
    """One queue pair: its TX and RX rings (at most QUEUE_DEPTH frames
    each) and its ring-overflow count."""

    __slots__ = ("index", "tx", "rx", "stats")

    def __init__(self, index):
        self.index = index
        self.tx = deque()
        self.rx = deque()
        self.stats = QueueStats()


class Nic:
    """Per-queue TX/RX rings of raw frames.

    The queue count is all a host chooses; the ring depth (QUEUE_DEPTH) and
    the MTU are fixed by the device model. Each queue id is owned by exactly
    one engine thread; the fabric is the single party on the other side of
    every ring, so each ring is SPSC.
    """

    def __init__(self, num_queues):
        if num_queues < 1:
            raise ValueError("num_queues must be at least 1")
        self._queues = [_Queue(i) for i in range(num_queues)]
        self.queue_stats = [q.stats for q in self._queues]

    def num_queues(self):
        return len(self._queues)

    def _check_queue(self, queue):
        if not 0 <= queue < len(self._queues):
            raise IndexError("invalid queue id %r" % (queue,))

    def tx_burst(self, queue, frames):
        """Enqueue frames on the queue's TX ring; returns how many were taken.

        Stops at the first frame that does not fit the ring or violates frame
        bounds; frames are never partially enqueued or reordered.
        """
        self._check_queue(queue)
        ring = self._queues[queue].tx
        accepted = 0
        for frame in frames:
            if (len(ring) >= QUEUE_DEPTH
                    or not MIN_FRAME_LEN <= len(frame) <= MTU):
                break
            ring.append(frame)
            accepted += 1
        return accepted

    def rx_burst(self, queue, max_frames):
        """Remove and return up to max_frames frames in delivery order."""
        self._check_queue(queue)
        if max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        ring = self._queues[queue].rx
        out = []
        while ring and len(out) < max_frames:
            out.append(ring.popleft())
        return out

    def rx_pending(self, queue):
        self._check_queue(queue)
        return len(self._queues[queue].rx)

    def _bind(self, queue):
        """The queue pair an engine owns, bound once at its construction.
        The engine polls its rings; nothing here refers back to it."""
        self._check_queue(queue)
        return self._queues[queue]

    def _deliver(self, queue, frame):
        """Put one frame into an RX ring as the fabric's delivery loop does:
        dropped and counted if the ring is full. Tests inject frames with
        it."""
        q = self._queues[queue]
        if len(q.rx) >= QUEUE_DEPTH:
            q.stats.rx_overflow_drops += 1
            return False
        q.rx.append(frame)
        return True
