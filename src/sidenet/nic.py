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
that holds no binding.
"""

from collections import deque
from dataclasses import dataclass

from .wire import MTU

QUEUE_DEPTH = 256
MIN_FRAME_LEN = 14  # bare Ethernet header


@dataclass
class NicConfig:
    """Static NIC shape: the queue count is all a host chooses. The ring
    depth (QUEUE_DEPTH) and the MTU are fixed by the device model."""

    num_queues: int
    local_ip: str

    def __post_init__(self):
        if self.num_queues < 1:
            raise ValueError("num_queues must be at least 1")


@dataclass
class QueueStats:
    rx_overflow_drops: int = 0


class _Queue:
    """One queue pair: its TX and RX rings (at most QUEUE_DEPTH frames
    each), its ring-overflow count, and the engine that each frame delivered into the
    RX ring wakes."""

    __slots__ = ("index", "tx", "rx", "stats", "owner")

    def __init__(self, index):
        self.index = index
        self.tx = deque()
        self.rx = deque()
        self.stats = QueueStats()
        self.owner = None


class Nic:
    """Per-queue TX/RX rings of raw frames.

    Each queue id is owned by exactly one engine thread; the fabric is the
    single party on the other side of every ring, so each ring is SPSC.
    """

    def __init__(self, config):
        self.config = config
        self._queues = [_Queue(i) for i in range(config.num_queues)]
        self.queue_stats = [q.stats for q in self._queues]

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

    def _bind(self, queue, engine):
        """The queue pair an engine owns, bound once at its construction:
        each frame delivered to its RX ring then sets the engine's `wake`
        flag."""
        self._check_queue(queue)
        q = self._queues[queue]
        q.owner = engine
        return q

    def _deliver(self, queue, frame):
        """Put one frame into an RX ring as the fabric's delivery loop does:
        dropped and counted if the ring is full, else the owner woken.
        Tests inject frames with it."""
        q = self._queues[queue]
        if len(q.rx) >= QUEUE_DEPTH:
            q.stats.rx_overflow_drops += 1
            return False
        q.rx.append(frame)
        if q.owner is not None:
            q.owner.wake = True
        return True
