"""Wall time converted to seconds at a fixed reference CPU speed.

The baseline host's vCPUs share their cores with other tenants, and their
speed switches between two levels almost 2x apart, often within a second
and sometimes for minutes; CPU time equals wall time throughout, so the
process cannot see the switch in its own accounting. A count of ops over
wall seconds then measures the share of the run the host spent slow more
than it measures sidenet.

SpeedMeter cuts a timed span into chunks of about CHUNK_S, and after each
chunk times a fixed pure-Python kernel (the calibration) that uses no
sidenet code. A chunk's wall time is scaled by CAL_REF_S over the mean of the
calibrations on either side of it, which gives the time the chunk would have
taken on a host that runs the kernel in CAL_REF_S. A change to sidenet moves
the chunks and never the kernel, so it moves the converted time as it moves
wall time at a steady speed.
"""

import heapq
from time import perf_counter

CHUNK_S = 0.1
# Calibration time of the baseline host (2 cores, Python 3.11.7) at its
# fast level; only sets the scale, since every run is converted with it.
CAL_REF_S = 0.0035
CAL_ROUNDS = 200


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _kernel(rounds):
    """Object allocation, attribute and dict access, heap operations and
    bytes slicing: the interpreter work sidenet's hot paths are made of."""
    blob = bytes(range(256)) * 8
    table = {}
    heap = []
    acc = 0
    for i in range(rounds):
        head = None
        for j in range(16):
            k = (i * 31 + j) & 127
            head = _Node(k, blob[j:j + 64], head)
            table[k] = table.get(k, 0) + len(head.value)
            heapq.heappush(heap, (k, i))
        while len(heap) > 32:
            acc += heapq.heappop(heap)[0]
        acc += int.from_bytes(blob[i & 255:(i & 255) + 8], "big") & 0xffff
    return acc + sum(table.values())


def calibrate():
    """Wall seconds the calibration kernel takes now."""
    t0 = perf_counter()
    _kernel(CAL_ROUNDS)
    return perf_counter() - t0


def to_ref_s(wall_s, cal_before, cal_after):
    """wall_s seconds spent between two calibrations, at reference speed."""
    return wall_s * 2 * CAL_REF_S / (cal_before + cal_after)


class SpeedMeter:
    """Accumulates the wall time and the reference-speed time of a span,
    less the calibrations. Call tick() often (it only reads the clock
    between chunks) and stop() once at the end."""

    def __init__(self):
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.chunks = 0
        self._cal = calibrate()
        self._t = perf_counter()

    def tick(self):
        if perf_counter() - self._t >= CHUNK_S:
            self._close()

    def stop(self):
        self._close()

    def _close(self):
        span = perf_counter() - self._t
        cal = calibrate()
        self.wall_s += span
        self.ref_s += to_ref_s(span, self._cal, cal)
        self.chunks += 1
        self._cal = cal
        self._t = perf_counter()
