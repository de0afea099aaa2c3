"""Simulation drivers.

Both make the same scheduling pass: each engine ready at `now` runs one
iteration, every TX ring moves into the fabric, and a pass without work
delivers the frames already due or finds the next instant anything is.
An idle engine costs a pass two tests and a comparison: the pass polls
its RX ring, and an engine with frames waiting is ready at the end of its
tick throttle, any other at `ready_at` (the wake contract in engine.py).
Only an engine whose `wake` is set is refreshed, since iterations leave
`ready_at` exact.

Sim single-threads everything on virtual time, jumping the clock straight
to the next instant, so runs are exactly reproducible. ThreadedRuntime
makes the passes on one runner thread on the wall clock, delivering only
up to `now`; with no work it waits on one Event until the next instant or
an application doorbell. Only the runner touches engines, NICs and the
fabric; application threads, which may block, reach them through the
channels and the control inboxes. The one other state both sides touch is
each stack's set of reserved flow keys (Engine.drop says why that is safe).
"""

import threading
import time

from .engine import DEFAULT_TICK_US
from .fabric import Fabric, FabricConfig
from .stack import Stack


class _Driver:
    """The stacks over one fabric, and the moves of a scheduling pass."""

    def __init__(self, fabric, **stack_defaults):
        self.fabric = fabric
        self.clock = fabric.clock
        self.stacks = []
        self._engines = []
        self._wakers = []  # the apps that have a next_wake(now)
        self._stack_defaults = stack_defaults  # seed and tick_us
        self._bell = None  # the live runner's Event, rung by the doorbells

    def add_stack(self, ip, engines):
        nic = self.fabric.add_host(ip, engines)
        stack = Stack(nic, ip, **self._stack_defaults).init()
        for eng in stack.engines:
            eng.bell = self._bell
        self.stacks.append(stack)
        self._engines.extend(stack.engines)
        return stack

    def _run_engines(self, now):
        """Run each engine ready at `now`; returns the work done."""
        work = 0
        for eng in self._engines:
            if eng.wake:
                eng._refresh(now)
            ready = eng._next_allowed if eng._rx_ring else eng.ready_at
            if ready is not None and ready <= now:
                work += eng.run_iteration(now)
        return work

    def _next_instant(self, now):
        """After a pass without work: `now` if a frame is due (delivered
        here) or an engine is ready, else the next instant, or None."""
        t = self.fabric.next_event_time()
        if t is not None and t <= now:
            self.fabric.advance_to(now)
            return now
        for eng in self._engines:
            if eng.wake:
                eng._refresh(now)
            ready = eng._next_allowed if eng._rx_ring else eng.ready_at
            if ready is not None:
                if ready <= now:
                    return now
                if t is None or ready < t:
                    t = ready
        for app in self._wakers:
            wake = app.next_wake(now)
            if wake is not None and wake > now and (t is None or wake < t):
                t = wake
        return t


class Sim(_Driver):
    """Deterministic single-threaded harness for hosts, engines, and apps."""

    def __init__(self, fabric_config=None, seed=0, tick_us=DEFAULT_TICK_US):
        cfg = fabric_config or FabricConfig(rng_seed=seed)
        super().__init__(Fabric(cfg), seed=seed, tick_us=tick_us)
        self.apps = []

    @property
    def now(self):
        return self.clock.now

    def add_app(self, app):
        """app: any object with step(sim) -> int (work done this pass), and
        optionally next_wake(now) -> the next instant it has work, or None."""
        self.apps.append(app)
        if hasattr(app, "next_wake"):
            self._wakers.append(app)
        return app

    def step(self, until=None):
        """One scheduling pass; advances time only when nothing is runnable,
        and then never past `until`. Returns False when the whole simulation
        is idle.

        A pass without work first delivers any frame already due (a
        zero-delay frame sent in this pass) and runs again at `now` if an
        engine was woken after its turn; only then does the clock move."""
        now = self.clock.now
        work = self._run_engines(now)
        for app in self.apps:
            work += app.step(self) or 0
        if work + self.fabric.collect_tx():
            return True
        t = self._next_instant(now)
        if t is None:
            return False
        if t > now:
            self.fabric.advance_to(t if until is None else min(t, until))
        return True

    def run_until(self, cond, max_us=10_000_000, max_passes=100_000_000):
        """Step until cond() holds; False if the sim went idle or timed out."""
        deadline = self.clock.now + max_us
        for _ in range(max_passes):
            if cond():
                return True
            if self.clock.now > deadline:
                return False
            if not self.step():
                return cond()
        return cond()

    def run_for(self, duration_us):
        """Run the simulation for a fixed span of virtual time."""
        deadline = self.clock.now + duration_us
        while self.clock.now < deadline:
            if not self.step(until=deadline):
                self.fabric.advance_to(deadline)
                break

    def drain(self, max_us=60_000_000):
        """Run until no event, frame, or pending work remains anywhere."""
        deadline = self.clock.now + max_us
        while self.clock.now <= deadline:
            if not self.step():
                return True
        return False


class WallClock:
    """Microseconds since construction, read from the monotonic clock."""

    def __init__(self):
        self._t0 = time.perf_counter()

    @property
    def now(self):
        return int((time.perf_counter() - self._t0) * 1_000_000)

    def advance_to(self, t):
        pass  # wall time advances itself


class ThreadedRuntime(_Driver):
    """Live mode: one runner thread makes the passes on the wall clock."""

    def __init__(self, fabric_config=None, seed=0):
        cfg = fabric_config or FabricConfig(rng_seed=seed, base_delay_us=50)
        super().__init__(Fabric(cfg, clock=WallClock()), seed=seed)
        self._bell = threading.Event()
        self._running = False
        self._runner = threading.Thread(target=self._run, daemon=True)
        self.error = None  # the exception that stopped the runner, if any

    def start(self):
        self._running = True
        self._runner.start()
        return self

    def _run(self):
        clock, fabric, bell = self.clock, self.fabric, self._bell
        try:
            while self._running:
                now = clock.now
                if self._run_engines(now) + fabric.collect_tx():
                    continue
                t = self._next_instant(now)
                if t is None or t > now:
                    # A doorbell sets wake before it rings, so none is lost.
                    bell.wait(None if t is None else (t - clock.now) / 1e6)
                    bell.clear()
        except Exception as exc:
            # Nothing runs the engines again: keep the cause for stop() and
            # fail every connect, pending or later, naming it.
            self.error = exc
            for eng in self._engines:
                eng.fail_connects(exc)

    def stop(self):
        """Stop the runner; re-raise the exception that stopped it, if one
        did."""
        self._running = False
        self._bell.set()
        if self._runner.is_alive():
            self._runner.join(timeout=2.0)
        if self.error is not None:
            raise self.error
