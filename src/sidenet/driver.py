"""Simulation drivers.

The deterministic driver single-threads everything: engines and poll-style
apps run in fixed order at the current virtual time, then the clock jumps
straight to the next interesting instant (a fabric delivery, an engine
timer, a control-grid tick). Each engine keeps its next ready instant in
`ready_at`, recomputed only after it runs or is woken (see the wake
contract in engine.py); a pass reads that attribute, so an idle engine
costs it a flag test and a comparison. All timing is virtual, so runs are
exactly reproducible and machine independent.

The threaded runtime wraps the same engine loop for live operation: one
thread per engine plus a fabric pump, with the clock tied to wall time.
This is the mode where blocking receive actually parks threads.
"""

import threading
import time

from .engine import DEFAULT_TICK_US
from .fabric import Fabric, FabricConfig
from .stack import Stack


class Sim:
    """Deterministic single-threaded harness for hosts, engines, and apps."""

    def __init__(self, fabric_config=None, seed=0, tick_us=DEFAULT_TICK_US):
        cfg = fabric_config or FabricConfig(rng_seed=seed)
        self.fabric = Fabric(cfg)
        self.clock = self.fabric.clock
        self.seed = seed
        self.tick_us = tick_us
        self.stacks = []
        self.apps = []
        self._wakers = []  # the apps that have a next_wake(now)
        self._engines = []

    @property
    def now(self):
        return self.clock.now

    def add_stack(self, ip, engines, **kwargs):
        nic = self.fabric.add_host(ip, engines)
        kwargs.setdefault("seed", self.seed)
        kwargs.setdefault("tick_us", self.tick_us)
        stack = Stack(nic, ip, **kwargs).init()
        self.stacks.append(stack)
        self._engines.extend(stack.engines)
        return stack

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
        work = 0
        for eng in self._engines:
            if eng.wake:
                eng._refresh(now)
            ready = eng.ready_at
            if ready is not None and ready <= now:
                work += eng.run_iteration(now)
        for app in self.apps:
            work += app.step(self) or 0
        fabric = self.fabric
        work += fabric.collect_tx()
        if work:
            return True
        t = fabric.next_event_time()
        if t is not None and t <= now:
            fabric.advance_to(now)
            return True
        for eng in self._engines:
            if eng.wake:
                eng._refresh(now)
            ready = eng.ready_at
            if ready is not None:
                if ready <= now:
                    return True
                if t is None or ready < t:
                    t = ready
        for app in self._wakers:
            wake = app.next_wake(now)
            if wake is not None and wake > now and (t is None or wake < t):
                t = wake
        if t is None:
            return False
        fabric.advance_to(t if until is None else min(t, until))
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


class ThreadedRuntime:
    """Live mode: one thread per engine plus a fabric pump thread."""

    def __init__(self, fabric_config=None, seed=0):
        cfg = fabric_config or FabricConfig(rng_seed=seed, base_delay_us=50)
        self.clock = WallClock()
        self.fabric = Fabric(cfg, clock=self.clock)
        self.seed = seed
        self.stacks = []
        self._threads = []
        self._stop = threading.Event()

    def add_stack(self, ip, engines, **kwargs):
        nic = self.fabric.add_host(ip, engines)
        kwargs.setdefault("seed", self.seed)
        stack = Stack(nic, ip, **kwargs).init()
        self.stacks.append(stack)
        return stack

    def start(self):
        for stack in self.stacks:
            for eng in stack.engines:
                t = threading.Thread(target=self._engine_loop, args=(eng,),
                                     daemon=True)
                self._threads.append(t)
        pump = threading.Thread(target=self._pump_loop, daemon=True)
        self._threads.append(pump)
        for t in self._threads:
            t.start()
        return self

    def _engine_loop(self, eng):
        while not self._stop.is_set():
            if eng.run_iteration(self.clock.now) == 0:
                time.sleep(0.0002)  # idle; yield the core

    def _pump_loop(self):
        while not self._stop.is_set():
            moved = self.fabric.collect_tx()
            delivered = self.fabric.advance_to(self.clock.now)
            if not moved and not delivered:
                time.sleep(0.0001)

    def stop(self):
        self._stop.set()
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads.clear()
