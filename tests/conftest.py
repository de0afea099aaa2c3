"""Shared builders for simulation-level tests."""

from hypothesis import settings

from sidenet.driver import Sim
from sidenet.engine import EnginePolicy
from sidenet.fabric import FabricConfig

# The same examples on every run, and no example database on disk.
settings.register_profile("sidenet", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("sidenet")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class PollApp:
    """Adapter turning a plain callable into a driver-stepped app."""

    def __init__(self, fn):
        self.fn = fn

    def step(self, sim):
        return self.fn(sim) or 0


def make_pair(seed=1, engines=1, server_engine=0, client_engine=0, **fabric_kw):
    """Two-host sim with a listening server channel and a client channel."""
    fabric_kw.setdefault("base_delay_us", 20)
    sim = Sim(FabricConfig(rng_seed=seed, **fabric_kw), seed=seed)
    server = sim.add_stack("10.0.0.2", engines)
    client = sim.add_stack("10.0.0.1", engines)
    sch = server.attach(EnginePolicy.pinned(server_engine))
    server.listen(sch, 80)
    cch = client.attach(EnginePolicy.pinned(client_engine))
    return sim, client, server, cch, sch


def connect_established(sim, client, cch, mode=None, max_us=30_000_000,
                        port=80, remote_ip="10.0.0.2"):
    handle = client.connect(cch, remote_ip, port, mode=mode)
    ok = sim.run_until(lambda: handle.state != "connecting", max_us=max_us)
    assert ok and handle.is_established, handle
    return handle


def echo_server(sim, server, sch):
    """Run an app that sends every message the server channel receives
    back on its flow."""
    def echo(sim_):
        msg = sch.recv()
        if msg:
            server.send(sch, msg.flow, msg.payload)
            return 1
        return 0
    sim.add_app(PollApp(echo))
