"""Desk-scale experiment harnesses with CSV output.

Four workloads: echo (latency/throughput of one flow), conn_setup
(connection-establishment latency distribution), isolation (a latency probe
against bulk traffic, with and without engine pinning), and blocking
(parked receiver threads versus polling, on the threaded runtime).

Virtual-time scenarios are bit-reproducible for a fixed seed; the blocking
scenario measures wall time and is excluded from byte-for-byte replay.
"""

import csv
import io
import math
import threading
import time

from .channel import CONNECTING
from .config import (FABRIC_KEYS, RECEIVER_PORT, TAG_BYTES, TRIAL_PORT,
                     workload_params)
from .driver import Sim, ThreadedRuntime
from .engine import EnginePolicy
from .fabric import FabricConfig
from .handshake import (naive_batch_size, optimized_batch_size,
                        optimized_batch_total)

CLIENT_IP = "10.0.0.1"
SERVER_IP = "10.0.0.2"
BULK_CLIENT_IP = "10.0.0.3"


class BenchError(Exception):
    pass


def percentile(values, q):
    """Nearest-rank percentile of an unsorted sequence."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float fuzz
    return ordered[int(rank) - 1]


def latency_fields(latencies):
    return {
        "p50_us": percentile(latencies, 50),
        "p99_us": percentile(latencies, 99),
        "p999_us": percentile(latencies, 99.9),
        "min_us": min(latencies) if latencies else 0,
        "max_us": max(latencies) if latencies else 0,
    }


def write_csv(rows, path=None):
    """Render rows (list of dicts sharing a key order) as CSV text."""
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    text = out.getvalue()
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    return text


def check_conservation(sim, stacks):
    if not sim.fabric.conservation_ok():
        raise BenchError("fabric frame conservation violated")
    for stack in stacks:
        for eng in stack.engines:
            for key, flow in eng.flows.items():
                if not flow.conservation_ok():
                    raise BenchError("flow %r conservation violated" % (key,))
            for ch in eng.channels:
                s = ch.stats
                if s.rx_enqueued != s.rx_dequeued or s.tx_enqueued != s.tx_dequeued:
                    raise BenchError(
                        "channel %d on %s engine %d left messages behind"
                        % (ch.app_id, stack.local_ip, eng.engine_id))


class EchoServerApp:
    """Echo every received message back on its flow."""

    def __init__(self, channel):
        self.channel = channel

    def step(self, sim):
        work = 0
        while True:
            msg = self.channel.recv()
            if msg is None:
                return work
            self.channel.send(msg.flow, msg.payload, block=False)
            work += 1


class ClosedLoopClient:
    """Keep `inflight` tagged messages of `msg_size` bytes outstanding on
    each of `handles`, from virtual time `start_at` until `count` round
    trips (by default, never). A message counts as outstanding once
    `Channel.send` accepts it; its latency is found by its tag."""

    def __init__(self, channel, handles, msg_size, inflight, count=math.inf,
                 start_at=0):
        self.channel = channel
        self.handles = handles
        self.padding = bytes(msg_size - TAG_BYTES)
        self.inflight = inflight
        self.count = count
        self.start_at = start_at
        self.outstanding = dict.fromkeys(handles, 0)
        self.next_tag = 0
        self.sent_at = {}
        self.latencies = []

    @property
    def done(self):
        return len(self.latencies) >= self.count

    def next_wake(self, now):
        return self.start_at if now < self.start_at else None

    def step(self, sim):
        if sim.now < self.start_at:
            return 0
        work = 0
        while True:
            msg = self.channel.recv()
            if msg is None:
                break
            tag = int.from_bytes(msg.payload[:TAG_BYTES], "big")
            self.latencies.append(sim.now - self.sent_at.pop(tag))
            self.outstanding[msg.flow] -= 1
            work += 1
        for handle in self.handles:
            while (self.outstanding[handle] < self.inflight
                   and self.next_tag < self.count):
                tag = self.next_tag
                payload = tag.to_bytes(TAG_BYTES, "big") + self.padding
                if not self.channel.send(handle, payload, block=False):
                    return work  # the channel is full for every handle
                self.next_tag += 1
                self.sent_at[tag] = sim.now
                self.outstanding[handle] += 1
                work += 1
        return work


def _connect(sim, stack, channel, remote_ip, port, what, count=1, mode=None,
             max_us=60_000_000, need_established=True):
    """Open `count` flows and run until none is connecting. Raises
    BenchError if one is still connecting after `max_us`, or, with
    `need_established`, if one failed."""
    handles = [stack.connect(channel, remote_ip, port, mode=mode)
               for _ in range(count)]
    if not sim.run_until(lambda: all(h.state != CONNECTING for h in handles),
                         max_us=max_us):
        raise BenchError("%s neither established nor failed" % what)
    failed = [h for h in handles if not h.is_established]
    if need_established and failed:
        raise BenchError("%s failed to establish: %s" % (what, failed[0].error))
    return handles


def _fabric_config(params, seed):
    return FabricConfig(rng_seed=seed, **{FABRIC_KEYS[key].field: value
                                          for key, value in params.items()})


def _two_hosts(hosts, fabric_params, seed):
    """A Sim holding the scenario's server and client stacks, in that order."""
    sim = Sim(_fabric_config(fabric_params, seed), seed=seed)
    server = sim.add_stack(hosts["server"]["ip"], hosts["server"]["engines"])
    client = sim.add_stack(hosts["client"]["ip"], hosts["client"]["engines"])
    return sim, server, client


def run_echo(hosts, fabric_params, workload, seed):
    wl = workload_params("echo", workload)
    sim, server, client = _two_hosts(hosts, fabric_params, seed)
    sch = server.attach()
    server.listen(sch, 80)
    cch = client.attach()
    (handle,) = _connect(sim, client, cch, hosts["server"]["ip"], 80,
                         "echo flow", mode=wl["mode"])

    sim.add_app(EchoServerApp(sch))
    app = sim.add_app(ClosedLoopClient(cch, [handle], wl["msg_size"],
                                       wl["inflight"], wl["count"]))
    if not sim.run_until(lambda: app.done, max_us=600_000_000):
        raise BenchError("echo run stalled at %d/%d round trips"
                         % (len(app.latencies), wl["count"]))
    sim.drain(max_us=10_000_000)
    check_conservation(sim, [client, server])

    engines = [eng for st in (client, server) for eng in st.engines]
    flows = [flow for eng in engines for flow in eng.flows.values()]
    unique = sum(flow.stats.frags_sent_unique for flow in flows)
    duplicates = sum(flow.stats.rx_duplicates for flow in flows)
    row = {
        "scenario": "echo", "seed": seed, "msg_size": wl["msg_size"],
        "inflight": wl["inflight"], "messages": wl["count"],
        "completed": len(app.latencies),
        "retransmits": sum(eng.stats.retransmits for eng in engines),
        "spurious_ratio": round(duplicates / unique, 4) if unique else 0.0,
        "setup_attempts": handle.attempts, "virtual_us": sim.now,
    }
    row.update(latency_fields(app.latencies))
    return [row], sim, [client, server]


def run_conn_setup(hosts, fabric_params, workload, seed):
    wl = workload_params("conn_setup", workload)
    sim, server, client = _two_hosts(hosts, fabric_params, seed)
    n_server = hosts["server"]["engines"]
    n_client = hosts["client"]["engines"]
    server_chs = [server.attach(EnginePolicy.pinned(i)) for i in range(n_server)]
    client_chs = [client.attach(EnginePolicy.pinned(i)) for i in range(n_client)]

    rows = []
    for trial in range(wl["trials"]):
        port = TRIAL_PORT + trial
        sch = server_chs[trial % n_server]
        cch = client_chs[(trial * 7 + 3) % n_client]
        server.listen(sch, port)
        submitted = sim.now
        (handle,) = _connect(sim, client, cch, hosts["server"]["ip"], port,
                             "trial %d" % trial, mode=wl["mode"],
                             max_us=30_000_000, need_established=False)
        rows.append({
            "scenario": "conn_setup", "seed": seed, "trial": trial,
            "mode": wl["mode"], "established": int(handle.is_established),
            "attempts": handle.attempts,
            "latency_us": sim.now - submitted,
        })
        sim.run_for(100)  # settle stray spray before the next trial
    check_conservation(sim, [client, server])
    return rows, sim, [client, server]


def _isolation_variant(variant, hosts, fabric_params, workload, seed):
    wl = workload_params("isolation", workload)
    bulk_apps = wl["bulk_apps"]

    # Mirrors the two-client-VM shape of the experiment: bulk load and the
    # latency probe come from separate hosts (one bulk engine per bulk app),
    # so the only contended resource is the server-side engine.
    sim = Sim(_fabric_config(fabric_params, seed), seed=seed,
              tick_us=wl["tick_us"])
    server = sim.add_stack(SERVER_IP, 2)
    probe_client = sim.add_stack(CLIENT_IP, 1)
    bulk_client = sim.add_stack(BULK_CLIENT_IP, bulk_apps)

    # Server-side placement is the experiment variable. Round-robin attach
    # order (bulk, bulk, bulk, probe) shares an engine between the probe and
    # one bulk app; pinning gives the probe engine 1 to itself.
    if variant == "unpinned":
        bulk_sch = [server.attach() for _ in range(bulk_apps)]
        probe_sch = server.attach()
    else:
        bulk_sch = [server.attach(EnginePolicy.pinned(0))
                    for _ in range(bulk_apps)]
        probe_sch = server.attach(EnginePolicy.pinned(1))
    for i, ch in enumerate(bulk_sch):
        server.listen(ch, 9000 + i)
    server.listen(probe_sch, 8000)

    bulk_cch = [bulk_client.attach(EnginePolicy.pinned(i))
                for i in range(bulk_apps)]
    probe_cch = probe_client.attach(EnginePolicy.pinned(0))

    bulk_load = []
    if variant != "baseline":
        for i, cch in enumerate(bulk_cch):
            handles = _connect(sim, bulk_client, cch, SERVER_IP, 9000 + i,
                               "bulk flow", count=wl["bulk_flows"])
            bulk_load.append(ClosedLoopClient(cch, handles, wl["bulk_msg_size"],
                                              wl["bulk_inflight"]))
    (probe_handle,) = _connect(sim, probe_client, probe_cch, SERVER_IP, 8000,
                               "probe flow")

    for ch in bulk_sch + [probe_sch]:
        sim.add_app(EchoServerApp(ch))
    for app in bulk_load:
        sim.add_app(app)
    # The probe: one 64-byte echo at a time after the warm-up.
    probe = sim.add_app(ClosedLoopClient(probe_cch, [probe_handle], 64, 1,
                                         wl["probe_count"],
                                         sim.now + wl["warmup_us"]))
    if not sim.run_until(lambda: probe.done, max_us=2_000_000_000):
        raise BenchError("isolation probe stalled (%d/%d)"
                         % (len(probe.latencies), wl["probe_count"]))
    row = {"scenario": "isolation", "seed": seed, "variant": variant,
           "probe_requests": wl["probe_count"]}
    row.update(latency_fields(probe.latencies))
    return row


def run_isolation(hosts, fabric_params, workload, seed):
    rows = [_isolation_variant(v, hosts, fabric_params, workload, seed)
            for v in ("baseline", "pinned", "unpinned")]
    return rows, None, []


def run_blocking(hosts, fabric_params, workload, seed):
    """Threaded-runtime scenario: receiver threads block (or poll) on their
    channels while one client thread drives echo requests."""
    wl = workload_params("blocking", workload)
    threads, mode, requests = wl["threads"], wl["mode"], wl["requests"]
    blocking = mode == "blocking"

    runtime = ThreadedRuntime(_fabric_config(fabric_params, seed), seed=seed)
    server = runtime.add_stack(SERVER_IP, 1)
    client = runtime.add_stack(CLIENT_IP, 1)
    server_chs = [server.attach() for _ in range(threads)]
    for i, ch in enumerate(server_chs):
        server.listen(ch, RECEIVER_PORT + i)
    cch = client.attach()
    runtime.start()

    stop = threading.Event()
    served = [0] * threads

    def serve(idx):
        ch = server_chs[idx]
        while not stop.is_set():
            msg = ch.recv(block=blocking, timeout=0.05)
            if msg is not None:
                ch.send(msg.flow, msg.payload)
                served[idx] += 1

    workers = [threading.Thread(target=serve, args=(i,), daemon=True)
               for i in range(threads)]
    try:
        for w in workers:
            w.start()
        handles = [client.connect(cch, SERVER_IP, RECEIVER_PORT + i,
                                  blocking=True, timeout=30)
                   for i in range(threads)]
        latencies = []
        for k in range(requests):
            handle = handles[k % threads]
            t0 = time.perf_counter()
            client.send(cch, handle, b"\x05" * 64)
            reply = cch.recv(block=True, timeout=10)
            if reply is None:
                raise BenchError("echo reply timed out at request %d" % k)
            latencies.append(int((time.perf_counter() - t0) * 1_000_000))
    finally:
        stop.set()
        for w in workers:
            w.join(timeout=2)
        runtime.stop()

    spins = sum(ch.stats.empty_polls for ch in server_chs)
    wakeups = sum(ch.stats.rx_enqueued for ch in server_chs)
    row = {
        "scenario": "blocking", "seed": seed, "mode": mode,
        "threads": threads, "requests": requests,
        "completed": len(latencies), "served": sum(served),
        "receiver_spins": spins, "wakeups": wakeups,
    }
    row.update(latency_fields(latencies))
    return [row], None, []


def formulas_rows(n_values, p=0.95):
    rows = []
    for n in n_values:
        rows.append({
            "engines": n,
            "target_p": p,
            "naive_batch": naive_batch_size(n, p),
            "optimized_per_side": optimized_batch_size(n, p),
            "optimized_total": optimized_batch_total(n, p),
        })
    return rows


WORKLOADS = {
    "echo": run_echo,
    "conn_setup": run_conn_setup,
    "isolation": run_isolation,
    "blocking": run_blocking,
}


def run_scenario(scenario, seed_override=None):
    """Execute a parsed scenario; returns (rows, stats_rows)."""
    seed = scenario.seed if seed_override is None else seed_override
    runner = WORKLOADS[scenario.workload["kind"]]
    rows, sim, stacks = runner(scenario.hosts, scenario.fabric,
                               scenario.workload, seed)
    stats_rows = []
    for stack in stacks:
        stats_rows.extend(stack.stats_rows())
    if sim is not None:
        s = sim.fabric.stats
        stats_rows.append({
            "host": "fabric", "engine": -1, "sent": s.sent,
            "delivered": s.delivered, "lost": s.lost,
            "dropped_ring_full": s.dropped_ring_full,
            "dropped_unroutable": s.dropped_unroutable,
        })
    return rows, stats_rows
