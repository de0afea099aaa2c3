"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line in the terminal summary. Tolerances
are pinned here, not deferred: exact equalities stay exact, the Monte-Carlo
floors are the 3-sigma binomial bands around the design points, and the
isolation check is directional by construction.
"""

import contextlib
import math
import random
import threading
import time

import conftest
from conftest import connect_established, make_pair

from sidenet import bench, wire
from sidenet.channel import Channel, Message
from sidenet.handshake import (MODE_NAIVE, MODE_OPTIMIZED, RETRY_TIMEOUT_US,
                               naive_batch_size, optimized_batch_total)


@contextlib.contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(
            "FAIL  criterion %2d: %s" % (number, title))
        raise
    conftest.ACCEPTANCE_LINES.append(
        "PASS  criterion %2d: %s  (%.1fs)" % (number, title, time.time() - start))


def test_criterion_1_formula_reproduction():
    with criterion(1, "spray batch formulas reproduce the published values"):
        assert naive_batch_size(4, 0.95) == 47
        assert naive_batch_size(8, 0.95) == 191
        assert optimized_batch_total(4, 0.95) == 25
        assert optimized_batch_total(8, 0.95) == 55


def test_criterion_2_formula_equals_direct_search():
    with criterion(2, "naive batch equals brute-force minimal k"):
        for n in (2, 3, 4, 8):
            miss, k = 1.0, 0
            per_packet_miss = 1.0 - 1.0 / (n * n)
            while True:
                k += 1
                miss *= per_packet_miss
                if 1.0 - miss >= 0.95:
                    break
            assert naive_batch_size(n, 0.95) == k, n


def _handshake_trial(seed, n, mode):
    sim, client, server, cch, sch = make_pair(
        seed=seed, engines=n, server_engine=seed % n,
        client_engine=(3 * seed + 1) % n)
    handle = client.connect(cch, "10.0.0.2", 80, mode=mode)
    sim.run_until(lambda: handle.state != "connecting", max_us=30_000_000)
    return handle


def test_criterion_3_first_batch_success_rate():
    with criterion(3, "first-batch handshake success >= 93% (n=1 exact)"):
        trials = 1000
        for mode in (MODE_NAIVE, MODE_OPTIMIZED):
            for n in (1, 2, 4, 8):
                wins = 0
                for seed in range(trials):
                    handle = _handshake_trial(seed, n, mode)
                    assert handle.is_established, (mode, n, seed)
                    wins += handle.attempts == 1
                if n == 1:
                    assert wins == trials, (mode, n, wins)
                else:
                    assert wins >= 0.93 * trials, (mode, n, wins)


def test_criterion_4_affinity_soundness_oracle():
    with criterion(4, "all 500 flow directions steer to the owning engines"):
        sim, client, server, cch, sch = make_pair(
            seed=77, engines=8, server_engine=5, client_engine=2,
            base_delay_us=5)
        handles = []
        for _ in range(500):
            # Paced one at a time; a burst of 500 sprays would only measure
            # ring overflow, not steering.
            handle = client.connect(cch, "10.0.0.2", 80)
            ok = sim.run_until(lambda: handle.state != "connecting",
                               max_us=30_000_000)
            assert ok and handle.is_established, handle
            handles.append(handle)
        sim.run_for(5000)  # final ACKs settle the server side

        violations = 0
        client_eng = client.engines[2]
        for handle in handles:
            key = (handle.remote_ip, handle.remote_port, handle.local_port)
            flow = client_eng.flows[key]
            server_owners = [e.engine_id for e in server.engines
                             if ("10.0.0.1", handle.local_port, 80) in e.flows]
            assert server_owners == [5], server_owners
            server_flow = server.engines[5].flows[
                ("10.0.0.1", handle.local_port, 80)]
            tx = wire.build_frame("10.0.0.1", "10.0.0.2", flow.tx_udp.src,
                                  flow.tx_udp.dst, wire.PKT_DATA, 1, 2)
            rx = wire.build_frame("10.0.0.2", "10.0.0.1",
                                  server_flow.tx_udp.src,
                                  server_flow.tx_udp.dst, wire.PKT_DATA, 1, 2)
            violations += sim.fabric.steer("10.0.0.2", tx) != 5
            violations += sim.fabric.steer("10.0.0.1", rx) != 2
        assert violations == 0


def _reliability_run(seed):
    sim, client, server, cch, sch = make_pair(
        seed=seed, engines=1, loss_probability=0.02,
        reorder_probability=0.05, delay_jitter_us=5)
    flows = [connect_established(sim, client, cch) for _ in range(4)]

    rng = random.Random(10_000 + seed)
    sizes = [1, wire.MAX_MESSAGE_BYTES]
    while len(sizes) < 1000:
        bucket = rng.random()
        if bucket < 0.55:
            sizes.append(rng.randint(1, 1408))
        elif bucket < 0.80:
            sizes.append(rng.randint(1409, 14080))
        elif bucket < 0.95:
            sizes.append(rng.randint(14081, 141_000))
        else:
            sizes.append(rng.randint(141_001, 1_048_576))

    sent = [[] for _ in flows]
    received = [[] for _ in flows]
    plan = []
    for i, size in enumerate(sizes):
        flow_idx = i % len(flows)
        body = (b"%02d" % flow_idx) + rng.randbytes(max(0, size - 2))
        plan.append((flow_idx, body[:size] if size >= 2 else body[:size]))
    # Tiny messages cannot carry the flow tag; match them by flow handle.
    cursor = {"i": 0}

    class Sender:
        def step(self, sim_):
            work = 0
            while cursor["i"] < len(plan):
                flow_idx, body = plan[cursor["i"]]
                if cch.tx_pending() > 256:
                    break
                cch.send(flows[flow_idx], body, block=False)
                sent[flow_idx].append(body)
                cursor["i"] += 1
                work += 1
            return work

    flow_index = {id(f): i for i, f in enumerate(flows)}
    done = {"n": 0}

    class Sink:
        def step(self, sim_):
            work = 0
            while True:
                msg = sch.recv()
                if msg is None:
                    return work
                ip, lp = msg.flow.remote_ip, msg.flow.remote_port
                idx = next(i for i, f in enumerate(flows)
                           if f.local_port == lp)
                received[idx].append(msg.payload)
                done["n"] += 1
                work += 1

    sim.add_app(Sender())
    sim.add_app(Sink())
    ok = sim.run_until(lambda: done["n"] == len(plan), max_us=4_000_000_000)
    assert ok, "stalled at %d/%d (seed %d)" % (done["n"], len(plan), seed)
    assert received == sent, "delivery mismatch for seed %d" % seed
    sim.drain(max_us=60_000_000)
    assert sim.fabric.conservation_ok()
    for stack in (client, server):
        for eng in stack.engines:
            for flow in eng.flows.values():
                assert flow.conservation_ok()


def test_criterion_5_transport_reliability_under_faults():
    with criterion(5, "10 seeds x 1000 mixed messages at 2% loss, 5% reorder"):
        for seed in range(10):
            _reliability_run(seed)


def test_criterion_6_fragmentation_arithmetic():
    with criterion(6, "8 MiB fragments to exactly 5958 and reassembles"):
        sim, client, server, cch, sch = make_pair(seed=42, engines=1)
        handle = connect_established(sim, client, cch)
        payload = random.Random(4).randbytes(wire.MAX_MESSAGE_BYTES)
        client.send(cch, handle, payload)
        ok = sim.run_until(lambda: sch.rx_pending() > 0, max_us=600_000_000)
        assert ok
        assert sch.recv().payload == payload
        flow = client.engines[0].flows[
            (handle.remote_ip, handle.remote_port, handle.local_port)]
        expected = math.ceil(wire.MAX_MESSAGE_BYTES / wire.FRAGMENT_PAYLOAD)
        assert expected == 5958
        assert flow.stats.frags_sent_unique == expected
        assert flow.stats.retransmits == 0


def test_criterion_7_isolation_pinning():
    with criterion(7, "probe p99: pinned <= 1.05x baseline < unpinned"):
        hosts = {"client": {"ip": "10.0.0.1", "engines": 2},
                 "server": {"ip": "10.0.0.2", "engines": 2}}
        rows, _, _ = bench.run_isolation(hosts, {}, {"probe_count": 200},
                                         seed=17)
        by = {r["variant"]: r for r in rows}
        assert by["pinned"]["p99_us"] <= 1.05 * by["baseline"]["p99_us"]
        assert by["unpinned"]["p99_us"] > by["pinned"]["p99_us"]


def test_criterion_8_blocking_receive():
    with criterion(8, "blocked receivers never spin; no lost wakeups in 10^4"):
        hosts = {"client": {"ip": "10.0.0.1", "engines": 1},
                 "server": {"ip": "10.0.0.2", "engines": 1}}
        rows, _, _ = bench.run_blocking(
            hosts, {}, {"threads": 4, "mode": "blocking", "requests": 1000},
            seed=8)
        row = rows[0]
        assert row["completed"] == 1000
        assert row["receiver_spins"] == 0
        assert row["wakeups"] == 1000

        # Lost-wakeup hunt: 10^4 randomized producer/consumer interleavings
        # over one channel; every message must wake exactly one recv.
        handoffs = 10_000
        ch = Channel(None, 1)
        rng = random.Random(99)
        got = []

        def consumer():
            while len(got) < handoffs:
                msg = ch.recv(block=True, timeout=10)
                assert msg is not None, "lost wakeup after %d" % len(got)
                got.append(msg.payload)

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        for i in range(handoffs):
            ch._push_rx(Message(None, i.to_bytes(4, "big")))
            roll = rng.random()
            if roll < 0.10:
                time.sleep(0)
            elif roll < 0.12:
                time.sleep(rng.random() * 0.0003)
        t.join(timeout=60)
        assert not t.is_alive()
        assert got == [i.to_bytes(4, "big") for i in range(handoffs)]
        assert ch.stats.empty_polls == 0


def test_criterion_9_retry_schedule_exact():
    with criterion(9, "loss=1 fails after 8 attempts spanning 2.4 s"):
        sim, client, server, cch, sch = make_pair(seed=5, engines=4,
                                                  loss_probability=1.0)
        t0 = sim.now
        handle = client.connect(cch, "10.0.0.2", 80, mode=MODE_NAIVE)
        ok = sim.run_until(lambda: handle.is_failed,
                           max_us=12 * RETRY_TIMEOUT_US)
        assert ok
        assert handle.attempts == 8
        elapsed = sim.now - t0
        grid_slack = 50  # connect requests wait for the 50 us service grid
        assert 8 * RETRY_TIMEOUT_US <= elapsed <= 8 * RETRY_TIMEOUT_US + grid_slack
        schedule = [47, 94, 188, 376, 752, 1504, 3008, 4096]
        assert schedule[-1] == 4096 and schedule[6] * 2 > 4096  # cap engaged
        assert sum(e.stats.syns_sent for e in client.engines) == sum(schedule)


def test_criterion_10_stated_exclusions_and_setup_tail_shape():
    with criterion(10, "cloud-scale numbers excluded; setup tail shape holds"):
        # Not reproducible at desk scale, by design: absolute cloud round-trip
        # latencies, throughput curves, end-to-end application gains, and CPU
        # utilization percentages. The property suites above plus this tail
        # check stand in for them.
        for n in (2, 4):  # theory: first-batch failure grows with n ...
            k_small = naive_batch_size(n, 0.95)
            k_big = naive_batch_size(2 * n, 0.95)
            fail_small = (1 - 1 / (n * n)) ** k_small
            fail_big = (1 - 1 / (4 * n * n)) ** k_big
            assert fail_small < fail_big < 0.05
        # ... and a sampled CDF agrees: no retries at n=1, a monotone CDF
        # with a heavier retry tail at n=8.
        hosts = {"client": {"ip": "10.0.0.1", "engines": 8},
                 "server": {"ip": "10.0.0.2", "engines": 8}}
        rows, _ = bench.run_scenario(_conn_setup_scenario(8), None)
        lat = sorted(r["latency_us"] for r in rows)
        assert all(a <= b for a, b in zip(lat, lat[1:]))  # CDF monotone
        retry_frac_8 = sum(r["attempts"] > 1 for r in rows) / len(rows)
        rows1, _ = bench.run_scenario(_conn_setup_scenario(1), None)
        retry_frac_1 = sum(r["attempts"] > 1 for r in rows1) / len(rows1)
        assert retry_frac_1 == 0.0
        assert 0.0 < retry_frac_8 <= 0.12  # ~5% design point, 3-sigma slack


def _conn_setup_scenario(engines):
    from sidenet.config import Scenario

    return Scenario(
        hosts={"client": {"ip": "10.0.0.1", "engines": engines},
               "server": {"ip": "10.0.0.2", "engines": engines}},
        fabric={"base_delay_us": 20},
        workload={"kind": "conn_setup", "trials": 300,
                  "mode": MODE_OPTIMIZED},
        seed=23)
