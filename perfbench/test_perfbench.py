"""The benchmark's own tests: metric coverage, the delivery checker, trace
accounting and determinism. Run with `python3 -m pytest perfbench`."""

import json
import math

import pytest

import run
from inputs import CheckError, DeliveryChecker, Payloads, tag
from speed import SpeedMeter
from tracing import Tracer
from workloads import WORKLOADS, ClosedLoopClient, Pacer, Responder

sn = run.import_sidenet()

SMALL_PREFIX = {"rpc_small": 400, "bulk_lossy": 12, "conn_churn": 40}


@pytest.fixture
def small(monkeypatch):
    """Shrink every prefix and the set-up count so a run takes a second."""
    for name, ops in SMALL_PREFIX.items():
        monkeypatch.setattr(WORKLOADS[name], "prefix_ops", ops)
    monkeypatch.setattr(run, "SETUPS", 2)


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_reports_every_metric_with_its_unit(small, name):
    _, metrics, units = run.run_untraced(name, 3, 0.2)
    assert set(metrics) == set(run.END_TO_END_UNITS) == set(units)
    for key, value in metrics.items():
        assert math.isfinite(value) and value > 0, key

    w, metrics, units = run.run_traced(name, 3, 0.4)
    assert set(metrics) == set(run.PER_LAYER_UNITS) == set(units)
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
    assert w.failed == 0


def _echo_checker(payloads):
    return DeliveryChecker(
        lambda flow, index, payload: payloads.matches(flow, index, 64, payload),
        "echo")


def test_checker_accepts_in_order_exactly_once():
    payloads = Payloads(5, 4096)
    checker = _echo_checker(payloads)
    for index in range(3):
        assert checker.check(1, payloads.make(1, index, 64)) == index
    assert checker.check(2, payloads.make(2, 0, 64)) == 0
    assert checker.delivered(1) == 3


@pytest.mark.parametrize("deliveries", [
    pytest.param([(0, b"corrupt")], id="corrupted"),
    pytest.param([(0, None), (0, None)], id="duplicated"),
    pytest.param([(1, None), (0, None)], id="reordered"),
])
def test_checker_rejects_bad_delivery(deliveries):
    payloads = Payloads(5, 4096)
    checker = _echo_checker(payloads)
    with pytest.raises(CheckError):
        for index, corrupt in deliveries:
            payload = payloads.make(7, index, 64)
            if corrupt:
                payload = payload[:-len(corrupt)] + corrupt
            checker.check(7, payload)


@pytest.mark.parametrize("size", [8, 9, 64, 4096 + 8])
def test_matches_agrees_with_make(size):
    payloads = Payloads(5, 4096)
    payload = payloads.make(3, 11, size)
    assert len(payload) == size
    assert payloads.matches(3, 11, size, payload)
    assert not payloads.matches(3, 12, size, payload)
    assert not payloads.matches(3, 11, size, payload + b"x")
    assert not payloads.matches(3, 11, size, payload[:-1] + bytes(
        [payload[-1] ^ 1]))


def test_receipts_are_distinct_per_index():
    assert len({tag(0, i) for i in range(1000)}) == 1000


def test_traced_self_times_fit_in_traced_wall_time(small):
    w = WORKLOADS["rpc_small"](sn, 2)
    w.setup()
    tracer = Tracer(lambda: w.finished)
    tracer.install(sn, (ClosedLoopClient, Responder, Pacer))
    try:
        before = run.time.perf_counter()
        w.run(0.3, 0, SpeedMeter())
        wall = run.time.perf_counter() - before
    finally:
        tracer.uninstall()
    assert tracer.calls("driver.step") > 0
    assert 0 < tracer.self_sum_s() <= wall
    for name in ("driver.step", "engine.run_iteration", "wire.parse_frame"):
        assert tracer.self_us(name) <= tracer.total_us(name)
    assert not hasattr(sn.Sim.step, "__wrapped__")
    assert not hasattr(sn.fabric.extract_four_tuple, "__wrapped__")


def test_traced_run_counts_three_four_tuple_decodes_per_frame(small):
    _, metrics, _ = run.run_traced("rpc_small", 4, 0.6)
    assert metrics["wire.four_tuple_per_frame"] == pytest.approx(3, abs=0.01)
    assert metrics["transport.retx_per_frag"] == 0


def test_traced_handshake_counts_match_engine_counters(small):
    # run_traced raises CheckError if the SYN tally and syns_sent disagree.
    _, metrics, _ = run.run_traced("conn_churn", 4, 0.8)
    assert metrics["handshake.syns_per_conn"] >= 8  # optimized batch, 8 engines
    assert 0 < metrics["handshake.first_try_share"] <= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_digest_and_exact_metrics(small, name):
    results = []
    for _ in range(2):
        w = WORKLOADS[name](sn, 6)
        w.setup()
        start_now, start_sent = w.sim.now, w.sim.fabric.stats.sent
        w.run(0.05, w.prefix_ops, SpeedMeter())
        results.append(run.exact_metrics(w, start_now, start_sent))
    assert results[0] == results[1]
    assert len(results[0][0]) == 64


def test_smoothed_median_moves_little_across_a_gap():
    more_fast = run.smoothed_median([60] * 51 + [96] * 49)
    fewer_fast = run.smoothed_median([60] * 49 + [96] * 51)
    assert 60 < more_fast < fewer_fast < 96
    assert fewer_fast - more_fast < 0.05 * more_fast
    assert run.smoothed_median([7]) == 7


def test_speed_meter_counts_chunks_and_leaves_out_calibration():
    start = run.time.perf_counter()
    meter = SpeedMeter()
    while run.time.perf_counter() - start < 0.35:
        meter.tick()
    meter.stop()
    elapsed = run.time.perf_counter() - start
    assert meter.chunks >= 3
    assert 0 < meter.wall_s < elapsed
    assert meter.ref_s > 0
