"""sidenet benchmark: one closed-loop workload per run, end-to-end metrics
by default, per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A failed correctness check exits 1 without a
result; if sidenet cannot be imported from this checkout's src/, the run
exits 2 without a result. See README.md.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"
SETUPS = 9  # set-ups timed in each untraced run; setup_s is their median

from inputs import CheckError
from speed import SpeedMeter, calibrate, to_ref_s
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, ClosedLoopClient, Pacer, Responder

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "virt_ops_per_s": "1/vs",
    "lat_p50_vus": "vus",
    "lat_tail_vus": "vus",
    "frames_per_op": "frames/op",
    "success_ratio": "ratio",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "driver.step_self_us": "us",
    "driver.steps_per_op": "steps/op",
    "engine.poll_us_per_step": "us",
    "engine.iter_self_us": "us",
    "engine.frames_per_iter": "frames/iter",
    "engine.iters_per_op": "iters/op",
    "nic.tx_burst_us": "us",
    "nic.rx_burst_us": "us",
    "nic.ring_drops": "count",
    "fabric.send_self_us": "us",
    "fabric.deliver_self_us": "us",
    "fabric.collect_tx_self_us": "us",
    "fabric.frames_per_wall_s": "frames/s",
    "toeplitz.hash_us": "us",
    "toeplitz.hashes_per_frame": "calls/frame",
    "wire.build_us": "us",
    "wire.parse_us": "us",
    "wire.four_tuple_per_frame": "calls/frame",
    "wire.parses_per_frame": "calls/frame",
    "wire.builds_per_frame": "calls/frame",
    "transport.send_us_per_frag": "us",
    "transport.on_data_us": "us",
    "transport.on_sack_us": "us",
    "transport.retx_per_frag": "ratio",
    "transport.dup_per_frag": "ratio",
    "transport.sacks_per_frag": "ratio",
    "transport.rto_fires": "count",
    "handshake.syns_per_conn": "frames/conn",
    "handshake.synacks_per_conn": "frames/conn",
    "handshake.first_try_share": "ratio",
    "handshake.wrong_engine_share": "ratio",
    "handshake.start_us": "us",
    "handshake.on_syn_us": "us",
    "channel.send_us": "us",
    "channel.recv_us": "us",
    "channel.empty_poll_share": "ratio",
    "stack.connect_us": "us",
    "trace.ops_per_s_ratio": "ratio",
}


def import_sidenet():
    """Import sidenet from this checkout's src/, never from elsewhere."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        import sidenet
    except ImportError as exc:
        print("perfbench: cannot import sidenet from %s: %s" % (SRC, exc),
              file=sys.stderr)
        raise SystemExit(2)
    if Path(sidenet.__file__).resolve().parent.parent != SRC.resolve():
        print("perfbench: imported sidenet from %s, not from %s"
              % (sidenet.__file__, SRC), file=sys.stderr)
        raise SystemExit(2)
    return sidenet


def smoothed_median(values):
    """Mean of the middle fifth of the sorted values (40th to 60th
    percentile). A plain median jumps when it falls in a gap between two
    modes of the distribution, as bulk_lossy's does: about half its requests
    lose no frame (about 60 vus) and most of the rest wait one extra round
    trip for a fast retransmit (about 95 vus)."""
    n = len(values)
    middle = values[(2 * n) // 5:max((3 * n) // 5, (2 * n) // 5 + 1)]
    return sum(middle) / len(middle)


def tail_rank(n):
    """Zero-based rank of the highest order statistic with at least 10
    samples beyond it."""
    return max(0, n - 11)


def exact_metrics(w, start_now, start_sent):
    """Virtual-time metrics over the prefix (the first prefix_ops operations),
    which are a pure function of the seed. The tail is taken over its first
    tail_ops operations where the workload sets them."""
    prefix = w.records
    n = len(prefix)
    lats = sorted(r.lat for r in prefix if r.ok)
    tail = sorted(r.lat for r in prefix[:w.tail_ops] if r.ok)
    if not tail:
        raise CheckError("no operation of the prefix completed")
    span_s = (prefix[-1].done - start_now) / 1e6
    digest = hashlib.sha256(
        "\n".join(r.line() for r in prefix).encode()).hexdigest()
    return digest, {
        "virt_ops_per_s": n / span_s,
        "lat_p50_vus": smoothed_median(lats),
        "lat_tail_vus": tail[tail_rank(len(tail))],
        "frames_per_op": (prefix[-1].sent - start_sent) / n,
        "success_ratio": sum(r.ok for r in prefix) / n,
    }


def timed_setup(name, seed):
    """Import sidenet afresh and set the workload up. Returns the workload
    and the set-up time: the import, building the stacks and establishing
    the flows the workload keeps, less the benchmark's input generation.

    sidenet's modules are dropped from sys.modules first, so each call runs
    them again as a new process would; standard-library modules they import
    stay loaded after the first call."""
    gc.collect()  # free the previous set-up outside the timed span
    t0 = time.perf_counter()
    for module in [m for m in sys.modules if m.partition(".")[0] == "sidenet"]:
        del sys.modules[module]
    sn = import_sidenet()
    t1 = time.perf_counter()
    w = WORKLOADS[name](sn, seed)
    t2 = time.perf_counter()
    w.setup()
    return w, time.perf_counter() - t0 - (t2 - t1)


def snapshot(w):
    return {
        "engine": w.engine_totals(), "flow": w.flow_totals(),
        "channel": w.channel_totals(),
        "fabric": Counter(vars(w.sim.fabric.stats)),
        "ring_drops": w.ring_drops(), "ops": w.finished - w.failed,
        "connects": w.connects, "first_try": w.first_try,
        "wall": time.perf_counter(),
    }


def baseline_note(name, seed, digest, exact):
    if not BASELINE.exists():
        return "no baseline file"
    entry = json.loads(BASELINE.read_text()).get(name, {}).get(str(seed))
    if entry is None:
        return "seed not in baseline"
    same = entry["digest"] == digest and entry["exact"] == exact
    return "matches baseline" if same else "DIFFERS from baseline"


def run_untraced(name, seed, seconds):
    """setup_s and ops_per_s are in seconds at the reference CPU speed (see
    speed.py); the wall-clock figures are printed above the result."""
    setup_samples, setup_walls = [], []
    cal = calibrate()
    for _ in range(SETUPS):
        w, setup_s = timed_setup(name, seed)
        cal_after = calibrate()
        setup_walls.append(setup_s)
        setup_samples.append(to_ref_s(setup_s, cal, cal_after))
        cal = cal_after
    start_now, start_sent = w.sim.now, w.sim.fabric.stats.sent
    meter = SpeedMeter()
    w.run(seconds, w.prefix_ops, meter)
    meter.stop()
    digest, exact = exact_metrics(w, start_now, start_sent)
    ops = w.finished - w.failed
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops / meter.ref_s,
        **exact,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("digest %s seed %d: sha256 %s over %d ops (%s)"
          % (name, seed, digest, w.prefix_ops,
             baseline_note(name, seed, digest, exact)))
    print("setup_s samples: %s (wall: %s)"
          % (" ".join("%.4f" % v for v in setup_samples),
             " ".join("%.4f" % v for v in setup_walls)))
    print("ops_per_s over wall time: %.2f; %.2f s at reference speed in "
          "%.2f wall s, %d chunks" % (ops / meter.wall_s, meter.ref_s,
                                     meter.wall_s, meter.chunks))
    tail_ops = w.tail_ops or w.prefix_ops
    print("lat_tail_vus is p%g of the first %d ops"
          % (100 * (tail_rank(tail_ops) + 1) / tail_ops, tail_ops))
    return w, metrics, END_TO_END_UNITS


def run_traced(name, seed, seconds):
    """Half the time untraced (for the overhead ratio and the simulator's
    raw speed), then half traced; per-layer metrics of the traced half."""
    w, _ = timed_setup(name, seed)
    sn = w.sn
    start = snapshot(w)
    meter = SpeedMeter()
    w.run(seconds / 2, 0, meter)
    meter.stop()
    end = snapshot(w)
    untraced_ops_per_s = (end["ops"] - start["ops"]) / meter.ref_s
    frames_per_wall_s = ((end["fabric"]["sent"] - start["fabric"]["sent"])
                         / meter.wall_s)
    tracer = Tracer(lambda: w.finished)
    tracer.install(sn, (ClosedLoopClient, Responder, Pacer))
    mid = snapshot(w)
    meter = SpeedMeter()
    try:
        w.run(seconds / 2, 0, meter)
        meter.stop()
    finally:
        tracer.uninstall()
    after = snapshot(w)
    overhead = (after["ops"] - mid["ops"]) / meter.ref_s / untraced_ops_per_s
    metrics = layer_metrics(tracer, mid, after, frames_per_wall_s, overhead,
                            sn)
    eng = {k: after["engine"][k] - mid["engine"][k] for k in after["engine"]}
    if (tracer.built[sn.wire.PKT_SYN] != eng["syns_sent"]
            or tracer.built[sn.wire.PKT_SYNACK] != eng["synacks_sent"]):
        raise CheckError("traced SYN/SYN-ACK counts disagree with the engine "
                         "counters")
    if tracer.self_sum_s() > after["wall"] - mid["wall"]:
        raise CheckError("traced self times exceed the traced wall time")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / ("spans-%s-seed%d.jsonl" % (name, seed))
    tracer.write_spans(spans, mid["wall"])
    print("trace: %d spans written to %s" % (len(tracer.spans), spans))
    return w, metrics, PER_LAYER_UNITS


def run_one(args):
    runner = run_traced if args.trace else run_untraced
    try:
        w, metrics, units = runner(args.workload, args.seed, args.seconds)
    except CheckError as exc:
        print("perfbench: correctness check failed: %s" % exc, file=sys.stderr)
        return 1
    for key, value in metrics.items():
        print("%-28s %16.6f %s" % (key, value, units[key]))
    print(json.dumps({
        "correct": True,
        "attempted": w.finished,
        "failed": w.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload. Stops
    at the first workload that fails, with its exit code."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            for line in lines:
                print("[%s] %s" % (name, line))
            return proc.returncode
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_sidenet()  # exits 2 if this checkout has no importable sidenet
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
