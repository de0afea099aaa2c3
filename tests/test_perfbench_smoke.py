"""The benchmark drives sidenet through names it reads from the outside:
`eng.flows`, `eng.listeners`, `Flow.key()`, `Flow.conservation_ok()`,
`vars(flow.stats)` and more. Each workload runs here for a few ops against
this checkout, so a change under src/ that breaks one of them fails this
suite, not the benchmark run.

The perfbench modules are run from their source text and registered under
their own names only for the test, so nothing is written under perfbench/.
"""

import sys
import types
from pathlib import Path

import pytest

import sidenet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Dependencies first: each module imports the ones before it by name.
MODULES = ("inputs", "speed", "tracing", "workloads", "run")
# conn_churn runs enough ops that most of its connects are repeats, which
# send one SYN on the pair their engine learned.
SMOKE_OPS = {"rpc_small": 300, "conn_churn": 300, "bulk_lossy": 3}
# The benchmark's digest of each smoke run at seed 1. A change that must not
# alter behaviour leaves these alone; a protocol change updates them and
# says why in CHANGES.md.
SMOKE_DIGESTS = {
    "rpc_small":
        "a959f975af7f6423312b40a812dfa3338f778ad9b1a7399932e940479982bc4e",
    "conn_churn":
        "03a991e871413a4260cf894c4ad40a2fae5daef606ee53808c17c81d3cbc2339",
    "bulk_lossy":
        "90cdcf75d0b71521a21c8291c7bc6e34bfea045c1f550dc44449161062a1f4c4",
}


@pytest.fixture
def perfbench(monkeypatch):
    loaded = {}
    for name in MODULES:
        path = PERFBENCH / (name + ".py")
        module = types.ModuleType(name)
        module.__file__ = str(path)
        monkeypatch.setitem(sys.modules, name, module)
        exec(compile(path.read_text(), str(path), "exec"), vars(module))
        loaded[name] = module
    return types.SimpleNamespace(**loaded)


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_workload_runs_a_few_checked_ops(perfbench, name):
    assert sorted(perfbench.workloads.WORKLOADS) == sorted(SMOKE_OPS)
    w = perfbench.workloads.WORKLOADS[name](sidenet, 1)
    w.setup()
    start_now, start_sent = w.sim.now, w.sim.fabric.stats.sent
    before = perfbench.run.snapshot(w)
    meter = perfbench.speed.SpeedMeter()
    w.run(0, SMOKE_OPS[name], meter)  # checks every op and the invariants
    meter.stop()
    after = perfbench.run.snapshot(w)
    assert w.finished >= SMOKE_OPS[name]
    assert w.failed == 0
    digest, exact = perfbench.run.exact_metrics(w, start_now, start_sent)
    assert digest == SMOKE_DIGESTS[name]
    assert exact["success_ratio"] == 1.0
    assert exact["frames_per_op"] > 0
    assert after["ops"] - before["ops"] == w.finished
    assert after["engine"]["frames_rx"] > before["engine"]["frames_rx"]
    assert after["flow"]["frags_sent_unique"] > 0
    # The benchmark names a flow by key() only in a failure message.
    for eng in w.engines():
        for key, flow in eng.flows.items():
            assert flow.key() == key and flow.conservation_ok()
