"""The benchmark's tracer wraps sidenet's entry points by name; each must
exist where the tracer looks, or `perfbench/run.py --trace 1` crashes."""

import re
import types
from dataclasses import fields
from pathlib import Path

import sidenet
from sidenet import wire
from sidenet.channel import ChannelStats
from sidenet.engine import EngineStats
from sidenet.fabric import FabricStats
from sidenet.transport import FlowStats

from conftest import connect_established, make_pair

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
RUN = TRACING.with_name("run.py")


def _load_tracing():
    """Run perfbench/tracing.py from its source text, so that loading it
    writes nothing under perfbench/."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def test_every_traced_entry_point_resolves_on_sidenet():
    tracing = _load_tracing()
    assert tracing.SIDENET_ENTRY_POINTS
    for module, owner, attr, name in tracing.SIDENET_ENTRY_POINTS:
        target = getattr(sidenet, module)
        if owner is not None:
            target = getattr(target, owner)
        # The tracer reads vars(target)[attr]: an inherited or missing name
        # raises KeyError there.
        assert callable(vars(target)[attr]), name


def test_traced_handshake_frames_match_engine_counters():
    """What `perfbench/run.py --trace 1` cross-checks: with the tracer
    installed, the SYN and SYN-ACK frames it sees built equal the engines'
    counts of those sent."""
    tracer = _load_tracing().Tracer(lambda: 0)
    tracer.install(sidenet, [])
    try:
        sim, client, server, cch, sch = make_pair(seed=1, engines=4)
        connect_established(sim, client, cch, mode=sidenet.MODE_OPTIMIZED)
    finally:
        tracer.uninstall()
    syns = sum(eng.stats.syns_sent for eng in client.engines)
    synacks = sum(eng.stats.synacks_sent for eng in server.engines)
    assert syns and synacks
    assert tracer.built[wire.PKT_SYN] == syns
    assert tracer.built[wire.PKT_SYNACK] == synacks


def test_every_counter_the_benchmark_reads_is_a_stats_field():
    """perfbench sums each layer's stats into Counters and reads them by key,
    so a key that names no field reads 0 without an error. Each
    `eng`/`flow`/`chan`/`fab` lookup in its source must name a field of
    that layer's stats."""
    stats = {"eng": EngineStats, "flow": FlowStats, "chan": ChannelStats,
             "fab": FabricStats}
    lookups = {m for path in (TRACING, RUN)
               for m in re.findall(r'\b(eng|flow|chan|fab)\["(\w+)"\]',
                                   path.read_text())}
    assert {prefix for prefix, _ in lookups} == set(stats)
    for prefix, name in sorted(lookups):
        assert name in {f.name for f in fields(stats[prefix])}, (prefix, name)
