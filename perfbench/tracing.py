"""Outside-in tracing of sidenet's layers.

The tracer replaces public callables of sidenet's modules (and the
benchmark's own app steps) with timing wrappers for the duration of a traced
segment, then restores them. A span stack gives each span's self time, its
duration minus the time covered by the spans it caused. Per-name totals
cover every call; raw spans (name, start, end, parent, step and op index)
are kept for the first SPAN_CAP calls and written out when the run ends.

Nothing under src/sidenet is modified: the wrappers live only in the
benchmark process.
"""

import json
from collections import Counter
from time import perf_counter

SPAN_CAP = 20_000

# (module, owner in that module or None for a module-level function,
#  attribute, span name). `sidenet.fabric` binds extract_four_tuple by name,
# so it is wrapped there as well as in `sidenet.wire`.
SIDENET_ENTRY_POINTS = [
    ("driver", "Sim", "step", "driver.step"),
    ("engine", "Engine", "due", "engine.due"),
    ("engine", "Engine", "next_due", "engine.next_due"),
    ("engine", "Engine", "run_iteration", "engine.run_iteration"),
    ("nic", "Nic", "tx_burst", "nic.tx_burst"),
    ("nic", "Nic", "rx_burst", "nic.rx_burst"),
    ("fabric", "Fabric", "send", "fabric.send"),
    ("fabric", "Fabric", "advance_to", "fabric.advance_to"),
    ("fabric", "Fabric", "collect_tx", "fabric.collect_tx"),
    ("toeplitz", "ToeplitzHasher", "hash_bytes", "toeplitz.hash_bytes"),
    ("wire", None, "build_frame", "wire.build_frame"),
    ("wire", None, "parse_frame", "wire.parse_frame"),
    ("wire", None, "extract_four_tuple", "wire.extract_four_tuple"),
    ("fabric", None, "extract_four_tuple", "wire.extract_four_tuple"),
    ("transport", "Flow", "send_message", "transport.send_message"),
    ("transport", "Flow", "on_data", "transport.on_data"),
    ("transport", "Flow", "on_sack", "transport.on_sack"),
    ("transport", "Flow", "on_rto", "transport.on_rto"),
    ("handshake", "ClientHandshake", "start", "handshake.start"),
    ("handshake", "ServerHandshake", "on_syn", "handshake.on_syn"),
    ("channel", "Channel", "send", "channel.send"),
    ("channel", "Channel", "recv", "channel.recv"),
    ("stack", "Stack", "connect", "stack.connect"),
]


class Tracer:
    def __init__(self, op_index):
        self.op_index = op_index  # callable: ops finished so far
        self.stats = {}  # span name -> [calls, total s, self s]
        self.built = Counter()  # frames built by wire.build_frame, per type
        self.spans = []
        self._stack = []
        self._next_id = [0]
        self._undo = []
        self._steps = self._stat("driver.step")

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def install(self, sn, app_classes):
        """Wrap sidenet's entry points, plus each benchmark app's step() and
        next_wake() so that app time is not counted as driver self time."""
        for module, owner, attr, name in SIDENET_ENTRY_POINTS:
            mod = getattr(sn, module)
            self._wrap(mod if owner is None else getattr(mod, owner), attr,
                       name)
        for cls in app_classes:
            for attr in ("step", "next_wake"):
                if attr in vars(cls):
                    self._wrap(cls, attr, "bench.app")

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _wrap(self, target, attr, name):
        original = vars(target)[attr]
        stat = self._stat(name)
        stack, spans = self._stack, self.spans
        next_id, steps, op_index = self._next_id, self._steps, self.op_index
        built = self.built if name == "wire.build_frame" else None

        def traced(*args, **kwargs):
            if built is not None:  # build_frame's 5th argument: pkt_type
                built[args[4] if len(args) > 4 else kwargs["pkt_type"]] += 1
            span_id = next_id[0]
            next_id[0] = span_id + 1
            step = steps[0]
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, t0, t1, parent, step,
                                  op_index()))

        traced.__wrapped__ = original
        setattr(target, attr, traced)
        self._undo.append((target, attr, original))

    # Readouts.

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_us(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1] * 1e6

    def self_us(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2] * 1e6

    def self_sum_s(self):
        return sum(s[2] for s in self.stats.values())

    def write_spans(self, path, t_origin):
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, step, op in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_us": round((t0 - t_origin) * 1e6, 3),
                    "end_us": round((t1 - t_origin) * 1e6, 3),
                    "parent": parent, "step": step, "op": op}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, before, after, frames_per_wall_s, ops_per_s_ratio, sn):
    """Per-layer metrics of one traced segment.

    before/after: counter snapshots (see snapshot() in run.py);
    frames_per_wall_s: fabric frames per wall second of the untraced segment
    that ran just before; ops_per_s_ratio: the traced segment's ops per
    second over the untraced one's, both at reference speed.
    """
    d = {key: after[key] - before[key] for key in after}
    eng, flow, chan, fab = d["engine"], d["flow"], d["channel"], d["fabric"]
    ops, connects = d["ops"], d["connects"]
    steps = tr.calls("driver.step")
    delivered = fab["delivered"]
    frags = flow["frags_sent_unique"]
    us = lambda name: _ratio(tr.total_us(name), tr.calls(name))
    self_us = lambda name: _ratio(tr.self_us(name), tr.calls(name))
    return {
        "driver.step_self_us": self_us("driver.step"),
        "driver.steps_per_op": _ratio(steps, ops),
        "engine.poll_us_per_step": _ratio(
            tr.total_us("engine.due") + tr.total_us("engine.next_due"), steps),
        "engine.iter_self_us": self_us("engine.run_iteration"),
        "engine.frames_per_iter": _ratio(eng["frames_rx"], eng["iterations"]),
        "engine.iters_per_op": _ratio(eng["iterations"], ops),
        "nic.tx_burst_us": us("nic.tx_burst"),
        "nic.rx_burst_us": us("nic.rx_burst"),
        "nic.ring_drops": d["ring_drops"],
        "fabric.send_self_us": self_us("fabric.send"),
        "fabric.deliver_self_us": _ratio(tr.self_us("fabric.advance_to"),
                                         delivered),
        "fabric.collect_tx_self_us": self_us("fabric.collect_tx"),
        "fabric.frames_per_wall_s": frames_per_wall_s,
        "toeplitz.hash_us": us("toeplitz.hash_bytes"),
        "toeplitz.hashes_per_frame": _ratio(tr.calls("toeplitz.hash_bytes"),
                                            delivered),
        "wire.build_us": us("wire.build_frame"),
        "wire.parse_us": us("wire.parse_frame"),
        "wire.four_tuple_per_frame": _ratio(
            tr.calls("wire.extract_four_tuple"), delivered),
        "wire.parses_per_frame": _ratio(tr.calls("wire.parse_frame"),
                                        delivered),
        "wire.builds_per_frame": _ratio(tr.calls("wire.build_frame"),
                                        fab["sent"]),
        "transport.send_us_per_frag": _ratio(
            tr.total_us("transport.send_message"), frags),
        "transport.on_data_us": us("transport.on_data"),
        "transport.on_sack_us": us("transport.on_sack"),
        "transport.retx_per_frag": _ratio(flow["retransmits"], frags),
        "transport.dup_per_frag": _ratio(flow["rx_duplicates"], frags),
        "transport.sacks_per_frag": _ratio(flow["sacks_sent"], frags),
        "transport.rto_fires": tr.calls("transport.on_rto"),
        "handshake.syns_per_conn": _ratio(tr.built[sn.wire.PKT_SYN], connects),
        "handshake.synacks_per_conn": _ratio(tr.built[sn.wire.PKT_SYNACK],
                                             connects),
        "handshake.first_try_share": _ratio(d["first_try"], connects),
        "handshake.wrong_engine_share": _ratio(eng["wrong_engine_syns"],
                                               eng["syns_rx"]),
        "handshake.start_us": us("handshake.start"),
        "handshake.on_syn_us": us("handshake.on_syn"),
        "channel.send_us": us("channel.send"),
        "channel.recv_us": us("channel.recv"),
        "channel.empty_poll_share": _ratio(chan["empty_polls"],
                                           tr.calls("channel.recv")),
        "stack.connect_us": us("stack.connect"),
        "trace.ops_per_s_ratio": ops_per_s_ratio,
    }
