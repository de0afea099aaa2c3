"""Source audit: no state in the package that is written but never read,
no exception class that is never raised, no function or class that nothing
in the package uses unless it is listed with its reason, no engine wake
flag set and no RX ring read where the wake contract does not put one, and
no connection record, reserved flow key, known UDP pair or round-trip
estimate touched outside its owners."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sidenet"
# ConfigError.line is read by whoever catches the error (the scenario
# tests assert on it); nothing in the package itself loads it.
READ_BY_CALLERS = {"line"}
# Functions and classes that nothing in the package calls, each with the
# reason it stays. The tracer (perfbench/tracing.py) wraps its entry points
# by name; ROADMAP items 1 and 3 retarget it and retire what only it keeps.
USED_OUTSIDE_THE_PACKAGE = {
    "close": "public API: stack.close(flow) (docs/api.md)",
    "is_failed": "test helper: a handle's failed-or-reset probe",
    "tx_pending": "test helper: a channel's TX queue depth",
    "advance": "test helper: Fabric.advance_to by a delta",
    "steer": "test oracle: the bit-serial steering reference",
    "parse_frame": "test oracle; pinned by the tracer (wire.parse_frame)",
    "tx_burst": "NIC device surface; pinned by the tracer (nic.tx_burst)",
    "rx_burst": "NIC device surface; pinned by the tracer (nic.rx_burst)",
    "ToeplitzHasher": "pinned by the tracer (toeplitz.hash_bytes)",
    "hash_bytes": "pinned by the tracer (toeplitz.hash_bytes)",
}
# The engine's own recompute, then the application's one doorbell (the
# wake contract in engine.py).
WAKE_STORES = {"Engine.__init__", "Engine._refresh", "Engine._ring"}
# The engine's one connection table: every record is filed, looked up,
# replaced and dropped by an Engine method, and by no other module.
CONN_TABLE_SCOPES = {"Engine.__init__", "Engine._dispatch", "Engine._on_syn",
                     "Engine._app_send", "Engine._process_control",
                     "Engine.flows", "Engine.establish", "Engine.drop",
                     "Engine.fail_connects"}
# The flow keys a stack reserves for its own connects: made and handed to
# the engines at init, added to under the stack's lock by the allocator,
# read by the SYN path and freed by drop.
RESERVED_KEY_SCOPES = {"Stack.__init__", "Stack.init",
                       "Stack._alloc_flow_port", "Engine.__init__",
                       "Engine._on_syn", "Engine.drop"}
# Each engine's table of the UDP pairs that reached listeners: made at
# init, then read and written only by the engine's own client handshakes,
# so it stays engine-local.
PAIR_TABLE_SCOPES = {"Engine.__init__", "ClientHandshake.start",
                     "ClientHandshake.on_synack"}
# Each engine's RFC 6298 round-trip estimate per peer IP: made at init,
# then read and filed only by the engine's own server handshakes.
RTT_TABLE_SCOPES = {"Engine.__init__", "ServerHandshake.__init__",
                    "ServerHandshake.on_ack"}
# The binding, the iteration that drains the ring, and the three places
# that apply the readiness rule (`_next_allowed if _rx_ring else ready_at`).
RX_RING_READERS = {"Engine.__init__", "Engine.run_iteration",
                   "Engine.next_due", "_Driver._run_engines",
                   "_Driver._next_instant"}


def test_every_attribute_stored_on_self_is_read():
    """Each attribute a method stores on `self` is loaded, or augmented with
    `+=` and the like, somewhere in the package under the same name."""
    stored = {}
    read = set(READ_BY_CALLERS)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Attribute)):
                read.add(node.target.attr)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"):
                    stored.setdefault(node.attr,
                                      "%s:%d" % (path.name, node.lineno))
    unread = {attr: at for attr, at in stored.items() if attr not in read}
    assert unread == {}


def test_every_exception_class_is_raised():
    """Each exception class the package defines is raised somewhere in the
    package; one that never is promises callers an error they cannot get."""
    defined, raised = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name)
                    and base.id.endswith(("Error", "Exception"))
                    for base in node.bases)):
                defined[node.name] = "%s:%d" % (path.name, node.lineno)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)  # X(...) or X
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined, "no exception classes found"
    never = {name: at for name, at in defined.items() if name not in raised}
    assert never == {}


def test_every_function_and_class_is_used_in_the_package():
    """Each function, method and class the package defines (dunders aside)
    is loaded, called or imported somewhere in the package under the same
    name, or listed in USED_OUTSIDE_THE_PACKAGE; a helper that only tests
    call fails here until it is listed with its reason."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.setdefault(node.name,
                                       "%s:%d" % (path.name, node.lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif isinstance(node, ast.alias):  # imported, or re-exported
                used.add(node.name)
    unused = {name: at for name, at in defined.items() if name not in used}
    unlisted = {name: at for name, at in unused.items()
                if name not in USED_OUTSIDE_THE_PACKAGE}
    assert unlisted == {}
    assert set(USED_OUTSIDE_THE_PACKAGE) <= set(unused), "stale allow-list"


def _scopes_touching(attr, ctx=ast.AST):
    """The dotted class and function scopes in the package that use an
    attribute named `attr` in the context `ctx` (ast.Store, ast.Load, or
    either)."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ctx)):
                scopes.add(".".join(scope))
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), ())
    return scopes


def test_only_the_engine_and_the_application_doorbells_set_wake():
    """Every store to an attribute named `wake` sits in a method the wake
    contract names. Work produced inside an iteration needs none: the
    iteration recomputes `ready_at` as it ends."""
    assert _scopes_touching("wake", ast.Store) == WAKE_STORES


def test_only_the_iteration_and_the_drivers_poll_the_rx_ring():
    """`_rx_ring` appears only where the engine binds and drains it and
    where the readiness rule polls it. A cached value that counted frames
    would need the driver to decide when frames could move it."""
    assert _scopes_touching("_rx_ring") == RX_RING_READERS


def test_only_engine_methods_touch_the_connection_table():
    """`conns` holds each key's one record. Only the engine files, finds,
    replaces and drops records, so no module can change a connection's
    stage behind the engine's back."""
    assert _scopes_touching("conns") == CONN_TABLE_SCOPES


def test_only_the_allocator_and_the_engines_touch_the_reserved_keys():
    """`_reserved` crosses threads: the application's connect adds to it
    and the engine's drop discards from it (the comment in Engine.drop
    says why that is safe). No other scope may use it."""
    assert _scopes_touching("_reserved") == RESERVED_KEY_SCOPES


def test_only_the_engine_and_its_client_handshakes_touch_the_pair_table():
    """`peer_pairs` is engine-local: the engine makes it and its client
    handshakes read and refile it, so no other engine, thread or module
    shares what one engine learned about steering."""
    assert _scopes_touching("peer_pairs") == PAIR_TABLE_SCOPES


def test_only_the_engine_and_its_server_handshakes_touch_the_rtt_table():
    """`peer_rtts` is engine-local: the engine makes it and its server
    handshakes read it for their re-answer ladder and file their samples,
    so no other engine, thread or module shares what one engine timed."""
    assert _scopes_touching("peer_rtts") == RTT_TABLE_SCOPES
