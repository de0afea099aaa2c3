"""Source audit: no state in the package that is written but never read,
no exception class that is never raised, and no engine wake flag set where
the wake contract does not put one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sidenet"
# ConfigError.line is read by whoever catches the error (the scenario
# tests assert on it); nothing in the package itself loads it.
READ_BY_CALLERS = {"line"}
# The engine's own bookkeeping, then the application's two doorbells (the
# wake contract in engine.py).
WAKE_STORES = {"Engine.__init__", "Engine._refresh", "Engine.run_iteration",
               "Engine.submit", "Channel.send"}


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


def test_only_the_engine_and_the_application_doorbells_set_wake():
    """Every store to an attribute named `wake` sits in a method the wake
    contract names. Work produced inside an iteration needs none: the
    iteration sets the flag as it ends."""
    stores = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Attribute) and child.attr == "wake"
                    and isinstance(child.ctx, ast.Store)):
                stores.add(".".join(scope))
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), ())
    assert stores == WAKE_STORES
