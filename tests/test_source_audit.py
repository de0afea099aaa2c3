"""Source audit: no state in the package that is written but never read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sidenet"
# ConfigError.line is read by whoever catches the error (the scenario
# tests assert on it); nothing in the package itself loads it.
READ_BY_CALLERS = {"line"}


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
