"""Every function, class and module-level name defined in the package is used somewhere.

The module-level names are the targets of assignments at the top of a
module: constants and private helpers such as ``words._RootTwin``.  A name
counts as used when it is read somewhere in ``src``, ``tests``, ``scripts``
or ``bench``: loaded as a name or an attribute, or imported (an alias); an
assignment to it is no use.  Dunder names are left out, as Python reads them
itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "a1weyl"
READERS = ("src", "tests", "scripts", "bench")


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _assigned(node) -> list[ast.Name]:
    """The names a module-level statement assigns, unpacking included."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def defined_names() -> dict[str, str]:
    """Non-dunder ``def``, ``class`` and module-level assigned names of the package, with where."""
    out = {}
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        defs = [(n.name, n.lineno) for n in ast.walk(tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defs += [(n.id, n.lineno) for stmt in tree.body for n in _assigned(stmt)]
        for name, lineno in defs:
            if not (name.startswith("__") and name.endswith("__")):
                out.setdefault(name, f"{path.relative_to(ROOT)}:{lineno}")
    return out


def used_names() -> set[str]:
    paths = sorted(p for d in READERS if (ROOT / d).is_dir() for p in (ROOT / d).rglob("*.py"))
    out: set[str] = set()
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    out.add(node.asname)
    return out


def test_every_defined_name_is_used():
    used = used_names()
    dead = sorted(f"{name} ({where})" for name, where in defined_names().items() if name not in used)
    assert not dead, "defined but never used: " + ", ".join(dead)

