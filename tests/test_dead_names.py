"""Every function and class defined in the package is used somewhere.

A name counts as used when it appears as a name, an attribute or an import
alias in ``src``, ``tests``, ``scripts`` or ``bench``; dunder names are left
out, as Python calls them itself.
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


def defined_names() -> dict[str, str]:
    """Non-dunder ``def`` and ``class`` names of the package, each with where it is defined."""
    out = {}
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def used_names() -> set[str]:
    paths = sorted(p for d in READERS if (ROOT / d).is_dir() for p in (ROOT / d).rglob("*.py"))
    out: set[str] = set()
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
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

