"""What a process loads: the lazy export table of ``a1weyl`` and each command's imports.

The footprint tests run fresh ``python -S`` processes (no site-packages
``.pth`` hook can add modules), put ``src`` on ``sys.path`` by hand and
read ``sys.modules`` when the code ends, by a ``SystemExit`` too.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import a1weyl

SRC = Path(__file__).resolve().parents[1] / "src"

# Today's exports, by the submodule that defines them.
EXPORTS = {
    "errors": ["A1WeylError", "ConfigError", "DomainError", "InternalCheckError", "WordParseError"],
    "geometry": ["Move", "MoveTrace", "Path", "Simplex", "act_on_simplex", "base_simplex",
                 "is_loop", "path_of_word", "reduce_loop", "render_svg", "replay_trace"],
    "hyperbolic": ["CentralGenerator", "HyperbolicElement", "center_basis", "eval_word_hyp",
                   "gram_matrix", "identity_element_hyp", "is_central", "is_relation_hyp",
                   "matrix_of_element_hyp", "matrix_of_word", "preserves_gram"],
    "lattice": ["ReflectableBase", "ReflectableReport", "Root", "Semilattice", "baby_base",
                "baby_semilattice", "check_reflectable_set", "is_elliptic_like",
                "load_semilattice", "pairwise_semilattice", "reflect", "root_in_r0",
                "root_in_rx", "semilattice_from_dict", "semilattice_to_dict", "support",
                "support_pairs", "toroidal_semilattice", "validate_semilattice"],
    "presentation": ["Presentation", "ReplayedCertificate", "RewriteCertificate", "RewriteStep",
                     "VerificationReport", "headline_relator_count", "presentation_alternating",
                     "presentation_baby_w", "presentation_from_dict", "presentation_hyp",
                     "presentation_to_dict", "presentation_w_spre", "replay_certificate",
                     "rewrite_to_identity", "verify_presentation"],
    "weyl": ["WeylElement", "act_on_root", "alternating_sum", "compose", "enumerate_alternating",
             "eval_word", "identity_element", "inverse", "is_alternating", "is_relation_w",
             "matrix_of_element_w", "matrix_of_word_w", "witness_word_for_element"],
    "words": ["Word", "format_word", "parse_word", "random_relation_indices", "random_word",
              "validate_word"],
}
NAMES = sorted(n for names in EXPORTS.values() for n in names)


def imported(code: str, *argv: str) -> tuple[set[str], subprocess.CompletedProcess]:
    """The modules loaded by ``code`` in a fresh ``python -S`` with ``argv``, and the process.

    The names are the last line the process writes to stderr.
    """
    child = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
             f"try:\n    {code}\nfinally:\n    print(*sys.modules, file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-S", "-c", child, *argv],
                          capture_output=True, text=True, timeout=60)
    return set(done.stderr.splitlines()[-1].split()), done


def run_cli(*argv: str) -> tuple[set[str], subprocess.CompletedProcess]:
    """``imported`` for ``python -m a1weyl *argv``."""
    return imported("import runpy; runpy.run_module('a1weyl', run_name='__main__', alter_sys=True)",
                    *argv)


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "a1weyl" or m.startswith("a1weyl.")}


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "baby2.json"
    path.write_text(json.dumps({"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1]]}))
    return str(path)


def test_the_exports_are_pinned():
    assert len(NAMES) == 80
    assert a1weyl.__all__ == NAMES


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_export_is_the_object_its_submodule_defines(module, name):
    assert getattr(a1weyl, name) is getattr(importlib.import_module(f"a1weyl.{module}"), name)


def test_a_star_import_binds_every_export():
    namespace: dict = {}
    exec("from a1weyl import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(NAMES)
    assert all(namespace[n] is getattr(a1weyl, n) for n in NAMES)


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'a1weyl' has no attribute 'no_such_name'$"):
        a1weyl.no_such_name  # noqa: B018
    assert not hasattr(a1weyl, "no_such_name")


def test_dir_lists_every_export():
    assert set(NAMES) <= set(dir(a1weyl))
    assert "__version__" in dir(a1weyl)


def test_importing_the_package_and_the_cli_loads_only_errors_and_lattice():
    modules, done = imported("import a1weyl, a1weyl.cli")
    assert done.returncode == 0, done.stderr
    assert package_modules(modules) == {"a1weyl", "a1weyl.cli", "a1weyl.errors", "a1weyl.lattice"}


def test_the_first_use_of_an_export_loads_its_submodule_and_keeps_the_value():
    code = ("import sys, a1weyl; f = a1weyl.eval_word; "
            "assert vars(a1weyl)['eval_word'] is f is sys.modules['a1weyl.weyl'].eval_word")
    modules, done = imported(code)
    assert done.returncode == 0, done.stderr
    assert "a1weyl.weyl" in modules
    assert not {"a1weyl.geometry", "a1weyl.presentation", "a1weyl.hyperbolic"} & modules


def test_validate_loads_no_group_module(config):
    modules, done = run_cli("validate", "--config", config)
    assert (done.returncode, done.stdout) == (0, "ok: rank 2, 3 coset representatives\n")
    assert package_modules(modules) == {"a1weyl", "a1weyl.cli", "a1weyl.errors", "a1weyl.lattice"}


@pytest.mark.parametrize("command", [
    ["eval", "--group", "Wt", "g0", "g1"],
    ["eval", "g0", "g1"],
    ["check", "--group", "Wt", "g1", "g1"],
    ["alt-enum", "--k", "2"],
    ["center-basis"],
    ["oracle-compare", "--n", "3"],
])
def test_a_command_that_uses_no_presentation_loads_neither_it_nor_geometry(config, command):
    modules, done = run_cli(command[0], "--config", config, *command[1:])
    assert done.returncode == 0, done.stderr
    assert not {"a1weyl.geometry", "a1weyl.moves", "a1weyl.presentation"} & modules
    assert "fractions" not in modules


def test_importing_hyperbolic_does_not_load_fractions():
    modules, done = imported("import a1weyl.hyperbolic")
    assert done.returncode == 0, done.stderr
    assert {"a1weyl.hyperbolic", "a1weyl.intmat"} <= modules
    assert "fractions" not in modules


def test_no_module_imports_a_private_name_from_a_sibling():
    paths = sorted((SRC / "a1weyl").glob("*.py"))
    assert paths
    private = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("a1weyl")):
                private += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, "private names imported across modules: " + ", ".join(private)


def test_outside_moves_the_proof_is_read_only_through_its_reader():
    """Outside ``moves``, ``shapes_proved`` and ``reversible`` are imported by name and only called.

    The proof's cached state is read through ``shapes_proved()`` alone: no
    other module clears it, inspects its cache or reaches the function it
    wraps.
    """
    readers = {"shapes_proved", "reversible"}
    uses, other = 0, []
    for path in sorted((SRC / "a1weyl").glob("*.py")):
        if path.name == "moves.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name in readers:
                uses += 1
                if node.asname:
                    other.append(f"{path.name}:{node.lineno} imported as {node.asname}")
            elif (isinstance(node, ast.Name) and node.id in readers
                  or isinstance(node, ast.Attribute) and node.attr in readers):
                uses += 1
                if id(node) not in callees:
                    other.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr in ("cache_clear", "cache_info", "__wrapped__"):
                other.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert uses
    assert not other, "the proof read other than through a call of its reader: " + ", ".join(other)
