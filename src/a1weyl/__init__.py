"""Exact computations in the Weyl groups of rank-one reflection lattices.

The package models semilattices in ``Z^nu``, the rank-one root systems over
them, the reflection group on ``V`` and its hyperbolic extension, finite
presentations of both, and the simplex geometry whose loop moves certify the
word problem.  Everything is exact integer arithmetic with an overflow guard.

The exported names are loaded on first use (PEP 562): ``import a1weyl`` runs
no submodule, and ``a1weyl.eval_word`` imports ``a1weyl.weyl`` and what it
needs, so a process pays only for the modules it uses.
"""

from importlib import import_module

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", (
            "A1WeylError",
            "ConfigError",
            "DomainError",
            "InternalCheckError",
            "WordParseError",
        )),
        ("geometry", (
            "Move",
            "MoveTrace",
            "Path",
            "Simplex",
            "act_on_simplex",
            "base_simplex",
            "is_loop",
            "path_of_word",
            "reduce_loop",
            "render_svg",
            "replay_trace",
        )),
        ("hyperbolic", (
            "CentralGenerator",
            "HyperbolicElement",
            "center_basis",
            "eval_word_hyp",
            "gram_matrix",
            "identity_element_hyp",
            "is_central",
            "is_relation_hyp",
            "matrix_of_element_hyp",
            "matrix_of_word",
            "preserves_gram",
        )),
        ("lattice", (
            "ReflectableBase",
            "ReflectableReport",
            "Root",
            "Semilattice",
            "baby_base",
            "baby_semilattice",
            "check_reflectable_set",
            "is_elliptic_like",
            "load_semilattice",
            "pairwise_semilattice",
            "reflect",
            "root_in_r0",
            "root_in_rx",
            "semilattice_from_dict",
            "semilattice_to_dict",
            "support",
            "support_pairs",
            "toroidal_semilattice",
            "validate_semilattice",
        )),
        ("presentation", (
            "Presentation",
            "ReplayedCertificate",
            "RewriteCertificate",
            "RewriteStep",
            "VerificationReport",
            "headline_relator_count",
            "presentation_alternating",
            "presentation_baby_w",
            "presentation_from_dict",
            "presentation_hyp",
            "presentation_to_dict",
            "presentation_w_spre",
            "replay_certificate",
            "rewrite_to_identity",
            "verify_presentation",
        )),
        ("weyl", (
            "WeylElement",
            "act_on_root",
            "alternating_sum",
            "compose",
            "enumerate_alternating",
            "eval_word",
            "identity_element",
            "inverse",
            "is_alternating",
            "is_relation_w",
            "matrix_of_element_w",
            "matrix_of_word_w",
            "witness_word_for_element",
        )),
        ("words", (
            "Word",
            "format_word",
            "parse_word",
            "random_relation_indices",
            "random_word",
            "validate_word",
        )),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # Relative to ``__name__``, so a copy of the package under another name
    # loads its own submodules.
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
