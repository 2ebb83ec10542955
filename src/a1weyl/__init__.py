"""Exact computations in the Weyl groups of rank-one reflection lattices.

The package models semilattices in ``Z^nu``, the rank-one root systems over
them, the reflection group on ``V`` and its hyperbolic extension, finite
presentations of both, and the simplex geometry whose loop moves certify the
word problem.  Everything is exact integer arithmetic with an overflow guard.
"""

from .errors import (
    A1WeylError,
    ConfigError,
    DomainError,
    InternalCheckError,
    WordParseError,
)
from .geometry import (
    Move,
    MoveTrace,
    Path,
    Simplex,
    act_on_simplex,
    base_simplex,
    is_loop,
    path_of_word,
    reduce_loop,
    render_svg,
    replay_trace,
)
from .hyperbolic import (
    CentralGenerator,
    HyperbolicElement,
    center_basis,
    eval_word_hyp,
    gram_matrix,
    identity_element_hyp,
    is_central,
    is_relation_hyp,
    matrix_of_element_hyp,
    matrix_of_word,
    preserves_gram,
)
from .lattice import (
    ReflectableBase,
    ReflectableReport,
    Root,
    Semilattice,
    baby_base,
    baby_semilattice,
    check_reflectable_set,
    is_elliptic_like,
    load_semilattice,
    pairwise_semilattice,
    reflect,
    root_in_r0,
    root_in_rx,
    semilattice_from_dict,
    semilattice_to_dict,
    support,
    support_pairs,
    toroidal_semilattice,
    validate_semilattice,
)
from .presentation import (
    Presentation,
    ReplayedCertificate,
    RewriteCertificate,
    RewriteStep,
    VerificationReport,
    headline_relator_count,
    presentation_alternating,
    presentation_baby_w,
    presentation_from_dict,
    presentation_hyp,
    presentation_to_dict,
    presentation_w_spre,
    replay_certificate,
    rewrite_to_identity,
    verify_presentation,
)
from .weyl import (
    WeylElement,
    act_on_root,
    alternating_sum,
    compose,
    enumerate_alternating,
    eval_word,
    identity_element,
    inverse,
    is_alternating,
    is_relation_w,
    matrix_of_element_w,
    matrix_of_word_w,
    witness_word_for_element,
)
from .words import (
    Word,
    format_word,
    parse_word,
    random_relation_indices,
    random_word,
    validate_word,
)

__version__ = "0.1.0"
