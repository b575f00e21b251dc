"""Order-theoretic toolkit for two-part quantum systems.

The library models the coupling between the two parts of a compound
system as join-preserving maps between their property lattices, equips
those maps with Galois duals and a complete lattice structure, realizes
the Hilbert-space case through numerically tolerant subspace geometry and
linear/anti-linear operator states, and reproduces tensor-product
measurement probabilities through a projective-update cascade checked
against an independent Born-rule oracle. A finite model of proper-state
spaces carries the quantale of admissible state transitions.
"""

from .errors import (
    BadBasis,
    BadShape,
    CompoundnessError,
    DimensionMismatch,
    IllDefined,
    MixedSignatures,
    NoBounds,
    NonFinite,
    NotALattice,
    NotADensity,
    NotAPoset,
    NotComplement,
    NotInvolutive,
    NotJoinPreserving,
    NotMeetPreserving,
    NotMember,
    NotOrderReversing,
    NotOrthomodular,
    ParseError,
    PreconditionViolated,
    TooLarge,
    UnknownElement,
    UnknownSuite,
    ZeroOperator,
    ZeroVector,
)
from .lattice import (
    FiniteLattice,
    OrthoLattice,
    attach_ortho,
    build_lattice,
    foulis_order_check,
    lattice_from_order,
)
from .catalog import boolean, chain, mo, standard_lattices
from .galois import (
    JoinMap,
    MeetMap,
    QLattice,
    absurd_state,
    adjoint_of_meetmap,
    classify_map,
    compose_join_maps,
    enumerate_Q,
    galois_dual,
    is_join_preserving,
    is_meet_preserving,
    map_leq,
    order_antitone_check,
    pointwise_join,
    separation_state,
)
from .hilbert import (
    DEFAULT_TOL,
    Subspace,
    join_s,
    meet_s,
    ortho_s,
    projector,
    ray,
    sasaki_s,
    span,
)
from .operators import (
    ANTILINEAR,
    LINEAR,
    AtomicityReport,
    CompoundOperator,
    Quadruple,
    TensorVector,
    atomicity_probe,
    from_tensor,
    hs_norm,
    induced_map,
    quadruple,
    schmidt_tensor,
    to_tensor,
)
from .density import (
    DensityState,
    carrier,
    lueders,
    transition_probability,
)
from .cascade import (
    CascadeStep,
    CascadeTrace,
    born_probability,
    chain_order_check,
    check_prop2,
    run_cascade,
)
from .quantale import (
    ProperStateSpace,
    TransitionMap,
    check_quantale_laws,
    compose,
    enumerate_members,
    epimorphism_check,
    is_member,
    property_propagation,
    union_join,
)
from .reporting import LawFailure, LawRecorder, VerificationReport
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"
