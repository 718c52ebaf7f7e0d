"""Circulant graph isomorphism toolkit."""

from .core import (
    CirculantGraph,
    CycleStats,
    edge_set,
    fold,
    gcd_profile,
    make_circulant,
    period_cycle_stats,
    reflexive_reduce,
    symmetric_closure,
)
from .errors import (
    BudgetExceeded,
    CirculantError,
    DegenerateFamily,
    EmptyConnectionSet,
    InvalidFamilyParams,
    InvalidJump,
    InvalidThetaParams,
    NotAUnit,
    OrderMismatch,
    VerificationFailure,
)
from .families import (
    KINDS,
    FamilyClaim,
    FamilyInstance,
    FamilyVerification,
    ThetaRelation,
    anchor_swapped,
    family_general_p,
    family_m2,
    family_m2_general,
    family_m3,
    family_verify,
)
from .groups import (
    AppendedJumpReport,
    CensusRecord,
    CensusResult,
    CensusSummary,
    OrbitGroup,
    Type2Set,
    VSet,
    appended_jump_check,
    census,
    t2_group,
    t2_set,
    t2_set_equality,
    v_group,
    v_set,
)
from .oracle import (
    IsoWitness,
    brute_force_isomorphic,
    gcd_signature_check,
    same_spectrum,
    spectral_fingerprint,
    verify_theta_witness,
)
from .theta import (
    LabeledGraph,
    TableRow,
    TClassification,
    ThetaParams,
    Verdict,
    admissible_m,
    circulant_stride,
    classification_table,
    classify_steps,
    classify_t,
    detect_circulant,
    fill_steps,
    sweep_length,
    theta_image,
    theta_reasons,
    theta_vertex,
)
from .type1 import (
    Type1Group,
    Type1Set,
    phi_apply,
    type1_group,
    type1_set,
    type1_set_equality,
    type1_witnesses,
    units,
)

__all__ = [name for name in dir() if not name.startswith("_")]
