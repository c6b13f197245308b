"""Exact synthesis of single-qubit unitaries over Clifford + pi/n rotations.

All arithmetic is exact: matrices live over Z[zeta_2n, 1/2] represented by
integer coefficient vectors, circuits carry exact global phases, and the
synthesized circuits are provably minimal in their count of non-Clifford
pi/n rotations.
"""

from .cyclo import Context, CycInt, cyclotomic_poly, divides, exact_quotient, make_context
from .errors import (
    IntegrityError,
    NoPhaseMatchError,
    NoReducingKError,
    NotReducibleError,
    PhaseNotInRingError,
    SynthesisError,
)
from .rings import (
    BetaConstant,
    RingElem,
    as_zeta_power,
    beta_constant,
    beta_exponent,
    mu,
    q_of,
)
from .ringsynth import (
    ColumnRn,
    base_case_column,
    complete_unitary,
    fn_census,
    iter_census,
    mu_threshold,
    phase_condition,
    phase_condition_witness,
    reduce_column_step,
    synthesize_ring,
    verify_finite_lemma,
    z_rotation_classify,
)
from .so3 import (
    CliffordRot,
    Rotation,
    bloch,
    clifford_group,
    clifford_unitary,
    is_signed_permutation,
    rotation_generator,
)
from .su2 import (
    CONJ_WORDS,
    GateSequence,
    UnitaryRn,
    apply_gates,
    equal_up_to_phase,
    eval_sequence,
    h0,
    matrix_from_json,
    matrix_to_json,
    pauli,
    s_gate,
    scalar_gate,
    u_axis,
    uz_power,
    w_gate,
)
from .synth import (
    CanonicalForm,
    MembershipResult,
    axis_detect,
    bfs_cosets,
    brute_force_min_tcount,
    canonical_form,
    canonicalize_sequence,
    exponent_profile,
    membership,
    random_unitary,
    tcount,
    to_circuit,
)

__version__ = "0.1.0"
