"""Randomness certification numerics for partially entangled two-qubit Bell tests.

Submodules
----------
matkernel   dense complex-matrix primitives (kron, partial trace, eigh, ...)
qobjects    states, observables, POVM families and their reports
belltest    angle-batched Bell values, spectral self-tests and outcome tables
tomography  POVM reconstruction, off-diagonal operators, ancilla dilations
adversary   conjugation attack, qubit reduction, min-entropy cap
cli         command-line reports (selftest / certify / attack / sweep)
"""

from . import adversary, belltest, matkernel, qobjects, tomography
from .adversary import (
    AttackModel,
    ConditionalJoint,
    DegenerateAttackError,
    build_attack,
    chi_states,
    closed_form_joint,
    evaluate_attack,
    min_entropy,
    qubit_reduction_check,
    randomness_cap,
)
from .belltest import (
    BellScenario,
    BellValues,
    bell_operator_I,
    eval_bell,
    ideal_scenario,
    projective_joint_distribution,
    spectral_selftest,
    theta_of_beta,
    verify_b7_extraction,
)
from .qobjects import (
    Dichotomic,
    Povm,
    QState,
    adjusted_tetrahedral,
    beta_of_theta,
    conjugate_povm,
    ideal_measurements,
    modified_mercedes,
    near_y_tetrahedral,
    povm_extremality,
    povm_validity,
    psi_theta,
)
from .tomography import (
    CorrelationTable,
    EtaMatrix,
    build_dilated_povm,
    correlations_from_povm,
    eta_matrix,
    offdiag_set,
    random_extremal_povm,
    reconstruct_povm,
)

__version__ = "0.1.0"
