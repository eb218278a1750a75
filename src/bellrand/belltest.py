"""Bell expression evaluation and self-test witnesses.

A command checks its angles once, in :func:`qobjects.angle_stack`, which
builds the :class:`qobjects.AngleStack` of the tilt and the theta-state kets
that every angle-batched kernel reads.  Three such kernels each evaluate one
of the paper's claims over the stack: :func:`bell_values` gives the two
tilted CHSH expressions and the plain CHSH expression against their ideal
values, :func:`selftest_columns` adds the spectral self-test of the 4x4 Bell
operator as the self-test report's columns, whose rows
:func:`qobjects.report_rows` forms, and ``SCHEMES`` maps each randomness
scheme to its table function ``f(stack, epsilon)``, the rank-one ones as
|`matkernel.amplitudes`|^2 of the POVM families' kets.  The per-angle
functions (:func:`eval_bell` on :func:`ideal_scenario`,
:func:`spectral_selftest`, :func:`projective_joint_distribution`) build the
same quantities from validated objects one angle at a time and serve as
their oracle.  :func:`verify_b7_extraction` checks the trace-norm extraction
of the seventh observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matkernel as mk
from . import qobjects as qo
from .qobjects import Dichotomic, QState, check_theta


def _ideal_values(theta, w_plus) -> np.ndarray:
    """Targets (I, J, S), shape (..., 3): Bell energy 4 w_plus twice, then 2 sqrt(2) sin(theta)."""
    tilted = 4.0 * w_plus
    return np.stack([tilted, tilted, 2.0 * math.sqrt(2.0) * np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class BellScenario:
    """State plus measurement lists; operators act on (A,A') and (B,B')."""

    state: QState
    alice: tuple[Dichotomic, ...]
    bob: tuple[Dichotomic, ...]
    theta: float

    def __post_init__(self):
        if len(self.alice) < 3 or len(self.bob) < 6:
            raise ValueError("scenario needs at least 3 Alice and 6 Bob observables")
        da = int(np.prod(self.state.dims[:2]))
        db = int(np.prod(self.state.dims[2:]))
        for o in self.alice:
            if o.op.shape != (da, da):
                raise ValueError(f"Alice operator {o.label!r} has wrong dimension")
        for o in self.bob:
            if o.op.shape != (db, db):
                raise ValueError(f"Bob operator {o.label!r} has wrong dimension")


class BellValues(NamedTuple):
    theta: float
    beta: float
    i_value: float
    j_value: float
    s_value: float
    ideal_i: float
    ideal_j: float
    ideal_s: float

    @property
    def residuals(self) -> tuple[float, float, float]:
        return (
            abs(self.i_value - self.ideal_i),
            abs(self.j_value - self.ideal_j),
            abs(self.s_value - self.ideal_s),
        )


def ideal_scenario(theta: float, ancilla: np.ndarray = qo.ANCILLA_PURE) -> BellScenario:
    """Ideal realization: theta-state x ancilla kets (K, 2, 2) with the ideal observables."""
    theta = check_theta(theta)
    alice, bob = qo.ideal_measurements(theta)
    state = qo.compose_with_ancilla(qo.psi_theta(theta), qo.qstate_from_kets(ancilla))
    return BellScenario(state, tuple(alice), tuple(bob), theta)


def eval_bell(s: BellScenario) -> BellValues:
    """Evaluate the three Bell expressions on a scenario.

    I = <beta A1 + A1 (B1 + B2) + A2 (B1 - B2)>
    J = <beta A1 + A1 (B3 + B4) + A3 (B3 - B4)>
    S = <A2 (B5 + B6) + A3 (B5 - B6)>
    """
    theta = s.theta
    beta, w_plus, _, _ = qo.tilt(theta)
    db = s.bob[0].op.shape[0]
    # Rows A1..A3; column 0 is Bob's identity, columns 1..6 are B1..B6.
    t = mk.joint_table(
        [a.op for a in s.alice[:3]], [np.eye(db)] + [b.op for b in s.bob[:6]], s.state.rho
    ).tolist()
    i_value = beta * t[0][0] + t[0][1] + t[0][2] + t[1][1] - t[1][2]
    j_value = beta * t[0][0] + t[0][3] + t[0][4] + t[2][3] - t[2][4]
    s_value = t[1][5] + t[1][6] + t[2][5] - t[2][6]
    ideal_i, ideal_j, ideal_s = _ideal_values(theta, w_plus).tolist()
    return BellValues(theta, beta, i_value, j_value, s_value, ideal_i, ideal_j, ideal_s)


def _beta_and_defect(beta) -> tuple[np.ndarray, np.ndarray]:
    """Tilts given from outside as arrays (beta, delta = 2 - beta).

    Only 0 <= beta < 2 admits a quantum violation; a refusal names the first
    refused tilt.  2 - beta is exact for beta in [1, 2] (Sterbenz's lemma).
    """
    beta = np.asarray(beta, dtype=float)
    ok = (0.0 <= beta) & (beta < 2.0)
    if not ok.all():
        raise ValueError(f"beta must lie in [0, 2), got {beta[~ok].flat[0]}")
    return beta, 2.0 - beta


def _xx_weight(delta):
    """The Bell operator's X x X weight sqrt(2 - beta^2/2) as sqrt(delta (4 - delta) / 2)."""
    return np.sqrt(delta * (4.0 - delta) / 2.0)


def _recovered_angle(beta, delta):
    """theta from tan(theta) = sqrt(delta (4 - delta)) / (sqrt(2) beta), without cancellation."""
    return np.arctan2(_xx_weight(delta), beta)


def _bell_terms() -> np.ndarray:
    """The terms Z x I, Z x Z and X x X that `_bell_operators` weighs."""
    pairs = ((qo.PAULI_Z, qo.ID2), (qo.PAULI_Z, qo.PAULI_Z), (qo.PAULI_X, qo.PAULI_X))
    return np.stack([mk.kron(a, b) for a, b in pairs])


_BELL_TERMS = _bell_terms()  # the stacked kernels' terms, built once


def _bell_operators(beta, delta, terms=_BELL_TERMS) -> np.ndarray:
    """(..., 4, 4) stack of `bell_operator_I` from tilts, their defects and its terms."""
    coeffs = np.stack(
        [beta, math.sqrt(2.0) * np.sqrt(1.0 + beta**2 / 4.0), _xx_weight(delta)], axis=-1
    )
    return np.einsum("...m,mij->...ij", coeffs, terms)


def bell_operator_I(beta) -> np.ndarray:
    """The 4x4 tilted Bell operator at the optimal qubit measurements.

    beta Z x I + sqrt(2) sqrt(1 + beta^2/4) Z x Z
               + sqrt(2) sqrt(1 - beta^2/4) X x X.
    An array of tilts gives the stack (..., 4, 4).  Only 0 <= beta < 2 admits
    a quantum violation; anything else is rejected.  As the oracle of the
    stacked kernels it forms its terms anew on every call.
    """
    return _bell_operators(*_beta_and_defect(beta), _bell_terms())


def theta_of_beta(beta):
    """Invert the tilt relation sin(theta)^2 = (4 - beta^2) / (4 + beta^2), elementwise."""
    theta = _recovered_angle(*_beta_and_defect(beta))
    return float(theta) if theta.ndim == 0 else theta


class SpectralSelftest(NamedTuple):
    beta: float
    theta: float
    eigenvalues: tuple[float, float, float, float]
    top_eigvec_fidelity: float
    spectral_form_residual: float
    eigenvalue_residual: float


def spectral_selftest(beta: float) -> SpectralSelftest:
    """Spectral witness for the tilted Bell operator.

    Checks that the spectrum is {+-2 sqrt(2) sqrt(1+beta^2/4), 0, 0}, that the
    top eigenvector is the theta-state with theta recovered from beta, and
    that the operator equals E (psi - phi) for the spectral partner phi.
    """
    op = bell_operator_I(beta)
    w, v = mk.eigh(op)
    energy = 2.0 * math.sqrt(2.0) * math.sqrt(1.0 + beta**2 / 4.0)
    expected = np.array([energy, 0.0, 0.0, -energy])
    eigenvalue_residual = float(np.max(np.abs(w - expected)))
    theta = theta_of_beta(beta)
    psi_ket = qo.theta_ket(theta)[1]
    fidelity = float(np.abs(np.vdot(psi_ket, v[:, 0])) ** 2)
    spectral_form = energy * (qo.psi_theta(theta).rho - qo.phi_theta(theta).rho)
    residual = float(np.max(np.abs(op - spectral_form)))
    return SpectralSelftest(
        beta=float(beta),
        theta=theta,
        eigenvalues=tuple(float(x) for x in w),
        top_eigvec_fidelity=fidelity,
        spectral_form_residual=residual,
        eigenvalue_residual=eigenvalue_residual,
    )


class B7Report(NamedTuple):
    correlation: float
    bound: float
    saturates: bool
    is_x_tensor_i: bool
    sigma_full_rank: bool

    @property
    def consistent(self) -> bool:
        # saturation of the trace-norm bound must single out X x I
        return self.saturates == self.is_x_tensor_i


def verify_b7_extraction(
    theta: float, candidate: Dichotomic, sigma_bprime: QState
) -> B7Report:
    """Trace-norm extraction check for the seventh observable.

    The correlation equals sin(t) Tr[B7 (X x sigma_B')/2]; the operator
    (X x sigma_B')/2 has trace norm 1, so the correlation saturates sin(t)
    exactly when B7 = X x I, provided sigma_B' has full rank.  A
    rank-deficient sigma_B' is flagged in the report rather than raised.
    """
    theta = check_theta(theta)
    sigma = sigma_bprime.rho
    full_rank = bool(np.linalg.eigvalsh(sigma).min() > mk.ZERO_TOL)
    metric = 0.5 * mk.kron(qo.PAULI_X, sigma)
    correlation = math.sin(theta) * mk.expval(candidate.op, metric)
    bound = math.sin(theta)
    saturates = abs(correlation - bound) <= mk.IDENTITY_TOL
    target = mk.kron(qo.PAULI_X, np.eye(sigma.shape[0]))
    is_x = bool(np.max(np.abs(candidate.op - target)) <= mk.IDENTITY_TOL)
    return B7Report(correlation, bound, saturates, is_x, full_rank)


def projective_joint_distribution(
    theta: float, ancilla: np.ndarray = qo.ANCILLA_PURE
) -> np.ndarray:
    """Joint outcome distribution of the Y-type and X-type measurements.

    Y x A' and X x I on the theta-state x ancilla kets (K, 2, 2).  Returns a
    2x2 table indexed [a, b] with index 0 for outcome +1; all four
    probabilities equal 1/4 for any ancilla state with the perfect A'-B'
    correlation of the gauge A' = B' = Z.
    """
    theta = check_theta(theta)
    a3 = mk.kron(qo.PAULI_Y, qo.PAULI_Z)
    b7 = mk.kron(qo.PAULI_X, np.eye(2))
    rho = qo.compose_with_ancilla(qo.psi_theta(theta), qo.qstate_from_kets(ancilla)).rho
    proj_a = [0.5 * (np.eye(4) + a * a3) for a in (1, -1)]
    proj_b = [0.5 * (np.eye(4) + b * b7) for b in (1, -1)]
    return mk.joint_table(proj_a, proj_b, rho)


# ---------------------------------------------------------------------------
# Angle-batched kernels
# ---------------------------------------------------------------------------

DEFAULT_EPSILON = 1e-4  # tilt of the near-Y POVM in the 4x3 table
BELL_KEYS = ("I", "J", "S")  # the report keys of the three Bell expressions

# The kernels' operators on qubit x ancilla qubit.  Every ancilla state lives in
# the gauge A' = B' = Z, so the basis (I, Z x I, X x I, Y x Z) of Pauli products,
# dichotomic exactly, whose last three are Alice's observables (A1, A2, A3), and
# the +-1 projectors of Y x A' (Alice) and X x I (Bob) serve both ancillas; only
# their kets differ.  The angle stack carries the theta-state with
# `qo.ANCILLA_PURE`, and `global_projective_tables` adds `qo.ANCILLA_MIXED`.
_BASIS = np.stack(
    [
        np.eye(4),
        _BELL_TERMS[0],
        mk.kron(qo.PAULI_X, qo.ID2),
        mk.kron(qo.PAULI_Y, qo.PAULI_Z),
    ]
)
_PROJECTORS_A, _PROJECTORS_B = (
    np.stack([0.5 * (_BASIS[0] + sign * _BASIS[k]) for sign in (1, -1)]) for k in (3, 2)
)


def _spectral_selftests(beta, delta, energy) -> tuple[np.ndarray, ...]:
    """`spectral_selftest` over a stack of tilts and defects whose top eigenvalues are `energy`.

    Returns the descending spectra (N, 4), the recovered angles, the
    top-eigenvector fidelities with the theta-state at the recovered angle,
    the spectral-form residuals and the eigenvalue residuals (each (N,)).
    """
    op = _bell_operators(beta, delta)
    w, v = mk.eigh(op)
    eigenvalue_residual = np.max(np.abs(w - energy[:, None] * [1.0, 0.0, 0.0, -1.0]), axis=1)
    recovered = _recovered_angle(beta, delta)
    psi, phi = qo.theta_ket(recovered)[1], qo.phi_theta_ket(recovered)
    fidelity = np.abs(np.einsum("ni,ni->n", psi, v[:, :, 0])) ** 2
    form = energy[:, None, None] * (qo.ket_elements(psi) - qo.ket_elements(phi))
    return w, recovered, fidelity, np.max(np.abs(op - form), axis=(1, 2)), eigenvalue_residual


class BellRows(NamedTuple):
    """Bell values (I, J, S) of the ideal realization; row n belongs to the stack's theta[n]."""

    values: np.ndarray
    ideals: np.ndarray
    residuals: np.ndarray


def bell_values(stack: qo.AngleStack) -> BellRows:
    """The two tilted CHSH expressions and plain CHSH at every angle of the stack at once.

    Alice's three observables and Bob's four basis operators are contracted
    over the stacked kets cos(t/2)|0000> + sin(t/2)|1010> of the pure
    ancilla into an (N, 3, 4) table t.  Bob's observables enter each
    expression only as the pair sums B1 +- B2 = 2 w+ Z, 2 w- X;
    B3 +- B4 = 2 w+ Z, -2 w- Y x B'; B5 +- B6 = sqrt(2) X, -sqrt(2) Y x B',
    so I = beta t00 + 2 w+ t01 + 2 w- t12, J = beta t00 + 2 w+ t01 - 2 w- t23
    and S = sqrt(2) (t12 - t23).
    """
    t = mk.joint_table_kets(_BASIS[1:], _BASIS, stack.pure)
    tilted = stack.beta * t[:, 0, 0] + 2.0 * stack.w_plus * t[:, 0, 1]
    values = np.stack(
        [
            tilted + 2.0 * stack.w_minus * t[:, 1, 2],
            tilted - 2.0 * stack.w_minus * t[:, 2, 3],
            math.sqrt(2.0) * (t[:, 1, 2] - t[:, 2, 3]),
        ],
        axis=1,
    )
    ideals = _ideal_values(stack.theta, stack.w_plus)
    return BellRows(values, ideals, np.abs(values - ideals))


def selftest_columns(stack: qo.AngleStack) -> dict:
    """The self-test report's columns over the stack: the Bell values and the spectral self-test."""
    rows = bell_values(stack)
    spectrum, recovered, fidelity, form, eigen = _spectral_selftests(
        stack.beta, stack.delta, rows.ideals[:, 0]
    )
    return {
        "theta": stack.theta,
        "beta": stack.beta,
        "delta": stack.delta,
        **dict(zip(BELL_KEYS, rows.values.T)),
        "ideals": dict(zip(BELL_KEYS, rows.ideals.T)),
        "residuals": dict(zip(BELL_KEYS, rows.residuals.T)),
        "spectrum": spectrum,
        "theta_recovered": recovered,
        "fidelity": fidelity,
        "spectral_form_residual": form,
        "eigenvalue_residual": eigen,
    }


def bell_report(theta: float) -> dict:
    """JSON-ready self-test report for one angle: row 0 of :func:`selftest_columns`."""
    return qo.report_rows(selftest_columns(qo.angle_stack([theta])))[0]


# Scheme tables: (N, T, ...) per angle of the stack, the reported table first.
# `epsilon` is the tilt of the near-Y POVM, which only the 4x3 scheme measures.


def local_povm_tables(stack: qo.AngleStack, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """The adjusted-tetrahedral marginal on Alice's qubit, (N, 1, 4): sum_b |amp|^2 over |b>."""
    amp = mk.amplitudes(qo.adjusted_tetrahedral_kets(stack.theta), qo.ID2, stack.qubit)
    return np.sum(np.abs(amp) ** 2, axis=-1)[:, None]


def global_projective_tables(stack: qo.AngleStack, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """The Y x A' by X x I tables for the pure then the mixed ancilla, (N, 2, 2, 2)."""
    mixed = qo.with_ancilla(stack.qubit, qo.ANCILLA_MIXED)
    tables = [mk.joint_table_kets(_PROJECTORS_A, _PROJECTORS_B, k) for k in (stack.pure, mixed)]
    return np.stack(tables, axis=1)


def global_povm_tables(stack: qo.AngleStack, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """The near-Y by modified-Mercedes table |amp|^2, (N, 1, 4, 3)."""
    kets = qo.near_y_tetrahedral_kets(epsilon), qo.modified_mercedes_kets(stack.theta)
    return (np.abs(mk.amplitudes(*kets, stack.qubit)) ** 2)[:, None]


SCHEMES = {
    "local_povm": local_povm_tables,
    "global_projective": global_projective_tables,
    "global_povm": global_povm_tables,
}
