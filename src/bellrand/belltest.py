"""Bell expression evaluation and self-test witnesses.

Evaluates the two tilted CHSH expressions and the plain CHSH expression
against their ideal values, verifies the 4x4 Bell operator spectrally, checks
the trace-norm extraction of the seventh observable, and computes the
two-bit joint distribution of the Y-type and X-type measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from . import qobjects as qo
from .qobjects import (
    AncillaRealization,
    Dichotomic,
    QState,
    ancilla_pure,
    beta_of_theta,
    check_theta,
)


def ideal_bell_values(theta: float) -> tuple[float, float, float]:
    """Target values (I, J, S) for the ideal realization at a given angle."""
    theta = check_theta(theta)
    beta = beta_of_theta(theta)
    tilted = 2.0 * math.sqrt(2.0) * math.sqrt(1.0 + beta**2 / 4.0)
    return tilted, tilted, 2.0 * math.sqrt(2.0) * math.sin(theta)


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


@dataclass(frozen=True)
class BellValues:
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


def ideal_scenario(theta: float, ancilla: AncillaRealization | None = None) -> BellScenario:
    """Ideal realization: theta-state x ancilla with the ideal observables."""
    theta = check_theta(theta)
    if ancilla is None:
        ancilla = ancilla_pure()
    alice, bob, sigma = qo.ideal_measurements(theta, ancilla)
    state = qo.compose_with_ancilla(qo.psi_theta(theta), sigma)
    return BellScenario(state, tuple(alice), tuple(bob), theta)


def eval_bell(s: BellScenario) -> BellValues:
    """Evaluate the three Bell expressions on a scenario.

    I = <beta A1 + A1 (B1 + B2) + A2 (B1 - B2)>
    J = <beta A1 + A1 (B3 + B4) + A3 (B3 - B4)>
    S = <A2 (B5 + B6) + A3 (B5 - B6)>
    """
    theta = s.theta
    beta = beta_of_theta(theta)
    db = s.bob[0].op.shape[0]
    # Rows A1..A3; column 0 is Bob's identity, columns 1..6 are B1..B6.
    t = mk.joint_table(
        [a.op for a in s.alice[:3]], [np.eye(db)] + [b.op for b in s.bob[:6]], s.state.rho
    ).tolist()
    i_value = beta * t[0][0] + t[0][1] + t[0][2] + t[1][1] - t[1][2]
    j_value = beta * t[0][0] + t[0][3] + t[0][4] + t[2][3] - t[2][4]
    s_value = t[1][5] + t[1][6] + t[2][5] - t[2][6]
    ideal_i, ideal_j, ideal_s = ideal_bell_values(theta)
    return BellValues(theta, beta, i_value, j_value, s_value, ideal_i, ideal_j, ideal_s)


def bell_operator_I(beta: float) -> np.ndarray:
    """The 4x4 tilted Bell operator at the optimal qubit measurements.

    beta Z x I + sqrt(2) sqrt(1 + beta^2/4) Z x Z
               + sqrt(2) sqrt(1 - beta^2/4) X x X.
    Only 0 <= beta < 2 admits a quantum violation; anything else is rejected.
    """
    beta = float(beta)
    if not (0.0 <= beta < 2.0):
        raise ValueError(f"beta must lie in [0, 2), got {beta}")
    return (
        beta * mk.kron(qo.PAULI_Z, qo.ID2)
        + math.sqrt(2.0) * math.sqrt(1.0 + beta**2 / 4.0) * mk.kron(qo.PAULI_Z, qo.PAULI_Z)
        + math.sqrt(2.0) * math.sqrt(1.0 - beta**2 / 4.0) * mk.kron(qo.PAULI_X, qo.PAULI_X)
    )


def theta_of_beta(beta: float) -> float:
    """Invert the tilt relation: sin(theta)^2 = (4 - beta^2) / (4 + beta^2)."""
    beta = float(beta)
    if not (0.0 <= beta < 2.0):
        raise ValueError(f"beta must lie in [0, 2), got {beta}")
    return math.asin(math.sqrt((4.0 - beta**2) / (4.0 + beta**2)))


@dataclass(frozen=True)
class SpectralSelftest:
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
    psi_ket = qo.psi_theta_ket(theta)
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


@dataclass(frozen=True)
class B7Report:
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
    theta: float, ancilla: AncillaRealization | None = None
) -> np.ndarray:
    """Joint outcome distribution of the Y-type and X-type measurements.

    Returns a 2x2 table indexed [a, b] with index 0 for outcome +1; all four
    probabilities equal 1/4 for any ancilla realization satisfying the
    perfect A'-B' correlation.
    """
    theta = check_theta(theta)
    if ancilla is None:
        ancilla = ancilla_pure()
    da = ancilla.a_prime.shape[0]
    db = ancilla.b_prime.shape[0]
    a3 = mk.kron(qo.PAULI_Y, ancilla.a_prime)
    b7 = mk.kron(qo.PAULI_X, np.eye(db))
    rho = qo.compose_with_ancilla(qo.psi_theta(theta), ancilla.sigma).rho
    proj_a = [0.5 * (np.eye(2 * da) + a * a3) for a in (1, -1)]
    proj_b = [0.5 * (np.eye(2 * db) + b * b7) for b in (1, -1)]
    return mk.joint_table(proj_a, proj_b, rho)


def bell_report(theta: float, ancilla: AncillaRealization | None = None) -> dict:
    """JSON-ready self-test report for one angle."""
    values = eval_bell(ideal_scenario(theta, ancilla))
    spectral = spectral_selftest(values.beta)
    return {
        "theta": float(theta),
        "beta": values.beta,
        "I": values.i_value,
        "J": values.j_value,
        "S": values.s_value,
        "ideals": {"I": values.ideal_i, "J": values.ideal_j, "S": values.ideal_s},
        "residuals": dict(zip(("I", "J", "S"), values.residuals)),
        "spectrum": list(spectral.eigenvalues),
        "fidelity": spectral.top_eigvec_fidelity,
        "spectral_form_residual": spectral.spectral_form_residual,
        "eigenvalue_residual": spectral.eigenvalue_residual,
    }
