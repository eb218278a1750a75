"""Bell expression evaluation and self-test witnesses.

:func:`bell_batch` evaluates everything the commands report for a list of
angles at once: the two tilted CHSH expressions and the plain CHSH
expression against their ideal values, the spectral self-test of the 4x4
Bell operator, and the outcome tables of the three randomness schemes.  The
per-angle functions (:func:`eval_bell` on :func:`ideal_scenario`,
:func:`spectral_selftest`, :func:`projective_joint_distribution`) build the
same quantities from validated objects one angle at a time and serve as its
oracle.  :func:`verify_b7_extraction` checks the trace-norm extraction of the
seventh observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


def ideal_bell_values(theta) -> np.ndarray:
    """Targets (I, J, S), shape (..., 3): Bell energy 4 w_plus twice, then 2 sqrt(2) sin(theta)."""
    theta = check_theta(theta)
    tilted = 4.0 * qo.tilt(theta)[1]
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
    ideal_i, ideal_j, ideal_s = ideal_bell_values(theta).tolist()
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


def _bell_operators(beta, delta) -> np.ndarray:
    """(..., 4, 4) stack of `bell_operator_I` from tilts and their defects."""
    coeffs = np.stack(
        [beta, math.sqrt(2.0) * np.sqrt(1.0 + beta**2 / 4.0), _xx_weight(delta)], axis=-1
    )
    terms = [
        mk.kron(qo.PAULI_Z, qo.ID2),
        mk.kron(qo.PAULI_Z, qo.PAULI_Z),
        mk.kron(qo.PAULI_X, qo.PAULI_X),
    ]
    return np.einsum("...m,mij->...ij", coeffs, terms)


def bell_operator_I(beta) -> np.ndarray:
    """The 4x4 tilted Bell operator at the optimal qubit measurements.

    beta Z x I + sqrt(2) sqrt(1 + beta^2/4) Z x Z
               + sqrt(2) sqrt(1 - beta^2/4) X x X.
    An array of tilts gives the stack (..., 4, 4).  Only 0 <= beta < 2 admits
    a quantum violation; anything else is rejected.
    """
    return _bell_operators(*_beta_and_defect(beta))


def theta_of_beta(beta):
    """Invert the tilt relation sin(theta)^2 = (4 - beta^2) / (4 + beta^2), elementwise."""
    theta = _recovered_angle(*_beta_and_defect(beta))
    return float(theta) if theta.ndim == 0 else theta


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


# ---------------------------------------------------------------------------
# Angle-batched kernel
# ---------------------------------------------------------------------------

DEFAULT_EPSILON = 1e-4  # tilt of the near-Y POVM in the 4x3 table
_BOB_LABELS = ("B1", "B2", "B3", "B4", "B5", "B6")

# The batch's operators on qubit x ancilla qubit.  Both ancilla realizations it
# uses measure A' = B' = Z, so they share the basis (I, Z x I, X x I, Y x Z) of
# Bob's ideal observables, whose last three are Alice's (A1, A2, A3), and the
# +-1 projectors of Y x A' (Alice) and X x I (Bob); only their kets differ.
_BASIS = np.stack(
    [
        np.eye(4),
        mk.kron(qo.PAULI_Z, qo.ID2),
        mk.kron(qo.PAULI_X, qo.ID2),
        mk.kron(qo.PAULI_Y, qo.PAULI_Z),
    ]
)
qo.check_dichotomic_stack(_BASIS[None], ("I", "Z x I", "X x I", "Y x Z"))
_PROJECTORS_A, _PROJECTORS_B = (
    np.stack([0.5 * (_BASIS[0] + sign * _BASIS[k]) for sign in (1, -1)]) for k in (3, 2)
)


def _ancilla_kets(ancilla: AncillaRealization) -> np.ndarray:
    """(K, da, db) kets whose projectors sum to the ancilla state."""
    w, v = mk.eigh(ancilla.sigma.rho)
    keep = w > mk.RANK_TOL
    return (np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, *ancilla.sigma.dims)


_PURE_KETS = _ancilla_kets(ancilla_pure())
_MIXED_KETS = _ancilla_kets(qo.ancilla_mixed())


def _with_ancilla(qubit_kets: np.ndarray, ancilla_kets: np.ndarray) -> np.ndarray:
    """Kets psi x a_k on ((A, A'), (B, B')) from qubit kets (N, 1, 2, 2) and ancilla kets a_k."""
    full = np.einsum("nij,kab->nkiajb", qubit_kets[:, 0], ancilla_kets)
    return full.reshape(len(qubit_kets), len(ancilla_kets), 4, 4)


def _bob_weights(wp: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """(N, 7, 4) coefficients of Bob's identity and B1..B6 over `_BASIS`, from the tilt weights."""
    r = 1.0 / math.sqrt(2.0)
    w = np.zeros((len(wp), 7, 4))
    w[:, 0, 0] = 1.0
    w[:, 1:5, 1] = wp[:, None]
    w[:, 1, 2], w[:, 2, 2] = wm, -wm
    w[:, 3, 3], w[:, 4, 3] = -wm, wm
    w[:, 5, 2:] = (r, -r)
    w[:, 6, 2:] = (r, r)
    return w


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
    psi, phi = qo.psi_theta_ket(recovered), qo.phi_theta_ket(recovered)
    fidelity = np.abs(np.einsum("ni,ni->n", psi, v[:, :, 0])) ** 2
    form = energy[:, None, None] * (
        psi[:, :, None] * psi[:, None, :] - phi[:, :, None] * phi[:, None, :]
    )
    return w, recovered, fidelity, np.max(np.abs(op - form), axis=(1, 2)), eigenvalue_residual


@dataclass(frozen=True)
class BellBatch:
    """Per-angle results of the ideal realization; row n belongs to theta[n].

    `delta` is the tilt defect 2 - beta and `theta_recovered` the angle the
    spectral self-test recovers from (beta, delta).  `values`, `ideals` and
    `residuals` hold (I, J, S); `spectrum` is descending.  The tables are the
    adjusted-tetrahedral marginal (N, 4), the Y x A' by X x I projective
    tables (N, 2, 2, 2) for the pure then the mixed ancilla, and
    the near-Y by modified-Mercedes table (N, 4, 3).
    """

    theta: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    values: np.ndarray
    ideals: np.ndarray
    residuals: np.ndarray
    spectrum: np.ndarray
    theta_recovered: np.ndarray
    fidelity: np.ndarray
    spectral_form_residual: np.ndarray
    eigenvalue_residual: np.ndarray
    local_povm: np.ndarray
    projective: np.ndarray
    global_povm: np.ndarray

    def reports(self) -> list[dict]:
        """JSON-ready self-test report per angle: every field but the three scheme tables."""
        keys = ("I", "J", "S")
        names = [f.name for f in fields(self)[:-3]]
        reports = []
        for row in zip(*(getattr(self, name).tolist() for name in names)):
            rep = dict(zip(names, row))
            rep.update(zip(keys, rep.pop("values")))
            rep.update((k, dict(zip(keys, rep[k]))) for k in ("ideals", "residuals"))
            reports.append(rep)
        return reports


def bell_batch(thetas, epsilon: float = DEFAULT_EPSILON) -> BellBatch:
    """Every per-angle quantity the commands report, for all angles at once.

    The Bell values contract Alice's three observables and Bob's four basis
    operators over the stacked kets cos(t/2)|0000> + sin(t/2)|1010> of the
    pure ancilla into an (N, 3, 4) table, weighted by Bob's (N, 7, 4)
    coefficients.  The Bell operators go through one stacked eigh.  Bob's
    observables and every state stack are validated as one vectorized check
    each; a failure raises ValueError naming the check and the first failing
    angle.  The projective tables use the pure and the mixed ancilla.
    """
    theta = check_theta(np.asarray(thetas, dtype=float).reshape(-1))
    beta, wp, wm, delta = qo.tilt(theta)
    ideals = ideal_bell_values(theta)

    qubit = qo.psi_theta_ket(theta).reshape(-1, 1, 2, 2)
    pure, mixed = (_with_ancilla(qubit, kets) for kets in (_PURE_KETS, _MIXED_KETS))
    for stack in (qubit, pure, mixed):
        qo.check_ket_stack(stack, theta)

    weights = _bob_weights(wp, wm)
    bob = np.einsum("nbm,mij->nbij", weights[:, 1:], _BASIS)
    qo.check_dichotomic_stack(bob, _BOB_LABELS, theta)
    # Rows A1..A3; column 0 is Bob's identity, columns 1..6 are B1..B6.
    basis_table = mk.joint_table_kets(_BASIS[1:], _BASIS, pure)
    t = np.einsum("nam,nbm->nab", basis_table, weights)
    values = np.stack(
        [
            beta * t[:, 0, 0] + t[:, 0, 1] + t[:, 0, 2] + t[:, 1, 1] - t[:, 1, 2],
            beta * t[:, 0, 0] + t[:, 0, 3] + t[:, 0, 4] + t[:, 2, 3] - t[:, 2, 4],
            t[:, 1, 5] + t[:, 1, 6] + t[:, 2, 5] - t[:, 2, 6],
        ],
        axis=1,
    )

    spectrum, recovered, fidelity, form_residual, eigenvalue_residual = _spectral_selftests(
        beta, delta, ideals[:, 0]
    )

    elements_a = qo.bloch_elements(*qo.adjusted_tetrahedral_bloch(theta))
    mercedes = qo.bloch_elements(*qo.modified_mercedes_bloch(theta))
    near_y = qo.bloch_elements(*qo.near_y_tetrahedral_bloch(epsilon))
    return BellBatch(
        theta=theta,
        beta=beta,
        delta=delta,
        values=values,
        ideals=ideals,
        residuals=np.abs(values - ideals),
        spectrum=spectrum,
        theta_recovered=recovered,
        fidelity=fidelity,
        spectral_form_residual=form_residual,
        eigenvalue_residual=eigenvalue_residual,
        local_povm=mk.joint_table_kets(elements_a, [qo.ID2], qubit)[..., 0],
        projective=np.stack(
            [mk.joint_table_kets(_PROJECTORS_A, _PROJECTORS_B, k) for k in (pure, mixed)], axis=1
        ),
        global_povm=mk.joint_table_kets(near_y, mercedes, qubit),
    )


def bell_report(theta: float) -> dict:
    """JSON-ready self-test report for one angle: row 0 of :func:`bell_batch`."""
    return bell_batch([theta]).reports()[0]
