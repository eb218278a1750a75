"""Tomographic reconstruction of extremal qubit POVMs.

Forward correlations of a POVM against the Pauli-type settings on the
partially entangled state, linear-inversion reconstruction through the
state's Pauli correlation matrix, the off-diagonal ket-pair operators with
their admissible coefficient null space, and the explicit ancilla dilation
whose diagonal blocks are a reference POVM and its complex conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from . import qobjects as qo
from .qobjects import PAULIS, Povm, check_theta

# Ancilla qubit used for all dilations: the +1/-1 blocks live on
# |+> = (|0>+|1>)/sqrt(2) and |-> = (|0>-|1>)/sqrt(2).
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
PROJ_PLUS = np.outer(KET_PLUS, KET_PLUS.conj())
PROJ_MINUS = np.outer(KET_MINUS, KET_MINUS.conj())
FLIP_PM = np.outer(KET_PLUS, KET_MINUS.conj())  # |+><-|
# Ancilla factors of the four dilation blocks (E, E*, c T, c* T^dagger).
_DILATION_ANCILLA = np.stack([PROJ_PLUS, PROJ_MINUS, FLIP_PM, FLIP_PM.conj().T])


def eta_matrix(theta: float) -> np.ndarray:
    """Pauli correlation matrix <sigma_mu x sigma_nu> of the theta-state.

    Index order (I, X, Y, Z).  Nonzero pattern: eta_II = eta_ZZ = 1,
    eta_IZ = eta_ZI = cos t, eta_XX = sin t, eta_YY = -sin t; the
    determinant is -sin(t)^4.
    """
    theta = check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    m[3, 3] = 1.0
    m[0, 3] = m[3, 0] = c
    m[1, 1] = s
    m[2, 2] = -s
    return m


def eta_inverse(theta: float) -> np.ndarray:
    """Explicit block inverse of the correlation matrix.

    The {I, Z} block [[1, c], [c, 1]] inverts to [[1, -c], [-c, 1]]/s^2 and
    the X and Y blocks are scalars; conditioning is transparent.  Raises
    with the condition number when sin(t) is numerically zero.
    """
    theta = check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    if s**2 < 1e-14:
        # (1 + cos t)/(1 - cos t) without the cancellation in 1 - cos t
        kappa = 1.0 / math.tan(theta / 2) ** 2
        raise ValueError(f"correlation matrix numerically singular, cond = {kappa:.3e}")
    inv = np.zeros((4, 4))
    inv[0, 0] = inv[3, 3] = 1.0 / s**2
    inv[0, 3] = inv[3, 0] = -c / s**2
    inv[1, 1] = 1.0 / s
    inv[2, 2] = -1.0 / s
    return inv


@dataclass(frozen=True)
class CorrelationTable:
    """Per-outcome correlations <E_a x sigma_nu>, columns ordered (I, X, Y, Z)."""

    theta: float
    values: np.ndarray  # shape (n_outcomes, 4)


def correlations_from_povm(p: Povm, theta: float) -> CorrelationTable:
    """Forward map: trace each element against the Pauli settings on the state."""
    if p.dim != 2:
        raise ValueError("correlations are defined for qubit POVMs")
    theta = check_theta(theta)
    psi = qo.psi_theta_ket(theta).reshape(1, 1, 2, 2)
    return CorrelationTable(theta, mk.joint_table_kets(p.elements, PAULIS, psi)[0])


def reconstruct_povm(c: CorrelationTable) -> Povm:
    """Linear inversion: elements from correlations through the dual operators.

    Writing E_a = r_a^mu sigma_mu, the correlations are eta^T r_a, so
    r_a = eta^{-1} E_a row by row.  Exact round trip with
    :func:`correlations_from_povm`; corrupted rows simply produce element
    sets that fail `povm_validity`.
    """
    r = c.values @ eta_inverse(c.theta).T
    return Povm(np.einsum("am,mij->aij", r, PAULIS))


@dataclass(frozen=True)
class OffdiagSet:
    """Ket-pair operators |k_a><k_a*| and their admissible coefficient space.

    Each operator is complex symmetric and Y-orthogonal, so all of them live
    in the span of {I, X, Z}; four of them are never independent, at most
    three can be.  `null_basis` holds orthonormal coefficient vectors c with
    sum_a c_a T_a = 0.
    """

    operators: np.ndarray  # (m, d, d)
    null_basis: tuple[np.ndarray, ...]

    @property
    def null_dimension(self) -> int:
        return len(self.null_basis)


def offdiag_set(p: Povm) -> OffdiagSet:
    """Off-diagonal operators of a rank-one POVM plus their null space."""
    if p.kets is None:
        raise ValueError("off-diagonal operators need rank-one kets; attach them first")
    operators = p.kets[:, :, None] * p.kets[:, None, :]  # |k><k*| has entries k_i k_j
    return OffdiagSet(operators, tuple(mk.null_space(operators)))


def build_dilated_povm(p: Povm, coeffs) -> Povm:
    """Dilate a rank-one qubit POVM onto qubit x ancilla-qubit.

    R_a = E_a x |+><+| + E_a* x |-><-|
        + c_a T_a x |+><-| + c_a* T_a^dagger x |-><+|,

    with T_a = |k_a><k_a*|.  Requires |c_a| <= 1 (eigenvalues of R_a are
    |k_a|^2 (1 +- |c_a|) plus zeros) and sum_a c_a T_a = 0 (completeness);
    violations are rejected with the offending residual.
    """
    if p.kets is None:
        raise ValueError("dilation needs rank-one kets; attach them first")
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    if coeffs.shape[0] != p.n_outcomes:
        raise ValueError("one coefficient per outcome required")
    mags = np.abs(coeffs)
    if mags.max(initial=0.0) > 1.0 + mk.RANK_TOL:
        raise ValueError(f"coefficient magnitude {mags.max():.6f} exceeds 1")
    offdiags = p.kets[:, :, None] * p.kets[:, None, :]
    residual = float(np.linalg.norm(np.einsum("a,aij->ij", coeffs, offdiags)))
    if residual > mk.RANK_TOL:
        raise ValueError(f"coefficients do not close the completeness sum, residual {residual:.3e}")
    e = p.elements
    ct = coeffs[:, None, None] * offdiags
    blocks = np.stack([e, np.conj(e), ct, np.conj(np.swapaxes(ct, -1, -2))], axis=1)
    d = e.shape[-1] * 2
    elements = np.einsum("amij,mkl->aikjl", blocks, _DILATION_ANCILLA).reshape(-1, d, d)
    return Povm(elements)


_MAX_TRIES = 2000  # rejection-sampling attempts before a draw is refused


def random_extremal_povm(n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Seeded random extremal qubit POVM with 2, 3 or 4 rank-one outcomes.

    Sampling scheme (rejection with a 0.05 weight margin so the POVMs stay
    well conditioned):
      2 outcomes: a Haar-random projective pair.
      3 outcomes: three unit Bloch vectors in a random plane whose angular
        gaps are all below pi, weights solved from completeness.
      4 outcomes: four Haar-random kets, weights solved from the 4x4
        completeness system.
    """
    if n_outcomes == 2:
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        weights = [1.0, 1.0]
        normals = [n, -n]
        return qo.povm_from_bloch(weights, normals)

    if n_outcomes == 3:
        for _ in range(_MAX_TRIES):
            frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            f1, f2 = frame[:, 0], frame[:, 1]
            phis = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=3))
            gaps = np.diff(np.concatenate([phis, [phis[0] + 2.0 * math.pi]]))
            if gaps.max() >= math.pi:
                continue
            normals = [math.cos(p) * f1 + math.sin(p) * f2 for p in phis]
            a = np.vstack([np.ones(3), [n @ f1 for n in normals], [n @ f2 for n in normals]])
            try:
                w = np.linalg.solve(a, np.array([2.0, 0.0, 0.0]))
            except np.linalg.LinAlgError:
                continue
            if w.min() > 0.05:
                return qo.povm_from_bloch(w, normals)
        raise RuntimeError("failed to sample a feasible 3-outcome POVM")

    if n_outcomes == 4:
        for _ in range(_MAX_TRIES):
            kets = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            kets /= np.linalg.norm(kets, axis=1)[:, None]
            cross = 2.0 * np.conj(kets[:, 0]) * kets[:, 1]
            pops = np.abs(kets) ** 2
            normals = np.stack([cross.real, cross.imag, pops[:, 0] - pops[:, 1]], axis=1)
            a = np.vstack([np.ones(4), normals.T])
            try:
                w = np.linalg.solve(a, np.array([2.0, 0.0, 0.0, 0.0]))
            except np.linalg.LinAlgError:
                continue
            if w.min() > 0.05:
                return qo.povm_from_bloch(w, normals)
        raise RuntimeError("failed to sample a feasible 4-outcome POVM")

    raise ValueError(f"extremal qubit POVMs have at most 4 outcomes, got {n_outcomes}")
