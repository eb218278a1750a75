"""Tomographic reconstruction of extremal qubit POVMs.

Forward correlations of a POVM against the Pauli-type settings on the
partially entangled state, their closed-form inversion through the state's
2x2 amplitude matrix Psi = diag(cos t/2, sin t/2), the off-diagonal ket-pair
operators with their SVD null space (an oracle), and the explicit ancilla
dilation whose diagonal blocks are a reference POVM and its complex conjugate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import matkernel as mk
from . import qobjects as qo
from .qobjects import PAULIS, Povm


def eta_matrix(theta: float) -> np.ndarray:
    """Pauli correlation matrix <sigma_mu x sigma_nu> of the theta-state, as a Born table.

    Index order (I, X, Y, Z).  Nonzero pattern: eta_II = eta_ZZ = 1,
    eta_IZ = eta_ZI = cos t, eta_XX = sin t, eta_YY = -sin t; the
    determinant is -sin(t)^4.
    """
    psi = qo.theta_ket(theta)[1].reshape(1, 1, 2, 2)
    return mk.joint_table_kets(PAULIS, PAULIS, psi)[0]


class CorrelationTable(NamedTuple):
    """Per-outcome correlations <E_a x sigma_nu>, columns ordered (I, X, Y, Z)."""

    theta: float
    values: np.ndarray  # shape (n_outcomes, 4)


def correlations_from_povm(p: Povm, theta: float) -> CorrelationTable:
    """Forward map: trace each element against the Pauli settings on the state."""
    if p.dim != 2:
        raise ValueError("correlations are defined for qubit POVMs")
    theta, psi = qo.theta_ket(theta)
    psi = psi.reshape(1, 1, 2, 2)
    return CorrelationTable(theta, mk.joint_table_kets(p.elements, PAULIS, psi)[0])


def reconstruct_povm(c: CorrelationTable) -> Povm:
    """Closed-form inversion through the amplitude matrix Psi = diag(cos t/2, sin t/2).

    C_a,nu = Tr[Psi E_a Psi sigma_nu^T] and the sigma_nu^T / sqrt 2 are orthonormal, so
    E_a = D ((1/2) sum_nu C_a,nu sigma_nu^T) D with D = Psi^-1: an exact round trip with
    :func:`correlations_from_povm`.  Corrupted rows give element sets that fail
    `povm_validity`; values not (m, 4), or sin(t) numerically zero, are refused.
    """
    values = np.asarray(c.values)
    if values.ndim != 2 or values.shape[1] != 4:
        raise ValueError(f"correlation values must have shape (m, 4), got {values.shape}")
    theta = qo.check_theta(c.theta)
    if math.sin(theta) ** 2 < 1e-14:
        # cot(t/2)^2 = cond(eta) = cond(Psi)^2, without the cancellation in 1 - cos t
        kappa = 1.0 / math.tan(theta / 2) ** 2
        raise ValueError(f"correlation matrix numerically singular, cond = {kappa:.3e}")
    d = 1.0 / np.array([math.cos(theta / 2), math.sin(theta / 2)])
    m = 0.5 * np.einsum("an,nji->aij", values, PAULIS)  # Psi E_a Psi = sum_nu C_a,nu sigma_nu^T / 2
    return Povm(d[:, None] * m * d)


class OffdiagSet(NamedTuple):
    """Ket-pair operators |k_a><k_a*| and an orthonormal basis of {c : sum_a c_a T_a = 0}."""

    operators: np.ndarray  # (m, d, d)
    null_basis: tuple[np.ndarray, ...]

    @property
    def null_dimension(self) -> int:
        return len(self.null_basis)


def rank_one_kets(p: Povm) -> np.ndarray:
    """The kets (m, d) of a rank-one POVM; refuses a POVM without kets or with a non-finite one."""
    if p.kets is None:
        raise ValueError("the POVM has no rank-one kets; attach them first")
    finite = np.where(np.isfinite(p.kets), 0.0, np.nan)
    mk.refuse_beyond(finite, mk.ZERO_TOL, "non-finite ket", "outcome {}".format)
    return p.kets


def offdiag_set(p: Povm) -> OffdiagSet:
    """The operators |k_a><k_a*| (entries k_i k_j) and their SVD null space: the minors' oracle."""
    kets = rank_one_kets(p)
    operators = kets[:, :, None] * kets[:, None, :]
    return OffdiagSet(operators, tuple(mk.null_space(operators)))


def check_dilation(coeffs, kets, outcome="outcome {}".format, row=None) -> None:
    """The dilation's realizability for coefficients (..., m) of kets (..., m, d), within RANK_TOL.

    |c_a| <= 1, a refusal naming `outcome(*index)`, then completeness,
    sum_a c_a T_a = 0 with T_a = |k_a><k_a*|, a refusal naming `row(*index)`.
    """
    mk.refuse_beyond(np.abs(coeffs) - 1.0, mk.RANK_TOL, "|c_a| - 1", outcome)
    closure = np.einsum("...a,...ai,...aj->...ij", coeffs, kets, kets)
    residual = np.linalg.norm(closure, axis=(-2, -1))
    mk.refuse_beyond(residual, mk.RANK_TOL, "completeness residual", row)


def build_dilated_povm(p: Povm, coeffs) -> Povm:
    """:func:`dilate` behind its gates, for coefficients from outside, one per outcome.

    :func:`rank_one_kets` refuses a POVM without kets or with a non-finite one, and
    :func:`check_dilation` requires |c_a| <= 1 (eigenvalues of R_a are
    |k_a|^2 (1 +- |c_a|) plus zeros) and completeness, sum_a c_a T_a = 0.
    """
    kets = rank_one_kets(p)
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    if coeffs.shape[0] != p.n_outcomes:
        raise ValueError("one coefficient per outcome required")
    check_dilation(coeffs, kets)
    return dilate(p, coeffs)


def dilate(p: Povm, coeffs) -> Povm:
    """Dilate a rank-one qubit POVM onto qubit x ancilla-qubit, with coefficients (m,) gated.

    R_a = E_a x |0><0| + c_a T_a x |0><1| + c_a* T_a^dagger x |1><0| + E_a* x |1><1|,

    with T_a = |k_a><k_a*|: the blocks sit on the eigenbasis of the ancilla
    observable Z that the Bell kernels measure (A' = B' = Z).  All R_a come
    from one stack of the four blocks, transposed into (system, ancilla) order.
    """
    ct = coeffs[:, None, None] * (p.kets[:, :, None] * p.kets[:, None, :])  # c_a T_a
    e = p.elements
    m, d = e.shape[:2]
    blocks = np.stack([e, ct, np.conj(np.swapaxes(ct, -1, -2)), np.conj(e)], axis=1)
    r = blocks.reshape(m, 2, 2, d, d).transpose(0, 3, 1, 4, 2)  # [a, p, q, i, j] -> [a, i, p, j, q]
    return Povm(r.reshape(m, 2 * d, 2 * d))


_MAX_TRIES = 2000  # rejection-sampling attempts before a draw is refused
_BLOCK = 32  # 4-outcome tries drawn and weighed as one stack


def _completion_weights(coords: np.ndarray) -> np.ndarray:
    """Weights 2c / sum(c), c the signed minors of rows n_a (..., m, m - 1); NaN if sum(c) = 0."""
    c = mk.null_vector(coords)
    total = c.sum(axis=-1, keepdims=True)
    return 2.0 * c / np.where(total == 0.0, np.nan, total)


def random_extremal_povm(n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Seeded random extremal qubit POVM with 2, 3 or 4 rank-one outcomes.

    Sampling scheme (rejection with a 0.05 weight margin so the POVMs stay
    well conditioned):
      2 outcomes: a Haar-random projective pair, Bloch normals +-n.
      3 outcomes: three unit Bloch vectors in a random plane whose angular
        gaps are all below pi, weights from their in-plane coordinates.
      4 outcomes: four Haar-random kets, weights from their Bloch normals.
    Completeness, sum_a w_a (1, n_a) = (2, 0, ...), makes the weights the
    signed minors of the coordinates scaled to sum 2; a singular try gets NaN.
    The POVM is built from sqrt(w_a) times unit kets with a real nonnegative first
    amplitude: `qobjects.bloch_ket` of the normals, or the accepted try's kets for 4.

    Stream contract for 4 outcomes: each try reads 16 standard normals, the
    real and then the imaginary parts of the four kets as (4, 2) blocks.  A
    try whose completeness system is singular is rejected, and the generator
    is left just past the first accepted try.  Tries are drawn and weighed
    `_BLOCK` at a time, then the generator is rewound past the surplus, so
    the POVM and the generator's final state are those of drawing one try at
    a time.  After `_MAX_TRIES` rejected tries, which consume exactly
    16 * `_MAX_TRIES` normals, the draw raises RuntimeError.
    """
    if n_outcomes == 2:
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        return qo.povm_from_kets(qo.bloch_ket([1.0, 1.0], [n, -n]))

    if n_outcomes == 3:
        for _ in range(_MAX_TRIES):
            g = rng.normal(size=(3, 3))
            phis = a, b, c = sorted(rng.uniform(0.0, 2.0 * math.pi, size=3).tolist())
            if max(b - a, c - b, a + 2.0 * math.pi - c) >= math.pi:
                continue  # before the QR: the draws of a try do not depend on its frame
            frame = np.linalg.qr(g)[0]
            f1, f2 = frame[:, 0], frame[:, 1]
            normals = [math.cos(p) * f1 + math.sin(p) * f2 for p in phis]
            w = _completion_weights(np.array([[n @ f1, n @ f2] for n in normals]))
            if w.min() > 0.05:
                return qo.povm_from_kets(qo.bloch_ket(w, normals))
        raise RuntimeError("failed to sample a feasible 3-outcome POVM")

    if n_outcomes == 4:
        for start in range(0, _MAX_TRIES, _BLOCK):
            n = min(_BLOCK, _MAX_TRIES - start)
            state = rng.bit_generator.state
            z = rng.normal(size=(n, 2, 4, 2))
            kets = z[:, 0] + 1j * z[:, 1]
            kets /= np.linalg.norm(kets, axis=-1)[..., None]
            cross = 2.0 * np.conj(kets[..., 0]) * kets[..., 1]
            pops = np.abs(kets) ** 2
            normals = np.stack([cross.real, cross.imag, pops[..., 0] - pops[..., 1]], axis=-1)
            w = _completion_weights(normals)
            accepted = np.flatnonzero(w.min(axis=-1) > 0.05)
            if accepted.size:
                k = int(accepted[0])
                rng.bit_generator.state = state
                rng.normal(size=16 * (k + 1))  # leave the stream just past try k
                chosen = kets[k] * np.exp(-1j * np.angle(kets[k, :, :1]))
                chosen[:, 0] = chosen[:, 0].real  # the phase-fixed first amplitude, real and >= 0
                return qo.povm_from_kets(np.sqrt(w[k])[:, None] * chosen)
        raise RuntimeError("failed to sample a feasible 4-outcome POVM")

    raise ValueError(f"extremal qubit POVMs have 2, 3 or 4 outcomes, got {n_outcomes}")
