"""Quantum domain objects.

The one angle model of the tilted-CHSH test (:func:`tilt`), the entangled
two-qubit state as a ket and a projector, the ideal Bell-test observables with
their ancilla realizations, POVMs with validity/extremality reports, and the
explicit POVM families used for randomness generation.

Pauli convention: Z = diag(1, -1), X = offdiag(1, 1), Y = offdiag(-i, i),
so Y|0> = i|1>.  This fixes all signs in the state expansion and in the
ideal measurements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([ID2, PAULI_X, PAULI_Y, PAULI_Z])  # index order (I, X, Y, Z)


# The smallest angle whose tilt defect delta ~ 2 theta^2 is a normal double.
THETA_MIN = math.sqrt(sys.float_info.min / 2)
_THETA_MAX = math.pi / 2 + mk.ZERO_TOL


def check_theta(theta):
    """The one angle gate, THETA_MIN <= theta <= pi/2: one float, or an array of them.

    An angle at most ZERO_TOL above pi/2 is rounding of pi/2 and comes back as
    pi/2, where cos(theta) and beta are still nonnegative.  A float comes back
    as a float; an array comes back as an array, and a refusal names the
    first refused angle.
    """
    if np.ndim(theta) == 0 and THETA_MIN <= float(theta) <= _THETA_MAX:
        return min(float(theta), math.pi / 2)  # one valid angle, without array overhead
    t = np.asarray(theta, dtype=float)
    ok = (THETA_MIN <= t) & (t <= _THETA_MAX)
    if not ok.all():
        raise ValueError(f"theta must lie in [{THETA_MIN!r}, pi/2], got {t[~ok].flat[0]}")
    return np.minimum(t, math.pi / 2)


def theta_grid(n: int) -> np.ndarray:
    """n angles in the half-open interval (0.01, pi/2]."""
    return np.linspace(0.01, math.pi / 2, n + 1)[1:]


def tilt(theta):
    """(beta, w_plus, w_minus, delta) of the tilted-CHSH family at Schmidt angle theta.

    With q = sqrt(1 + sin(t)^2), the Bell expressions carry the tilt beta = 2cos(t)/q
    and its defect delta = 2 - beta = 4sin(t)^2 / (q (q + cos(t))), and Bob's ideal
    observables weigh Z by w_plus = 1/q and the orthogonal axis by w_minus = sin(t)/q
    (Acin, Massar and Pironio, PRL 108, 100402 (2012)); the Bell energy is 4 w_plus.
    delta and the weights keep full relative accuracy as theta -> 0, where beta
    rounds to 2 and lambda_pm = 1 +- beta^2/4 cancels.  A float gives floats, an array arrays.
    """
    t = check_theta(theta)
    s, c = np.sin(t), np.cos(t)
    q = np.sqrt(1.0 + s**2)
    # (2 s)^2 rather than 4 s^2: s^2 is subnormal near THETA_MIN
    out = (2.0 * c / q, 1.0 / q, s / q, (2.0 * s) ** 2 / (q * (q + c)))
    return tuple(float(x) for x in out) if np.ndim(t) == 0 else out


def beta_of_theta(theta):
    """Tilt parameter of the modified CHSH expressions: 2cos(t)/sqrt(1+sin(t)^2)."""
    return tilt(theta)[0]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QState:
    """Density operator tagged with its ordered subsystem dimensions."""

    rho: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        rho = _readonly(self.rho)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        mk.check_shape(rho, self.dims)
        check_state_stack(rho[None])

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class Dichotomic:
    """Hermitian observable squaring to the identity (+1/-1 outcomes)."""

    op: np.ndarray
    label: str = ""

    def __post_init__(self):
        op = _readonly(self.op)
        object.__setattr__(self, "op", op)
        check_dichotomic_stack(op[None, None], (self.label,))


def check_dichotomic_stack(ops, labels, thetas=None) -> None:
    """The `Dichotomic` contract on a stack: ops[n, m] is observable labels[m] at thetas[n].

    Hermitian and O^2 = I within IDENTITY_TOL, one vectorized check per
    condition; a failure names the condition, the observable and, when
    `thetas` is given, the first failing angle.
    """
    ops = np.asarray(ops, dtype=complex)
    herm = np.max(np.abs(ops - np.conj(np.swapaxes(ops, -1, -2))), axis=(-2, -1))
    square = np.max(np.abs(ops @ ops - np.eye(ops.shape[-1])), axis=(-2, -1))
    for resid, what in ((herm, "must be Hermitian"), (square, "fails O^2 = I")):
        if resid.max(initial=0.0) > mk.IDENTITY_TOL:
            n, m = np.argwhere(resid > mk.IDENTITY_TOL)[0]
            at = f" at theta={float(thetas[n])!r}" if thetas is not None else ""
            raise ValueError(f"observable {labels[m]!r} {what}{at} (residual {resid[n, m]:.3e})")


def check_state_stack(rhos, where=None) -> None:
    """The `QState` contract on a stack of density operators rhos[n].

    Hermitian within ZERO_TOL, then PSD (one stacked `eigvalsh`) and unit
    trace within IDENTITY_TOL, one vectorized check per condition.  A failure
    names the condition, the offending value and, when `where` is given, the
    first failing member as `where(n)`.
    """
    rhos = np.asarray(rhos, dtype=complex)

    def refuse(what: str, n) -> None:
        at = f" at {where(int(n))}" if where is not None else ""
        raise ValueError(f"density operator {what}{at}")

    herm = np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, -1, -2))), axis=(-2, -1))
    if herm.max(initial=0.0) > mk.ZERO_TOL:
        n = np.argmax(herm > mk.ZERO_TOL)
        refuse(f"must be Hermitian (residual {herm[n]:.3e})", n)
    low = np.linalg.eigvalsh(rhos)[..., 0]
    if low.min(initial=0.0) < -mk.IDENTITY_TOL:
        n = np.argmax(low < -mk.IDENTITY_TOL)
        refuse(f"not PSD (min eigenvalue {low[n]:.3e})", n)
    tr = np.trace(rhos, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > mk.IDENTITY_TOL
    if bad.any():
        n = np.argmax(bad)
        refuse(f"trace {tr[n]} != 1", n)


def check_ket_stack(kets, thetas) -> None:
    """The `QState` contract on states given as kets: state n is sum_k |kets[n, k]><kets[n, k]|.

    Such a state is Hermitian and PSD by construction, so unit trace is the
    condition left; a failure names the first failing angle.
    """
    kets = np.asarray(kets, dtype=complex)
    tr = np.sum(np.abs(kets) ** 2, axis=tuple(range(1, kets.ndim)))
    bad = np.abs(tr - 1.0) > mk.IDENTITY_TOL
    if bad.any():
        n = np.argmax(bad)
        raise ValueError(f"density operator trace {tr[n]} != 1 at theta={float(thetas[n])!r}")


@dataclass(frozen=True)
class Povm:
    """Ordered POVM elements as one read-only (m, d, d) stack.

    The optional rank-one kets are a read-only (m, d) stack with element a
    equal to |kets[a]><kets[a]|.  Construction refuses any other shape but
    does not enforce validity; use :func:`povm_validity` so that deliberately
    corrupted element sets can be examined.
    """

    elements: np.ndarray
    kets: np.ndarray | None = None

    def __post_init__(self):
        elements = _readonly(self.elements)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise ValueError(f"POVM elements must be an (m, d, d) stack, not {elements.shape}")
        object.__setattr__(self, "elements", elements)
        if self.kets is not None:
            kets = _readonly(self.kets)
            if kets.shape != elements.shape[:2]:
                raise ValueError(
                    f"POVM kets of shape {kets.shape} do not fit elements of shape {elements.shape}"
                )
            object.__setattr__(self, "kets", kets)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]


def qstate_from_ket(ket, dims) -> QState:
    k = np.asarray(ket, dtype=complex).reshape(-1)
    k = k / np.linalg.norm(k)
    return QState(np.outer(k, k.conj()), tuple(dims))


def psi_theta_ket(theta) -> np.ndarray:
    """Schmidt-form state vector cos(t/2)|00> + sin(t/2)|11>; (..., 4) for an array of angles."""
    t = check_theta(theta)
    ket = np.zeros(np.shape(t) + (4,), dtype=complex)
    ket[..., 0], ket[..., 3] = np.cos(t / 2), np.sin(t / 2)
    return ket


def phi_theta_ket(theta) -> np.ndarray:
    """Spectral partner sin(t/2)|01> - cos(t/2)|10>; (..., 4) for an array of angles."""
    t = check_theta(theta)
    ket = np.zeros(np.shape(t) + (4,), dtype=complex)
    ket[..., 1], ket[..., 2] = np.sin(t / 2), -np.cos(t / 2)
    return ket


def psi_theta(theta: float) -> QState:
    """Rank-one projector onto the partially entangled two-qubit state."""
    return qstate_from_ket(psi_theta_ket(theta), (2, 2))


def phi_theta(theta: float) -> QState:
    """Spectral partner state sin(t/2)|01> - cos(t/2)|10>.

    Together with psi_theta it spans the +-eigenspaces of the tilted Bell
    operator.
    """
    return qstate_from_ket(phi_theta_ket(theta), (2, 2))


@dataclass(frozen=True)
class AncillaRealization:
    """Concrete ancilla pair (A', B', sigma) satisfying <A' x B'>_sigma = 1."""

    a_prime: np.ndarray
    b_prime: np.ndarray
    sigma: QState
    label: str = ""

    def correlation(self) -> float:
        return mk.expval(mk.kron(self.a_prime, self.b_prime), self.sigma.rho)


def ancilla_pure() -> AncillaRealization:
    """One qubit per side, A' = B' = Z, sigma = |00><00|."""
    sigma = qstate_from_ket(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
    return AncillaRealization(PAULI_Z, PAULI_Z, sigma, label="pure")


def ancilla_mixed() -> AncillaRealization:
    """One qubit per side, A' = B' = Z, sigma = (|00><00| + |11><11|)/2."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    return AncillaRealization(PAULI_Z, PAULI_Z, QState(rho, (2, 2)), label="mixed")


def ideal_measurements(
    theta: float, ancilla: AncillaRealization | None = None
) -> tuple[list[Dichotomic], list[Dichotomic], QState]:
    """Ideal Bell-test observables on qubit x ancilla for a given angle.

    Alice measures (Z, X, Y x A') and Bob the six tilted-CHSH combinations
    built from Z, X and Y x B' with the weights of :func:`tilt`.  Returns
    (alice, bob, sigma) where sigma is the ancilla state of the supplied
    realization (default: `ancilla_pure`).
    """
    _, wp, wm, _ = tilt(theta)
    if ancilla is None:
        ancilla = ancilla_pure()
    da = ancilla.a_prime.shape[0]
    db = ancilla.b_prime.shape[0]
    z_a = mk.kron(PAULI_Z, np.eye(da))
    x_a = mk.kron(PAULI_X, np.eye(da))
    y_ap = mk.kron(PAULI_Y, ancilla.a_prime)
    z_b = mk.kron(PAULI_Z, np.eye(db))
    x_b = mk.kron(PAULI_X, np.eye(db))
    y_bp = mk.kron(PAULI_Y, ancilla.b_prime)

    alice = [
        Dichotomic(z_a, "A1"),
        Dichotomic(x_a, "A2"),
        Dichotomic(y_ap, "A3"),
    ]
    bob = [
        Dichotomic(wp * z_b + wm * x_b, "B1"),
        Dichotomic(wp * z_b - wm * x_b, "B2"),
        Dichotomic(wp * z_b - wm * y_bp, "B3"),
        Dichotomic(wp * z_b + wm * y_bp, "B4"),
        Dichotomic((x_b - y_bp) / math.sqrt(2), "B5"),
        Dichotomic((x_b + y_bp) / math.sqrt(2), "B6"),
    ]
    return alice, bob, ancilla.sigma


def compose_with_ancilla(state: QState, sigma: QState) -> QState:
    """Full state on (A, A', B, B') from a qubit pair state and an ancilla pair.

    The plain tensor product orders subsystems (A, B, A', B'); the result is
    permuted into the package convention (A, A', B, B').
    """
    if state.dims != (2, 2) or len(sigma.dims) != 2:
        raise ValueError("expected a two-qubit state and a bipartite ancilla")
    da, db = sigma.dims
    rho = mk.kron(state.rho, sigma.rho)
    rho = mk.permute_subsystems(rho, (2, 2, da, db), (0, 2, 1, 3))
    return QState(rho, (2, da, 2, db))


# ---------------------------------------------------------------------------
# POVM reports and constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PovmValidity:
    is_valid: bool
    max_psd_violation: float
    completeness_residual: float


@dataclass(frozen=True)
class PovmExtremality:
    all_rank_one: bool
    linearly_independent: bool
    is_extremal_candidate: bool
    min_second_eigenvalue_margin: float
    independence_margin: float


def povm_validity(p: Povm) -> PovmValidity:
    """PSD and completeness check.

    The completeness residual is trace_norm(sum E_a - I) / dim, so a uniform
    scaling of one element by (1 + x) on a rank-one projector shows up as
    roughly x/dim.
    """
    d = p.dim
    psd_violation = max(0.0, -float(np.linalg.eigvalsh(p.elements).min()))
    residual = mk.trace_norm(p.elements.sum(axis=0) - np.eye(d)) / d
    valid = psd_violation <= mk.IDENTITY_TOL and residual <= mk.IDENTITY_TOL
    return PovmValidity(valid, psd_violation, residual)


def povm_extremality(p: Povm) -> PovmExtremality:
    """Operational extremality criteria for a qubit POVM.

    Checks that every element is rank one (second eigenvalue at most RANK_TOL)
    and that the elements are linearly independent (no more than d^2 of them
    and the smallest singular value of their stack above RANK_TOL).
    """
    if p.dim != 2:
        raise ValueError("extremality criteria implemented for qubit POVMs only")
    second = float(np.abs(np.linalg.eigvalsh(p.elements)[:, -2]).max())
    all_rank_one = second <= mk.RANK_TOL
    svals = np.linalg.svd(p.elements.reshape(p.n_outcomes, -1).T, compute_uv=False)
    # More elements than d^2 always leave a null space.
    fits = p.n_outcomes <= p.dim**2
    margin = float(svals.min()) if fits else 0.0
    independent = fits and margin > mk.RANK_TOL
    return PovmExtremality(all_rank_one, independent, all_rank_one and independent, second, margin)


def bloch_ket(weights, normals) -> np.ndarray:
    """Subnormalized kets (..., m, 2) of the elements (w/2)(I + n.sigma).

    Weights are (..., m) and Bloch normals (..., m, 3).  Global phase fixed
    by making the first amplitude real nonnegative.
    """
    n = np.asarray(normals, dtype=float)
    t = np.arccos(np.clip(n[..., 2], -1.0, 1.0))
    phi = np.arctan2(n[..., 1], n[..., 0])
    amplitudes = np.stack([np.cos(t / 2), np.sin(t / 2) * np.exp(1j * phi)], axis=-1)
    return np.sqrt(np.asarray(weights, dtype=float))[..., None] * amplitudes


def bloch_elements(weights, normals) -> np.ndarray:
    """Elements (w/2)(I + n.sigma) for weights (..., m) and Bloch normals (..., m, 3)."""
    w = np.asarray(weights, dtype=float)[..., None, None]
    n = np.asarray(normals, dtype=float)
    return (w / 2.0) * (ID2 + np.einsum("...k,kij->...ij", n, PAULIS[1:]))


def povm_from_bloch(weights, normals) -> Povm:
    return Povm(bloch_elements(weights, normals), bloch_ket(weights, normals))


TETRAHEDRAL_DELTAS = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)


def adjusted_tetrahedral_bloch(thetas) -> tuple[np.ndarray, np.ndarray]:
    """Weights (..., 4) and Bloch normals (..., 4, 3) of `adjusted_tetrahedral`.

    `thetas` is one checked angle or an array of them.
    """
    c = np.cos(thetas)
    lam1 = 1.0 / (2.0 + 2.0 * c)
    lam = (3.0 + 4.0 * c) / (6.0 + 6.0 * c)
    cos_g = -1.0 / (3.0 + 4.0 * c)
    sin_g = np.sqrt(1.0 - cos_g**2)
    weights = np.stack([lam1, lam, lam, lam], axis=-1)
    normals = np.zeros(np.shape(c) + (4, 3))
    normals[..., 0, 2] = 1.0
    for i, d in enumerate(TETRAHEDRAL_DELTAS, start=1):
        normals[..., i, 0] = sin_g * math.cos(d)
        normals[..., i, 1] = sin_g * math.sin(d)
        normals[..., i, 2] = cos_g
    return weights, normals


def adjusted_tetrahedral(theta: float) -> Povm:
    """Four-outcome POVM yielding uniform outcomes on the theta-state marginal.

    A tetrahedral POVM adjusted so that the first element points along +Z
    with weight 1/(2 + 2cos t) and the remaining three sit on a cone at
    cos(gamma) = -1/(3 + 4cos t) with azimuths `TETRAHEDRAL_DELTAS`.
    """
    weights, normals = adjusted_tetrahedral_bloch(check_theta(theta))
    return povm_from_bloch(weights, normals)


def modified_mercedes_bloch(thetas) -> tuple[np.ndarray, np.ndarray]:
    """Weights (..., 3) and Bloch normals (..., 3, 3) of `modified_mercedes`.

    `thetas` is one checked angle or an array of them.
    """
    c = np.cos(thetas)
    lam1 = 2.0 / (3.0 + 3.0 * c)
    lam23 = (2.0 + 3.0 * c) / (3.0 + 3.0 * c)
    mu = 1.0 / (2.0 + 3.0 * c)
    x = np.sqrt(1.0 - mu**2)
    weights = np.stack([lam1, lam23, lam23], axis=-1)
    normals = np.zeros(np.shape(c) + (3, 3))
    normals[..., 0, 2] = 1.0
    normals[..., 1, 0] = x
    normals[..., 2, 0] = -x
    normals[..., 1, 2] = -mu
    normals[..., 2, 2] = -mu
    return weights, normals


def modified_mercedes(theta: float) -> Povm:
    """Three-outcome POVM in the X-Z plane with uniform outcome statistics."""
    weights, normals = modified_mercedes_bloch(check_theta(theta))
    return povm_from_bloch(weights, normals)


def near_y_tetrahedral_bloch(epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights (4,) and Bloch normals (4, 3) of `near_y_tetrahedral`."""
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    r = math.sqrt(1.0 - epsilon**2)
    normals = [[0.0, r, epsilon], [0.0, r, -epsilon], [epsilon, -r, 0.0], [-epsilon, -r, 0.0]]
    return np.full(4, 0.5), np.array(normals)


def near_y_tetrahedral(epsilon: float) -> Povm:
    """Four-outcome POVM with elements tilted by epsilon off the Y axis.

    Element prefactor is 1/4; Bloch directions are (0, +-sqrt(1-eps^2), +-eps)
    and (+-eps, -sqrt(1-eps^2), 0).  The Y components cancel pairwise so the
    elements sum to the identity exactly.  epsilon = 0 is rejected: the
    elements then coincide pairwise and the POVM is not extremal.
    """
    weights, normals = near_y_tetrahedral_bloch(epsilon)
    return povm_from_bloch(weights, normals)


def conjugate_povm(p: Povm) -> Povm:
    """Entrywise complex conjugate of every element (and ket, if present)."""
    return Povm(np.conj(p.elements), None if p.kets is None else np.conj(p.kets))


def kets_from_elements(p: Povm) -> Povm:
    """Attach rank-one kets extracted spectrally, with the fixed phase gauge.

    Ket a is sqrt(w_a) v_a for the top eigenpair of element a, rotated so its
    first amplitude above ZERO_TOL is real positive; one stacked `eigh`.
    """
    w, v = mk.eigh(p.elements)
    second = np.abs(w[:, 1])
    if second.max(initial=0.0) > mk.RANK_TOL:
        raise ValueError(f"element is not rank one (second eigenvalue {second.max():.3e})")
    kets = np.sqrt(np.maximum(w[:, 0], 0.0))[:, None] * v[:, :, 0]
    lead = kets[np.arange(len(kets)), np.argmax(np.abs(kets) > mk.ZERO_TOL, axis=1)]
    big = np.abs(lead) > mk.ZERO_TOL  # a ket with no amplitude above ZERO_TOL keeps its phase
    phase = np.divide(np.abs(lead), lead, out=np.ones_like(lead), where=big)
    return Povm(p.elements, kets * phase[:, None])
