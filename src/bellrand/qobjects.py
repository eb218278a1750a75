"""Quantum domain objects.

The one angle model of the tilted-CHSH test (:func:`check_theta`, :func:`tilt`,
:func:`theta_ket` and a command's :class:`AngleStack`), the entangled two-qubit
state as a ket and a projector, the ideal Bell-test observables in the ancilla
gauge A' = B' = Z, the ancilla states `ANCILLA_PURE` and `ANCILLA_MIXED` as ket
stacks (:func:`with_ancilla`, :func:`qstate_from_kets`), POVMs with
validity/extremality reports, and the explicit POVM families used for
randomness generation, whose kets (`*_kets`) have closed half-angle forms.
Every rank-one POVM is built from its kets by :func:`povm_from_kets`.

Pauli convention: Z = diag(1, -1), X = offdiag(1, 1), Y = offdiag(-i, i),
so Y|0> = i|1>.  This fixes all signs in the state expansion and in the
ideal measurements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

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
    out = _tilt(t)
    return tuple(float(x) for x in out) if np.ndim(t) == 0 else out


def _tilt(t) -> tuple:
    """`tilt` of angles already passed through `check_theta`."""
    s, c = np.sin(t), np.cos(t)
    q = np.sqrt(1.0 + s**2)
    # (2 s)^2 rather than 4 s^2: s^2 is subnormal near THETA_MIN
    return 2.0 * c / q, 1.0 / q, s / q, (2.0 * s) ** 2 / (q * (q + c))


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
        check_dichotomic_stack(op, lambda: f"observable {self.label!r}")


def check_dichotomic_stack(ops, where) -> None:
    """The `Dichotomic` contract on a stack of observables ops[..., :, :].

    Hermitian and O^2 = I within IDENTITY_TOL, one vectorized check per
    condition; a refusal names the first refused member as `where(*index)`.
    """
    ops = np.asarray(ops, dtype=complex)
    mk.refuse_beyond(mk.non_hermitian_part(ops), mk.IDENTITY_TOL, "non-Hermitian part", where)
    square = np.max(np.abs(ops @ ops - np.eye(ops.shape[-1])), axis=(-2, -1))
    mk.refuse_beyond(square, mk.IDENTITY_TOL, "O^2 - I", where)


def check_state_stack(rhos) -> None:
    """The `QState` contract on a stack of density operators rhos[n].

    Hermitian within ZERO_TOL, so NaN never reaches `eigvalsh`, then PSD and unit
    trace within IDENTITY_TOL.
    """
    rhos = np.asarray(rhos, dtype=complex)
    herm = mk.non_hermitian_part(rhos)
    mk.refuse_beyond(herm, mk.ZERO_TOL, "density operator non-Hermitian part")
    low = np.linalg.eigvalsh(rhos)[..., 0]
    mk.refuse_beyond(-low, mk.IDENTITY_TOL, "density operator PSD violation")
    tr = np.trace(rhos, axis1=-2, axis2=-1).real
    mk.refuse_beyond(np.abs(tr - 1.0), mk.IDENTITY_TOL, "density operator |trace - 1|")


@dataclass(frozen=True)
class Povm:
    """Ordered POVM elements as one read-only (m, d, d) stack.

    The optional rank-one kets are a read-only (m, d) stack with element a
    equal to |kets[a]><kets[a]|, by construction in :func:`povm_from_kets`.
    Construction refuses any other shape but does not enforce validity; use
    :func:`povm_validity` so that deliberately corrupted element sets can be
    examined.
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


def ket_elements(kets) -> np.ndarray:
    """The elements |k><k| (..., m, d, d) of kets (..., m, d), Hermitian and rank one exactly."""
    kets = np.asarray(kets, dtype=complex)
    # einsum, not a broadcast product: numpy's SIMD complex multiply may fuse a multiply-add,
    # which leaves E_ij and E_ji an ulp from conjugate
    return np.einsum("...i,...j->...ij", kets, np.conj(kets))


def qstate_from_kets(kets) -> QState:
    """The validated state sum_k |kets[k]><kets[k]| of a ket stack (K, d_1, ..., d_n)."""
    kets = np.asarray(kets, dtype=complex)
    return QState(ket_elements(kets.reshape(len(kets), -1)).sum(axis=0), kets.shape[1:])


def theta_ket(theta) -> tuple:
    """The checked angle and its theta-ket cos(t/2)|00> + sin(t/2)|11>, from one `check_theta`.

    The ket is (4,) for one angle and (..., 4) for an array of them.
    """
    t = check_theta(theta)
    ket = np.zeros(np.shape(t) + (4,), dtype=complex)
    ket[..., 0], ket[..., 3] = np.cos(t / 2), np.sin(t / 2)
    return t, ket


def phi_theta_ket(theta) -> np.ndarray:
    """Spectral partner sin(t/2)|01> - cos(t/2)|10>; (..., 4) for an array of angles."""
    t = check_theta(theta)
    ket = np.zeros(np.shape(t) + (4,), dtype=complex)
    ket[..., 1], ket[..., 2] = np.sin(t / 2), -np.cos(t / 2)
    return ket


def psi_theta(theta: float) -> QState:
    """Rank-one projector onto the partially entangled two-qubit state."""
    return qstate_from_kets(theta_ket(theta)[1].reshape(1, 2, 2))


def phi_theta(theta: float) -> QState:
    """Spectral partner state sin(t/2)|01> - cos(t/2)|10>.

    Together with psi_theta it spans the +-eigenspaces of the tilted Bell
    operator.
    """
    return qstate_from_kets(phi_theta_ket(theta).reshape(1, 2, 2))


# The ancilla states of the ideal realizations as read-only ket stacks (K, 2, 2) on
# (A', B'), whose state is sum_k |a_k><a_k| (`qstate_from_kets`).  Every ancilla
# state, these two and Eve's chi pair, lives in the gauge A' = B' = Z, where
# <A' x B'> = 1, so `ideal_measurements` serves them all.
ANCILLA_PURE = _readonly([[[1, 0], [0, 0]]])  # |00>
# (|00><00| + |11><11|)/2 with 1/sqrt(2) correctly rounded; 1 / math.sqrt(2) is an ulp below
ANCILLA_MIXED = _readonly(math.sqrt(0.5) * np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]))


def ideal_measurements(theta: float) -> tuple[list[Dichotomic], list[Dichotomic]]:
    """Ideal Bell-test observables on qubit x ancilla qubit for a given angle.

    Alice measures (Z, X, Y x A') and Bob the six tilted-CHSH combinations
    built from Z, X and Y x B' with the weights of :func:`tilt`, where
    A' = B' = Z is the gauge of every ancilla state.  Returns (alice, bob).
    """
    _, wp, wm, _ = tilt(theta)
    z = mk.kron(PAULI_Z, np.eye(2))
    x = mk.kron(PAULI_X, np.eye(2))
    y = mk.kron(PAULI_Y, PAULI_Z)

    alice = [
        Dichotomic(z, "A1"),
        Dichotomic(x, "A2"),
        Dichotomic(y, "A3"),
    ]
    bob = [
        Dichotomic(wp * z + wm * x, "B1"),
        Dichotomic(wp * z - wm * x, "B2"),
        Dichotomic(wp * z - wm * y, "B3"),
        Dichotomic(wp * z + wm * y, "B4"),
        Dichotomic((x - y) / math.sqrt(2), "B5"),
        Dichotomic((x + y) / math.sqrt(2), "B6"),
    ]
    return alice, bob


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


def with_ancilla(psi, kets) -> np.ndarray:
    """Kets psi_n x a_k (N, K, 2 da, 2 db) on ((A, A'), (B, B')), `compose_with_ancilla` as kets.

    `psi` holds N theta-kets (N, 4) and `kets` an ancilla's kets (K, da, db).
    """
    psi = np.reshape(psi, (-1, 2, 2))
    full = np.einsum("nij,kab->nkiajb", psi, kets)
    return full.reshape(len(psi), len(kets), 2 * kets.shape[1], -1)


class AngleStack(NamedTuple):
    """One command's checked angles and everything the kernels derive from them alone.

    Row n belongs to theta[n]: the tilt (beta, w_plus, w_minus, delta) of
    :func:`tilt`, the theta-state kets `qubit` as 2x2 matrices (N, 2, 2) and
    the kets `pure` (N, K, 4, 4) of the theta-state with the pure ancilla.
    """

    theta: np.ndarray
    beta: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    delta: np.ndarray
    qubit: np.ndarray
    pure: np.ndarray


def angle_stack(thetas) -> AngleStack:
    """Check `thetas` once, the kernels' only angle check, and build their `AngleStack`.

    Theta-kets are unit kets in closed form, and `pure` holds them exactly, times
    the one ket |00> of `ANCILLA_PURE`, so neither takes a gate.
    """
    theta, psi = theta_ket(np.asarray(thetas, dtype=float).reshape(-1))
    return AngleStack(theta, *_tilt(theta), psi.reshape(-1, 2, 2), with_ancilla(psi, ANCILLA_PURE))


def report_rows(columns: dict, **constants) -> list[dict]:
    """The N JSON-ready rows of equal-length columns (N, ...), row n of each as an `AngleStack`'s.

    Arrays give entries by `.tolist()`, a dict of array columns nests, `constants`
    repeat on every row, and a column of another length is refused.
    """
    cells = [
        [dict(zip(c, row)) for row in zip(*[a.tolist() for a in c.values()], strict=True)]
        if isinstance(c, dict)
        else c.tolist() if isinstance(c, np.ndarray) else c
        for c in columns.values()
    ]
    return [dict(zip(columns, row), **constants) for row in zip(*cells, strict=True)]


# ---------------------------------------------------------------------------
# POVM reports and constructors
# ---------------------------------------------------------------------------


class PovmValidity(NamedTuple):
    is_valid: bool
    max_psd_violation: float
    completeness_residual: float


class PovmExtremality(NamedTuple):
    all_rank_one: bool
    linearly_independent: bool
    is_extremal_candidate: bool
    min_second_eigenvalue_margin: float
    independence_margin: float


def povm_validity(p: Povm) -> PovmValidity:
    """PSD and completeness check.

    The completeness residual is trace_norm(sum E_a - I) / dim, so a uniform
    scaling of one element by (1 + x) on a rank-one projector shows up as
    roughly x/dim.  Elements with a non-finite entry are invalid, with NaN margins.
    """
    if not np.isfinite(p.elements).all():
        return PovmValidity(False, math.nan, math.nan)
    d = p.dim
    psd_violation = max(0.0, -float(np.linalg.eigvalsh(p.elements).min()))
    residual = mk.trace_norm(p.elements.sum(axis=0) - np.eye(d)) / d
    valid = psd_violation <= mk.IDENTITY_TOL and residual <= mk.IDENTITY_TOL
    return PovmValidity(valid, psd_violation, residual)


def povm_extremality(p: Povm) -> PovmExtremality:
    """Operational extremality criteria for a qubit POVM.

    Checks that every element is rank one (second eigenvalue at most RANK_TOL)
    and that the elements are linearly independent (no more than d^2 of them
    and the smallest singular value of their stack above RANK_TOL).  Elements
    with a non-finite entry are not extremal, with NaN margins.
    """
    if p.dim != 2:
        raise ValueError("extremality criteria implemented for qubit POVMs only")
    if not np.isfinite(p.elements).all():
        return PovmExtremality(False, False, False, math.nan, math.nan)
    second = float(np.abs(np.linalg.eigvalsh(p.elements)[:, -2]).max())
    all_rank_one = second <= mk.RANK_TOL
    svals = np.linalg.svd(p.elements.reshape(p.n_outcomes, -1).T, compute_uv=False)
    # More elements than d^2 always leave a null space.
    fits = p.n_outcomes <= p.dim**2
    margin = float(svals.min()) if fits else 0.0
    independent = fits and margin > mk.RANK_TOL
    return PovmExtremality(all_rank_one, independent, all_rank_one and independent, second, margin)


def povm_from_kets(kets) -> Povm:
    """The rank-one POVM of subnormalized kets (m, d): element a is |kets[a]><kets[a]|."""
    return Povm(ket_elements(kets), kets)


def bloch_ket(weights, normals) -> np.ndarray:
    """Subnormalized kets (..., m, 2) of the elements (w/2)(I + n.sigma).

    Weights are (..., m) and unit Bloch normals (..., m, 3).  The larger
    half-angle amplitude is sqrt((1 + |n_z|)/2) and the other is (n_x + i n_y)/2
    over it, so no amplitude is lost near a pole.  Global phase fixed by making
    the first amplitude real nonnegative.
    """
    n = np.asarray(normals, dtype=float)
    big = np.sqrt((1.0 + np.abs(n[..., 2])) / 2.0)  # at least sqrt(1/2)
    small = (n[..., 0] + 1j * n[..., 1]) / (2.0 * big)
    north, phase = n[..., 2] >= 0.0, np.exp(1j * np.angle(small))  # angle(0) = 0
    first, second = np.where(north, big, np.abs(small)), np.where(north, small, big * phase)
    amplitudes = np.stack([first, second], axis=-1)
    return np.sqrt(np.asarray(weights, dtype=float))[..., None] * amplitudes


TETRAHEDRAL_DELTAS = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
_TETRAHEDRAL_PHASES = np.exp(1j * np.array(TETRAHEDRAL_DELTAS))


def adjusted_tetrahedral_kets(thetas) -> np.ndarray:
    """Kets (..., 4, 2) of `adjusted_tetrahedral`; `thetas` is one checked angle or an array.

    With c = cos(t): sqrt(1/(2 + 2c)) |0>, and for each azimuth d in
    `TETRAHEDRAL_DELTAS`, sqrt((1 + 2c)/(6 + 6c)) |0> + e^{i d}/sqrt(3) |1>, the
    half-angle form of weight (3 + 4c)/(6 + 6c) on the cone cos(gamma) = -1/(3 + 4c).
    """
    c = np.cos(thetas)
    kets = np.zeros(np.shape(c) + (4, 2), dtype=complex)
    kets[..., 0, 0] = np.sqrt(1.0 / (2.0 + 2.0 * c))
    kets[..., 1:, 0] = np.sqrt((1.0 + 2.0 * c) / (6.0 + 6.0 * c))[..., None]
    kets[..., 1:, 1] = _TETRAHEDRAL_PHASES / math.sqrt(3.0)
    return kets


def adjusted_tetrahedral(theta: float) -> Povm:
    """Four-outcome POVM yielding uniform outcomes on the theta-state marginal.

    A tetrahedral POVM adjusted so that the first element points along +Z
    with weight 1/(2 + 2cos t) and the remaining three sit on a cone at
    cos(gamma) = -1/(3 + 4cos t) with azimuths `TETRAHEDRAL_DELTAS`.
    """
    return povm_from_kets(adjusted_tetrahedral_kets(check_theta(theta)))


def modified_mercedes_kets(thetas) -> np.ndarray:
    """Kets (..., 3, 2) of `modified_mercedes`; `thetas` is one checked angle or an array.

    With c = cos(t): sqrt(2/(3 + 3c)) |0> and sqrt((1 + 3c)/(6 + 6c)) |0> +- sqrt(1/2) |1>,
    the half-angle form of weight (2 + 3c)/(3 + 3c) at Bloch z = -1/(2 + 3c).
    """
    c = np.cos(thetas)
    kets = np.zeros(np.shape(c) + (3, 2), dtype=complex)
    kets[..., 0, 0] = np.sqrt(2.0 / (3.0 + 3.0 * c))
    kets[..., 1:, 0] = np.sqrt((1.0 + 3.0 * c) / (6.0 + 6.0 * c))[..., None]
    kets[..., 1:, 1] = (math.sqrt(0.5), -math.sqrt(0.5))
    return kets


def modified_mercedes(theta: float) -> Povm:
    """Three-outcome POVM in the X-Z plane with uniform outcome statistics."""
    return povm_from_kets(modified_mercedes_kets(check_theta(theta)))


def near_y_tetrahedral_kets(epsilon: float) -> np.ndarray:
    """Kets (4, 2) of `near_y_tetrahedral`: its Bloch directions in half-angle form, weight 1/2."""
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    r = math.sqrt(1.0 - epsilon**2)
    up, down = math.sqrt(1.0 + epsilon) / 2.0, math.sqrt(1.0 - epsilon) / 2.0
    equator = [[0.5, (epsilon - 1j * r) / 2], [0.5, (-epsilon - 1j * r) / 2]]
    return np.array([[up, 1j * down], [down, 1j * up], *equator])


def near_y_tetrahedral(epsilon: float) -> Povm:
    """Four-outcome POVM with elements tilted by epsilon off the Y axis.

    Element prefactor is 1/4; Bloch directions are (0, +-sqrt(1-eps^2), +-eps)
    and (+-eps, -sqrt(1-eps^2), 0).  The Y components cancel pairwise so the
    elements sum to the identity.  epsilon = 0 is rejected: the
    elements then coincide pairwise and the POVM is not extremal.
    """
    return povm_from_kets(near_y_tetrahedral_kets(epsilon))


def conjugate_povm(p: Povm) -> Povm:
    """Entrywise complex conjugate of every element (and ket, if present)."""
    return Povm(np.conj(p.elements), None if p.kets is None else np.conj(p.kets))


def kets_from_elements(p: Povm) -> Povm:
    """Attach rank-one kets extracted spectrally, with the fixed phase gauge.

    Ket a is sqrt(w_a) v_a for the top eigenpair of element a, rotated so its
    first amplitude above ZERO_TOL is real positive; one stacked `eigh`.
    """
    w, v = mk.eigh(p.elements)
    mk.refuse_beyond(np.abs(w[:, 1]), mk.RANK_TOL, "second eigenvalue", "element {}".format)
    kets = np.sqrt(np.maximum(w[:, 0], 0.0))[:, None] * v[:, :, 0]
    lead = kets[np.arange(len(kets)), np.argmax(np.abs(kets) > mk.ZERO_TOL, axis=1)]
    big = np.abs(lead) > mk.ZERO_TOL  # a ket with no amplitude above ZERO_TOL keeps its phase
    phase = np.divide(np.abs(lead), lead, out=np.ones_like(lead), where=big)
    return Povm(p.elements, kets * phase[:, None])
