"""Conjugation attack on double four-outcome POVM randomness schemes.

Constructs the explicit eavesdropping strategy that hides behind the
conjugation ambiguity of four-outcome qubit POVMs: dilated measurements whose
off-diagonal blocks carry admissible nonzero coefficients, combined with an
equiprobable pair of ancilla states that flip the sign of the interference
term.  Also provides the qubit-reduction check showing the attack is
powerless when one side uses at most three outcomes, and the resulting
min-entropy cap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from . import qobjects as qo
from . import tomography as tg
from .qobjects import Povm, QState, check_theta


class DegenerateAttackError(RuntimeError):
    """No unit-magnitude coefficient pair has a nonzero target amplitude."""


# Columns |++> and |-->: an orthonormal basis of the +1 eigenspace of A' x B',
# where every state of Eve's lives.
_PP_MM = np.stack(
    [np.kron(tg.KET_PLUS, tg.KET_PLUS), np.kron(tg.KET_MINUS, tg.KET_MINUS)], axis=1
)

# Eve's ancilla pair chi_+- = (|++> +- |-->)/sqrt(2) on the two ancilla qubits,
# validated once; _CHI_RHOS stacks it for the stacked joint tables.
CHI: tuple[QState, QState] = tuple(
    qo.qstate_from_ket(_PP_MM @ [1, s] / math.sqrt(2.0), (2, 2)) for s in (1, -1)
)
_CHI_RHOS = np.stack([chi.rho for chi in CHI])
# A' x B' = X x X in the |+->-block gauge; Eve's states must keep <A' x B'> = 1.
_XX = np.kron(qo.PAULI_X, qo.PAULI_X)


def joint_amplitudes(alice: Povm, bob: Povm, theta: float) -> np.ndarray:
    """Amplitude table <k_a l_b | psi_theta> from the subnormalized kets."""
    if alice.kets is None or bob.kets is None:
        raise ValueError("joint amplitudes need rank-one kets on both sides")
    psi = qo.psi_theta_ket(theta).reshape(2, 2)
    return np.conj(alice.kets) @ psi @ np.conj(bob.kets).T


def ideal_joint(alice: Povm, bob: Povm, theta: float) -> np.ndarray:
    """Joint outcome table of the reference qubit POVMs on the theta-state."""
    psi = qo.psi_theta_ket(theta).reshape(1, 1, 2, 2)
    return mk.joint_table_kets(alice.elements, bob.elements, psi)[0]


def closed_form_joint(alice: Povm, bob: Povm, lam, mu, theta: float, sign: int) -> np.ndarray:
    """Conditional joint distribution in closed form.

    P_sign(a, b) = |<k_a l_b|psi>|^2 + sign * Re[conj(lam_a mu_b) <k_a l_b|psi>^2].
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    amp = joint_amplitudes(alice, bob, theta)
    interference = np.real(np.conj(lam)[:, None] * np.conj(mu)[None, :] * amp**2)
    return np.abs(amp) ** 2 + sign * interference


@dataclass(frozen=True)
class AttackModel:
    """Everything Eve needs besides her state pair `CHI`: coefficients and dilated POVMs."""

    theta: float
    alice: Povm
    bob: Povm
    lambda_coeffs: np.ndarray
    mu_coeffs: np.ndarray
    r_povm: Povm  # dilated Alice POVM on qubit x ancilla
    s_povm: Povm  # dilated Bob POVM on qubit x ancilla
    target_pair: tuple[int, int]


def brute_force_joint(attack: AttackModel, theta: float, sign: int) -> np.ndarray:
    """Oracle of :func:`closed_form_joint` and :func:`evaluate_attack`.

    Full 16-dimensional Born-rule evaluation: traces R_a x S_b against the
    permuted product of the theta-state and the ancilla state chi_sign of
    `CHI`, in the fixed (A, A', B, B') ordering.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    chi = CHI[0] if sign == +1 else CHI[1]
    rho = qo.compose_with_ancilla(qo.psi_theta(theta), chi).rho
    return mk.joint_table(attack.r_povm.elements, attack.s_povm.elements, rho)


def _admissible_coeffs(p: Povm) -> np.ndarray:
    """Dilation coefficients: the off-diagonal null vector divided by its largest entry.

    The first entry whose magnitude is within RANK_TOL of the largest becomes
    exactly 1.  This fixes the phase that the SVD leaves free, and entries of
    equal magnitude (all four at theta = pi/2) cannot trade places through
    rounding.  Any three operators |k_a><k_a*| of pairwise non-parallel kets
    are linearly independent in the span of {I, X, Z}, so an extremal POVM
    has a one-dimensional null space with four outcomes and none with at most
    three; then the coefficients are zero (the block form).
    """
    basis = tg.offdiag_set(p).null_basis
    if not basis:
        return np.zeros(p.n_outcomes, dtype=complex)
    mags = np.abs(basis[0])
    i = np.argmax(mags >= (1.0 - mk.RANK_TOL) * mags.max())
    c = basis[0] / basis[0][i]
    c[i] = 1.0  # numpy's complex division can leave x / x an ulp below 1
    return c


def build_attack(alice: Povm, bob: Povm, theta: float) -> AttackModel:
    """Assemble the conjugation attack on a pair of four-outcome POVMs.

    The coefficient vectors are each side's :func:`_admissible_coeffs`.  The
    target pair maximizes |lam_a| |mu_b| |<k_a l_b|psi>|^2 over pairs with
    both magnitudes at one, and a single global phase on the Alice vector
    aligns the interference term so the minus-branch probability of the
    target pair vanishes exactly.
    """
    theta = check_theta(theta)
    if alice.n_outcomes != 4 or bob.n_outcomes != 4:
        raise ValueError("the attack needs four outcomes on both sides")
    lam = _admissible_coeffs(alice)
    mu = _admissible_coeffs(bob)
    if not (lam.any() and mu.any()):
        raise DegenerateAttackError("off-diagonal operators are linearly independent")

    amp = joint_amplitudes(alice, bob, theta)
    unit_a = np.abs(lam) >= 1.0 - mk.RANK_TOL
    unit_b = np.abs(mu) >= 1.0 - mk.RANK_TOL
    weight = np.where(unit_a[:, None] & unit_b[None, :], np.abs(amp) ** 2, -1.0)
    a_star, b_star = np.unravel_index(int(np.argmax(weight)), weight.shape)
    if weight[a_star, b_star] <= mk.ZERO_TOL:
        raise DegenerateAttackError("no unit-magnitude pair with nonzero amplitude")

    # Align arg(conj(lam_a* mu_b*) amp^2) = 0 with one global phase on lam.
    phase = np.angle(amp[a_star, b_star] ** 2) - np.angle(lam[a_star] * mu[b_star])
    lam = lam * np.exp(1j * phase)

    return AttackModel(
        theta=theta,
        alice=alice,
        bob=bob,
        lambda_coeffs=lam,
        mu_coeffs=mu,
        r_povm=tg.build_dilated_povm(alice, lam),
        s_povm=tg.build_dilated_povm(bob, mu),
        target_pair=(int(a_star), int(b_star)),
    )


@dataclass(frozen=True)
class ConditionalJoint:
    """Eve-conditioned joint tables plus the derived guessing figures."""

    p_plus: np.ndarray
    p_minus: np.ndarray

    @property
    def average(self) -> np.ndarray:
        return 0.5 * (self.p_plus + self.p_minus)

    @property
    def guessing_prob(self) -> float:
        """Eve knows the prepared branch: average of the per-branch maxima."""
        return 0.5 * (float(self.p_plus.max()) + float(self.p_minus.max()))

    @property
    def certified_bits(self) -> float:
        return -math.log2(self.guessing_prob)


def _ancilla_joints(
    r_povm: Povm, s_povm: Povm, psi: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """Joint tables P_n(a, b) = Re Tr[W_ab sigma_n] of a stack of ancilla states, (N, na, nb).

    W_ab = <psi| R_a x S_b |psi> acts on (A', B'), so one matrix product of
    the flattened W against the flattened sigma_n^T gives every joint at once.
    R_a's 2x2 block (p, q) on A' is R_a[(i p), (k q)] over A; the ket psi on
    (A, B) enters as its 2x2 amplitude matrix Psi, giving Psi^dagger R_a^(pq) Psi.
    """
    psi = psi.reshape(2, 2)
    r = r_povm.elements.reshape(-1, 2, 2, 2, 2)
    s = s_povm.elements.reshape(-1, 2, 2, 2, 2)
    na, nb = len(r), len(s)
    u = np.conj(psi.T) @ r.transpose(0, 2, 4, 1, 3) @ psi  # [a, p, q, j, l]
    w = u.reshape(na * 4, 4) @ s.transpose(1, 3, 0, 2, 4).reshape(4, nb * 4)  # [(a p q), (b r s)]
    w = w.reshape(na, 2, 2, nb, 2, 2).transpose(0, 3, 1, 4, 2, 5).reshape(na * nb, 16)
    return (np.swapaxes(sigmas, -1, -2).reshape(-1, 16) @ w.T).real.reshape(-1, na, nb)


def evaluate_attack(attack: AttackModel) -> ConditionalJoint:
    """Both conditional tables, P_sign(a, b) = Re Tr[W_ab chi_sign].

    W_ab = <psi| R_a x S_b |psi> is the operator :func:`qubit_reduction_check`
    reads too, so both chi branches are one (2, 16) @ (16, na * nb) product
    of the `_CHI_RHOS` stack in :func:`_ancilla_joints` and no
    16-dimensional state is formed.  :func:`brute_force_joint` is its oracle.
    """
    p_plus, p_minus = _ancilla_joints(
        attack.r_povm, attack.s_povm, qo.psi_theta_ket(attack.theta), _CHI_RHOS
    )
    return ConditionalJoint(p_plus=p_plus, p_minus=p_minus)


def min_entropy(dist) -> float:
    """-log2 of the largest entry of a normalized nonnegative table."""
    arr = np.asarray(dist, dtype=float)
    total = float(arr.sum())
    if abs(total - 1.0) > mk.RANK_TOL:
        raise ValueError(f"distribution sums to {total}, not 1")
    if arr.min() < -mk.ZERO_TOL:
        raise ValueError("distribution has negative entries")
    return -math.log2(float(arr.max()))


def randomness_cap() -> float:
    """Min-entropy cap for double four-outcome schemes.

    One conditional branch can always be forced to a zero entry, so its
    maximum is at least 1/15 while the other is at least 1/16; Eve holds the
    branch label, capping the certifiable randomness at
    -log2((1/15 + 1/16)/2).
    """
    return -math.log2(0.5 * (1.0 / 15.0 + 1.0 / 16.0))


# ---------------------------------------------------------------------------
# Qubit reduction: one side with at most three outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QubitReductionReport:
    theta: float
    n_decompositions: int
    max_deviation: float
    deviations: tuple[float, ...]
    correlation_check: float  # worst-case |<A' x B'> - 1| over conditionals

    @property
    def reduces(self) -> bool:
        return self.max_deviation <= mk.IDENTITY_TOL


def _eve_decompositions(n_samples: int, rng: np.random.Generator):
    """Ensembles {(p_k, sigma_k)} decomposing the mixed ancilla pair, stacked.

    The base state is the even mixture of |++><++| and |--><--|, the
    ancilla marginal of (|++>|0> + |-->|1>)/sqrt(2) whose last qubit Eve
    holds.  Her measurement {E_k} on that qubit leaves the subnormalized
    state V E_k^T V^dagger / 2, with V the columns |++> and |-->, so
    p_k = Tr E_k / 2.  The first decomposition is the canonical conjugation
    pair `CHI`; the rest alternate Haar-random rank-1 projective
    measurements and random two-element full-rank POVMs.  Every state lies in
    the range of V, the +1 eigenspace of A' x B', so the perfect correlation
    is preserved.

    Returns (weights, index, states) of shapes (K,), (K,) and (K, 4, 4) with
    K = 2 n_samples: state n belongs to decomposition index[n].  All normals
    come from one draw, in the order of a loop over the decompositions
    (8 for a Haar unitary, then 16 for a POVM's two Ginibre matrices).
    """
    n_proj, n_povm = n_samples // 2, (n_samples - 1) // 2
    z = np.zeros(24 * n_proj)
    z[: 8 * n_proj + 16 * n_povm] = rng.normal(size=8 * n_proj + 16 * n_povm)
    z = z.reshape(n_proj, 3, 2, 2, 2)  # per odd k: (Haar, a_0, a_1) x (re, im), a_i for k + 1
    cols = np.swapaxes(mk.haar_from_ginibre(z[:, 0, 0] + 1j * z[:, 0, 1]), -1, -2)
    a = z[:n_povm, 1:, 0] + 1j * z[:n_povm, 1:, 1]
    g = a @ np.conj(np.swapaxes(a, -1, -2))
    w, v = np.linalg.eigh(g[:, 0] + g[:, 1])
    root_inv = ((v / np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2)))[:, None]

    elements = np.empty((n_samples - 1, 2, 2, 2), dtype=complex)
    elements[0::2] = cols[..., :, None] * np.conj(cols[..., None, :])
    elements[1::2] = root_inv @ g @ root_inv
    traces = np.trace(elements, axis1=-2, axis2=-1).real
    states = _PP_MM @ np.swapaxes(elements, -1, -2) @ _PP_MM.conj().T / traces[..., None, None]
    weights = np.concatenate([[0.5, 0.5], traces.reshape(-1) / 2])
    states = np.concatenate([_CHI_RHOS, states.reshape(-1, 4, 4)])
    return weights, np.repeat(np.arange(n_samples), 2), states


def qubit_reduction_check(
    alice: Povm,
    bob: Povm,
    theta: float,
    n_decompositions: int = 10,
    seed: int = 0,
) -> QubitReductionReport:
    """Check that Eve-conditioned joints equal the ideal qubit joints.

    Each side is dilated with its :func:`_admissible_coeffs`, which are zero
    (the plain block form) when it has at most three outcomes; with four
    outcomes on both sides they are not, and the check fails.  For each
    sampled Eve decomposition every conditional joint is compared entrywise
    to the ideal table.  The count of decompositions is an integer of at
    least 1; anything else is refused.

    Every Eve state sigma_n meets the `QState` contract and has
    <A' x B'> = 1 within IDENTITY_TOL; a violation is refused naming the
    condition, the state's index within its decomposition and the
    decomposition.  As psi is a unit ket, |psi><psi| x sigma_n then meets
    the contract too, so no 16-dimensional state is formed: the checks and
    all joints are evaluated on the (2 n, 4, 4) stack, with no per-state loop.
    """
    theta = check_theta(theta)
    count_ok = isinstance(n_decompositions, numbers.Integral) and not isinstance(
        n_decompositions, bool
    )
    if not count_ok or n_decompositions < 1:
        raise ValueError(f"n_decompositions must be an integer >= 1, got {n_decompositions}")
    rng = np.random.default_rng(seed)

    r_povm = tg.build_dilated_povm(alice, _admissible_coeffs(alice))
    s_povm = tg.build_dilated_povm(bob, _admissible_coeffs(bob))
    ideal = ideal_joint(alice, bob, theta)
    _, index, sigmas = _eve_decompositions(n_decompositions, rng)

    def eve(n: int) -> str:
        d = int(index[n])
        return f"Eve state {int(np.count_nonzero(index[:n] == d))} of decomposition {d}"

    qo.check_state_stack(sigmas, eve)
    corr = np.abs(np.einsum("ij,nji->n", _XX, sigmas).real - 1.0)
    if corr.max() > mk.IDENTITY_TOL:
        n = int(np.argmax(corr > mk.IDENTITY_TOL))
        raise ValueError(f"<A' x B'> misses 1 by {corr[n]:.3e} at {eve(n)}")

    joints = _ancilla_joints(r_povm, s_povm, qo.psi_theta_ket(theta), sigmas)
    deviations = np.zeros(n_decompositions)
    np.maximum.at(deviations, index, np.max(np.abs(joints - ideal), axis=(1, 2)))
    return QubitReductionReport(
        theta=theta,
        n_decompositions=n_decompositions,
        max_deviation=float(deviations.max()),
        deviations=tuple(float(x) for x in deviations),
        correlation_check=float(corr.max()),
    )


def attack_report(attack: AttackModel) -> dict:
    """JSON-ready summary of a built attack."""
    cj = evaluate_attack(attack)
    ideal = ideal_joint(attack.alice, attack.bob, attack.theta)
    return {
        "theta": attack.theta,
        "lambda": [[float(z.real), float(z.imag)] for z in attack.lambda_coeffs],
        "mu": [[float(z.real), float(z.imag)] for z in attack.mu_coeffs],
        "target_pair": list(attack.target_pair),
        "P_plus": cj.p_plus.tolist(),
        "P_minus": cj.p_minus.tolist(),
        "average_vs_ideal_max_dev": float(np.max(np.abs(cj.average - ideal))),
        "zero_entry_value": float(cj.p_minus[attack.target_pair]),
        "guessing_prob": cj.guessing_prob,
        "certified_bits": cj.certified_bits,
        "cap_bits": randomness_cap(),
    }
