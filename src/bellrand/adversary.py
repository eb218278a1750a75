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
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from . import qobjects as qo
from . import tomography as tg
from .qobjects import Povm, QState, check_theta


class DegenerateAttackError(RuntimeError):
    """No unit-magnitude coefficient pair has a nonzero target amplitude."""


def chi_states() -> tuple[QState, QState]:
    """Eve's ancilla pair (|++> +- |-->)/sqrt(2) on the two ancilla qubits."""
    plus = tg.KET_PLUS
    minus = tg.KET_MINUS
    pp = np.kron(plus, plus)
    mm = np.kron(minus, minus)
    chi_p = qo.qstate_from_ket((pp + mm) / math.sqrt(2.0), (2, 2))
    chi_m = qo.qstate_from_ket((pp - mm) / math.sqrt(2.0), (2, 2))
    return chi_p, chi_m


def joint_amplitudes(alice: Povm, bob: Povm, theta: float) -> np.ndarray:
    """Amplitude table <k_a l_b | psi_theta> from the subnormalized kets."""
    if alice.kets is None or bob.kets is None:
        raise ValueError("joint amplitudes need rank-one kets on both sides")
    theta = check_theta(theta)
    psi = qo.psi_theta_ket(theta)
    amp = np.empty((alice.n_outcomes, bob.n_outcomes), dtype=complex)
    for a, ka in enumerate(alice.kets):
        for b, kb in enumerate(bob.kets):
            amp[a, b] = np.vdot(np.kron(ka, kb), psi)
    return amp


def ideal_joint(alice: Povm, bob: Povm, theta: float) -> np.ndarray:
    """Joint outcome table of the reference qubit POVMs on the theta-state."""
    return mk.joint_table(alice.elements, bob.elements, qo.psi_theta(theta).rho)


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
    """Everything Eve needs: coefficients, dilated POVMs and her state pair."""

    theta: float
    alice: Povm
    bob: Povm
    lambda_coeffs: np.ndarray
    mu_coeffs: np.ndarray
    r_povm: Povm  # dilated Alice POVM on qubit x ancilla
    s_povm: Povm  # dilated Bob POVM on qubit x ancilla
    chi_plus: QState
    chi_minus: QState
    target_pair: tuple[int, int]
    eve_prior: tuple[float, float] = (0.5, 0.5)


def brute_force_joint(attack: AttackModel, theta: float, sign: int) -> np.ndarray:
    """Oracle for the closed form: full 16-dimensional Born-rule evaluation.

    Traces R_a x S_b against the permuted product of the theta-state and the
    chosen ancilla state, in the fixed (A, A', B, B') ordering.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    chi = attack.chi_plus if sign == +1 else attack.chi_minus
    rho = qo.compose_with_ancilla(qo.psi_theta(theta), chi).rho
    return mk.joint_table(attack.r_povm.elements, attack.s_povm.elements, rho)


def _pick_null_vector(basis) -> np.ndarray:
    """Deterministic choice: most unit-magnitude entries after unit scaling."""
    best, best_count = None, -1
    for v in basis:
        w = v / np.abs(v).max()
        count = int(np.sum(np.abs(w) >= 1.0 - mk.RANK_TOL))
        if count > best_count:
            best, best_count = w, count
    return best


def build_attack(alice: Povm, bob: Povm, theta: float) -> AttackModel:
    """Assemble the conjugation attack on a pair of four-outcome POVMs.

    The coefficient vectors come from the null spaces of the off-diagonal
    operators, scaled so the largest magnitude on each side is one.  The
    target pair maximizes |lam_a| |mu_b| |<k_a l_b|psi>|^2 over pairs with
    both magnitudes at one, and a single global phase on the Alice vector
    aligns the interference term so the minus-branch probability of the
    target pair vanishes exactly.
    """
    theta = check_theta(theta)
    if alice.n_outcomes != 4 or bob.n_outcomes != 4:
        raise ValueError("the attack needs four outcomes on both sides")
    oa = tg.offdiag_set(alice)
    ob = tg.offdiag_set(bob)
    if oa.null_dimension == 0 or ob.null_dimension == 0:
        raise DegenerateAttackError("off-diagonal operators are linearly independent")
    lam = _pick_null_vector(oa.null_basis)
    mu = _pick_null_vector(ob.null_basis)

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

    chi_p, chi_m = chi_states()
    return AttackModel(
        theta=theta,
        alice=alice,
        bob=bob,
        lambda_coeffs=lam,
        mu_coeffs=mu,
        r_povm=tg.build_dilated_povm(alice, lam),
        s_povm=tg.build_dilated_povm(bob, mu),
        chi_plus=chi_p,
        chi_minus=chi_m,
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


def evaluate_attack(attack: AttackModel, theta: float | None = None) -> ConditionalJoint:
    """Both conditional tables, evaluated on the full dilated space."""
    if theta is None:
        theta = attack.theta
    return ConditionalJoint(
        p_plus=brute_force_joint(attack, theta, +1),
        p_minus=brute_force_joint(attack, theta, -1),
    )


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
    """Ensembles {(p_e, sigma_e)} decomposing the mixed ancilla pair.

    The base state is the even mixture of |++><++| and |--><--|, purified
    with one extra qubit; each of Eve's measurements on the purifier yields
    one decomposition.  The first decomposition is the canonical conjugation
    pair (the chi states); the rest alternate Haar-random rank-1 projective
    measurements and random two-element full-rank POVMs.  Every conditional
    state stays supported on the +1 eigenspace of A' x B', so the perfect
    correlation is preserved.
    """
    pp = np.kron(tg.KET_PLUS, tg.KET_PLUS)
    mm = np.kron(tg.KET_MINUS, tg.KET_MINUS)
    # Purification: (|++>|e0> + |-->|e1>)/sqrt(2) on (A'B') x E.
    purification = (np.kron(pp, np.array([1.0, 0.0])) + np.kron(mm, np.array([0.0, 1.0])))
    purification = purification / np.linalg.norm(purification)
    full = np.outer(purification, purification.conj())

    def conditionals(povm_elements):
        out = []
        for e in povm_elements:
            op = mk.kron(np.eye(4), e)
            sub = mk.partial_trace(op @ full, (4, 2), keep=(0,))
            sub = (sub + sub.conj().T) / 2  # exact value is Hermitian; drop rounding skew
            p = float(np.real(np.trace(sub)))
            if p < mk.RANK_TOL:  # conditioning guard: near-zero outcomes carry no state
                continue
            out.append((p, sub / p))
        return out

    h = math.sqrt(0.5)
    canonical = [np.outer(v, v.conj()) for v in (np.array([h, h]), np.array([h, -h]))]
    yield conditionals(canonical)
    produced = 1
    while produced < n_samples:
        if produced % 2 == 1:
            u = mk.haar_unitary(2, rng)
            elements = [np.outer(u[:, i], u[:, i].conj()) for i in range(2)]
        else:
            g = [None, None]
            for i in range(2):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                g[i] = a @ a.conj().T
            total = g[0] + g[1]
            w, v = np.linalg.eigh(total)
            root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
            elements = [root_inv @ gi @ root_inv for gi in g]
        yield conditionals(elements)
        produced += 1


def qubit_reduction_check(
    alice: Povm,
    bob: Povm,
    theta: float,
    n_decompositions: int = 10,
    seed: int = 0,
    alice_coeffs=None,
    bob_coeffs=None,
) -> QubitReductionReport:
    """Check that Eve-conditioned joints equal the ideal qubit joints.

    Alice's POVM is dilated with admissible off-diagonal coefficients (by
    default the unit-scaled null vector when four outcomes, zero otherwise);
    Bob's POVM gets the plain block dilation forced when it has at most
    three outcomes, unless explicit coefficients are supplied to probe the
    double-four-outcome failure mode.  For each sampled Eve decomposition
    every conditional joint is compared entrywise to the ideal table.
    """
    theta = check_theta(theta)
    rng = np.random.default_rng(seed)

    def default_coeffs(p: Povm):
        if p.n_outcomes >= 4:
            basis = tg.offdiag_set(p).null_basis
            if basis:
                return _pick_null_vector(basis)
        return np.zeros(p.n_outcomes, dtype=complex)

    lam = default_coeffs(alice) if alice_coeffs is None else np.asarray(alice_coeffs, complex)
    if bob_coeffs is None:
        if bob.n_outcomes <= 3:
            mu = np.zeros(bob.n_outcomes, dtype=complex)  # forced block form
        else:
            mu = default_coeffs(bob)
    else:
        mu = np.asarray(bob_coeffs, dtype=complex)

    r_povm = tg.build_dilated_povm(alice, lam)
    s_povm = tg.build_dilated_povm(bob, mu)
    ideal = ideal_joint(alice, bob, theta)
    psi = qo.psi_theta(theta)
    a_corr = mk.kron(qo.PAULI_X, qo.PAULI_X)  # A' x B' in the |+->-block gauge

    deviations = []
    corr_worst = 0.0
    for ensemble in _eve_decompositions(n_decompositions, rng):
        dev = 0.0
        for _, sigma_e in ensemble:
            corr_worst = max(corr_worst, abs(mk.expval(a_corr, sigma_e) - 1.0))
            rho = qo.compose_with_ancilla(psi, QState(sigma_e, (2, 2))).rho
            joint = mk.joint_table(r_povm.elements, s_povm.elements, rho)
            dev = max(dev, float(np.max(np.abs(joint - ideal))))
        deviations.append(dev)
    return QubitReductionReport(
        theta=theta,
        n_decompositions=len(deviations),
        max_deviation=max(deviations),
        deviations=tuple(deviations),
        correlation_check=corr_worst,
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
