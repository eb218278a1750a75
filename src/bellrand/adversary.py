"""Conjugation attack on double four-outcome POVM randomness schemes.

Constructs the explicit eavesdropping strategy that hides behind the
conjugation ambiguity of four-outcome qubit POVMs: dilated measurements whose
off-diagonal blocks carry admissible nonzero coefficients, combined with an
equiprobable pair of ancilla states that flip the sign of the interference
term.  Every table Eve can condition on is Re Tr[W_ab s], with W_ab =
<psi| R_a x S_b |psi> restricted to her support span{|00>, |11>}: |amp_ab|^2
on its diagonal, lam_a mu_b conj(amp_ab)^2 off it.  :func:`_tables` reads it
for the chi_+- pair in :func:`attack_rows` (the attack at N angles, behind the
CLI's ``attack``, :func:`build_attack` and :func:`attack_report`) and for the
sampled states of :func:`qubit_reduction_check`, which shows the attack is
powerless when one side uses at most three outcomes.  :func:`attack_columns`
holds the rows as report columns.  The dilated POVMs serve only the Born-rule
oracles :func:`evaluate_attack` and :func:`brute_force_joint`.  Also provides
the resulting min-entropy cap.  Only the caller's POVMs and tables are gated;
Eve's kets and blocks are built in closed form and take no gate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import matkernel as mk
from . import qobjects as qo
from . import tomography as tg
from .qobjects import Povm


class DegenerateAttackError(RuntimeError):
    """No unit-magnitude coefficient pair has a nonzero target amplitude."""


# Eve's ancilla pair chi_+- = (|00> +- |11>)/sqrt(2) on the two ancilla qubits
# (A' = B' = Z): _CHI_KETS holds each as a one-ket stack (1, 2, 2) on (A', B'),
# chi_+ first, the ancilla format of `qo.with_ancilla`, for the oracle
# brute_force_joint; their equal mixture is the state of `qo.ANCILLA_MIXED`.
# Every state of Eve's lives on span{|00>, |11>}, the +1 eigenspace of A' x B',
# and is read as its 2x2 block there; _CHI_BLOCKS holds chi_+-'s, exactly
# (1/2)[[1, +-1], [+-1, 1]] (the kets' squares give 0.4999999999999999).
_CHI_KETS = np.array([[[[1.0, 0.0], [0.0, s]]] for s in (1.0, -1.0)]) / math.sqrt(2.0)
_CHI_KETS.setflags(write=False)
_CHI_BLOCKS = np.array([[[1.0, s], [s, 1.0]] for s in (1.0, -1.0)]) / 2


def joint_amplitudes(alice: Povm, bob: Povm, psi) -> np.ndarray:
    """Amplitude table <k_a l_b | psi> of both sides' gated rank-one kets and a theta-ket (4,)."""
    return mk.amplitudes(tg.rank_one_kets(alice), tg.rank_one_kets(bob), np.reshape(psi, (2, 2)))


def ideal_joint(alice: Povm, bob: Povm, psi) -> np.ndarray:
    """Oracle of |amp|^2: the Born-rule table of the POVM elements on a theta-ket psi (4,)."""
    psi = np.asarray(psi, dtype=complex).reshape(1, 1, 2, 2)
    return mk.joint_table_kets(alice.elements, bob.elements, psi)[0]


def _tables(amp, lam, mu, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(|amp|^2, P) from amplitudes (..., m, n) and Eve's blocks s (S, 2, 2) on span{|00>, |11>}.

    W_ab restricted to that support has |amp_ab|^2 on its diagonal and
    lam_a mu_b conj(amp_ab)^2 off it, so a Hermitian block s conditions the table
    P_s(a, b) = Re Tr[W_ab s] = |amp_ab|^2 tr s + 2 Re[s_01 conj(lam_a mu_b) amp_ab^2],
    stacked (S, ..., m, n).  The chi_+- blocks `_CHI_BLOCKS` give
    P_+-(a, b) = |amp_ab|^2 +- Re[conj(lam_a mu_b) amp_ab^2].
    """
    ideal = np.abs(amp) ** 2
    s = np.reshape(blocks, (-1,) + (1,) * ideal.ndim + (2, 2))
    coherence = np.conj(lam)[..., :, None] * np.conj(mu)[..., None, :] * amp**2
    trace = np.trace(s, axis1=-2, axis2=-1).real
    return ideal, ideal * trace + 2 * np.real(s[..., 0, 1] * coherence)


def closed_form_joint(alice: Povm, bob: Povm, lam, mu, theta: float, sign: int) -> np.ndarray:
    """Conditional joint distribution P_sign in closed form (see :func:`_tables`)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    amp = joint_amplitudes(alice, bob, qo.theta_ket(theta)[1])
    i = 0 if sign == +1 else 1
    return _tables(amp, lam, mu, _CHI_BLOCKS[i : i + 1])[1][0]


class AttackModel(NamedTuple):
    """Everything Eve needs besides her state pair chi_+-: coefficients and dilated POVMs.

    `psi` is the theta-ket (4,) that the attack's tables read.
    """

    theta: float
    alice: Povm
    bob: Povm
    lambda_coeffs: np.ndarray
    mu_coeffs: np.ndarray
    r_povm: Povm  # dilated Alice POVM on qubit x ancilla
    s_povm: Povm  # dilated Bob POVM on qubit x ancilla
    target_pair: tuple[int, int]
    psi: np.ndarray


def brute_force_joint(attack: AttackModel, theta: float, sign: int) -> np.ndarray:
    """Oracle of the closed form; :func:`evaluate_attack` reads it for both signs.

    Full 16-dimensional Born-rule evaluation of R_a x S_b on one ket: the
    pure state psi_theta x chi_sign in (A, A', B, B') order, built by
    `qo.with_ancilla` from the checked `theta` and the chi_sign ket, a unit
    ket in closed form.  Of the attack it reads only the dilated POVMs, not
    the coefficients or the carried ket.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    ket = qo.with_ancilla(qo.theta_ket(theta)[1], _CHI_KETS[0 if sign == +1 else 1])
    return mk.joint_table_kets(attack.r_povm.elements, attack.s_povm.elements, ket)[0]


def _admissible_coeffs(kets) -> np.ndarray:
    """Dilation coefficients (..., m): signed minors of the T_a = |k_a><k_a*| over the largest.

    The kets are (..., m, 2), and the minors are taken of the coordinates
    (k_0^2, k_0 k_1, k_1^2) of the T_a in the span of {I, X, Z}.  The first
    entry within RANK_TOL of the largest magnitude becomes exactly 1, so
    entries tied in magnitude (all four at theta = pi/2) cannot trade places
    through rounding.  With at most three outcomes, or when every minor
    vanishes (the T_a span at most two dimensions), the coefficients are zero
    (the block form).  Refuses all but qubit POVMs of at most 4 outcomes.
    """
    m, d = np.shape(kets)[-2:]
    if d != 2 or m > 4:
        shape = f"{m} outcomes of dimension {d}"
        raise ValueError(f"coefficients need a qubit POVM with at most 4 outcomes, got {shape}")
    if m < 4:
        return np.zeros(np.shape(kets)[:-1], dtype=complex)
    c = mk.null_vector(kets[..., [0, 0, 1]] * kets[..., [0, 1, 1]])
    mags = np.abs(c)
    top = mags.max(axis=-1, keepdims=True)
    tied = mags >= (1.0 - mk.RANK_TOL) * top
    pivot = tied & (np.cumsum(tied, axis=-1) == 1)  # the first entry tied with the largest
    live = ~(top <= mk.ZERO_TOL)  # NaN stays live, for the dilation gates to refuse
    c = np.divide(c, np.sum(c * pivot, axis=-1, keepdims=True), out=np.zeros_like(c), where=live)
    c[pivot & live] = 1.0  # numpy's x / x can be an ulp below 1
    return c


_SPAN = "off-diagonal operators span at most two dimensions"
_UNPAIRED = "no unit-magnitude pair with nonzero amplitude"


class AttackRows(NamedTuple):
    """The conjugation attack at N angles; row n belongs to theta[n].

    Coefficients `lam` and `mu` (N, 4), target pairs (N, 2), the tables |amp|^2,
    P_+ and P_- (N, 4, 4), and `reason[n]`: None, or why row n is degenerate.
    """

    theta: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    target: np.ndarray
    ideal: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    reason: list


def attack_rows(theta, psi, alice_kets, bob_kets) -> AttackRows:
    """The conjugation attack in closed form at N checked angles with theta-kets psi (N, 4).

    Both sides' kets (N, 4, 2) get their :func:`_admissible_coeffs` from one
    call, checked by `tomography.check_dilation`; a refusal names the side, the
    outcome and the angle.  The target pair maximizes |<k_a l_b|psi>|^2 over
    pairs with both magnitudes at one, and one global phase on lam aligns the
    interference term so that P_- vanishes there.
    """
    if np.shape(alice_kets)[-2:] != (4, 2) or np.shape(bob_kets)[-2:] != (4, 2):
        raise ValueError("the attack needs four outcomes on both sides")
    kets = np.stack([alice_kets, bob_kets])
    coeffs = _admissible_coeffs(kets)

    def at(side, n, outcome=""):
        return f"{('Alice', 'Bob')[side]}{outcome}, theta={float(theta[n])!r}"

    tg.check_dilation(coeffs, kets, lambda side, n, a: at(side, n, f" outcome {a}"), at)
    lam, mu = coeffs
    amp = mk.amplitudes(alice_kets, bob_kets, np.reshape(psi, (-1, 2, 2)))
    unit = np.abs(coeffs) >= 1.0 - mk.RANK_TOL
    weight = np.where(unit[0][:, :, None] & unit[1][:, None, :], np.abs(amp) ** 2, -1.0)
    n, best = np.arange(len(amp)), np.argmax(weight.reshape(len(amp), 16), axis=1)
    a, b = np.divmod(best, 4)
    spans = coeffs.any(axis=-1).all(axis=0)
    paired = (spans & (weight[n, a, b] > mk.ZERO_TOL)).tolist()
    reason = [None if p else _UNPAIRED if s else _SPAN for s, p in zip(spans.tolist(), paired)]
    # Align arg(conj(lam_a* mu_b*) amp^2) = 0 with one global phase on lam.
    lam = lam * np.exp(1j * (np.angle(amp[n, a, b] ** 2) - np.angle(lam[n, a] * mu[n, b])))[:, None]
    ideal, tables = _tables(amp, lam, mu, _CHI_BLOCKS)
    return AttackRows(theta, lam, mu, np.stack([a, b], axis=1), ideal, *tables, reason)


def build_attack(alice: Povm, bob: Povm, theta: float) -> AttackModel:
    """The conjugation attack on a pair of four-outcome POVMs: :func:`attack_rows` at one angle.

    A degenerate pair raises DegenerateAttackError with the row's reason.  The
    dilated POVMs R_a and S_b are built for the oracles by `tomography.dilate`
    from the kets and coefficients that `attack_rows` has already gated.
    """
    theta, psi = qo.theta_ket(theta)
    kets = (tg.rank_one_kets(p)[None] for p in (alice, bob))
    rows = attack_rows(np.array([theta]), psi[None], *kets)
    if rows.reason[0] is not None:
        raise DegenerateAttackError(rows.reason[0])
    lam, mu, target = rows.lam[0], rows.mu[0], tuple(rows.target[0].tolist())
    r_povm, s_povm = tg.dilate(alice, lam), tg.dilate(bob, mu)
    return AttackModel(theta, alice, bob, lam, mu, r_povm, s_povm, target, psi)


class ConditionalJoint(NamedTuple):
    """Eve-conditioned joint tables, or stacks of them, plus the derived guessing figures."""

    p_plus: np.ndarray
    p_minus: np.ndarray

    @property
    def average(self) -> np.ndarray:
        return 0.5 * (self.p_plus + self.p_minus)

    @property
    def guessing_prob(self):
        """Eve knows the prepared branch: average of the per-branch maxima, per table."""
        return 0.5 * (self.p_plus.max(axis=(-2, -1)) + self.p_minus.max(axis=(-2, -1)))

    @property
    def certified_bits(self):
        return -np.log2(self.guessing_prob)


def evaluate_attack(attack: AttackModel) -> ConditionalJoint:
    """P+ and P- as :func:`brute_force_joint` at the attack's angle: an oracle of `_tables`."""
    return ConditionalJoint(*(brute_force_joint(attack, attack.theta, s) for s in (+1, -1)))


def min_entropy(tables) -> list[float]:
    """-log2 of the largest entry of each normalized nonnegative table in a stack (N, ...).

    Row n is table n flattened.  Every table must sum to 1 within RANK_TOL, then
    have no entry below -ZERO_TOL; each refusal names the first refused table.
    """
    arr = np.asarray(tables, dtype=float)
    if arr.ndim < 2:
        raise ValueError(f"expected a stack of tables (N, ...), got shape {arr.shape}")
    rows, where = arr.reshape(len(arr), -1), "distribution {}".format
    mk.refuse_beyond(np.abs(rows.sum(axis=1) - 1.0), mk.RANK_TOL, "|sum - 1|", where)
    mk.refuse_beyond(-rows.min(axis=1), mk.ZERO_TOL, "negative entry", where)
    return [-math.log2(top) for top in rows.max(axis=1).tolist()]


# Min-entropy cap for double four-outcome schemes.  One conditional branch can
# always be forced to a zero entry, so its maximum is at least 1/15 while the
# other is at least 1/16; Eve holds the branch label, capping the certifiable
# randomness at -log2((1/15 + 1/16)/2).
CAP_BITS = -math.log2(0.5 * (1.0 / 15.0 + 1.0 / 16.0))


# ---------------------------------------------------------------------------
# Qubit reduction: one side with at most three outcomes
# ---------------------------------------------------------------------------


_DECOMPOSITIONS = 10  # Eve decompositions sampled by qubit_reduction_check


class QubitReductionReport(NamedTuple):
    theta: float
    n_decompositions: int
    max_deviation: float
    deviations: tuple[float, ...]
    correlation_check: float  # worst-case |<A' x B'> - 1| = |tr s - 1| over Eve's blocks s

    @property
    def reduces(self) -> bool:
        return self.max_deviation <= mk.IDENTITY_TOL


def _eve_decompositions(n_samples: int, rng: np.random.Generator):
    """Ensembles {(p_k, sigma_k)} decomposing the mixed ancilla pair, stacked as 2x2 blocks.

    The base state is the mixed ancilla sigma = (|00><00| + |11><11|)/2, the
    ancilla marginal of (|00>|0> + |11>|1>)/sqrt(2) whose last qubit Eve
    holds.  Her measurement {E_k} on that qubit leaves the state with block
    E_k^T / Tr E_k on span{|00>, |11>} and zero elsewhere, with probability
    p_k = Tr E_k / 2.  The first decomposition is the canonical conjugation
    pair, as the exact `_CHI_BLOCKS`; the rest alternate Haar-random rank-1
    projective measurements and random two-element full-rank POVMs.  The
    support is the +1 eigenspace of A' x B' = Z x Z, so the perfect
    correlation is preserved.

    Returns (weights, blocks) of shapes (K,) and (K, 2, 2), K = 2 n_samples, with
    blocks 2d and 2d + 1 (states by construction) making up decomposition d.  All
    normals come from one draw, in the order of a loop over the decompositions
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
    blocks = np.swapaxes(elements, -1, -2) / traces[..., None, None]
    weights = np.concatenate([[0.5, 0.5], traces.reshape(-1) / 2])
    blocks = np.concatenate([_CHI_BLOCKS, blocks.reshape(-1, 2, 2)])
    return weights, blocks


def qubit_reduction_check(
    alice: Povm, bob: Povm, theta: float, seed: int = 0
) -> QubitReductionReport:
    """Check that Eve-conditioned joints equal the ideal qubit joints over 10 decompositions.

    Each side takes its :func:`_admissible_coeffs`, gated by
    `tomography.check_dilation`; they are zero when it has at most three
    outcomes, and with four outcomes on both sides they are not, and the
    check fails.  For each sampled Eve decomposition every conditional joint
    is compared entrywise to the ideal table |amp|^2.

    Every Eve state is its 2x2 block s on span{|00>, |11>}.  A' x B' = Z x Z is
    the identity there, so <A' x B'> = tr s, and `correlation_check` is
    max |tr s - 1|.  The joints are :func:`_tables` of the blocks, and no
    dilated POVM is built.
    """
    theta, psi = qo.theta_ket(theta)
    rng = np.random.default_rng(seed)

    kets = [tg.rank_one_kets(p) for p in (alice, bob)]
    lam, mu = (_admissible_coeffs(k) for k in kets)
    tg.check_dilation(lam, kets[0])
    tg.check_dilation(mu, kets[1])
    _, blocks = _eve_decompositions(_DECOMPOSITIONS, rng)
    ideal, joints = _tables(mk.amplitudes(*kets, psi.reshape(2, 2)), lam, mu, blocks)
    worst = np.max(np.abs(joints - ideal), axis=(1, 2))  # two states per decomposition
    deviations = worst.reshape(_DECOMPOSITIONS, 2).max(axis=1)
    return QubitReductionReport(
        theta=theta,
        n_decompositions=_DECOMPOSITIONS,
        max_deviation=float(deviations.max()),
        deviations=tuple(float(x) for x in deviations),
        correlation_check=float(np.max(np.abs(np.trace(blocks, axis1=1, axis2=2).real - 1.0))),
    )


def attack_columns(rows: AttackRows) -> dict:
    """The attack report's columns over the rows of :func:`attack_rows`, read from its tables."""
    cj = ConditionalJoint(rows.p_plus, rows.p_minus)
    n, (a, b) = np.arange(len(rows.theta)), rows.target.T
    return {
        "theta": rows.theta,
        "lambda": np.stack([rows.lam.real, rows.lam.imag], axis=-1),
        "mu": np.stack([rows.mu.real, rows.mu.imag], axis=-1),
        "target_pair": rows.target,
        "P_plus": rows.p_plus,
        "P_minus": rows.p_minus,
        "average_vs_ideal_max_dev": np.max(np.abs(cj.average - rows.ideal), axis=(1, 2)),
        "zero_entry_value": rows.p_minus[n, a, b],
        "guessing_prob": cj.guessing_prob,
        "certified_bits": cj.certified_bits,
        "cap_bits": [CAP_BITS] * len(rows.theta),
    }


def attack_report(attack: AttackModel) -> dict:
    """JSON-ready report of a built attack: row 0 of :func:`attack_columns`, from its gated kets."""
    lam, mu = attack.lambda_coeffs[None], attack.mu_coeffs[None]
    amp = mk.amplitudes(attack.alice.kets, attack.bob.kets, attack.psi.reshape(2, 2))[None]
    ideal, tables = _tables(amp, lam, mu, _CHI_BLOCKS)
    theta, target = np.array([attack.theta]), np.array([attack.target_pair])
    rows = AttackRows(theta, lam, mu, target, ideal, *tables, [None])
    return qo.report_rows(attack_columns(rows))[0]
