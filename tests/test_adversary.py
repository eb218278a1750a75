import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellrand import adversary as adv
from bellrand import cli
from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import tomography as tg

ZERO, ONE = np.eye(2)  # the ancilla's Z eigenbasis |0>, |1>
# Eve's ancilla pair chi_+- as validated states, chi_+ first
CHI = tuple(qo.qstate_from_kets(k) for k in adv._CHI_KETS)


def random_admissible_coeffs(p, rng):
    """Null vector scaled by a random magnitude <= 1 and a random phase."""
    basis = tg.offdiag_set(p).null_basis
    v = basis[rng.integers(len(basis))]
    v = v / np.abs(v).max()
    return v * rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))


def make_attack(alice, bob, lam, mu, theta):
    return adv.AttackModel(
        theta=theta,
        alice=alice,
        bob=bob,
        lambda_coeffs=lam,
        mu_coeffs=mu,
        r_povm=tg.build_dilated_povm(alice, lam),
        s_povm=tg.build_dilated_povm(bob, mu),
        target_pair=(0, 0),
        psi=qo.theta_ket(theta)[1],
    )


def old_eve_decompositions(n_samples, rng):
    """Oracle: the per-decomposition generator that `_eve_decompositions` stacks.

    Yields one list of (weight, state) pairs per decomposition, drawing the
    Haar unitaries and Ginibre matrices one matrix at a time.
    """
    support = np.stack([np.kron(ZERO, ZERO), np.kron(ONE, ONE)], axis=1)  # columns |00>, |11>
    yield [(0.5, chi.rho) for chi in CHI]
    for k in range(1, n_samples):
        if k % 2 == 1:
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            elements = [np.outer(u[:, i], u[:, i].conj()) for i in range(2)]
        else:
            a = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
            g = [ai @ ai.conj().T for ai in a]
            w, v = np.linalg.eigh(g[0] + g[1])
            root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
            elements = [root_inv @ gi @ root_inv for gi in g]
        traces = [float(np.trace(e).real) for e in elements]
        yield [(t / 2, support @ e.T @ support.T / t) for t, e in zip(traces, elements)]


def reduction_oracle(alice, bob, theta, n_decompositions, seed):
    """Oracle: (deviations, correlation check) of the 4 x 3 reduction, one state at a time.

    Every Eve state becomes a validated `QState` on (A, A', B, B') through
    `compose_with_ancilla`, and its joint table comes from `mk.joint_table`.
    """
    rng = np.random.default_rng(seed)
    r_povm = tg.build_dilated_povm(alice, adv._admissible_coeffs(alice.kets))
    s_povm = tg.build_dilated_povm(bob, adv._admissible_coeffs(bob.kets))
    ideal = adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1])
    psi = qo.psi_theta(theta)
    a_corr = mk.kron(qo.PAULI_Z, qo.PAULI_Z)
    deviations = []
    corr_worst = 0.0
    for ensemble in old_eve_decompositions(n_decompositions, rng):
        dev = 0.0
        for _, sigma_e in ensemble:
            corr_worst = max(corr_worst, abs(mk.expval(a_corr, sigma_e) - 1.0))
            rho = qo.compose_with_ancilla(psi, qo.QState(sigma_e, (2, 2))).rho
            joint = mk.joint_table(r_povm.elements, s_povm.elements, rho)
            dev = max(dev, float(np.max(np.abs(joint - ideal))))
        deviations.append(dev)
    return deviations, corr_worst


class TestChiStates:
    def test_orthogonal(self):
        chi_p, chi_m = CHI
        assert abs(np.trace(chi_p.rho @ chi_m.rho)) <= 1e-14

    def test_marginal_is_maximally_mixed(self):
        chi_p, _ = CHI
        marg = mk.partial_trace(chi_p.rho, (2, 2), keep=(0,))
        assert np.max(np.abs(marg - np.eye(2) / 2)) <= 1e-14

    def test_perfect_plus_minus_correlation(self):
        corr = mk.kron(qo.PAULI_Z, qo.PAULI_Z)
        for chi in CHI:
            assert abs(mk.expval(corr, chi.rho) - 1.0) <= 1e-12


class TestClosedForm:
    def test_no_attack_reduces_to_ideal(self):
        theta = 0.9
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        table = adv.closed_form_joint(alice, bob, np.zeros(4), np.zeros(4), theta, +1)
        ideal = adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1])
        assert np.max(np.abs(table - ideal)) <= 1e-12

    def test_branches_average_to_ideal(self):
        theta = 0.6
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        rng = np.random.default_rng(1)
        lam = random_admissible_coeffs(alice, rng)
        mu = random_admissible_coeffs(bob, rng)
        plus = adv.closed_form_joint(alice, bob, lam, mu, theta, +1)
        minus = adv.closed_form_joint(alice, bob, lam, mu, theta, -1)
        ideal = adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1])
        assert np.max(np.abs(0.5 * (plus + minus) - ideal)) <= 1e-13

    def test_real_specialization(self):
        # four coplanar X-Z directions give real kets and real amplitudes
        normals = [
            np.array([math.sin(a), 0.0, math.cos(a)])
            for a in (0, math.pi / 2, math.pi, 3 * math.pi / 2)
        ]
        p = qo.povm_from_kets(qo.bloch_ket([0.5] * 4, normals))
        theta = 0.7
        v = tg.offdiag_set(p).null_basis[0]
        assert np.max(np.abs(v.imag)) <= 1e-12
        lam = v.real / np.abs(v.real).max()
        amp = adv.joint_amplitudes(p, p, qo.theta_ket(theta)[1])
        assert np.max(np.abs(amp.imag)) <= 1e-12
        minus = adv.closed_form_joint(p, p, lam, lam, theta, -1)
        expected = amp.real**2 * (1 - np.outer(lam, lam))
        assert np.max(np.abs(minus - expected)) <= 1e-12

    def test_non_finite_ket_refused_naming_its_outcome(self):
        p = qo.adjusted_tetrahedral(0.5)
        kets = p.kets.copy()
        kets[1, 0] = np.nan
        bad = qo.Povm(p.elements, kets)
        for alice, bob in ((bad, p), (p, bad)):
            with pytest.raises(ValueError, match="^non-finite ket nan exceeds 1e-12 at outcome 1$"):
                adv.closed_form_joint(alice, bob, np.zeros(4), np.zeros(4), 0.5, +1)

    def test_bad_sign_rejected(self):
        p = qo.adjusted_tetrahedral(0.5)
        attack = adv.build_attack(p, p, 0.5)
        for sign in (0, 2):
            with pytest.raises(ValueError, match="sign must be"):
                adv.closed_form_joint(p, p, np.zeros(4), np.zeros(4), 0.5, sign)
            with pytest.raises(ValueError, match="sign must be"):
                adv.brute_force_joint(attack, 0.5, sign)


class TestOracleEquivalence:
    def test_closed_form_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for i in range(20):
            theta = rng.uniform(0.25, np.pi / 2)
            alice = tg.random_extremal_povm(4, rng)
            bob = tg.random_extremal_povm(4, rng)
            lam = random_admissible_coeffs(alice, rng)
            mu = random_admissible_coeffs(bob, rng)
            attack = make_attack(alice, bob, lam, mu, theta)
            for sign in (+1, -1):
                closed = adv.closed_form_joint(alice, bob, lam, mu, theta, sign)
                brute = adv.brute_force_joint(attack, theta, sign)
                assert np.max(np.abs(closed - brute)) <= 1e-10
                assert brute.min() >= -1e-12
                assert abs(brute.sum() - 1.0) <= 1e-10

    def test_no_attack_brute_force_is_ideal(self):
        theta = 1.2
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        attack = make_attack(alice, bob, np.zeros(4), np.zeros(4), theta)
        brute = adv.brute_force_joint(attack, theta, +1)
        assert np.max(np.abs(brute - adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1]))) <= 1e-12


class TestKetOracle:
    """`brute_force_joint` evaluates one 16-dim ket, a unit ket in closed form."""

    def test_attack_path_forms_no_composite_state(self, monkeypatch):
        # One pair through the attack, both brute-force branches and the 4x3
        # reduction: no validated QState, no tensor product or permutation, and
        # one angle check per call that takes theta (the report reads the
        # attack's theta-ket).
        rng = np.random.default_rng(11)
        alice, bob = (tg.random_extremal_povm(4, rng) for _ in range(2))
        bob3 = tg.random_extremal_povm(3, rng)
        counts = dict.fromkeys(
            ("check_theta", "QState", "compose_with_ancilla", "kron", "permute_subsystems"), 0
        )

        def counted(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return wrapper

        check_theta = counted("check_theta", qo.check_theta)
        monkeypatch.setattr(qo, "check_theta", check_theta)
        monkeypatch.setattr(qo.QState, "__post_init__", counted("QState", qo.QState.__post_init__))
        for module, name in ((qo, "compose_with_ancilla"), (mk, "kron"), (mk, "permute_subsystems")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

        attack = adv.build_attack(alice, bob, 0.8)
        adv.attack_report(attack)
        for sign in (+1, -1):
            adv.brute_force_joint(attack, 0.8, sign)
        adv.qubit_reduction_check(alice, bob3, 0.8, seed=5)
        assert counts == {
            "check_theta": 4,
            "QState": 0,
            "compose_with_ancilla": 0,
            "kron": 0,
            "permute_subsystems": 0,
        }


class TestAttackTablesFromAncillaOperators:
    """`evaluate_attack` against the density-matrix route Re Tr[(R_a x S_b) rho].

    rho = psi_theta x chi_k from `compose_with_ancilla`: chi_+ for P+ and chi_- for P-.
    """

    @staticmethod
    def assert_matches_density_route(attack):
        cj = adv.evaluate_attack(attack)
        for k, (sign, table) in enumerate(zip((+1, -1), (cj.p_plus, cj.p_minus))):
            # evaluate_attack wires chi_+ to P+ and chi_- to P-
            np.testing.assert_array_equal(table, adv.brute_force_joint(attack, attack.theta, sign))
            rho = qo.compose_with_ancilla(qo.psi_theta(attack.theta), CHI[k]).rho
            expected = mk.joint_table(attack.r_povm.elements, attack.s_povm.elements, rho)
            assert table.shape == expected.shape
            assert np.max(np.abs(table - expected)) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, math.pi / 2))
    def test_random_pairs(self, seed, theta):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4, rng)
        lam = random_admissible_coeffs(alice, rng)
        mu = random_admissible_coeffs(bob, rng)
        self.assert_matches_density_route(make_attack(alice, bob, lam, mu, theta))

    @pytest.mark.parametrize("theta", [qo.THETA_MIN, 1e-9, math.pi / 2])
    def test_cli_pair(self, theta):
        p = qo.adjusted_tetrahedral(theta)
        self.assert_matches_density_route(adv.build_attack(p, p, theta))


class TestBuildAttack:
    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.0, 1.3, np.pi / 2])
    def test_zeroing_and_undetectability(self, theta):
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        attack = adv.build_attack(alice, bob, theta)
        cj = adv.evaluate_attack(attack)
        ideal = adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1])
        assert cj.p_minus[attack.target_pair] <= 1e-10
        assert np.max(np.abs(cj.average - ideal)) <= 1e-10
        # a 16-outcome distribution with one zero entry: pigeonhole floor
        assert cj.p_minus.max() >= 1 / 15 - 1e-12
        assert qo.povm_validity(attack.r_povm).is_valid
        assert qo.povm_validity(attack.s_povm).is_valid

    def test_coefficients_admissible(self):
        theta = 0.8
        attack = adv.build_attack(
            qo.adjusted_tetrahedral(theta), qo.adjusted_tetrahedral(theta), theta
        )
        for coeffs, povm in ((attack.lambda_coeffs, attack.alice), (attack.mu_coeffs, attack.bob)):
            assert np.abs(coeffs).max() <= 1 + 1e-12
            assert abs(np.abs(coeffs).max() - 1.0) <= 1e-9
            offdiags = tg.offdiag_set(povm).operators
            closure = sum(c * t for c, t in zip(coeffs, offdiags))
            assert np.linalg.norm(closure) <= 1e-9

    @pytest.mark.parametrize("theta", [0.9, np.pi / 2])
    def test_coefficient_gauge_ignores_the_null_vector_phase(self, monkeypatch, theta):
        # a null vector is fixed only up to a scale and a phase, and at pi/2 all
        # four magnitudes tie; the reported coefficients must depend on neither
        p = qo.adjusted_tetrahedral(theta)
        attack = adv.build_attack(p, p, theta)
        assert attack.mu_coeffs[0] == 1.0  # entry 0 has the largest magnitude
        plain = mk.null_vector
        for factor in (-1.0, np.exp(1.3j), np.exp(1.3j) * (1.0 + 1e-14 * np.arange(4))):
            monkeypatch.setattr(mk, "null_vector", lambda v, f=factor: f * plain(v))
            again = adv.build_attack(p, p, theta)
            assert np.max(np.abs(again.lambda_coeffs - attack.lambda_coeffs)) <= mk.ZERO_TOL
            assert np.max(np.abs(again.mu_coeffs - attack.mu_coeffs)) <= mk.ZERO_TOL

    def test_zeroes_a_target_off_the_gauge_pivots(self):
        # at pi/2 all four coefficient magnitudes tie; ket phases, which leave the
        # elements as they are, give the tied coefficients phases, and reordering
        # Bob's outcomes moves the target off both pivots, so the global phase
        # must align lam_a mu_b as well as amp^2
        theta = math.pi / 2
        p = qo.adjusted_tetrahedral(theta)
        alice = qo.povm_from_kets(p.kets * np.exp(1j * np.array([0.0, 0.3, 0.7, 1.1]))[:, None])
        bob_kets = p.kets[[1, 0, 2, 3]] * np.exp(1j * np.array([0.2, -0.5, 0.9, 0.4]))[:, None]
        attack = adv.build_attack(alice, qo.povm_from_kets(bob_kets), theta)
        a, b = attack.target_pair
        assert min(abs(attack.lambda_coeffs[a].imag), abs(attack.mu_coeffs[b].imag)) > 0.1
        assert adv.attack_report(attack)["zero_entry_value"] <= mk.ZERO_TOL
        assert adv.evaluate_attack(attack).p_minus[a, b] <= mk.ZERO_TOL

    def test_monotone_damage(self):
        for theta in (0.3, 0.7, 1.0, 1.3, np.pi / 2):
            alice = qo.adjusted_tetrahedral(theta)
            bob = qo.adjusted_tetrahedral(theta)
            attack = adv.build_attack(alice, bob, theta)
            cj = adv.evaluate_attack(attack)
            baseline = adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1]).max()
            assert cj.guessing_prob >= baseline - 1e-12

    def test_degenerate_pairing_detected(self):
        # mirroring Bob's Bloch vectors sends his unit-coefficient ket to -Z,
        # so the only unit-magnitude pair has zero amplitude
        theta = 0.4
        alice = qo.adjusted_tetrahedral(theta)
        c = math.cos(theta)
        lam1 = 1.0 / (2.0 + 2.0 * c)
        lam = (3.0 + 4.0 * c) / (6.0 + 6.0 * c)
        cos_g = -1.0 / (3.0 + 4.0 * c)
        sin_g = math.sqrt(1 - cos_g**2)
        normals = [np.array([0.0, 0.0, -1.0])]
        for d in (0, 2 * math.pi / 3, 4 * math.pi / 3):
            normals.append(-np.array([sin_g * math.cos(d), sin_g * math.sin(d), cos_g]))
        bob = qo.povm_from_kets(qo.bloch_ket([lam1, lam, lam, lam], normals))
        with pytest.raises(adv.DegenerateAttackError):
            adv.build_attack(alice, bob, theta)

    def test_wrong_outcome_count_rejected(self):
        with pytest.raises(ValueError):
            adv.build_attack(qo.modified_mercedes(0.5), qo.adjusted_tetrahedral(0.5), 0.5)


class TestKernelGates:
    """Coefficients no dilation realizes are refused, naming the side, the outcome and the angle."""

    @staticmethod
    def attack_at(thetas):
        theta, psi = qo.theta_ket(np.array(thetas))
        kets = qo.adjusted_tetrahedral_kets(theta)
        return adv.attack_rows(theta, psi, kets, kets)

    def test_coefficient_above_one_refused(self, monkeypatch):
        plain = adv._admissible_coeffs

        def scaled(kets):
            c = plain(kets)
            c[..., 1, 0] *= 1.5  # the unit entry at the second angle
            return c

        monkeypatch.setattr(adv, "_admissible_coeffs", scaled)
        refusal = r"^\|c_a\| - 1 5\.000e-01 exceeds 1e-09 at Alice outcome 0, theta=0\.9$"
        with pytest.raises(ValueError, match=refusal):
            self.attack_at([0.5, 0.9])

    def test_minor_with_flipped_sign_refused(self, monkeypatch):
        plain = mk.null_vector

        def flipped(v):
            c = plain(v)
            c[..., 1, 2] *= -1.0
            return c

        monkeypatch.setattr(mk, "null_vector", flipped)
        refusal = r"^completeness residual \S+ exceeds 1e-09 at Alice, theta=0\.9$"
        with pytest.raises(ValueError, match=refusal):
            self.attack_at([0.5, 0.9])


def gauge_fixed_svd_coeffs(p):
    """Oracle: the SVD null vector over its first entry within RANK_TOL of the largest."""
    v = tg.offdiag_set(p).null_basis[0]
    mags = np.abs(v)
    i = np.argmax(mags >= (1.0 - mk.RANK_TOL) * mags.max())
    c = v / v[i]
    c[i] = 1.0
    return c


class TestSignedMinorCoefficients:
    """`_admissible_coeffs` (the signed minors) against the SVD null space of `offdiag_set`."""

    @staticmethod
    def assert_matches_the_svd(p):
        c = adv._admissible_coeffs(p.kets)
        assert np.max(np.abs(c - gauge_fixed_svd_coeffs(p))) <= 1e-13
        assert c[np.argmax(np.abs(c) >= 1.0 - mk.RANK_TOL)] == 1.0  # exactly, not x / x
        closure = np.tensordot(c, tg.offdiag_set(p).operators, axes=1)
        assert np.max(np.abs(closure)) <= mk.ZERO_TOL

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_four_outcome_povms(self, seed):
        self.assert_matches_the_svd(tg.random_extremal_povm(4, np.random.default_rng(seed)))

    @pytest.mark.parametrize("theta", [qo.THETA_MIN, 1e-9, np.pi / 2])
    def test_adjusted_tetrahedral(self, theta):
        self.assert_matches_the_svd(qo.adjusted_tetrahedral(theta))

    def test_three_parallel_kets_are_degenerate(self):
        # four outcomes, three of them on the ray |0>: every 3x3 minor vanishes
        normals = [[0, 0, 1]] * 3 + [[0, 0, -1]]
        p = qo.povm_from_kets(qo.bloch_ket([0.5, 0.25, 0.25, 1.0], normals))
        assert qo.povm_validity(p).is_valid
        np.testing.assert_array_equal(adv._admissible_coeffs(p.kets), np.zeros(4))
        with pytest.raises(adv.DegenerateAttackError, match="^off-diagonal operators span at"):
            adv.build_attack(p, qo.adjusted_tetrahedral(0.7), 0.7)

    @pytest.mark.parametrize(
        "p, named",
        [
            (qo.Povm(np.full((5, 2, 2), 0.2), np.full((5, 2), math.sqrt(0.2))), "got 5 outcomes"),
            (qo.Povm(np.stack([np.eye(3)] * 4) / 4, np.full((4, 3), 0.5)), "of dimension 3"),
        ],
        ids=["five_outcomes", "qutrit"],
    )
    def test_only_qubit_povms_with_at_most_four_outcomes(self, p, named):
        with pytest.raises(ValueError, match=named):
            adv._admissible_coeffs(p.kets)
        with pytest.raises(ValueError, match=named):
            adv.qubit_reduction_check(p, p, 0.7)


# log-uniform angles with the ends, and pi/2 where all four coefficient magnitudes tie
CLI_ANGLES = np.concatenate(
    [
        np.geomspace(qo.THETA_MIN, math.pi / 2, 450),
        [qo.THETA_MIN, 1e-9, math.pi / 2 - 1e-8, math.pi / 2],
    ]
)


class TestCliAttackPair:
    """The pair `cli attack` measures, adjusted-tetrahedral on both sides, in closed form."""

    def test_coefficients_in_closed_form(self):
        # (1, -1/(1 + 2c), -1/(1 + 2c), -1/(1 + 2c)) with c = cos(theta): the +Z ket is the pivot
        expected = np.ones((len(CLI_ANGLES), 4))
        expected[:, 1:] = (-1.0 / (1.0 + 2.0 * np.cos(CLI_ANGLES)))[:, None]
        coeffs = adv._admissible_coeffs(qo.adjusted_tetrahedral_kets(CLI_ANGLES))
        assert np.max(np.abs(coeffs - expected)) <= 2e-15

    def test_target_pair_is_the_z_pair(self, capsys):
        assert cli.main(["attack", "--theta", ",".join(map(repr, CLI_ANGLES.tolist()))]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["target_pair"] for r in reports] == [[0, 0]] * len(CLI_ANGLES)


class TestGuessing:
    def test_uniform_tables(self):
        table = np.full((4, 4), 1 / 16)
        cj = adv.ConditionalJoint(table, table)
        assert abs(cj.guessing_prob - 1 / 16) <= 1e-15
        assert abs(cj.certified_bits - 4.0) <= 1e-12

    def test_fifteen_sixteen_split(self):
        minus = np.full(16, 1 / 15)
        minus[0] = 0.0
        cj = adv.ConditionalJoint(np.full((4, 4), 1 / 16), minus.reshape(4, 4))
        expected = 0.5 * (1 / 15 + 1 / 16)
        assert abs(cj.guessing_prob - expected) <= 1e-15
        assert abs(cj.certified_bits - 3.9527) <= 1e-4

    def test_no_attack_guessing_is_ideal_maximum(self):
        theta = 1.0
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        attack = make_attack(alice, bob, np.zeros(4), np.zeros(4), theta)
        cj = adv.evaluate_attack(attack)
        ideal_max = adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1]).max()
        assert abs(cj.guessing_prob - ideal_max) <= 1e-12


class TestCapAndEntropy:
    def test_cap_value(self):
        cap = adv.CAP_BITS
        assert 3.9526 < cap < 3.9528
        assert cap < 4.0
        assert cap > math.log2(12)

    def test_min_entropy_values(self):
        assert abs(adv.min_entropy([np.full(4, 0.25)])[0] - 2.0) <= 1e-12
        # row n is table n flattened: one 4x3 table
        assert abs(adv.min_entropy(np.full((1, 4, 3), 1 / 12))[0] - math.log2(12)) <= 1e-12
        point = np.zeros((2, 8))
        point[0, 3] = point[1, 0] = 1.0
        assert adv.min_entropy(point) == [0.0, 0.0]

    def test_min_entropy_validation(self):
        off = r"^\|sum - 1\| 2\.000e-01 exceeds 1e-09 at distribution 0$"
        with pytest.raises(ValueError, match=off):
            adv.min_entropy([np.full(4, 0.3)])
        bad = np.array([[1.0, 0.0, 0.0], [0.5, 0.6, -0.1]])
        negative = r"^negative entry 1\.000e-01 exceeds 1e-12 at distribution 1$"
        with pytest.raises(ValueError, match=negative):
            adv.min_entropy(bad)
        with pytest.raises(ValueError, match="stack of tables"):
            adv.min_entropy(np.full(4, 0.25))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(2, 12),
        st.data(),
    )
    def test_stacked_min_entropy_is_per_table(self, seed, n, m, data):
        rows = np.random.default_rng(seed).dirichlet(np.ones(m), size=n)
        got = adv.min_entropy(rows)
        assert [x.hex() for x in got] == [(-math.log2(row.max())).hex() for row in rows]
        # corrupt one row, and a later one the other way: the sums are checked
        # before the signs, and each check names the first row it refuses
        first = data.draw(st.integers(0, n - 1))
        kinds = (r"\|sum - 1\|", "negative entry")
        kind = data.draw(st.sampled_from(kinds))
        other = kinds[1] if kind == kinds[0] else kinds[0]
        for k, how in ((first, kind), (first + 1, other)):
            if k == n:
                break
            if how == kinds[0]:
                rows[k] *= 1.5
            else:
                rows[k, 1] += rows[k, 0] + 1e-6
                rows[k, 0] = -1e-6
        named = first if kind == kinds[0] or first + 1 == n else first + 1
        check = kinds[0] if named > first else kind
        with pytest.raises(ValueError, match=f"^{check} .* at distribution {named}$"):
            adv.min_entropy(rows)


NAN = float("nan")


def nan_member(valid, shape):
    """A stack of a valid member, then an all-NaN one: a refusal must name member 1."""
    return np.stack([np.asarray(valid, dtype=complex), np.full(shape, NAN, dtype=complex)])


def nan_observables(_):
    qo.check_dichotomic_stack(nan_member(qo.PAULI_Z, (2, 2)), "member {}".format)


def nan_states(_):
    qo.check_state_stack(nan_member(np.eye(2) / 2, (2, 2)))


def nan_tables(_):
    adv.min_entropy(np.stack([np.full(4, 0.25), np.full(4, NAN)]))


def nan_ket_povm():
    """The adjusted-tetrahedral POVM at 0.7 with the ket of outcome 1 all NaN."""
    p = qo.adjusted_tetrahedral(0.7)
    kets = p.kets.copy()
    kets[1] = NAN
    return qo.Povm(p.elements, kets)


def nan_element_povm():
    elements = qo.adjusted_tetrahedral(0.7).elements.copy()
    elements[1] = NAN
    return qo.Povm(elements)


ADMISSIBLE = np.array([1.0, 0.5, 0.5, 0.5])  # any finite coefficients: the kets are NaN


class TestNanRefused:
    """Each contract condition refuses NaN in member k on its own, in the gate's wording.

    Only the condition under test reaches the gate and the others pass
    everything, so NaN also reaches the conditions that an earlier one guards.
    The refusal names nan, the bound and member k (a completeness sum and a
    state stack name none).
    """

    @pytest.mark.parametrize(
        "check, bound, member, call",
        [
            pytest.param(
                "|c_a| - 1",
                "1e-09",
                "outcome 1",
                lambda _: tg.build_dilated_povm(qo.adjusted_tetrahedral(0.7), [0, NAN, 0, 0]),
                id="dilation",
            ),
            pytest.param(
                "completeness residual",
                "1e-09",
                None,
                lambda _: tg.build_dilated_povm(nan_ket_povm(), ADMISSIBLE),
                id="dilation_completeness",
            ),
            pytest.param(
                "non-Hermitian part",
                "1e-10",
                "member 1",
                nan_observables,
                id="dichotomic_stack",
            ),
            pytest.param(
                "O^2 - I",
                "1e-10",
                "member 1",
                nan_observables,
                id="dichotomic_square",
            ),
            pytest.param(
                "density operator non-Hermitian part",
                "1e-12",
                None,
                nan_states,
                id="state_stack",
            ),
            pytest.param(
                "density operator PSD violation",
                "1e-10",
                None,
                nan_states,
                id="state_psd",
            ),
            pytest.param(
                "density operator |trace - 1|",
                "1e-10",
                None,
                nan_states,
                id="state_trace",
            ),
            pytest.param(
                "|sum - 1|",
                "1e-09",
                "distribution 1",
                nan_tables,
                id="min_entropy",
            ),
            pytest.param(
                "negative entry",
                "1e-12",
                "distribution 1",
                nan_tables,
                id="min_entropy_sign",
            ),
            pytest.param(
                "eigh: non-Hermitian part",
                "1e-12",
                "matrix 1",
                lambda _: mk.eigh(nan_member(np.eye(2), (2, 2))),
                id="eigh",
            ),
            pytest.param(
                "second eigenvalue",
                "1e-09",
                "element 1",
                lambda _: qo.kets_from_elements(nan_element_povm()),
                id="kets_from_elements",
            ),
            pytest.param(
                "non-finite ket",
                "1e-12",
                "outcome 1",
                lambda _: tg.offdiag_set(nan_ket_povm()),
                id="offdiag_set",
            ),
        ],
    )
    def test_nan_refused(self, monkeypatch, check, bound, member, call):
        gate = mk.refuse_beyond

        def only_this_check(excess, tier, name, where=None):
            if name == check:
                gate(excess, tier, name, where)

        monkeypatch.setattr(mk, "refuse_beyond", only_this_check)
        at = "" if member is None else f" at {member}"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{check} nan exceeds {bound}{at}')}$"):
            call(monkeypatch)

    @pytest.mark.parametrize(
        "check, bound, call",
        [
            ("eigh: non-Hermitian part", "1e-12", lambda m: mk.eigh(m)),
            ("density operator non-Hermitian part", "1e-12", lambda m: qo.check_state_stack(m)),
            ("non-Hermitian part", "1e-10", lambda m: qo.Dichotomic(m[0], "x")),
        ],
        ids=["eigh", "state_stack", "dichotomic"],
    )
    def test_infinite_entry_refused(self, check, bound, call):
        # inf - inf in A - A^dagger would warn; the residual reads NaN instead
        with pytest.raises(ValueError, match=f"^{re.escape(f'{check} nan exceeds {bound}')}"):
            call(np.full((1, 2, 2), np.inf))

    def test_nan_povm_refused_before_the_svd(self):
        # every attack-layer entry refuses the non-finite kets before any table
        p = qo.Povm(np.full((4, 2, 2), NAN), np.full((4, 2), NAN))
        refusal = r"^non-finite ket nan exceeds 1e-12 at outcome 0$"
        for call in (
            lambda: tg.offdiag_set(p),
            lambda: tg.build_dilated_povm(p, np.zeros(4)),
            lambda: adv.build_attack(p, p, 0.7),
            lambda: adv.qubit_reduction_check(p, p, 0.7),
        ):
            with pytest.raises(ValueError, match=refusal):
                call()


FOUR_BY_THREE = (qo.adjusted_tetrahedral(0.9), qo.modified_mercedes(0.9), 0.9)


class TestQubitReduction:
    def test_four_by_three_reduces(self):
        rep = adv.qubit_reduction_check(*FOUR_BY_THREE, seed=7)
        assert rep.reduces
        assert rep.max_deviation <= 1e-10
        assert rep.correlation_check <= 1e-10
        assert rep.n_decompositions == len(rep.deviations) == 10

    def test_reads_no_dilated_povm(self, monkeypatch):
        # the tables come from Eve's 2x2 blocks; dilations and element tables serve the oracles
        def refused(*args, **kwargs):
            raise AssertionError("an oracle kernel ran on the reduction path")

        oracles = ((tg, "dilate"), (adv, "ideal_joint"), (mk, "joint_table_kets"))
        for module, name in oracles:
            monkeypatch.setattr(module, name, refused)
        assert adv.qubit_reduction_check(*FOUR_BY_THREE).reduces

    def test_three_by_two_trivially_reduces(self):
        rng = np.random.default_rng(13)
        rep = adv.qubit_reduction_check(
            qo.modified_mercedes(0.5), tg.random_extremal_povm(2, rng), 0.5, seed=5
        )
        assert rep.reduces

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @example(3, 50)
    def test_eve_ensembles_decompose_the_ancilla_mixture(self, seed, n):
        # the mixed ancilla is zero off span{|00>, |11>}; its block there is I/2
        mixture = qo.qstate_from_kets(qo.ANCILLA_MIXED).rho
        assert not mixture[1:3].any() and not mixture[:, 1:3].any()
        # the attack hides in (chi_+ + chi_-)/2 being the mixed ancilla
        assert np.max(np.abs((CHI[0].rho + CHI[1].rho) / 2 - mixture)) <= mk.ZERO_TOL
        weights, blocks = adv._eve_decompositions(n, np.random.default_rng(seed))
        # every block is a state: the QState contract of the embedded 4 x 4 state
        qo.check_state_stack(blocks)
        # decomposition d is blocks 2d and 2d + 1, and its average is the mixture's block
        weights, pairs = weights.reshape(n, 2), blocks.reshape(n, 2, 2, 2)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= mk.IDENTITY_TOL
        average = np.einsum("dk,dkij->dij", weights, pairs)
        assert np.max(np.abs(average - mixture[[0, 3]][:, [0, 3]])) <= mk.IDENTITY_TOL

    @pytest.mark.parametrize("seed", [0, 3, 2**31 - 1])
    def test_eve_stream_matches_the_per_decomposition_draws(self, seed):
        # the 4 x 4 reference states are exactly zero off the support and
        # restrict to the blocks; the chi pair is exact in the blocks only
        for n in (1, 2, 10, 11):
            rng = np.random.default_rng(seed)
            weights, blocks = adv._eve_decompositions(n, rng)
            old_rng = np.random.default_rng(seed)
            old = [m for ensemble in old_eve_decompositions(n, old_rng) for m in ensemble]
            states = np.array([sigma for _, sigma in old])
            np.testing.assert_array_equal(weights, [p for p, _ in old])
            assert not states[:, 1:3].any() and not states[:, :, 1:3].any()
            restricted = states[:, [0, 3]][:, :, [0, 3]]
            np.testing.assert_array_equal(blocks[:2], adv._CHI_BLOCKS)
            assert np.max(np.abs(restricted[:2] - blocks[:2])) <= mk.ZERO_TOL
            np.testing.assert_array_equal(blocks[2:], restricted[2:])
            assert rng.bit_generator.state == old_rng.bit_generator.state

    def test_four_by_four_with_nonzero_coefficients_fails(self):
        theta = np.pi / 2
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        rep = adv.qubit_reduction_check(alice, bob, theta, seed=11)
        assert not rep.reduces
        assert rep.max_deviation >= 1e-3


class TestStackedReduction:
    """The stacked reduction check against the per-state loop it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, math.pi / 2), st.booleans())
    def test_matches_per_state_loop(self, seed, theta, four_by_four):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4 if four_by_four else 3, rng)
        rep = adv.qubit_reduction_check(alice, bob, theta, seed=seed)
        deviations, corr = reduction_oracle(alice, bob, theta, 10, seed)
        if four_by_four:
            assert max(deviations) > mk.IDENTITY_TOL
        assert np.max(np.abs(np.subtract(rep.deviations, deviations))) <= mk.ZERO_TOL
        assert abs(rep.correlation_check - corr) <= mk.ZERO_TOL
        # undetectable over every sampled decomposition, not only the chi pair,
        # for any count down to the chi pair alone: Eve's tables weighted by
        # her decomposition's weights average to |amp|^2
        n = int(rng.integers(1, 12))
        weights, blocks = adv._eve_decompositions(n, np.random.default_rng(seed))
        amp = adv.joint_amplitudes(alice, bob, qo.theta_ket(theta)[1])
        lam, mu = (adv._admissible_coeffs(p.kets) for p in (alice, bob))
        ideal, tables = adv._tables(amp, lam, mu, blocks)
        weighted = weights[:, None, None] * tables
        averages = weighted.reshape(n, 2, *ideal.shape).sum(axis=1)  # blocks 2d, 2d + 1
        assert np.max(np.abs(averages - ideal)) <= mk.ZERO_TOL


class TestReductionWorstCase:
    """No Eve state moves a table entry by more than max_ab |lam_a| |mu_b| |amp_ab|^2.

    Every Eve block s has tr s = 1 and |s_01| <= 1/2, so its deviation
    2 Re[s_01 conj(lam_a mu_b) amp_ab^2] from |amp_ab|^2 is at most
    |lam_a| |mu_b| |amp_ab|^2; the chi pair's real s_01 = +-1/2 reaches it up
    to the phase of the interference term.
    """

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, math.pi / 2), st.booleans())
    def test_every_sampled_deviation_within_the_worst_case(self, seed, theta, four_by_four):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4 if four_by_four else 3, rng)
        lam, mu = (adv._admissible_coeffs(p.kets) for p in (alice, bob))
        amp = adv.joint_amplitudes(alice, bob, qo.theta_ket(theta)[1])
        worst = np.max(np.abs(lam)[:, None] * np.abs(mu)[None, :] * np.abs(amp) ** 2)
        rep = adv.qubit_reduction_check(alice, bob, theta, seed=seed)
        assert max(rep.deviations) <= worst + mk.ZERO_TOL


def coherence_determinant(kets):
    """det of the rows (k_0^2, k_0 k_1, k_1^2) of three kets (..., 3, 2), by Laplace expansion.

    The rows are the coordinates of T_a = |k_a><k_a*| in the span of {I, X, Z},
    and the expansion runs along the first column with `mk.null_vector`'s
    signed minors of the other two.
    """
    c = kets[..., [0, 0, 1]] * kets[..., [0, 1, 1]]
    return np.sum(c[..., 0] * mk.null_vector(c[..., 1:]), axis=-1)


def pairwise_determinants(kets):
    """Product over a < b of the ket determinants k_a0 k_b1 - k_b0 k_a1 of kets (..., 3, 2)."""
    a, b = np.array([0, 0, 1]), np.array([1, 2, 2])
    return np.prod(kets[..., a, 0] * kets[..., b, 1] - kets[..., b, 0] * kets[..., a, 1], axis=-1)


class TestThreeOutcomeIndependence:
    """The three T_a of a three-outcome extremal POVM are independent.

    Then sum_a c_a T_a = 0 forces c = 0, so `_admissible_coeffs`' zeros are
    the only admissible coefficients and the qubit reduction is exact.  The
    determinant of the T_a coordinates is a homogeneous Vandermonde
    determinant: the product of the pairwise ket determinants, nonzero
    unless two kets are parallel.
    """

    @staticmethod
    def assert_certified(kets):
        det = coherence_determinant(kets)
        assert np.max(np.abs(det - pairwise_determinants(kets))) <= 1e-15
        assert np.abs(det).min() > mk.RANK_TOL

    def test_random_extremal_povms(self):
        rng = np.random.default_rng(3)
        self.assert_certified(np.stack([tg.random_extremal_povm(3, rng).kets for _ in range(300)]))

    def test_modified_mercedes(self):
        thetas = [qo.THETA_MIN, 1e-9, *np.linspace(1e-3, math.pi / 2, 50)]
        self.assert_certified(np.stack([qo.modified_mercedes(t).kets for t in thetas]))

    def test_parallel_kets_give_zero(self):
        kets = qo.modified_mercedes(0.7).kets.copy()
        kets[1] = 0.5 * kets[0]
        assert coherence_determinant(kets) == 0.0
        assert pairwise_determinants(kets) == 0.0


ANGLES = st.floats(1e-3, math.pi / 2)


class TestRandomPairs:
    """The attack and the 4 x 3 reduction over random extremal POVM pairs and angles."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, math.pi / 2))
    def test_attack_undetectable_and_capped(self, seed, theta):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4, rng)
        try:
            attack = adv.build_attack(alice, bob, theta)
        except adv.DegenerateAttackError:
            assume(False)
        cj = adv.evaluate_attack(attack)
        ideal = adv.ideal_joint(alice, bob, qo.theta_ket(theta)[1])
        assert np.max(np.abs(cj.average - ideal)) <= mk.IDENTITY_TOL
        assert cj.p_minus[attack.target_pair] <= mk.IDENTITY_TOL
        assert cj.certified_bits <= adv.CAP_BITS

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(ANGLES, min_size=1, max_size=4))
    def test_kernel_rows_match_the_oracles(self, seed, thetas):
        # the kernel over N angles against the attack at each angle alone, its
        # dilated-POVM tables and the 16-dimensional Born rule
        rng = np.random.default_rng(seed)
        pairs = [(tg.random_extremal_povm(4, rng), tg.random_extremal_povm(4, rng)) for _ in thetas]
        theta, psi = qo.theta_ket(np.array(thetas))
        kets = (np.stack([p.kets for p in side]) for side in zip(*pairs))
        rows = adv.attack_rows(theta, psi, *kets)
        for n, (alice, bob) in enumerate(pairs):
            try:
                attack = adv.build_attack(alice, bob, thetas[n])
            except adv.DegenerateAttackError as exc:
                assert rows.reason[n] == str(exc)
                continue
            assert rows.reason[n] is None
            assert tuple(rows.target[n].tolist()) == attack.target_pair
            cj = adv.evaluate_attack(attack)
            branches = ((+1, rows.p_plus[n], cj.p_plus), (-1, rows.p_minus[n], cj.p_minus))
            for sign, table, oracle in branches:
                assert np.max(np.abs(table - oracle)) <= 1e-14
                brute = adv.brute_force_joint(attack, thetas[n], sign)
                assert np.max(np.abs(table - brute)) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, math.pi / 2))
    def test_four_by_three_reduces(self, seed, theta):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(3, rng)
        assert adv.qubit_reduction_check(alice, bob, theta, seed=seed).reduces

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, math.pi / 2))
    def test_closed_form_matches_brute_force(self, seed, theta):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4, rng)
        lam = random_admissible_coeffs(alice, rng)
        mu = random_admissible_coeffs(bob, rng)
        attack = make_attack(alice, bob, lam, mu, theta)
        for sign in (+1, -1):
            closed = adv.closed_form_joint(alice, bob, lam, mu, theta, sign)
            brute = adv.brute_force_joint(attack, theta, sign)
            assert np.max(np.abs(closed - brute)) <= mk.IDENTITY_TOL


def search_kets(z):
    """POVM kets (P, 2, 4, 2) from raw kets z (P, 2, 4, 2), weighted as the 4-outcome sampler does.

    Returns the kets of the members whose completion weights are all positive,
    and the mask of those members.
    """
    unit = z / np.linalg.norm(z, axis=-1, keepdims=True)
    cross = 2.0 * np.conj(unit[..., 0]) * unit[..., 1]
    pops = np.abs(unit) ** 2
    w = tg._completion_weights(np.stack([cross.real, cross.imag, pops[..., 0] - pops[..., 1]], -1))
    ok = (w > 0.0).all(axis=(-2, -1))  # False for the NaN weights of a singular try
    return np.sqrt(w[ok])[..., None] * unit[ok], ok


class TestCapSearch:
    """A seeded population hill climb over both sides' four kets and theta toward the 4x4 cap.

    Random pairs peak far below the cap; the search reaches within about 0.2
    bits of it, and with the attack switched off (scoring |amp|^2 alone) the
    same search passes it.
    """

    @staticmethod
    def attacked_bits(z, theta):
        """Certified bits under the attack per member; -inf for a non-POVM or a degenerate pair."""
        kets, ok = search_kets(z)
        t, psi = qo.theta_ket(theta[ok])
        rows = adv.attack_rows(t, psi, kets[:, 0], kets[:, 1])
        live = np.array([r is None for r in rows.reason], dtype=bool)
        bits = np.full(len(z), -np.inf)
        certified = adv.ConditionalJoint(rows.p_plus, rows.p_minus).certified_bits
        bits[ok] = np.where(live, certified, -np.inf)
        return bits

    def test_best_attacked_pair_stays_under_the_cap(self):
        rng = np.random.default_rng(11)
        size, steps = 400, 200

        def normal():
            return rng.normal(size=(size, 2, 4, 2)) + 1j * rng.normal(size=(size, 2, 4, 2))

        z, theta = normal(), rng.uniform(1e-3, math.pi / 2, size)
        best = self.attacked_bits(z, theta)
        seen = best.max()
        for step in range(steps):
            # the better half replaces the worse, then every member tries one mutation
            order = np.argsort(best)
            low, high = order[: size // 2], order[size // 2 :]
            z[low], theta[low], best[low] = z[high], theta[high], best[high]
            sigma = 0.3 * 0.01 ** (step / (steps - 1))
            tz = z + sigma * normal()
            tt = np.clip(theta + sigma * rng.normal(size=size), 1e-3, math.pi / 2)
            tried = self.attacked_bits(tz, tt)
            seen = max(seen, tried.max())
            better = tried > best
            z[better], theta[better], best[better] = tz[better], tt[better], tried[better]
        assert seen <= adv.CAP_BITS + mk.ZERO_TOL
        assert best.max() >= 3.6


class TestReportInterface:
    def test_attack_report_fields(self):
        theta = 1.1
        attack = adv.build_attack(
            qo.adjusted_tetrahedral(theta), qo.adjusted_tetrahedral(theta), theta
        )
        report = adv.attack_report(attack)
        for key in (
            "theta",
            "lambda",
            "mu",
            "target_pair",
            "P_plus",
            "P_minus",
            "guessing_prob",
            "certified_bits",
            "cap_bits",
        ):
            assert key in report
        assert len(report["lambda"]) == 4
        assert report["zero_entry_value"] <= 1e-10

    @pytest.mark.parametrize("table", [adv.joint_amplitudes, adv.ideal_joint])
    def test_theta_in_place_of_the_ket_refused(self, table):
        p = qo.adjusted_tetrahedral(0.3)
        with pytest.raises(ValueError):
            table(p, p, 0.3)
