import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellrand import adversary as adv
from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import tomography as tg


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
    )


def old_eve_decompositions(n_samples, rng):
    """Oracle: the per-decomposition generator that `_eve_decompositions` stacks.

    Yields one list of (weight, state) pairs per decomposition, drawing the
    Haar unitaries and Ginibre matrices one matrix at a time.
    """
    pp_mm = np.stack(
        [np.kron(tg.KET_PLUS, tg.KET_PLUS), np.kron(tg.KET_MINUS, tg.KET_MINUS)], axis=1
    )
    yield [(0.5, chi.rho) for chi in adv.CHI]
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
        yield [(t / 2, pp_mm @ e.T @ pp_mm.conj().T / t) for t, e in zip(traces, elements)]


def reduction_oracle(alice, bob, theta, n_decompositions, seed):
    """Oracle: (deviations, correlation check) of the 4 x 3 reduction, one state at a time.

    Every Eve state becomes a validated `QState` on (A, A', B, B') through
    `compose_with_ancilla`, and its joint table comes from `mk.joint_table`.
    """
    rng = np.random.default_rng(seed)
    r_povm = tg.build_dilated_povm(alice, adv._admissible_coeffs(alice))
    s_povm = tg.build_dilated_povm(bob, adv._admissible_coeffs(bob))
    ideal = adv.ideal_joint(alice, bob, theta)
    psi = qo.psi_theta(theta)
    a_corr = mk.kron(qo.PAULI_X, qo.PAULI_X)
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
        chi_p, chi_m = adv.CHI
        assert abs(np.trace(chi_p.rho @ chi_m.rho)) <= 1e-14

    def test_marginal_is_maximally_mixed(self):
        chi_p, _ = adv.CHI
        marg = mk.partial_trace(chi_p.rho, (2, 2), keep=(0,))
        assert np.max(np.abs(marg - np.eye(2) / 2)) <= 1e-14

    def test_perfect_plus_minus_correlation(self):
        corr = mk.kron(qo.PAULI_X, qo.PAULI_X)
        for chi in adv.CHI:
            assert abs(mk.expval(corr, chi.rho) - 1.0) <= 1e-12


class TestClosedForm:
    def test_no_attack_reduces_to_ideal(self):
        theta = 0.9
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        table = adv.closed_form_joint(alice, bob, np.zeros(4), np.zeros(4), theta, +1)
        ideal = adv.ideal_joint(alice, bob, theta)
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
        ideal = adv.ideal_joint(alice, bob, theta)
        assert np.max(np.abs(0.5 * (plus + minus) - ideal)) <= 1e-13

    def test_real_specialization(self):
        # four coplanar X-Z directions give real kets and real amplitudes
        normals = [
            np.array([math.sin(a), 0.0, math.cos(a)])
            for a in (0, math.pi / 2, math.pi, 3 * math.pi / 2)
        ]
        p = qo.povm_from_bloch([0.5] * 4, normals)
        theta = 0.7
        v = tg.offdiag_set(p).null_basis[0]
        assert np.max(np.abs(v.imag)) <= 1e-12
        lam = v.real / np.abs(v.real).max()
        amp = adv.joint_amplitudes(p, p, theta)
        assert np.max(np.abs(amp.imag)) <= 1e-12
        minus = adv.closed_form_joint(p, p, lam, lam, theta, -1)
        expected = amp.real**2 * (1 - np.outer(lam, lam))
        assert np.max(np.abs(minus - expected)) <= 1e-12

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
        assert np.max(np.abs(brute - adv.ideal_joint(alice, bob, theta))) <= 1e-12


class TestAttackTablesFromAncillaOperators:
    """`evaluate_attack` reads W_ab; the 16-dimensional `brute_force_joint` is its oracle."""

    @staticmethod
    def assert_matches_brute_force(attack):
        cj = adv.evaluate_attack(attack)
        for sign, table in ((+1, cj.p_plus), (-1, cj.p_minus)):
            brute = adv.brute_force_joint(attack, attack.theta, sign)
            assert table.shape == brute.shape
            assert np.max(np.abs(table - brute)) <= mk.ZERO_TOL

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, math.pi / 2))
    def test_random_pairs(self, seed, theta):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4, rng)
        lam = random_admissible_coeffs(alice, rng)
        mu = random_admissible_coeffs(bob, rng)
        self.assert_matches_brute_force(make_attack(alice, bob, lam, mu, theta))

    @pytest.mark.parametrize("theta", [qo.THETA_MIN, 1e-9, math.pi / 2])
    def test_cli_pair(self, theta):
        p = qo.adjusted_tetrahedral(theta)
        self.assert_matches_brute_force(adv.build_attack(p, p, theta))


class TestBuildAttack:
    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.0, 1.3, np.pi / 2])
    def test_zeroing_and_undetectability(self, theta):
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        attack = adv.build_attack(alice, bob, theta)
        cj = adv.evaluate_attack(attack)
        ideal = adv.ideal_joint(alice, bob, theta)
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
        # the SVD fixes a null vector only up to a phase, and at pi/2 all four
        # magnitudes tie; the reported coefficients must depend on neither
        p = qo.adjusted_tetrahedral(theta)
        attack = adv.build_attack(p, p, theta)
        assert attack.mu_coeffs[0] == 1.0  # entry 0 has the largest magnitude
        plain = mk.null_space
        for factor in (-1.0, np.exp(1.3j), np.exp(1.3j) * (1.0 + 1e-14 * np.arange(4))):
            monkeypatch.setattr(mk, "null_space", lambda m, f=factor: [f * c for c in plain(m)])
            again = adv.build_attack(p, p, theta)
            assert np.max(np.abs(again.lambda_coeffs - attack.lambda_coeffs)) <= mk.ZERO_TOL
            assert np.max(np.abs(again.mu_coeffs - attack.mu_coeffs)) <= mk.ZERO_TOL

    def test_monotone_damage(self):
        for theta in (0.3, 0.7, 1.0, 1.3, np.pi / 2):
            alice = qo.adjusted_tetrahedral(theta)
            bob = qo.adjusted_tetrahedral(theta)
            attack = adv.build_attack(alice, bob, theta)
            cj = adv.evaluate_attack(attack)
            baseline = adv.ideal_joint(alice, bob, theta).max()
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
        bob = qo.povm_from_bloch([lam1, lam, lam, lam], normals)
        with pytest.raises(adv.DegenerateAttackError):
            adv.build_attack(alice, bob, theta)

    def test_wrong_outcome_count_rejected(self):
        with pytest.raises(ValueError):
            adv.build_attack(qo.modified_mercedes(0.5), qo.adjusted_tetrahedral(0.5), 0.5)


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
        ideal_max = adv.ideal_joint(alice, bob, theta).max()
        assert abs(cj.guessing_prob - ideal_max) <= 1e-12


class TestCapAndEntropy:
    def test_cap_value(self):
        cap = adv.randomness_cap()
        assert 3.9526 < cap < 3.9528
        assert cap < 4.0
        assert cap > math.log2(12)

    def test_min_entropy_values(self):
        assert abs(adv.min_entropy(np.full(4, 0.25)) - 2.0) <= 1e-12
        assert abs(adv.min_entropy(np.full(12, 1 / 12)) - math.log2(12)) <= 1e-12
        point = np.zeros(8)
        point[3] = 1.0
        assert adv.min_entropy(point) == 0.0

    def test_min_entropy_validation(self):
        with pytest.raises(ValueError, match="sums"):
            adv.min_entropy(np.full(4, 0.3))
        bad = np.array([0.5, 0.6, -0.1])
        with pytest.raises(ValueError, match="negative"):
            adv.min_entropy(bad)


class TestQubitReduction:
    def test_four_by_three_reduces(self):
        rep = adv.qubit_reduction_check(
            qo.adjusted_tetrahedral(0.9),
            qo.modified_mercedes(0.9),
            0.9,
            n_decompositions=10,
            seed=7,
        )
        assert rep.reduces
        assert rep.max_deviation <= 1e-10
        assert rep.correlation_check <= 1e-10
        assert rep.n_decompositions == 10

    @pytest.mark.parametrize("count", [0, -3, 2.5, 3.0, True])
    def test_count_below_one_refused(self, count):
        with pytest.raises(ValueError, match="n_decompositions"):
            adv.qubit_reduction_check(
                qo.adjusted_tetrahedral(0.9), qo.modified_mercedes(0.9), 0.9, n_decompositions=count
            )

    def test_checks_only_four_by_four_stacks(self, monkeypatch):
        # the composite (A, A', B, B') states are implied by the 4x4 checks, never formed
        shapes = []
        plain = qo.check_state_stack

        def recording(rhos, where=None):
            shapes.append(np.shape(rhos))
            return plain(rhos, where)

        monkeypatch.setattr(qo, "check_state_stack", recording)
        adv.qubit_reduction_check(
            qo.adjusted_tetrahedral(0.9), qo.modified_mercedes(0.9), 0.9, n_decompositions=6
        )
        assert shapes
        assert all(len(shape) == 3 and shape[1:] == (4, 4) for shape in shapes)

    def test_three_by_two_trivially_reduces(self):
        rng = np.random.default_rng(13)
        rep = adv.qubit_reduction_check(
            qo.modified_mercedes(0.5),
            tg.random_extremal_povm(2, rng),
            0.5,
            n_decompositions=4,
            seed=5,
        )
        assert rep.reduces

    def test_eve_ensembles_decompose_the_ancilla_mixture(self):
        pp = np.kron(tg.KET_PLUS, tg.KET_PLUS)
        mm = np.kron(tg.KET_MINUS, tg.KET_MINUS)
        mixture = (np.outer(pp, pp.conj()) + np.outer(mm, mm.conj())) / 2
        corr = mk.kron(qo.PAULI_X, qo.PAULI_X)
        weights, index, states = adv._eve_decompositions(50, np.random.default_rng(3))
        assert np.array_equal(np.unique(index), np.arange(50))
        assert np.max(np.abs(np.bincount(index, weights) - 1.0)) <= mk.IDENTITY_TOL
        for d in range(50):
            average = np.einsum("n,nij->ij", weights[index == d], states[index == d])
            assert np.max(np.abs(average - mixture)) <= mk.IDENTITY_TOL
        for sigma in states:
            assert abs(mk.expval(corr, sigma) - 1.0) <= mk.IDENTITY_TOL

    @pytest.mark.parametrize("seed", [0, 3, 2**31 - 1])
    def test_eve_stream_matches_the_per_decomposition_draws(self, seed):
        rng = np.random.default_rng(seed)
        weights, index, states = adv._eve_decompositions(10, rng)
        old_rng = np.random.default_rng(seed)
        old = [m for ensemble in old_eve_decompositions(10, old_rng) for m in ensemble]
        np.testing.assert_array_equal(weights, [p for p, _ in old])
        np.testing.assert_array_equal(index, np.repeat(np.arange(10), 2))
        np.testing.assert_array_equal(states, [sigma for _, sigma in old])
        assert rng.bit_generator.state == old_rng.bit_generator.state

    def test_four_by_four_with_nonzero_coefficients_fails(self):
        theta = np.pi / 2
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        rep = adv.qubit_reduction_check(alice, bob, theta, n_decompositions=3, seed=11)
        assert not rep.reduces
        assert rep.max_deviation >= 1e-3


class TestReductionGates:
    """A corrupted Eve state is refused, naming the condition, the state and its decomposition."""

    PLUS_MINUS = np.outer(
        np.kron(tg.KET_PLUS, tg.KET_MINUS), np.kron(tg.KET_PLUS, tg.KET_MINUS).conj()
    )

    @pytest.mark.parametrize(
        "decomposition, member, sigma, message",
        [
            (4, 1, np.diag([1.5, 0, 0, -0.5]), r"not PSD \(min eigenvalue -5\.000e-01\)"),
            (2, 0, np.diag([0.55, 0, 0, 0.55]), r"trace 1\.1 != 1"),
            (
                5,
                0,
                adv.CHI[0].rho + np.eye(4, k=1) * 1e-6,
                r"must be Hermitian \(residual 1\.000e-06\)",
            ),
            (3, 1, PLUS_MINUS, r"<A' x B'> misses 1 by 2\.000e\+00"),
        ],
    )
    def test_corrupted_state_refused(self, monkeypatch, decomposition, member, sigma, message):
        stacked = adv._eve_decompositions

        def corrupted(n_samples, rng):
            weights, index, states = stacked(n_samples, rng)
            states = states.copy()
            states[np.flatnonzero(index == decomposition)[member]] = sigma
            return weights, index, states

        monkeypatch.setattr(adv, "_eve_decompositions", corrupted)
        where = f" at Eve state {member} of decomposition {decomposition}$"
        with pytest.raises(ValueError, match=message + where):
            adv.qubit_reduction_check(
                qo.adjusted_tetrahedral(0.9), qo.modified_mercedes(0.9), 0.9, n_decompositions=6
            )


class TestStackedReduction:
    """The stacked reduction check against the per-state loop it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, math.pi / 2), st.booleans())
    def test_matches_per_state_loop(self, seed, theta, four_by_four):
        rng = np.random.default_rng(seed)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4 if four_by_four else 3, rng)
        n = rng.integers(1, 12)  # a numpy integer count is accepted
        rep = adv.qubit_reduction_check(alice, bob, theta, n_decompositions=n, seed=seed)
        deviations, corr = reduction_oracle(alice, bob, theta, n, seed)
        if four_by_four:
            assert max(deviations) > mk.IDENTITY_TOL
        assert rep.n_decompositions == n
        assert np.max(np.abs(np.subtract(rep.deviations, deviations))) <= mk.ZERO_TOL
        assert abs(rep.correlation_check - corr) <= mk.ZERO_TOL


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
        ideal = adv.ideal_joint(alice, bob, theta)
        assert np.max(np.abs(cj.average - ideal)) <= mk.IDENTITY_TOL
        assert cj.p_minus[attack.target_pair] <= mk.IDENTITY_TOL
        assert cj.certified_bits <= adv.randomness_cap()

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
