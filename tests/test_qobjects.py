import math

import numpy as np
import pytest

from bellrand import matkernel as mk
from bellrand import qobjects as qo

THETA_GRID = qo.theta_grid(20)


class TestState:
    def test_maximally_entangled_entries(self):
        rho = qo.psi_theta(np.pi / 2).rho
        assert abs(rho[0, 0] - 0.5) < 1e-15
        assert abs(rho[0, 3] - 0.5) < 1e-15

    def test_partial_entanglement_diagonal(self):
        # <00|psi|00> = cos^2(pi/6) = 3/4
        rho = qo.psi_theta(np.pi / 3).rho
        assert abs(rho[0, 0] - 0.75) < 1e-15

    @pytest.mark.parametrize("theta", [0.1, 0.7, np.pi / 2])
    def test_ket_and_pauli_forms_agree(self, theta):
        # Oracle: the projector from its Pauli-correlator expansion.
        c, s = math.cos(theta), math.sin(theta)
        pauli_form = 0.25 * (
            mk.kron(qo.ID2, qo.ID2)
            + c * (mk.kron(qo.ID2, qo.PAULI_Z) + mk.kron(qo.PAULI_Z, qo.ID2))
            + s * (mk.kron(qo.PAULI_X, qo.PAULI_X) - mk.kron(qo.PAULI_Y, qo.PAULI_Y))
            + mk.kron(qo.PAULI_Z, qo.PAULI_Z)
        )
        assert np.max(np.abs(qo.psi_theta(theta).rho - pauli_form)) <= 1e-12

    def test_marginals(self):
        for theta in THETA_GRID:
            rho = qo.psi_theta(theta).rho
            expected = np.diag([math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2])
            for side in (0, 1):
                marg = mk.partial_trace(rho, (2, 2), keep=(side,))
                assert np.max(np.abs(marg - expected)) <= 1e-12

    def test_theta_range_enforced(self):
        for bad in (0.0, -0.5, 2.0, np.pi):
            with pytest.raises(ValueError):
                qo.psi_theta(bad)

    def test_phi_theta_orthogonal_partner(self):
        for theta in (0.3, 1.2):
            overlap = np.trace(qo.psi_theta(theta).rho @ qo.phi_theta(theta).rho)
            assert abs(overlap) < 1e-14

    def test_qstate_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qo.QState(np.array([[1, 1], [0, 0]], dtype=complex), (2,))
        with pytest.raises(ValueError, match="PSD"):
            qo.QState(np.diag([1.5, -0.5]).astype(complex), (2,))
        with pytest.raises(ValueError, match="trace"):
            qo.QState(np.diag([0.7, 0.7]).astype(complex), (2,))

    def test_dichotomic_validation(self):
        # one observable: the stack check's messages without an angle
        hermitian = r"^observable 'H' must be Hermitian \(residual 1\.000e\+00\)$"
        with pytest.raises(ValueError, match=hermitian):
            qo.Dichotomic(np.array([[1, 1], [0, -1]], dtype=complex), "H")
        square = r"^observable 'S' fails O\^2 = I \(residual 4\.004e-03\)$"
        with pytest.raises(ValueError, match=square):
            qo.Dichotomic(1.002 * qo.PAULI_Z, "S")


class TestStackedContracts:
    """One corrupted member of a stack is refused, and the error names its angle."""

    THETAS = [0.3, 0.5, 0.9]

    def observables(self):
        ops = np.empty((3, 2, 4, 4), dtype=complex)
        ops[:, 0] = mk.kron(qo.PAULI_Z, qo.ID2)
        ops[:, 1] = mk.kron(qo.PAULI_X, qo.PAULI_Z)
        return ops

    def test_valid_stacks_pass(self):
        qo.check_dichotomic_stack(self.observables(), ["A", "B"], self.THETAS)
        kets = np.zeros((3, 2, 2, 2), dtype=complex)
        kets[:, 0, 0, 0] = kets[:, 1, 1, 1] = math.sqrt(0.5)
        qo.check_ket_stack(kets, self.THETAS)

    def test_observable_squaring_off_identity_names_its_angle(self):
        ops = self.observables()
        ops[1, 1] *= 1.001
        with pytest.raises(ValueError, match=r"'B' fails O\^2 = I at theta=0.5"):
            qo.check_dichotomic_stack(ops, ["A", "B"], self.THETAS)

    def test_non_hermitian_observable_names_its_angle(self):
        ops = self.observables()
        ops[2, 0, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="'A' must be Hermitian at theta=0.9"):
            qo.check_dichotomic_stack(ops, ["A", "B"], self.THETAS)

    def test_unnormalized_ket_names_its_angle(self):
        kets = np.zeros((3, 1, 4, 4), dtype=complex)
        kets[:, 0, 0, 0] = 1.0
        kets[2, 0, 0, 0] = 1.001
        with pytest.raises(ValueError, match="trace .* != 1 at theta=0.9"):
            qo.check_ket_stack(kets, self.THETAS)


class TestBeta:
    def test_maximal_entanglement_gives_zero(self):
        assert abs(qo.beta_of_theta(np.pi / 2)) < 1e-12

    def test_pi_thirds_value(self):
        assert abs(qo.beta_of_theta(np.pi / 3) - 2 / math.sqrt(7)) < 1e-14

    def test_strictly_below_two_near_zero(self):
        b = qo.beta_of_theta(0.001)
        assert 1.9 < b < 2.0

    def test_tilt_weights_are_the_lambda_form(self):
        # w_pm = sqrt(lambda_pm / 2) with lambda_pm = 1 +- beta^2/4, away from the product end
        for theta in (0.4, 1.0, np.pi / 2):
            beta, wp, wm, _ = qo.tilt(theta)
            assert abs(wp - math.sqrt((1 + beta**2 / 4) / 2)) <= 1e-15
            assert abs(wm - math.sqrt((1 - beta**2 / 4) / 2)) <= 1e-15

    @pytest.mark.parametrize(
        "fn",
        [qo.check_theta, qo.tilt, qo.psi_theta_ket, qo.phi_theta_ket],
        ids=lambda f: f.__name__,
    )
    def test_array_of_angles_is_the_stack_of_floats(self, fn):
        thetas = np.array([1e-7, 0.3, 1.2, np.pi / 2 + 1e-13])
        each = [fn(float(t)) for t in thetas]
        batch = fn(thetas)
        if fn is qo.tilt:
            assert all(type(x) is float for x in each[0])
            each, batch = np.array(each).T, np.array(batch)
        np.testing.assert_array_equal(batch, np.array(each))

    def test_array_names_its_first_refused_angle(self):
        with pytest.raises(ValueError, match=r"got 0\.0"):
            qo.check_theta([0.5, 0.0, 2.0])
        assert type(qo.check_theta(np.float64(0.5))) is float


class TestIdealMeasurements:
    def test_all_dichotomic(self):
        alice, bob, _ = qo.ideal_measurements(0.6)
        for obs in alice + bob:
            resid = np.max(np.abs(obs.op @ obs.op - np.eye(obs.op.shape[0])))
            assert resid <= 1e-10

    def test_b1_at_maximal_entanglement(self):
        # lambda_pm = 1 at beta = 0, so B1 = (Z + X)/sqrt(2) on the qubit
        _, bob, _ = qo.ideal_measurements(np.pi / 2)
        expected = mk.kron((qo.PAULI_Z + qo.PAULI_X) / math.sqrt(2), np.eye(2))
        assert np.max(np.abs(bob[0].op - expected)) <= 1e-12

    def test_anticommutation(self):
        alice, _, _ = qo.ideal_measurements(0.9)
        a1, a2, a3 = (o.op for o in alice)
        assert np.max(np.abs(a1 @ a2 + a2 @ a1)) <= 1e-10
        assert np.max(np.abs(a1 @ a3 + a3 @ a1)) <= 1e-10

    @pytest.mark.parametrize("ancilla", [qo.ancilla_pure(), qo.ancilla_mixed()])
    def test_ancilla_correlation_is_one(self, ancilla):
        assert abs(ancilla.correlation() - 1.0) <= 1e-12

    def test_bob_angle_matches_tilt(self):
        # the Z-weight of (B1+B2)/2 realizes cos(mu/2) = sqrt((1 + beta^2/4)/2)
        for theta in (0.4, 1.0, np.pi / 2):
            beta = qo.beta_of_theta(theta)
            _, bob, _ = qo.ideal_measurements(theta)
            half_sum = (bob[0].op + bob[1].op) / 2
            cos_half_mu = mk.expval(half_sum @ mk.kron(qo.PAULI_Z, np.eye(2)), np.eye(4)) / 4
            assert abs(cos_half_mu - math.sqrt((1 + beta**2 / 4) / 2)) <= 1e-12


class TestPovmValidity:
    def test_trivial_split_valid(self):
        p = qo.Povm((qo.ID2 / 2, qo.ID2 / 2))
        assert qo.povm_validity(p).is_valid

    def test_projective_valid(self):
        p = qo.Povm(((qo.ID2 + qo.PAULI_Z) / 2, (qo.ID2 - qo.PAULI_Z) / 2))
        assert qo.povm_validity(p).is_valid

    def test_scaled_element_invalid(self):
        p = qo.Povm((1.1 * (qo.ID2 + qo.PAULI_Z) / 2, (qo.ID2 - qo.PAULI_Z) / 2))
        report = qo.povm_validity(p)
        assert not report.is_valid
        assert abs(report.completeness_residual - 0.05) <= 1e-12


class TestPovmFormat:
    def test_stacks_are_read_only(self):
        p = qo.adjusted_tetrahedral(0.7)
        assert p.elements.shape == (4, 2, 2) and p.kets.shape == (4, 2)
        for stack in (p.elements, p.kets):
            with pytest.raises(ValueError):
                stack[0, 0] = 0.0

    @pytest.mark.parametrize(
        "elements, kets, shapes",
        [
            ((qo.ID2 / 2, qo.ID2 / 2), (np.array([1.0, 0.0]),), ("(1, 2)", "(2, 2, 2)")),
            (np.zeros((2, 2, 2)), np.zeros((2, 3)), ("(2, 3)", "(2, 2, 2)")),
            (qo.ID2, None, ("(2, 2)",)),
            (np.zeros((2, 2, 3)), None, ("(2, 2, 3)",)),
        ],
    )
    def test_malformed_stacks_refused(self, elements, kets, shapes):
        with pytest.raises(ValueError) as err:
            qo.Povm(elements, kets)
        assert all(shape in str(err.value) for shape in shapes)


class TestPovmExtremality:
    def test_trivial_split_not_rank_one(self):
        report = qo.povm_extremality(qo.Povm((qo.ID2 / 2, qo.ID2 / 2)))
        assert not report.all_rank_one
        assert not report.is_extremal_candidate

    @pytest.mark.parametrize("theta", [0.2, 0.9, np.pi / 2])
    def test_adjusted_tetrahedral_extremal(self, theta):
        report = qo.povm_extremality(qo.adjusted_tetrahedral(theta))
        assert report.is_extremal_candidate

    def test_on_axis_elements_pair_up(self):
        # the zero-tilt limit of the near-Y family: elements coincide pairwise
        elements = (
            0.25 * (qo.ID2 + qo.PAULI_Y),
            0.25 * (qo.ID2 + qo.PAULI_Y),
            0.25 * (qo.ID2 - qo.PAULI_Y),
            0.25 * (qo.ID2 - qo.PAULI_Y),
        )
        report = qo.povm_extremality(qo.Povm(elements))
        assert not report.linearly_independent
        assert not report.is_extremal_candidate


class TestAdjustedTetrahedral:
    def test_regular_geometry_at_maximal_entanglement(self):
        p = qo.adjusted_tetrahedral(np.pi / 2)
        lam1 = float(np.real(np.trace(p.elements[0])))
        assert abs(lam1 - 0.5) < 1e-14
        cos_g = mk.expval(qo.PAULI_Z, p.elements[1]) / float(np.real(np.trace(p.elements[1])))
        assert abs(cos_g + 1 / 3) < 1e-14

    def test_pi_thirds_weights(self):
        p = qo.adjusted_tetrahedral(np.pi / 3)
        assert abs(np.real(np.trace(p.elements[0])) - 1 / 3) < 1e-14
        assert abs(np.real(np.trace(p.elements[1])) - 5 / 9) < 1e-14
        cos_g = mk.expval(qo.PAULI_Z, p.elements[1]) / float(np.real(np.trace(p.elements[1])))
        assert abs(cos_g + 1 / 5) < 1e-14

    def test_validity_and_uniform_probabilities_on_grid(self):
        for theta in THETA_GRID:
            p = qo.adjusted_tetrahedral(theta)
            report = qo.povm_validity(p)
            assert report.max_psd_violation <= 1e-12
            assert report.completeness_residual <= 1e-12
            rho_a = mk.partial_trace(qo.psi_theta(theta).rho, (2, 2), keep=(0,))
            for e in p.elements:
                assert abs(mk.expval(e, rho_a) - 0.25) <= 1e-12

    def test_kets_match_elements(self):
        p = qo.adjusted_tetrahedral(0.7)
        for k, e in zip(p.kets, p.elements):
            assert np.max(np.abs(np.outer(k, k.conj()) - e)) <= 1e-12


class TestModifiedMercedes:
    def test_parameters_at_maximal_entanglement(self):
        p = qo.modified_mercedes(np.pi / 2)
        assert abs(np.real(np.trace(p.elements[0])) - 2 / 3) < 1e-14
        mu = -mk.expval(qo.PAULI_Z, p.elements[1]) / float(np.real(np.trace(p.elements[1])))
        assert abs(mu - 0.5) < 1e-14

    def test_weights_sum_to_two(self):
        for theta in (0.3, 1.0, np.pi / 2):
            p = qo.modified_mercedes(theta)
            total = sum(float(np.real(np.trace(e))) for e in p.elements)
            assert abs(total - 2.0) < 1e-13

    def test_grid_validity_and_extremality(self):
        for theta in THETA_GRID:
            p = qo.modified_mercedes(theta)
            report = qo.povm_validity(p)
            assert report.max_psd_violation <= 1e-12
            assert report.completeness_residual <= 1e-12
            assert qo.povm_extremality(p).is_extremal_candidate


class TestNearYTetrahedral:
    def test_moderate_tilt(self):
        p = qo.near_y_tetrahedral(0.5)
        assert qo.povm_validity(p).is_valid
        assert qo.povm_extremality(p).is_extremal_candidate

    def test_tiny_tilt_margin_above_threshold(self):
        p = qo.near_y_tetrahedral(1e-4)
        report = qo.povm_extremality(p)
        assert report.is_extremal_candidate
        assert 1e-9 < report.independence_margin < 1e-3

    def test_elements_sum_exactly_to_identity(self):
        p = qo.near_y_tetrahedral(0.37)
        total = sum(p.elements)
        assert np.max(np.abs(total - np.eye(2))) == 0.0

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_tilt_rejected(self, eps):
        with pytest.raises(ValueError):
            qo.near_y_tetrahedral(eps)


class TestConjugatePovm:
    def test_real_povm_unchanged(self):
        p = qo.modified_mercedes(0.8)
        q = qo.conjugate_povm(p)
        for a, b in zip(p.elements, q.elements):
            assert np.max(np.abs(a - b)) == 0.0

    def test_y_components_flip(self):
        p = qo.near_y_tetrahedral(0.3)
        q = qo.conjugate_povm(p)
        for a, b in zip(p.elements, q.elements):
            ya = mk.expval(qo.PAULI_Y, a)
            yb = mk.expval(qo.PAULI_Y, b)
            assert abs(ya + yb) <= 1e-14
            for pauli in (qo.ID2, qo.PAULI_X, qo.PAULI_Z):
                assert abs(mk.expval(pauli, a) - mk.expval(pauli, b)) <= 1e-14

    def test_involution(self):
        p = qo.adjusted_tetrahedral(0.5)
        q = qo.conjugate_povm(qo.conjugate_povm(p))
        for a, b in zip(p.elements, q.elements):
            assert np.max(np.abs(a - b)) == 0.0

