import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellrand import belltest as bt
from bellrand import matkernel as mk
from bellrand import qobjects as qo

SQRT2 = math.sqrt(2)


def random_dichotomic(dim, rng):
    u = mk.haar_unitary(dim, rng)
    signs = rng.choice([1.0, -1.0], size=dim)
    return qo.Dichotomic(u @ np.diag(signs) @ u.conj().T)


class TestEvalBell:
    def test_maximally_entangled_values(self):
        values = bt.eval_bell(bt.ideal_scenario(np.pi / 2))
        for got in (values.i_value, values.j_value, values.s_value):
            assert abs(got - 2 * SQRT2) <= 1e-12
        assert max(values.residuals) <= 1e-12

    def test_pi_thirds_values(self):
        values = bt.eval_bell(bt.ideal_scenario(np.pi / 3))
        assert abs(values.i_value - 8 / math.sqrt(7)) <= 1e-12
        assert abs(values.j_value - 8 / math.sqrt(7)) <= 1e-12
        assert abs(values.s_value - math.sqrt(6)) <= 1e-12

    @pytest.mark.parametrize("ancilla", [qo.ancilla_pure(), qo.ancilla_mixed()])
    def test_grid_residuals(self, ancilla):
        for theta in qo.theta_grid(50):
            values = bt.eval_bell(bt.ideal_scenario(theta, ancilla))
            assert max(values.residuals) <= 1e-10

    def test_degenerate_second_input_breaks_values(self):
        # A2 = A1 removes the anticommuting pair; both tilted and plain CHSH drop
        theta = np.pi / 2
        scenario = bt.ideal_scenario(theta)
        alice = list(scenario.alice)
        alice[1] = qo.Dichotomic(mk.kron(qo.PAULI_Z, np.eye(2)), "A2-degenerate")
        broken = bt.BellScenario(scenario.state, tuple(alice), scenario.bob, theta)
        values = bt.eval_bell(broken)
        assert values.residuals[0] > 0.5
        assert values.residuals[2] > 1.0

    def test_too_few_observables_rejected(self):
        scenario = bt.ideal_scenario(0.5)
        with pytest.raises(ValueError):
            bt.BellScenario(scenario.state, scenario.alice[:2], scenario.bob, 0.5)


class TestBellOperator:
    def test_untilted_form(self):
        expected = SQRT2 * (mk.kron(qo.PAULI_Z, qo.PAULI_Z) + mk.kron(qo.PAULI_X, qo.PAULI_X))
        assert np.max(np.abs(bt.bell_operator_I(0.0) - expected)) <= 1e-15

    def test_unit_tilt_form(self):
        expected = (
            mk.kron(qo.PAULI_Z, qo.ID2)
            + math.sqrt(5 / 2) * mk.kron(qo.PAULI_Z, qo.PAULI_Z)
            + math.sqrt(3 / 2) * mk.kron(qo.PAULI_X, qo.PAULI_X)
        )
        assert np.max(np.abs(bt.bell_operator_I(1.0) - expected)) <= 1e-15

    def test_traceless(self):
        for beta in np.linspace(0, 1.99, 15):
            assert abs(np.trace(bt.bell_operator_I(beta))) <= 1e-14

    @pytest.mark.parametrize("beta", [2.0, 2.5, -0.1])
    def test_out_of_range_rejected(self, beta):
        with pytest.raises(ValueError):
            bt.bell_operator_I(beta)


class TestSpectralSelftest:
    def test_untilted(self):
        report = bt.spectral_selftest(0.0)
        s = 2 * SQRT2
        np.testing.assert_allclose(report.eigenvalues, [s, 0, 0, -s], atol=1e-12)
        assert abs(report.theta - np.pi / 2) <= 1e-10

    def test_top_eigenvector_is_theta_state(self):
        beta = qo.beta_of_theta(np.pi / 3)
        report = bt.spectral_selftest(beta)
        assert abs(report.theta - np.pi / 3) <= 1e-10
        assert report.top_eigvec_fidelity >= 1 - 1e-10
        assert report.spectral_form_residual <= 1e-10

    def test_spectrum_symmetry(self):
        for beta in np.linspace(0, 1.9, 20):
            w = np.array(bt.spectral_selftest(beta).eigenvalues)
            assert np.max(np.abs(w + w[::-1])) <= 1e-10

    def test_theta_of_beta_closed_form(self):
        # cos(theta)^2 = 2 (beta^2/4) / (1 + beta^2/4)
        for beta in [0.0, *np.linspace(0.05, 1.9, 12)]:
            theta = bt.theta_of_beta(beta)
            cos2 = 2 * (beta**2 / 4) / (1 + beta**2 / 4)
            assert abs(math.cos(theta) ** 2 - cos2) <= 1e-10
            assert abs(qo.beta_of_theta(theta) - beta) <= 1e-10

    def test_arrays_are_the_stack_of_floats(self):
        betas = np.array([0.0, 0.7, 1.9999999999999998])
        assert type(bt.theta_of_beta(0.7)) is float
        np.testing.assert_array_equal(bt.theta_of_beta(betas), [bt.theta_of_beta(b) for b in betas])
        with pytest.raises(ValueError, match=r"got 2\.0"):
            bt.theta_of_beta([0.5, 2.0])
        thetas = np.array([1e-7, 0.3, np.pi / 2])
        each = [bt.ideal_bell_values(t) for t in thetas]
        np.testing.assert_array_equal(bt.ideal_bell_values(thetas), each)


class TestTiltOracle:
    """The tilt defect, the recovered angle and the X x X weight against mpmath."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(math.log(qo.THETA_MIN), math.log(math.pi / 2)).map(math.exp))
    @example(qo.THETA_MIN)
    @example(math.pi / 2)
    def test_full_relative_accuracy_over_the_angle_domain(self, theta):
        theta = min(max(theta, qo.THETA_MIN), math.pi / 2)  # exp may round past either end
        batch = bt.bell_batch([theta])
        xx = bt._bell_operators(batch.beta, batch.delta)[0, 0, 3].real
        got = (batch.delta[0], batch.theta_recovered[0], xx)
        # 2 - beta and 1 - beta^2/4 cancel about 2 log10(1/theta) digits: add them
        # to the working precision so that 80 digits are left.
        with mpmath.workdps(80 - 2 * int(mpmath.log10(theta))):
            t = mpmath.mpf(theta)
            beta = 2 * mpmath.cos(t) / mpmath.sqrt(1 + mpmath.sin(t) ** 2)
            want = (2 - beta, t, mpmath.sqrt(2) * mpmath.sqrt(1 - beta**2 / 4))
            errors = [float(abs(mpmath.mpf(g) / w - 1)) for g, w in zip(got, want)]
        assert max(errors) <= 1e-15, (theta, errors)


class TestB7Extraction:
    def test_target_observable_saturates(self):
        sigma = qo.QState(np.eye(2, dtype=complex) / 2, (2,))
        candidate = qo.Dichotomic(mk.kron(qo.PAULI_X, np.eye(2)), "B7")
        report = bt.verify_b7_extraction(0.8, candidate, sigma)
        assert report.saturates and report.is_x_tensor_i and report.consistent
        assert abs(report.correlation - math.sin(0.8)) <= 1e-12

    def test_orthogonal_observable_gives_zero(self):
        sigma = qo.QState(np.eye(2, dtype=complex) / 2, (2,))
        candidate = qo.Dichotomic(mk.kron(qo.PAULI_Z, np.eye(2)), "B7")
        report = bt.verify_b7_extraction(0.8, candidate, sigma)
        assert abs(report.correlation) <= 1e-12
        assert not report.saturates and not report.is_x_tensor_i and report.consistent

    def test_trace_norm_bound_on_random_observables(self):
        rng = np.random.default_rng(2024)
        sigma = qo.QState(np.diag([0.6, 0.4]).astype(complex), (2,))
        theta = 1.1
        for _ in range(200):
            candidate = random_dichotomic(4, rng)
            report = bt.verify_b7_extraction(theta, candidate, sigma)
            assert report.correlation <= math.sin(theta) + 1e-10
            assert report.consistent

    def test_rank_deficient_sigma_flagged(self):
        sigma = qo.QState(np.diag([1.0, 0.0]).astype(complex), (2,))
        candidate = qo.Dichotomic(mk.kron(qo.PAULI_X, np.eye(2)), "B7")
        report = bt.verify_b7_extraction(0.8, candidate, sigma)
        assert not report.sigma_full_rank


class TestProjectiveJoint:
    @pytest.mark.parametrize("ancilla", [qo.ancilla_pure(), qo.ancilla_mixed()])
    def test_uniform_over_random_angles(self, ancilla):
        rng = np.random.default_rng(17)
        for theta in rng.uniform(0.05, np.pi / 2, size=10):
            table = bt.projective_joint_distribution(theta, ancilla)
            assert np.max(np.abs(table - 0.25)) <= 1e-12
            assert abs(table.sum() - 1.0) <= 1e-12

    def test_specific_angles(self):
        for theta, ancilla in ((np.pi / 2, qo.ancilla_pure()), (0.3, qo.ancilla_mixed())):
            table = bt.projective_joint_distribution(theta, ancilla)
            assert np.max(np.abs(table - 0.25)) <= 1e-12


class TestExtremalityProbe:
    def test_rotating_a2_strictly_decreases_tilted_value(self):
        theta = np.pi / 2
        scenario = bt.ideal_scenario(theta)
        values = [bt.eval_bell(scenario).i_value]
        for zeta in np.linspace(0.05, 0.3, 6):
            rotated = math.cos(zeta) * qo.PAULI_X + math.sin(zeta) * qo.PAULI_Z
            alice = list(scenario.alice)
            alice[1] = qo.Dichotomic(mk.kron(rotated, np.eye(2)), "A2-rotated")
            perturbed = bt.BellScenario(scenario.state, tuple(alice), scenario.bob, theta)
            values.append(bt.eval_bell(perturbed).i_value)
        diffs = np.diff(values)
        assert np.all(diffs < 0)


class TestReportInterface:
    def test_json_ready_fields(self):
        report = bt.bell_report(0.9)
        for key in ("theta", "beta", "I", "J", "S", "ideals", "residuals", "spectrum", "fidelity"):
            assert key in report
        assert len(report["spectrum"]) == 4


log_uniform_angle = st.floats(math.log(1e-3), math.log(math.pi / 2)).map(math.exp)


class TestBellBatch:
    """The batched kernel against the per-angle oracles, field by field."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(log_uniform_angle, min_size=1, max_size=12),
        st.floats(1e-4, 0.5),
    )
    def test_matches_per_angle_oracle(self, thetas, epsilon):
        batch = bt.bell_batch(thetas, epsilon)
        near_y = qo.near_y_tetrahedral(epsilon).elements
        for n, theta in enumerate(thetas):
            values = bt.eval_bell(bt.ideal_scenario(theta))
            spectral = bt.spectral_selftest(values.beta)
            psi = qo.psi_theta(theta).rho
            local = mk.joint_table(qo.adjusted_tetrahedral(theta).elements, [qo.ID2], psi)[:, 0]
            projective = [
                bt.projective_joint_distribution(theta, a)
                for a in (qo.ancilla_pure(), qo.ancilla_mixed())
            ]
            four_by_three = mk.joint_table(near_y, qo.modified_mercedes(theta).elements, psi)
            pairs = [
                (batch.beta[n], values.beta),
                (batch.values[n], [values.i_value, values.j_value, values.s_value]),
                (batch.ideals[n], [values.ideal_i, values.ideal_j, values.ideal_s]),
                (batch.residuals[n], values.residuals),
                (batch.delta[n], 2.0 - values.beta),
                (batch.spectrum[n], spectral.eigenvalues),
                (batch.theta_recovered[n], spectral.theta),
                (batch.fidelity[n], spectral.top_eigvec_fidelity),
                (batch.spectral_form_residual[n], spectral.spectral_form_residual),
                (batch.eigenvalue_residual[n], spectral.eigenvalue_residual),
                (batch.local_povm[n], local),
                (batch.projective[n], projective),
                (batch.global_povm[n], four_by_three),
            ]
            for got, want in pairs:
                assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= mk.ZERO_TOL

    @pytest.mark.parametrize(
        "ancilla", [qo.ancilla_pure(), qo.ancilla_mixed()], ids=lambda a: a.label
    )
    def test_shared_operators_are_each_realizations_observables(self, ancilla):
        # the batch measures both ancillas with one operator set (A' = B' = Z for both)
        alice, bob, _ = qo.ideal_measurements(0.7, ancilla)
        np.testing.assert_array_equal(np.stack([a.op for a in alice]), bt._BASIS[1:])
        _, wp, wm, _ = qo.tilt(np.array([0.7]))
        ops = np.einsum("bm,mij->bij", bt._bob_weights(wp, wm)[0, 1:], bt._BASIS)
        assert np.max(np.abs(ops - np.stack([b.op for b in bob]))) <= mk.ZERO_TOL

    def test_report_is_row_zero(self):
        batch = bt.bell_batch([0.4, 0.9])
        assert bt.bell_report(0.9) == batch.reports()[1]

    def test_corrupted_observable_names_its_angle(self, monkeypatch):
        exact = bt._bob_weights

        def corrupted(wp, wm):
            w = exact(wp, wm)
            w[1] *= 1.001  # every weight of the second angle: B1^2 = 1.002 I
            return w

        monkeypatch.setattr(bt, "_bob_weights", corrupted)
        with pytest.raises(ValueError, match=r"'B1' fails O\^2 = I at theta=0.9"):
            bt.bell_batch([0.4, 0.9, 1.2])

    def test_near_product_weights_do_not_cancel(self, monkeypatch):
        # Through lambda_- = 1 - beta^2/4 this weight was 0.6% low at theta = 1e-7.
        theta = 1e-7
        want = math.sin(theta) / math.sqrt(1 + math.sin(theta) ** 2)
        _, bob, _ = qo.ideal_measurements(theta)
        exact, seen = bt._bob_weights, []
        monkeypatch.setattr(bt, "_bob_weights", lambda *a: seen.append(exact(*a)) or seen[-1])
        bt.bell_batch([theta])
        # B1's X x I weight in the operator, then in the batch's coefficients
        for got in (bob[0].op[0, 2].real, seen[0][0, 1, 2]):
            assert abs(got / want - 1) <= 1e-15

    def test_product_end_names_its_angle(self):
        refusal = r"theta must lie in \[1\.05\d*e-154, pi/2\], got 1e-200"
        with pytest.raises(ValueError, match=refusal):
            bt.bell_batch([0.5, 1e-200])
