import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellrand import adversary as adv
from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import tomography as tg

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

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(1)
    def test_state_from_a_ket_is_exactly_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        ket = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = qo.qstate_from_kets((ket / np.linalg.norm(ket)).reshape(1, 2, 2)).rho
        np.testing.assert_array_equal(rho, np.conj(rho.T))

    def test_qstate_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qo.QState(np.array([[1, 1], [0, 0]], dtype=complex), (2,))
        with pytest.raises(ValueError, match="PSD"):
            qo.QState(np.diag([1.5, -0.5]).astype(complex), (2,))
        with pytest.raises(ValueError, match="trace"):
            qo.QState(np.diag([0.7, 0.7]).astype(complex), (2,))

    def test_dichotomic_validation(self):
        # one observable: the gate's wording, the member named by its label
        hermitian = r"^non-Hermitian part 1\.000e\+00 exceeds 1e-10 at observable 'H'$"
        with pytest.raises(ValueError, match=hermitian):
            qo.Dichotomic(np.array([[1, 1], [0, -1]], dtype=complex), "H")
        square = r"^O\^2 - I 4\.004e-03 exceeds 1e-10 at observable 'S'$"
        with pytest.raises(ValueError, match=square):
            qo.Dichotomic(1.002 * qo.PAULI_Z, "S")


class TestStackedContracts:
    """One corrupted observable of a stack is refused, and the error names its angle."""

    THETAS = [0.3, 0.5, 0.9]

    def where(self, n, m):
        return f"observable {'AB'[m]!r} at theta={self.THETAS[n]!r}"

    def observables(self):
        ops = np.empty((3, 2, 4, 4), dtype=complex)
        ops[:, 0] = mk.kron(qo.PAULI_Z, qo.ID2)
        ops[:, 1] = mk.kron(qo.PAULI_X, qo.PAULI_Z)
        return ops

    def test_valid_stacks_pass(self):
        qo.check_dichotomic_stack(self.observables(), self.where)

    def test_observable_squaring_off_identity_names_its_angle(self):
        ops = self.observables()
        ops[1, 1] *= 1.001
        square = r"^O\^2 - I 2\.001e-03 exceeds 1e-10 at observable 'B' at theta=0\.5$"
        with pytest.raises(ValueError, match=square):
            qo.check_dichotomic_stack(ops, self.where)

    def test_non_hermitian_observable_names_its_angle(self):
        ops = self.observables()
        ops[2, 0, 0, 1] += 1e-3
        hermitian = r"^non-Hermitian part 1\.000e-03 exceeds 1e-10 at observable 'A' at theta=0\.9$"
        with pytest.raises(ValueError, match=hermitian):
            qo.check_dichotomic_stack(ops, self.where)

    def test_pure_kets_embed_the_checked_theta_kets(self):
        # angle_stack gates only the angles: its pure-ancilla kets must hold the theta-kets exactly
        stack = qo.angle_stack(self.THETAS)
        pure = stack.pure[:, 0].reshape(3, 2, 2, 2, 2)  # (n, A, A', B, B')
        embedded = np.zeros_like(pure)
        embedded[:, :, 0, :, 0] = stack.qubit
        np.testing.assert_array_equal(pure, embedded)


# log-uniform angles over the whole angle domain, then its ends and 1e-9
UNIT_NORM_ANGLES = np.concatenate(
    [
        np.exp(
            np.random.default_rng(0).uniform(math.log(qo.THETA_MIN), math.log(math.pi / 2), 5000)
        ),
        [qo.THETA_MIN, 1e-9, math.pi / 2],
    ]
)
ULPS_4 = 4 * np.finfo(float).eps


class TestClosedFormStates:
    """The kets and states that the library builds in closed form and no gate re-tests."""

    def test_theta_kets_have_unit_norm(self):
        kets = qo.angle_stack(UNIT_NORM_ANGLES).qubit.reshape(-1, 4)
        assert np.max(np.abs(np.linalg.norm(kets, axis=1) - 1.0)) <= ULPS_4

    def test_brute_force_kets_have_unit_norm(self):
        # psi_theta x chi_sign, the one 16-dim ket of `adversary.brute_force_joint`
        psi = qo.theta_ket(UNIT_NORM_ANGLES)[1]
        for chi in adv._CHI_KETS:
            kets = qo.with_ancilla(psi, chi).reshape(len(psi), 16)
            assert np.max(np.abs(np.linalg.norm(kets, axis=1) - 1.0)) <= ULPS_4

    def test_mixed_ancilla_is_a_state(self):
        rho = qo.qstate_from_kets(qo.ANCILLA_MIXED).rho  # the QState contract
        assert np.max(np.abs(rho - np.diag([0.5, 0.0, 0.0, 0.5]))) <= mk.ZERO_TOL


class TestReportRows:
    def test_rows_of_columns_nested_columns_and_constants(self):
        columns = {
            "theta": np.array([0.1, 0.2]),
            "pair": np.array([[0, 1], [2, 3]]),
            "entropy": [1.5, 2.0],
            "residuals": {"I": np.array([1e-17, 0.0]), "J": np.array([0.0, 2e-17])},
            "pass": np.array([True, False]),
        }
        rows = qo.report_rows(columns, scenario="local_povm", epsilon=None)
        assert rows == [
            {
                "theta": 0.1,
                "pair": [0, 1],
                "entropy": 1.5,
                "residuals": {"I": 1e-17, "J": 0.0},
                "pass": True,
                "scenario": "local_povm",
                "epsilon": None,
            },
            {
                "theta": 0.2,
                "pair": [2, 3],
                "entropy": 2.0,
                "residuals": {"I": 0.0, "J": 2e-17},
                "pass": False,
                "scenario": "local_povm",
                "epsilon": None,
            },
        ]
        # plain Python values, exactly the column entries
        types = [float, list, float, dict, bool, str, type(None)]
        assert [type(v) for v in rows[0].values()] == types

    @pytest.mark.parametrize(
        "short",
        [{"entropy": [1.5]}, {"residuals": {"I": np.array([0.0, 0.0]), "J": np.array([0.0])}}],
        ids=["column", "nested column"],
    )
    def test_a_short_column_is_refused(self, short):
        with pytest.raises(ValueError, match="zip"):
            qo.report_rows({"theta": np.array([0.1, 0.2]), **short})


class TestBeta:
    def test_maximal_entanglement_gives_zero(self):
        assert abs(qo.tilt(np.pi / 2)[0]) < 1e-12

    def test_pi_thirds_value(self):
        assert abs(qo.tilt(np.pi / 3)[0] - 2 / math.sqrt(7)) < 1e-14

    def test_strictly_below_two_near_zero(self):
        b = qo.tilt(0.001)[0]
        assert 1.9 < b < 2.0

    def test_tilt_weights_are_the_lambda_form(self):
        # w_pm = sqrt(lambda_pm / 2) with lambda_pm = 1 +- beta^2/4, away from the product end
        for theta in (0.4, 1.0, np.pi / 2):
            beta, wp, wm, _ = qo.tilt(theta)
            assert abs(wp - math.sqrt((1 + beta**2 / 4) / 2)) <= 1e-15
            assert abs(wm - math.sqrt((1 - beta**2 / 4) / 2)) <= 1e-15

    @pytest.mark.parametrize(
        "fn",
        [qo.check_theta, qo.tilt, qo.theta_ket, qo.phi_theta_ket],
        ids=lambda f: f.__name__,
    )
    def test_array_of_angles_is_the_stack_of_floats(self, fn):
        thetas = np.array([1e-7, 0.3, 1.2, np.pi / 2 + 1e-13])
        each = [fn(float(t)) for t in thetas]
        batch = fn(thetas)
        if fn in (qo.tilt, qo.theta_ket):  # tuples, compared part by part
            floats = each[0] if fn is qo.tilt else each[0][:1]
            assert all(type(x) is float for x in floats)
            each = list(zip(*each))
        assert len(batch) == len(each)
        for b, e in zip(batch, each):
            np.testing.assert_array_equal(b, np.array(e))

    def test_array_names_its_first_refused_angle(self):
        with pytest.raises(ValueError, match=r"got 0\.0"):
            qo.check_theta([0.5, 0.0, 2.0])
        assert type(qo.check_theta(np.float64(0.5))) is float


class TestIdealMeasurements:
    def test_all_dichotomic(self):
        alice, bob = qo.ideal_measurements(0.6)
        for obs in alice + bob:
            resid = np.max(np.abs(obs.op @ obs.op - np.eye(obs.op.shape[0])))
            assert resid <= 1e-10

    def test_b1_at_maximal_entanglement(self):
        # lambda_pm = 1 at beta = 0, so B1 = (Z + X)/sqrt(2) on the qubit
        _, bob = qo.ideal_measurements(np.pi / 2)
        expected = mk.kron((qo.PAULI_Z + qo.PAULI_X) / math.sqrt(2), np.eye(2))
        assert np.max(np.abs(bob[0].op - expected)) <= 1e-12

    def test_anticommutation(self):
        alice, _ = qo.ideal_measurements(0.9)
        a1, a2, a3 = (o.op for o in alice)
        assert np.max(np.abs(a1 @ a2 + a2 @ a1)) <= 1e-10
        assert np.max(np.abs(a1 @ a3 + a3 @ a1)) <= 1e-10

    @pytest.mark.parametrize("ancilla", [qo.ANCILLA_PURE, qo.ANCILLA_MIXED, *adv._CHI_KETS])
    def test_ancilla_correlation_is_one(self, ancilla):
        # every ancilla state, the two realizations' and Eve's chi pair, is a ket
        # stack in the gauge A' = B' = Z
        sigma = qo.qstate_from_kets(ancilla)
        assert abs(mk.expval(mk.kron(qo.PAULI_Z, qo.PAULI_Z), sigma.rho) - 1.0) <= 1e-12
        # composed with a theta-ket, the kets give the density-matrix composition
        theta = 0.7
        full = qo.with_ancilla(qo.theta_ket(theta)[1], ancilla)[0].reshape(len(ancilla), -1)
        oracle = qo.compose_with_ancilla(qo.psi_theta(theta), sigma).rho
        assert np.max(np.abs(full.T @ full.conj() - oracle)) <= mk.ZERO_TOL

    def test_bob_angle_matches_tilt(self):
        # the Z-weight of (B1+B2)/2 realizes cos(mu/2) = sqrt((1 + beta^2/4)/2)
        for theta in (0.4, 1.0, np.pi / 2):
            beta = qo.tilt(theta)[0]
            _, bob = qo.ideal_measurements(theta)
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


@pytest.mark.parametrize("report", [qo.kets_from_elements, qo.povm_validity, qo.povm_extremality])
def test_nan_povm_refused_or_reported_failing(report):
    # NaN fails every margin test: refused by the eigendecomposition's gate, or
    # reported invalid / not extremal with NaN margins, never numpy's LinAlgError.
    p = qo.Povm(np.full((4, 2, 2), np.nan))
    if report is qo.kets_from_elements:
        refusal = r"^eigh: non-Hermitian part nan exceeds 1e-12 at matrix 0$"
        with pytest.raises(ValueError, match=refusal):
            report(p)
        return
    rep = report(p)
    flags = [v for v in rep._asdict().values() if isinstance(v, bool)]
    margins = [v for v in rep._asdict().values() if isinstance(v, float)]
    assert flags and not any(flags)
    assert margins and all(math.isnan(v) for v in margins)


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


def assert_elements_are_the_ket_products(p):
    products = np.array([np.outer(k, np.conj(k)) for k in p.kets])
    assert np.max(np.abs(products - p.elements)) <= mk.ZERO_TOL
    np.testing.assert_array_equal(p.elements, np.conj(np.swapaxes(p.elements, -1, -2)))


class TestRankOneConstructors:
    """Every rank-one POVM is built from its kets: element a is |k_a><k_a|, Hermitian exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(qo.THETA_MIN, math.pi / 2),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(qo.THETA_MIN, 1e-4)
    @example(1e-9, 0.5)
    @example(math.pi / 2, 0.999)
    def test_families(self, theta, epsilon):
        for p in (qo.adjusted_tetrahedral(theta), qo.modified_mercedes(theta)):
            assert_elements_are_the_ket_products(p)
        assert_elements_are_the_ket_products(qo.near_y_tetrahedral(epsilon))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sampler_draws(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4):
            p = tg.random_extremal_povm(n, rng)
            assert_elements_are_the_ket_products(p)
            assert np.all(p.kets[:, 0].imag == 0.0) and np.all(p.kets[:, 0].real >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-12.0, -4.0),
        st.floats(0.0, 2 * math.pi),
        st.sampled_from([1.0, -1.0]),
        st.floats(0.05, 2.0),
    )
    @example(-8.0, 0.0, 1.0, 1.0)
    @example(-8.0, 0.0, -1.0, 1.0)
    def test_bloch_ket_near_the_poles(self, log_offset, azimuth, pole, weight):
        d = 10.0**log_offset
        s = math.sin(d)
        normal = [s * math.cos(azimuth), s * math.sin(azimuth), pole * math.cos(d)]
        p = qo.povm_from_kets(qo.bloch_ket([weight], [normal]))
        want = (weight / 2) * (qo.PAULIS[0] + np.tensordot(normal, qo.PAULIS[1:], axes=1))
        assert np.max(np.abs(p.elements[0] - want)) <= mk.ZERO_TOL
        assert p.kets[0, 0].imag == 0.0 and p.kets[0, 0].real >= 0.0

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_bloch_ket_on_the_poles(self, pole):
        ket = qo.bloch_ket(1.0, [0.0, 0.0, pole])
        np.testing.assert_array_equal(ket, [1.0, 0.0] if pole > 0 else [0.0, 1.0])


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

