import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import tomography as tg


class TestEtaMatrix:
    def test_maximal_entanglement_pattern(self):
        eta = tg.eta_matrix(np.pi / 2)
        expected = np.diag([1.0, 1.0, -1.0, 1.0])
        assert np.max(np.abs(eta - expected)) <= 1e-12
        assert abs(np.linalg.det(eta) + 1.0) <= 1e-12

    def test_pi_thirds_entries(self):
        eta = tg.eta_matrix(np.pi / 3)
        assert abs(eta[0, 3] - 0.5) <= 1e-14
        assert abs(eta[3, 0] - 0.5) <= 1e-14
        assert abs(eta[1, 1] - math.sqrt(3) / 2) <= 1e-14
        assert abs(np.linalg.det(eta) + 9 / 16) <= 1e-12

    def test_determinant_on_grid(self):
        for theta in qo.theta_grid(20):
            eta = tg.eta_matrix(theta)
            assert abs(np.linalg.det(eta) + math.sin(theta) ** 4) <= 1e-12

    def test_direct_trace_recomputation(self):
        for theta in (0.25, 0.9, np.pi / 2):
            rho = qo.psi_theta(theta).rho
            direct = np.array(
                [
                    [mk.expval(mk.kron(pm, pn), rho) for pn in qo.PAULIS]
                    for pm in qo.PAULIS
                ]
            )
            assert np.max(np.abs(direct - tg.eta_matrix(theta))) <= 1e-12

    def test_block_inverse(self):
        for theta in (0.1, 0.8, np.pi / 2):
            eta = tg.eta_matrix(theta)
            inv = tg.eta_inverse(theta)
            assert np.max(np.abs(eta @ inv - np.eye(4))) <= 1e-10

    def test_singular_inverse_reports_condition(self):
        # cond = cot(t/2)^2 = 4e16 at t = 1e-8, where 1 - cos(t) rounds to 0
        with pytest.raises(ValueError, match=r"cond = 4\.000e\+16"):
            tg.eta_inverse(1e-8)


class TestCorrelations:
    def test_projective_probability_column(self):
        theta = 0.7
        p = qo.Povm(
            ((qo.ID2 + qo.PAULI_Z) / 2, (qo.ID2 - qo.PAULI_Z) / 2),
            (qo.bloch_ket(1.0, [0, 0, 1]), qo.bloch_ket(1.0, [0, 0, -1])),
        )
        c = tg.correlations_from_povm(p, theta)
        expected = [math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2]
        np.testing.assert_allclose(c.values[:, 0], expected, atol=1e-14)

    def test_tetrahedral_uniform_column(self):
        c = tg.correlations_from_povm(qo.adjusted_tetrahedral(1.0), 1.0)
        np.testing.assert_allclose(c.values[:, 0], 0.25, atol=1e-13)

    def test_conjugation_flips_only_y_column(self):
        theta = 0.9
        p = qo.near_y_tetrahedral(0.4)
        a = tg.correlations_from_povm(p, theta).values
        b = tg.correlations_from_povm(qo.conjugate_povm(p), theta).values
        np.testing.assert_allclose(a[:, 2], -b[:, 2], atol=1e-13)
        for col in (0, 1, 3):
            np.testing.assert_allclose(a[:, col], b[:, col], atol=1e-13)


class TestReconstruction:
    def test_round_trip_tetrahedral(self):
        theta = np.pi / 3
        p = qo.adjusted_tetrahedral(theta)
        r = tg.reconstruct_povm(tg.correlations_from_povm(p, theta))
        for a, b in zip(p.elements, r.elements):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_round_trip_mercedes_poor_conditioning(self):
        theta = 0.2
        p = qo.modified_mercedes(theta)
        r = tg.reconstruct_povm(tg.correlations_from_povm(p, theta))
        for a, b in zip(p.elements, r.elements):
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_round_trip_random_extremal(self):
        rng = np.random.default_rng(42)
        for i in range(12):
            n = (2, 3, 4)[i % 3]
            theta = rng.uniform(0.25, np.pi / 2)
            p = tg.random_extremal_povm(n, rng)
            r = tg.reconstruct_povm(tg.correlations_from_povm(p, theta))
            for a, b in zip(p.elements, r.elements):
                assert np.max(np.abs(a - b)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((2, 3, 4)),
        st.floats(math.log(1e-3), math.log(math.pi / 2)),
    )
    def test_round_trip_error_scales_with_condition_number(self, seed, n, log_theta):
        theta = min(math.exp(log_theta), math.pi / 2)
        p = tg.random_extremal_povm(n, np.random.default_rng(seed))
        r = tg.reconstruct_povm(tg.correlations_from_povm(p, theta))
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(p.elements, r.elements))
        assert err <= 1e-14 * np.linalg.cond(tg.eta_matrix(theta))

    def test_corrupted_correlations_detected(self):
        theta = 0.8
        c = tg.correlations_from_povm(qo.adjusted_tetrahedral(theta), theta)
        corrupted = c.values.copy()
        corrupted[0, 1] += 0.1
        bad = tg.reconstruct_povm(tg.CorrelationTable(theta, corrupted))
        assert not qo.povm_validity(bad).is_valid

    def test_reconstructed_povm_feeds_offdiag_analysis(self):
        # reconstruction drops the kets; spectral extraction restores them in
        # the fixed phase gauge, good enough for the off-diagonal machinery
        theta = 1.0
        p = qo.adjusted_tetrahedral(theta)
        r = tg.reconstruct_povm(tg.correlations_from_povm(p, theta))
        assert r.kets is None
        r = qo.kets_from_elements(r)
        for k, e in zip(r.kets, r.elements):
            assert np.max(np.abs(np.outer(k, k.conj()) - e)) <= 1e-10
            first = k[np.flatnonzero(np.abs(k) > 1e-12)[0]]
            assert abs(first.imag) <= 1e-12 and first.real > 0
        assert tg.offdiag_set(r).null_dimension >= 1


class TestOffdiagSet:
    def test_mercedes_forces_zero_coefficients(self):
        out = tg.offdiag_set(qo.modified_mercedes(0.6))
        assert out.null_dimension == 0

    def test_four_outcomes_always_dependent(self):
        out = tg.offdiag_set(qo.adjusted_tetrahedral(0.6))
        assert out.null_dimension >= 1

    def test_operators_y_orthogonal(self):
        for p in (qo.adjusted_tetrahedral(0.5), qo.near_y_tetrahedral(0.2)):
            for t in tg.offdiag_set(p).operators:
                assert abs(np.trace(t @ qo.PAULI_Y)) <= 1e-12

    def test_requires_kets(self):
        p = qo.Povm((qo.ID2 / 2, qo.ID2 / 2))
        with pytest.raises(ValueError, match="kets"):
            tg.offdiag_set(p)

    def test_random_povm_null_dimensions(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert tg.offdiag_set(tg.random_extremal_povm(3, rng)).null_dimension == 0
            assert tg.offdiag_set(tg.random_extremal_povm(4, rng)).null_dimension >= 1


class TestDilation:
    def test_zero_coefficients_block_form(self):
        p = qo.adjusted_tetrahedral(0.8)
        dilated = tg.build_dilated_povm(p, np.zeros(4))
        assert qo.povm_validity(dilated).is_valid
        for e, r in zip(p.elements, dilated.elements):
            block = mk.kron(e, tg.PROJ_PLUS) + mk.kron(np.conj(e), tg.PROJ_MINUS)
            assert np.max(np.abs(r - block)) <= 1e-14

    def test_unit_null_vector_gives_singular_element(self):
        p = qo.adjusted_tetrahedral(np.pi / 2)
        v = tg.offdiag_set(p).null_basis[0]
        coeffs = v / np.abs(v).max()
        dilated = tg.build_dilated_povm(p, coeffs)
        assert qo.povm_validity(dilated).is_valid
        smallest = min(np.linalg.eigvalsh(e).min() for e in dilated.elements)
        assert abs(smallest) <= 1e-10

    def test_eigenvalue_formula(self):
        p = qo.adjusted_tetrahedral(1.0)
        v = tg.offdiag_set(p).null_basis[0]
        coeffs = 0.6 * v / np.abs(v).max()
        dilated = tg.build_dilated_povm(p, coeffs)
        for e, r, c in zip(p.elements, dilated.elements, coeffs):
            norm = float(np.real(np.trace(e)))
            w = np.sort(np.linalg.eigvalsh(r))
            expected = np.sort([0.0, 0.0, norm * (1 - abs(c)), norm * (1 + abs(c))])
            np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_overscaled_coefficients_rejected(self):
        p = qo.adjusted_tetrahedral(np.pi / 2)
        v = tg.offdiag_set(p).null_basis[0]
        coeffs = 1.5 * v / np.abs(v).max()
        with pytest.raises(ValueError, match="exceeds 1"):
            tg.build_dilated_povm(p, coeffs)

    def test_non_closing_coefficients_rejected(self):
        p = qo.adjusted_tetrahedral(np.pi / 2)
        with pytest.raises(ValueError, match="residual"):
            tg.build_dilated_povm(p, np.array([1.0, 0, 0, 0]))

    def test_marginalization_recovers_reference(self):
        p = qo.adjusted_tetrahedral(0.9)
        v = tg.offdiag_set(p).null_basis[0]
        dilated = tg.build_dilated_povm(p, v / np.abs(v).max())
        for e, r in zip(p.elements, dilated.elements):
            marg = mk.partial_trace(r @ mk.kron(np.eye(2), tg.PROJ_PLUS), (2, 2), keep=(0,))
            assert np.max(np.abs(marg - e)) <= 1e-12


def dilate_by_kron(p, coeffs):
    """Oracle: R_a as the sum of four tensor products, one element at a time."""
    elements = []
    for e, k, c in zip(p.elements, p.kets, coeffs):
        t = np.outer(k, k)
        elements.append(
            mk.kron(e, tg.PROJ_PLUS)
            + mk.kron(np.conj(e), tg.PROJ_MINUS)
            + mk.kron(c * t, tg.FLIP_PM)
            + mk.kron(np.conj(c) * t.conj().T, tg.FLIP_PM.conj().T)
        )
    return elements


class TestDilationProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * math.pi),
    )
    def test_matches_four_kron_formula(self, seed, n, scale, phase):
        p = tg.random_extremal_povm(n, np.random.default_rng(seed))
        basis = tg.offdiag_set(p).null_basis
        coeffs = np.zeros(n, dtype=complex)
        if basis:
            coeffs = scale * np.exp(1j * phase) * basis[0] / np.abs(basis[0]).max()
        got = tg.build_dilated_povm(p, coeffs).elements
        want = dilate_by_kron(p, coeffs)
        assert max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) <= mk.ZERO_TOL


class TestRandomExtremal:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_valid_and_extremal(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            p = tg.random_extremal_povm(n, rng)
            assert p.n_outcomes == n
            report = qo.povm_validity(p)
            assert report.max_psd_violation <= 1e-12
            assert report.completeness_residual <= 1e-12
            assert qo.povm_extremality(p).is_extremal_candidate
            for k, e in zip(p.kets, p.elements):
                assert np.max(np.abs(np.outer(k, k.conj()) - e)) <= 1e-12

    def test_spectral_kets_reproduce_the_bloch_gauge(self):
        # kets_from_elements and bloch_ket fix the same phase, so either
        # source of kets gives the same attack coefficients
        families = (qo.adjusted_tetrahedral, qo.modified_mercedes)
        povms = [f(t) for t in qo.theta_grid(50) for f in families]
        povms += [qo.near_y_tetrahedral(eps) for eps in (1e-4, 0.1, 0.5, 0.9)]
        rng = np.random.default_rng(17)
        povms += [tg.random_extremal_povm(n, rng) for n in (2, 3, 4) for _ in range(200)]
        for p in povms:
            kets = qo.kets_from_elements(qo.Povm(p.elements)).kets
            assert np.max(np.abs(kets - p.kets)) <= 1e-12

    def test_too_many_outcomes_rejected(self):
        with pytest.raises(ValueError):
            tg.random_extremal_povm(5, np.random.default_rng(0))
