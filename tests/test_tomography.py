import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import tomography as tg

# The dilation's ancilla operators in the Z eigenbasis: |0><0|, |1><1| and |0><1|.
P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
FLIP_01 = np.array([[0.0, 1.0], [0.0, 0.0]])


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

    def test_reconstruction_inverts_eta(self):
        # eta^-1 eta = I: the Paulis' own correlations reconstruct the Paulis
        for theta in (0.1, 0.8, np.pi / 2):
            r = tg.reconstruct_povm(tg.CorrelationTable(theta, tg.eta_matrix(theta)))
            assert np.max(np.abs(r.elements - qo.PAULIS)) <= 1e-10

    def test_singular_inverse_reports_condition(self):
        # cond = cot(t/2)^2 = 4e16 at t = 1e-8, where 1 - cos(t) rounds to 0
        with pytest.raises(ValueError, match=r"cond = 4\.000e\+16"):
            tg.reconstruct_povm(tg.CorrelationTable(1e-8, tg.eta_matrix(1e-8)))


class TestCorrelations:
    def test_projective_probability_column(self):
        theta = 0.7
        p = qo.povm_from_kets(qo.bloch_ket([1.0, 1.0], [[0, 0, 1], [0, 0, -1]]))
        projectors = [(qo.ID2 + qo.PAULI_Z) / 2, (qo.ID2 - qo.PAULI_Z) / 2]
        np.testing.assert_array_equal(p.elements, projectors)
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

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (4, 5), (2, 4, 4), ()])
    def test_malformed_values_refused(self, shape):
        with pytest.raises(ValueError, match=rf"shape \(m, 4\), got {re.escape(str(shape))}"):
            tg.reconstruct_povm(tg.CorrelationTable(0.7, np.zeros(shape)))

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
            block = mk.kron(e, P0) + mk.kron(np.conj(e), P1)
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
            marg = mk.partial_trace(r @ mk.kron(np.eye(2), P0), (2, 2), keep=(0,))
            assert np.max(np.abs(marg - e)) <= 1e-12


def dilate_by_kron(p, coeffs):
    """Oracle: R_a as the sum of four tensor products, one element at a time."""
    elements = []
    for e, k, c in zip(p.elements, p.kets, coeffs):
        t = np.outer(k, k)
        elements.append(
            mk.kron(e, P0)
            + mk.kron(np.conj(e), P1)
            + mk.kron(c * t, FLIP_01)
            + mk.kron(np.conj(c) * t.conj().T, FLIP_01.T)
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


# The other side's tomography settings on qubit x ancilla in the Bell kernels' gauge
# A' = B' = Z, in the column order (I, X, Y, Z) of `correlations_from_povm`.
GAUGE_SETTINGS = np.stack(
    [
        np.eye(4),
        mk.kron(qo.PAULI_X, qo.ID2),
        mk.kron(qo.PAULI_Y, qo.PAULI_Z),
        mk.kron(qo.PAULI_Z, qo.ID2),
    ]
)


class TestOneGauge:
    """The dilation's blocks sit on the ancilla's Z basis, the gauge of the Bell kernels."""

    def test_ancilla_blocks_are_the_four_operators_bitwise(self):
        p = qo.adjusted_tetrahedral(0.7)
        v = tg.offdiag_set(p).null_basis[0]
        coeffs = 0.8 * np.exp(0.3j) * v / np.abs(v).max()
        blocks = tg.build_dilated_povm(p, coeffs).elements.reshape(4, 2, 2, 2, 2)
        for a, (e, k, c) in enumerate(zip(p.elements, p.kets, coeffs)):
            ct = c * (k[:, None] * k[None, :])
            np.testing.assert_array_equal(blocks[a, :, 0, :, 0], e)
            np.testing.assert_array_equal(blocks[a, :, 0, :, 1], ct)
            np.testing.assert_array_equal(blocks[a, :, 1, :, 0], ct.conj().T)
            np.testing.assert_array_equal(blocks[a, :, 1, :, 1], np.conj(e))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, math.pi / 2))
    def test_dilations_reproduce_tomography_on_the_mixed_ancilla(self, seed, theta):
        """Against the other side's (I, X, Y x Z, Z) on the theta-state x the mixed ancilla."""
        rng = np.random.default_rng(seed)
        pair = (tg.random_extremal_povm(4, rng), tg.random_extremal_povm(4, rng))
        kets = qo.with_ancilla(qo.theta_ket(theta)[1], qo.ANCILLA_MIXED)
        for side, p in enumerate(pair):
            v = tg.offdiag_set(p).null_basis[0]
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            r = tg.build_dilated_povm(p, phase * v / np.abs(v).max())
            if side == 0:
                got = mk.joint_table_kets(r.elements, GAUGE_SETTINGS, kets)[0]
            else:
                got = mk.joint_table_kets(GAUGE_SETTINGS, r.elements, kets)[0].T
            want = tg.correlations_from_povm(p, theta).values
            assert np.max(np.abs(got - want)) <= 1e-14


TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)


def completeness(coords):
    """The matrix of sum_a w_a (1, n_a) for coordinate rows n_a (..., m, m - 1)."""
    ones = np.ones(coords.shape[:-1])[..., None, :]
    return np.concatenate([ones, np.swapaxes(coords, -1, -2)], axis=-2)


def loop_weights(coords):
    """One try's completion weights 2c / sum(c) from the signed minors c, or None if singular."""
    c = mk.null_vector(coords)
    total = c.sum()
    return None if total == 0.0 else 2.0 * c / total


def loop_extremal_povm4(rng):
    """Oracle: the 4-outcome sampler drawing and weighing one try at a time.

    The accepted try's unit kets, phase-fixed to a real nonnegative first
    amplitude and scaled by sqrt(w), agree with the pole-safe `qo.bloch_ket` of
    their weights and normals.
    """
    for _ in range(tg._MAX_TRIES):
        kets = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        cross = 2.0 * np.conj(kets[:, 0]) * kets[:, 1]
        pops = np.abs(kets) ** 2
        normals = np.stack([cross.real, cross.imag, pops[:, 0] - pops[:, 1]], axis=1)
        w = loop_weights(normals)
        if w is None:
            continue
        if w.min() > 0.05:
            kets = kets * np.exp(-1j * np.angle(kets[:, :1]))
            kets[:, 0] = kets[:, 0].real
            kets = np.sqrt(w)[:, None] * kets
            assert np.max(np.abs(kets - qo.bloch_ket(w, normals))) <= 1e-14
            return qo.povm_from_kets(kets)
    raise RuntimeError("failed to sample a feasible 4-outcome POVM")


# Tries the one-at-a-time loop needs for a first accepted 4-outcome POVM.
SEED_TRIES = {3: 4, 25: 54, 738: 70}


class SingularTry:
    """A generator whose 4-outcome try `index` is four copies of the ket |0>.

    That try's completeness system has two zero rows, so its signed minors vanish.
    Every other normal is the wrapped generator's, in its order.
    """

    PATTERN = np.array([1.0, 0.0] * 4 + [0.0] * 8)  # real parts, then imaginary parts

    def __init__(self, seed, index):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.first = 16 * index
        self.drawn = 0

    def normal(self, size):
        z = self.rng.normal(size=size)
        flat = z.reshape(-1)
        pos = np.arange(self.drawn, self.drawn + flat.size) - self.first
        hit = (pos >= 0) & (pos < 16)
        flat[hit] = self.PATTERN[pos[hit]]
        self.drawn += flat.size
        return z


class TestStackedSampler:
    """The block-drawn 4-outcome sampler against the one-try-at-a-time loop."""

    @staticmethod
    def assert_same_draw(got, want):
        np.testing.assert_array_equal(got.elements, want.elements)
        np.testing.assert_array_equal(got.kets, want.kets)

    def test_seeds_reach_past_the_first_block(self):
        for seed, tries in SEED_TRIES.items():
            rng = np.random.default_rng(seed)
            loop_extremal_povm4(rng)
            expected = np.random.default_rng(seed)
            expected.normal(size=16 * tries)
            assert rng.bit_generator.state == expected.bit_generator.state
        assert max(SEED_TRIES.values()) > 2 * tg._BLOCK

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(25)
    @example(738)
    @example(65744829)  # a normal with n_z = -0.99998859, near the south pole
    def test_same_stream_as_the_loop(self, seed):
        stacked, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        self.assert_same_draw(tg.random_extremal_povm(4, stacked), loop_extremal_povm4(looped))
        assert stacked.bit_generator.state == looped.bit_generator.state
        # the 3-outcome draw that follows reads the same stream
        got, want = (tg.random_extremal_povm(3, g) for g in (stacked, looped))
        self.assert_same_draw(got, want)
        assert stacked.bit_generator.state == looped.bit_generator.state

    @pytest.mark.parametrize("seed, max_tries", [(3, 3), (25, 37), (738, 69)])
    def test_refusal_consumes_exactly_max_tries(self, monkeypatch, seed, max_tries):
        assert max_tries % tg._BLOCK and max_tries < SEED_TRIES[seed]
        monkeypatch.setattr(tg, "_MAX_TRIES", max_tries)
        stacked, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(RuntimeError, match="4-outcome"):
            tg.random_extremal_povm(4, stacked)
        with pytest.raises(RuntimeError, match="4-outcome"):
            loop_extremal_povm4(looped)
        expected = np.random.default_rng(seed)
        expected.normal(size=16 * max_tries)
        assert stacked.bit_generator.state == looped.bit_generator.state
        assert stacked.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("index", [0, 5, 40])
    def test_singular_try_is_skipped(self, index):
        singular = np.tile([0.0, 0.0, 1.0], (4, 1))  # the Bloch normals of four kets |0>
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(completeness(singular), np.ones(4))
        seed = 25  # rejects its first 53 tries, so the forced try is a rejected one
        stacked, looped = SingularTry(seed, index), SingularTry(seed, index)
        got = tg.random_extremal_povm(4, stacked)
        self.assert_same_draw(got, loop_extremal_povm4(looped))
        self.assert_same_draw(got, tg.random_extremal_povm(4, np.random.default_rng(seed)))
        assert stacked.bit_generator.state == looped.bit_generator.state
        w = tg._completion_weights(np.stack([TETRAHEDRON, singular]))
        np.testing.assert_allclose(w[0], 0.5, rtol=0, atol=mk.ZERO_TOL)
        assert np.isnan(w[1]).all()


def loop_extremal_povm3(rng):
    """Oracle: the 3-outcome sampler building each try's frame before its angular-gap test."""
    for _ in range(tg._MAX_TRIES):
        frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        f1, f2 = frame[:, 0], frame[:, 1]
        phis = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=3))
        gaps = np.diff(np.concatenate([phis, [phis[0] + 2.0 * math.pi]]))
        if gaps.max() >= math.pi:
            continue
        normals = [math.cos(p) * f1 + math.sin(p) * f2 for p in phis]
        w = loop_weights(np.array([[n @ f1, n @ f2] for n in normals]))
        if w is None:
            continue
        if w.min() > 0.05:
            return qo.povm_from_kets(qo.bloch_ket(w, normals))
    raise RuntimeError("failed to sample a feasible 3-outcome POVM")


class TestThreeOutcomeSampler:
    """The 3-outcome sampler, which skips the QR of a try failing the gap test, against the loop."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(3)  # first accepted try is the 13th
    def test_same_stream_as_the_loop(self, seed):
        fast, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = tg.random_extremal_povm(3, fast), loop_extremal_povm3(looped)
            TestStackedSampler.assert_same_draw(got, want)
            assert fast.bit_generator.state == looped.bit_generator.state

    def test_refusal_consumes_the_same_stream(self, monkeypatch):
        monkeypatch.setattr(tg, "_MAX_TRIES", 5)  # seed 3 accepts its 13th try only
        fast, looped = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(RuntimeError, match="3-outcome"):
            tg.random_extremal_povm(3, fast)
        with pytest.raises(RuntimeError, match="3-outcome"):
            loop_extremal_povm3(looped)
        assert fast.bit_generator.state == looped.bit_generator.state


class TestCompletionWeights:
    """The sampler's signed-minor weights against a solve of the completeness system."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equal_the_solve_on_accepted_tries(self, seed):
        rng = np.random.default_rng(seed)
        kets = rng.normal(size=(64, 4, 2)) + 1j * rng.normal(size=(64, 4, 2))
        kets /= np.linalg.norm(kets, axis=-1)[..., None]
        cross = 2.0 * np.conj(kets[..., 0]) * kets[..., 1]
        pops = np.abs(kets) ** 2
        normals = np.stack([cross.real, cross.imag, pops[..., 0] - pops[..., 1]], axis=-1)
        phis = rng.uniform(0.0, 2.0 * math.pi, size=(64, 3))
        in_plane = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
        for coords in (normals, in_plane):
            w = tg._completion_weights(coords)
            m = coords.shape[-2]
            want = np.linalg.solve(completeness(coords), 2.0 * np.eye(m)[0])
            accepted = w.min(axis=-1) > 0.05  # the tries the sampler keeps
            assert np.max(np.abs(w - want)[accepted], initial=0.0) <= mk.ZERO_TOL

    def test_singular_three_outcome_try_gets_nan(self):
        # the 4-outcome case is TestStackedSampler::test_singular_try_is_skipped
        coords = np.ones((3, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(completeness(coords), np.ones(3))
        assert np.isnan(tg._completion_weights(coords)).all()


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
        with pytest.raises(ValueError, match="have 2, 3 or 4 outcomes, got 5"):
            tg.random_extremal_povm(5, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_outcomes_rejected(self, n):
        with pytest.raises(ValueError, match=f"have 2, 3 or 4 outcomes, got {n}"):
            tg.random_extremal_povm(n, np.random.default_rng(0))
