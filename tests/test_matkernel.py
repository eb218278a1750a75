import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrand import matkernel as mk

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def psi_ket(theta):
    return np.array([np.cos(theta / 2), 0, 0, np.sin(theta / 2)], dtype=complex)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(mk.kron(I2, I2), np.eye(4))

    def test_zz_diagonal(self):
        np.testing.assert_array_equal(mk.kron(Z, Z), np.diag([1, -1, -1, 1]).astype(complex))

    def test_pauli_expansion_reproduces_state_entry(self):
        # expand the maximally entangled projector in the Pauli basis by hand
        theta = np.pi / 2
        rho = 0.25 * (
            mk.kron(I2, I2)
            + np.cos(theta) * (mk.kron(I2, Z) + mk.kron(Z, I2))
            + np.sin(theta) * (mk.kron(X, X) - mk.kron(Y, Y))
            + mk.kron(Z, Z)
        )
        assert abs(rho[0, 3] - 0.5) < 1e-15
        ket = psi_ket(theta)
        np.testing.assert_allclose(rho, np.outer(ket, ket.conj()), atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        np.testing.assert_allclose(
            mk.kron(mk.kron(a, b), c), mk.kron(a, mk.kron(b, c)), atol=1e-14
        )


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 5), min_size=4, max_size=4))
    def test_bit_identical_to_numpy_kron(self, seed, dims):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=dims[:2]) + 1j * rng.normal(size=dims[:2])
        b = rng.normal(size=dims[2:]) + 1j * rng.normal(size=dims[2:])
        got, want = mk.kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        ket = psi_ket(np.pi / 2)
        rho = np.outer(ket, ket.conj())
        np.testing.assert_allclose(mk.partial_trace(rho, (2, 2), keep=(0,)), I2 / 2, atol=1e-15)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, np.pi / 2])
    def test_schmidt_marginal(self, theta):
        ket = psi_ket(theta)
        rho = np.outer(ket, ket.conj())
        expected = np.diag([np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2])
        np.testing.assert_allclose(mk.partial_trace(rho, (2, 2), keep=(0,)), expected, atol=1e-15)
        np.testing.assert_allclose(mk.partial_trace(rho, (2, 2), keep=(1,)), expected, atol=1e-15)

    def test_empty_keep_gives_trace(self):
        rng = np.random.default_rng(7)
        rho = random_hermitian(4, rng)
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        out = mk.partial_trace(rho, (2, 2), keep=())
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-14

    def test_trace_preserved_and_kron_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_hermitian(2, rng)
            b = random_hermitian(3, rng)
            full = mk.kron(a, b)
            np.testing.assert_allclose(
                mk.partial_trace(full, (2, 3), keep=(0,)), np.trace(b) * a, atol=1e-13
            )
            assert abs(np.trace(mk.partial_trace(full, (2, 3), keep=(1,))) - np.trace(full)) < 1e-12

    def test_inconsistent_shape_rejected(self):
        with pytest.raises(ValueError):
            mk.partial_trace(np.eye(4), (2, 3), keep=(0,))
        with pytest.raises(ValueError):
            mk.partial_trace(np.eye(4), (2, 2), keep=(2,))


class TestEigh:
    def test_pauli_z(self):
        w, _ = mk.eigh(Z)
        np.testing.assert_allclose(w, [1, -1], atol=1e-15)

    def test_rank_one_projector(self):
        ket = psi_ket(0.8)
        w, _ = mk.eigh(np.outer(ket, ket.conj()))
        np.testing.assert_allclose(w, [1, 0, 0, 0], atol=1e-14)

    def test_ideal_bell_operator_spectrum(self):
        # sqrt(2)(ZZ + XX) diagonalizes by hand to (2*sqrt(2), 0, 0, -2*sqrt(2))
        op = np.sqrt(2) * (mk.kron(Z, Z) + mk.kron(X, X))
        w, v = mk.eigh(op)
        s = 2 * np.sqrt(2)
        np.testing.assert_allclose(w, [s, 0, 0, -s], atol=1e-14)
        np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, op, atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_reconstruction_residual(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            m = random_hermitian(dim, rng)
            w, v = mk.eigh(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m)) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            mk.eigh(np.array([[0, 1], [0, 0]], dtype=complex))


class TestTraceNorm:
    def test_attack_metric_operator(self):
        # (X tensor sigma)/2 with sigma = I/2 has trace norm exactly 1
        assert abs(mk.trace_norm(0.5 * mk.kron(X, I2 / 2)) - 1.0) < 1e-14

    def test_zero_matrix(self):
        assert mk.trace_norm(np.zeros((3, 3))) == 0.0

    def test_absolute_eigenvalue_sum(self):
        assert abs(mk.trace_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = mk.haar_unitary(4, rng)
        v = mk.haar_unitary(4, rng)
        assert abs(mk.trace_norm(u @ m @ v) - mk.trace_norm(m)) < 1e-10


class TestNullSpace:
    def test_independent_basis_empty(self):
        assert mk.null_space([I2, X, Z]) == []

    def test_simple_dependency(self):
        basis = mk.null_space([I2, X, I2 + X])
        assert len(basis) == 1
        c = basis[0]
        direction = np.array([1, 1, -1]) / np.sqrt(3)
        overlap = abs(np.vdot(direction, c))
        assert abs(overlap - 1.0) < 1e-12

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        mats = [random_hermitian(2, rng) for _ in range(3)]
        mats.append(0.3 * mats[0] - 1.2 * mats[1] + 0.7j * mats[2])
        for c in mk.null_space(mats):
            combo = sum(ci * m for ci, m in zip(c, mats))
            assert np.linalg.norm(combo) <= 10 * mk.RANK_TOL * np.linalg.norm(c)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mk.null_space([np.eye(2), np.eye(3)])

    def test_empty_input(self):
        assert mk.null_space([]) == []


class TestNullVector:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_is_the_svd_null_direction(self, seed, m):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(3, m, m - 1)) + 1j * rng.normal(size=(3, m, m - 1))
        c = mk.null_vector(v)
        assert c.shape == (3, m)
        assert np.max(np.abs(np.einsum("na,nai->ni", c, v))) <= 1e-12
        for cn, vn in zip(c, v):
            (u,) = mk.null_space(vn)
            assert abs(abs(np.vdot(u, cn)) / np.linalg.norm(cn) - 1.0) <= 1e-12

    def test_signs_alternate(self):
        np.testing.assert_array_equal(mk.null_vector([[1.0], [1.0]]), [1.0, -1.0])
        np.testing.assert_array_equal(mk.null_vector(np.eye(3)[:, :2]), [0.0, 0.0, 1.0])

    def test_vanishes_below_full_rank(self):
        v = np.array([[1.0, 2.0], [2.0, 4.0], [-4.0, -8.0]])  # exact LU pivots
        np.testing.assert_array_equal(mk.null_vector(v), np.zeros(3))

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (4, 2), (2, 3, 1), (1, 0), (5, 4)])
    def test_shape_refused(self, shape):
        with pytest.raises(ValueError, match="vectors of length m - 1"):
            mk.null_vector(np.ones(shape))


class TestPermuteSubsystems:
    def test_swap_two_factors(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        swapped = mk.permute_subsystems(mk.kron(a, b), (2, 3), (1, 0))
        np.testing.assert_allclose(swapped, mk.kron(b, a), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        perm = (2, 0, 1)
        inverse = tuple(np.argsort(perm))
        once = mk.permute_subsystems(m, (2, 2, 2), perm)
        back = mk.permute_subsystems(once, (2, 2, 2), inverse)
        np.testing.assert_allclose(back, m, atol=1e-14)

    def test_invalid_perm_rejected(self):
        with pytest.raises(ValueError):
            mk.permute_subsystems(np.eye(4), (2, 2), (0, 0))


def random_density(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestJointTable:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(2, 2), (4, 4), (2, 4)]),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_matches_per_entry_oracle(self, seed, dims, n_a, n_b):
        rng = np.random.default_rng(seed)
        da, db = dims
        ops_a = [random_hermitian(da, rng) for _ in range(n_a)]
        ops_b = [random_hermitian(db, rng) for _ in range(n_b)]
        rho = random_density(da * db, rng)
        table = mk.joint_table(ops_a, ops_b, rho)
        oracle = np.array([[mk.expval(mk.kron(a, b), rho) for b in ops_b] for a in ops_a])
        assert table.shape == (n_a, n_b) and table.dtype == float
        assert np.max(np.abs(table - oracle)) <= 1e-13

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            mk.joint_table([I2], [I2], np.eye(8) / 8)


class TestAmplitudes:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(2, 2), (2, 4), (4, 2)]),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_matches_the_inner_product(self, seed, dims, m, n):
        # complex kets and a general complex state, so a conjugate dropped on either side shows
        rng = np.random.default_rng(seed)
        da, db = dims

        def normal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        ka, kb, psi = normal(3, m, da), normal(3, n, db), normal(3, da, db)
        amp = mk.amplitudes(ka, kb, psi)
        oracle = [
            [[np.vdot(np.kron(a, b), p.reshape(-1)) for b in kb[s]] for a in ka[s]]
            for s, p in enumerate(psi)
        ]
        assert amp.shape == (3, m, n)
        assert np.max(np.abs(amp - oracle)) <= 1e-12


def test_tiers_are_the_only_thresholds():
    """No `*_TOL` constant or 1e-9..1e-13 literal outside matkernel's three tier lines."""
    threshold = re.compile(r"\b\w*_TOL\s*=(?!=)|\b\d+(\.\d*)?[eE]-0*(9|1[0-3])\b")
    hits = [
        f"{path.name}: {line.split('#')[0].strip()}"
        for path in sorted(Path(mk.__file__).parent.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if threshold.search(line)
    ]
    assert hits == [
        "matkernel.py: ZERO_TOL = 1e-12",
        "matkernel.py: IDENTITY_TOL = 1e-10",
        "matkernel.py: RANK_TOL = 1e-9",
    ]
