"""Dense complex-matrix kernel.

Tensor products, subsystem permutations, partial traces, Hermitian
eigendecompositions, trace norms, joint null spaces and Born-rule outcome
tables (|.|^2 of :func:`amplitudes` for rank-one elements), over plain numpy
arrays (complex128, row-major).  Every operation is a pure function and safe
to call concurrently.

Subsystem ordering convention used throughout the package:
(A-qubit, A'-ancilla, B-qubit, B'-ancilla), nested as ((A x A') x (B x B')).
All reorderings go through :func:`permute_subsystems`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

# The package's tolerances: three absolute tiers, one per meaning (every
# quantity handled here is O(1)).  Every tolerance in the package reads one.
ZERO_TOL = 1e-12  # a quantity exactly zero in closed form
IDENTITY_TOL = 1e-10  # an exact identity evaluated through a few matrix products
RANK_TOL = 1e-9  # a numerical-rank or normalization decision


def refuse_beyond(excess, bound: float, check: str, where=None) -> None:
    """The one contract gate: refuse the first entry of `excess` not <= `bound`, NaN included.

    The ValueError names the check, the value, the bound and, given `where`, the
    member `where(*index)`.  Passing costs one reduction and one comparison.
    """
    excess = np.asarray(excess, dtype=float)
    if excess.max(initial=-np.inf) <= bound:  # a NaN entry makes the max NaN
        return
    index = np.unravel_index(int(np.argmax(~(excess <= bound))), excess.shape)
    at = "" if where is None else f" at {where(*(int(i) for i in index))}"
    raise ValueError(f"{check} {float(excess[index]):.3e} exceeds {bound:.0e}{at}")


def non_hermitian_part(a) -> np.ndarray:
    """max |A - A^dagger| per matrix of a stack (..., d, d); NaN without a warning if non-finite."""
    a = np.where(np.isfinite(a), a, np.nan)
    return np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2))), axis=(-2, -1), initial=0.0)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex array (no copy when already one)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def kron(a, b) -> np.ndarray:
    """Tensor product: (a x b)[i*rb+k, j*cb+l] = a[i,j] * b[k,l].

    One broadcast multiply, entry for entry the product `np.kron` forms.
    """
    a, b = as_matrix(a), as_matrix(b)
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def check_shape(m, dims: Sequence[int]) -> None:
    """Raise unless the square matrix dimension equals prod(dims)."""
    a = as_matrix(m)
    d = int(np.prod(dims)) if len(dims) else 1
    if a.shape != (d, d):
        raise ValueError(
            f"subsystem dims {tuple(dims)} inconsistent with matrix shape {a.shape}"
        )


def permute_subsystems(m, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so output slot j carries input subsystem perm[j]."""
    a = as_matrix(m)
    check_shape(a, dims)
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = a.reshape(tuple(dims) * 2)
    axes = perm + [n + p for p in perm]
    d = int(np.prod(dims))
    return np.transpose(t, axes).reshape(d, d)


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in `keep`.

    Kept factors stay in their original relative order; the total trace is
    preserved.  An empty keep set yields the 1x1 matrix [[Tr m]].
    """
    a = as_matrix(m)
    check_shape(a, dims)
    n = len(dims)
    keep_set = {int(k) for k in keep}
    if not keep_set <= set(range(n)):
        raise ValueError(f"keep indices {sorted(keep_set)} out of range for {n} subsystems")
    t = a.reshape(tuple(dims) * 2)
    cur = list(dims)
    for idx in sorted(set(range(n)) - keep_set, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(cur))
        del cur[idx]
    d = int(np.prod(cur)) if cur else 1
    return np.asarray(t, dtype=complex).reshape(d, d)


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with eigenvalues sorted descending.

    Returns (w, v) such that m = v @ diag(w) @ v^dagger with orthonormal
    eigenvector columns.  A stack of matrices (..., d, d) gives w of shape
    (..., d) and v of shape (..., d, d).  Non-Hermitian or non-finite input
    (beyond ZERO_TOL) is a contract error naming matrix k of the flattened stack.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    herm = non_hermitian_part(a).reshape(-1)
    refuse_beyond(herm, ZERO_TOL, "eigh: non-Hermitian part", "matrix {}".format)
    w, v = np.linalg.eigh(a)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False).sum())


def null_space(mats) -> list[np.ndarray]:
    """Orthonormal basis of {c : sum_a c_a mats[a] = 0} for a stack mats (m, ...), from one SVD.

    Singular values are thresholded at RANK_TOL; [] means the matrices are independent.
    """
    a = np.asarray(mats, dtype=complex)
    if len(a) == 0:
        return []
    stacked = a.reshape(len(a), -1).T
    _, svals, vh = np.linalg.svd(stacked)
    rank = int(np.sum(svals > RANK_TOL))
    return list(vh[rank:].conj())


def _leibniz_terms(m: int) -> tuple:
    """Row (m, 1, m - 1) and column (P, m - 1) gathers, signs (m, P): m minors' Leibniz terms."""
    perms = np.array(list(itertools.permutations(range(m - 1))))
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    rows = [[r for r in range(m) if r != a] for a in range(m)]
    return np.array(rows)[:, None], perms, (-1.0) ** (np.arange(m)[:, None] + inversions)


_LEIBNIZ = {m: _leibniz_terms(m) for m in (2, 3, 4)}


def null_vector(v) -> np.ndarray:
    """Signed minors c_a = (-1)^a det(v without row a) of m vectors v (..., m, m - 1), 2 <= m <= 4.

    sum_a c_a v_a = 0 (expand v with a column repeated); c = 0 iff rank v < m - 1.
    Each minor is its Leibniz expansion: one gather, one product and one signed sum.
    """
    v = np.asarray(v)
    if v.ndim < 2 or v.shape[-2] not in _LEIBNIZ or v.shape[-1] != v.shape[-2] - 1:
        raise ValueError(f"expected m vectors of length m - 1, 2 <= m <= 4, got shape {v.shape}")
    rows, cols, signs = _LEIBNIZ[v.shape[-2]]
    return (v[..., rows, cols].prod(axis=-1) * signs).sum(axis=-1)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Ginibre matrix."""
    return haar_from_ginibre(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def haar_from_ginibre(g) -> np.ndarray:
    """Unitary Q of g = QR with the phases of diag(R) moved into Q (stacks too).

    For complex Ginibre input the result is Haar-distributed.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def expval(op, rho) -> float:
    """Real part of Tr[op @ rho] (all observables here are Hermitian)."""
    return float(np.real(np.trace(as_matrix(op) @ as_matrix(rho))))


def joint_table(ops_a, ops_b, rho) -> np.ndarray:
    """Born-rule table T[i, j] = Re Tr[(ops_a[i] x ops_b[j]) rho].

    One contraction over rho viewed as (da, db, da, db), where da and db are
    the operator dimensions on each side; no tensor product is formed.
    """
    a = np.asarray(ops_a, dtype=complex)
    b = np.asarray(ops_b, dtype=complex)
    da, db = a.shape[-1], b.shape[-1]
    r = as_matrix(rho)
    check_shape(r, (da, db))
    return np.einsum("aik,bjl,klij->ab", a, b, r.reshape(da, db, da, db)).real


def amplitudes(kets_a, kets_b, psi) -> np.ndarray:
    """Amplitude tables <k_a l_b|psi> = (conj(k) psi l^dagger)[a, b] (..., m, n).

    Kets are (..., m, da) and (..., n, db), and psi (..., da, db) is a ket viewed
    as a matrix (row: the `kets_a` side).  |.|^2 is the Born-rule table of the
    rank-one elements |k_a><k_a| x |l_b><l_b|.
    """
    return np.conj(kets_a) @ psi @ np.conj(np.swapaxes(kets_b, -1, -2))


def joint_table_kets(ops_a, ops_b, kets) -> np.ndarray:
    """Stacked Born-rule tables T[n, i, j] = Re sum_k <k_nk| ops_a[i] x ops_b[j] |k_nk>.

    `kets` has shape (N, K, da, db): state n is the mixture sum_k |k_nk><k_nk|
    of K subnormalized kets, each viewed as a da x db matrix (row: the `ops_a`
    side).  `ops_a` is (na, da, da) or per state (N, na, da, da), likewise
    `ops_b`.  With M = k^dagger A k, <k| A x B |k> = sum_jl M[j, l] B[j, l], so
    no tensor product or density matrix is formed.
    """
    k = np.asarray(kets, dtype=complex)
    a = np.asarray(ops_a, dtype=complex)
    b = np.asarray(ops_b, dtype=complex)
    if k.ndim != 4 or a.shape[-2:] != (k.shape[2],) * 2 or b.shape[-2:] != (k.shape[3],) * 2:
        raise ValueError(
            f"operator shapes {a.shape} and {b.shape} do not fit kets of shape {k.shape}"
        )
    kh = np.conj(np.swapaxes(k, -1, -2))[:, :, None]
    m = (kh @ a[..., None, :, :, :] @ k[:, :, None]).sum(axis=1)
    return np.einsum("...ajl,...bjl->...ab", m, b).real
