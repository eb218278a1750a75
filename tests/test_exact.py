"""Exact layer: closed forms the float kernels rely on, proven as sympy identities in t.

The theta-ket is cos(t/2)|00> + sin(t/2)|11>, read as a 4-vector for the Born
rule <psi| A x B |psi> and as the 2x2 amplitude matrix Psi = diag(cos t/2, sin t/2)
for the inversion, so each proof also ties the two readings together.
"""

from functools import cache

import numpy as np
import pytest
import sympy as sp

from bellrand import tomography as tg

t = sp.symbols("t", positive=True)
PAULIS = [  # (I, X, Y, Z), the order of qobjects.PAULIS
    sp.eye(2),
    sp.Matrix([[0, 1], [1, 0]]),
    sp.Matrix([[0, -sp.I], [sp.I, 0]]),
    sp.Matrix([[1, 0], [0, -1]]),
]
PSI = sp.diag(sp.cos(t / 2), sp.sin(t / 2))
KET = sp.Matrix([sp.cos(t / 2), 0, 0, sp.sin(t / 2)])


def born(a: sp.Matrix, b: sp.Matrix) -> sp.Expr:
    """<psi| a x b |psi> of the theta-ket, from the 4x4 tensor product."""
    return (KET.H * sp.kronecker_product(a, b) * KET)[0, 0]


@cache
def eta() -> sp.Matrix:
    """The Pauli table <sigma_mu x sigma_nu> of the theta-ket, entries simplified."""
    return sp.Matrix(4, 4, lambda m, n: sp.trigsimp(born(PAULIS[m], PAULIS[n])))


def test_reconstruction_inverts_the_born_map():
    # E = D ((1/2) sum_nu <E x sigma_nu> sigma_nu^T) D for every Hermitian E, D = Psi^-1
    a, b, c, d = sp.symbols("a b c d", real=True)
    e = sp.Matrix([[a, b + sp.I * c], [b - sp.I * c, d]])
    inner = sum((born(e, s) * s.T for s in PAULIS), sp.zeros(2, 2)) / 2
    assert sp.expand(PSI.inv() * inner * PSI.inv() - e) == sp.zeros(2, 2)
    # the same correlations read through Psi: <E x B> = Tr[Psi E Psi B^T]
    for s in PAULIS:
        assert sp.expand(born(e, s) - (PSI * e * PSI * s.T).trace()) == 0


def test_eta_pattern_and_determinant():
    s, c = sp.sin(t), sp.cos(t)
    expected = sp.Matrix([[1, 0, 0, c], [0, s, 0, 0], [0, 0, -s, 0], [c, 0, 0, 1]])
    table = eta()
    assert sp.simplify(table - expected) == sp.zeros(4, 4)
    assert sp.simplify(table.det() + s**4) == 0


@pytest.mark.parametrize("theta", [1e-3, 0.1, 0.8, np.pi / 2])
def test_float_eta_matches_exact(theta):
    exact = np.array(eta().subs(t, theta).evalf(), dtype=complex)
    assert np.max(np.abs(tg.eta_matrix(theta) - exact)) <= 1e-15
