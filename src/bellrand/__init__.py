"""Randomness certification numerics for partially entangled two-qubit Bell tests.

Submodules
----------
matkernel   dense complex-matrix primitives (kron, partial trace, eigh, ...)
qobjects    states, observables, POVM families and their reports
belltest    angle-batched Bell values, spectral self-tests and outcome tables
tomography  POVM reconstruction, off-diagonal operators, ancilla dilations
adversary   conjugation attack, qubit reduction, min-entropy cap
cli         command-line reports (selftest / certify / attack / sweep)
"""

from . import adversary, belltest, matkernel, qobjects, tomography

# The one package-level name: bench/tests/test_harness.py reads bellrand.theta_of_beta.
from .belltest import theta_of_beta

__version__ = "0.1.0"
