"""Generalized Robertson positive maps and their entanglement witnesses.

Construction of the map family on 4N x 4N matrices parametrized by an
antisymmetric unitary, the associated Choi-matrix witnesses, the explicit
PPT entangled states they detect, and mechanical certificates for
positivity, nondecomposability, optimality, self-duality and the
entanglement-breaking property of the structural physical approximation.
Each function is reached through its module: ``maps``, ``witnesses``,
``states``, ``certify``, ``linalg`` and ``cli``.
"""

# The one package-level name: bench/test_bench.py:202,209 reads robwit.hermitian_eig.
from .linalg import hermitian_eig

__version__ = "0.1.0"
