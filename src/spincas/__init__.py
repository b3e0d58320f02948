"""Exact split-Casimir engine for even orthogonal algebras in spinor
representations: gamma-matrix construction, independent algebra oracles,
spectral decomposition, colour factors, and rational R-matrices, all over
Q(i) with zero tolerance.
"""

from ._backend import BACKEND
from .linalg import ExactMatrix, kron, partial_trace
from .scalar import ExactScalar, Rat

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "ExactMatrix",
    "ExactScalar",
    "Rat",
    "kron",
    "partial_trace",
    "__version__",
]
