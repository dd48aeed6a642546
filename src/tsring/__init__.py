"""Exact computation in trivial-source bimodule class rings.

The model is the semidirect product G = D ⋊ E with D cyclic of order
p^n and E the order-e subgroup of Aut(D), e dividing p - 1.  The package
constructs the ring of perfect bimodule classes of the model group with
exact coefficients, cross-checks its closed-form multiplication against
a coset-enumeration oracle, and mechanically verifies the idempotent and
block structure of the ring and of its scalar extensions.

The package root exports the numpy-free model (`tsring.model`); the ring
itself is `tsring.tring.tring`.
"""

from .model import ModelParams, NonProj, ProjPair, build_basis, make_params

__all__ = ["ModelParams", "make_params", "NonProj", "ProjPair", "build_basis"]

__version__ = "0.1.0"
