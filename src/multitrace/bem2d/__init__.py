"""2D Galerkin boundary elements for -Laplace + a^2 on closed curves."""

from .assembly import (MAX_QUAD_ORDER, BemOperatorSet, DiscreteCalderon,
                       KernelParams, assemble_calderon_2d, assemble_coupling,
                       assemble_operators, cross_block)
from .mesh import BoundaryMesh, make_circle, make_square, make_three_domain
from .quadrature import gauss01, log_gauss01

__all__ = [
    "BemOperatorSet", "BoundaryMesh", "DiscreteCalderon", "KernelParams",
    "MAX_QUAD_ORDER", "assemble_calderon_2d", "assemble_coupling",
    "assemble_operators", "cross_block", "gauss01", "log_gauss01",
    "make_circle", "make_square", "make_three_domain",
]
