"""Local multitrace formulations for -u'' + a^2 u = 0 and their solvers.

Subpackages and modules:

``linalg``
    Dense solves and (generalized) eigenvalue computation.
``line1d``
    Exact engine on the real line: Green's function, representation
    formulas, Calderon projectors, and the multitrace system and block
    Jacobi iteration of a line of any number of subdomains.
``interval1d``
    Bounded interval (0, 1) split at gamma: closed-form transmission
    solve, projectors, DtN/NtD maps and the optimal Schwarz iteration.
``bem2d``
    2D Galerkin boundary elements for -Laplace + a^2 on closed curves:
    layer operators, discrete Calderon projectors, cross-curve coupling.
``spectra``
    Jacobi iteration operators built from projectors, their spectra,
    relaxation sweeps and cluster diagnostics.
``cli``
    Command line front end emitting CSV/JSON artifacts.
"""

from . import linalg, line1d, interval1d, bem2d, spectra

__all__ = ["linalg", "line1d", "interval1d", "bem2d", "spectra"]
__version__ = "0.1.0"
