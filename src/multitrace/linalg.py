"""Dense linear algebra substrate.

Thin, contract-enforcing wrappers around LAPACK (through scipy) for the
small-to-medium dense problems that arise when discretized multitrace
operators are solved or their spectra computed.  Real input stays in
real arithmetic (eigenvalues of real matrices then come in exact
conjugate pairs); complex input, as from complex relaxation parameters,
takes the complex LAPACK path.  Every function is pure (inputs are never
mutated), so concurrent use is safe.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


# Dense eigendecompositions beyond this size are out of scope; every
# desk-scale experiment in this package stays well below it.
DIMENSION_CAP = 4000


class SingularMatrixError(np.linalg.LinAlgError):
    """Matrix is singular to working precision."""

    def __init__(self, message, pivot_magnitude=None):
        super().__init__(message)
        self.pivot_magnitude = pivot_magnitude


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues (and optionally right eigenvectors) of a dense problem.

    ``residual_norm`` is ``max_i ||A v_i - lambda_i v_i|| / ||v_i||``
    (or the pencil analogue) when eigenvectors were requested, else 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_norm: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("non-finite eigenvalues in result")


def _as_square(A, name="A"):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] > DIMENSION_CAP:
        raise ValueError(
            f"{name} has dimension {A.shape[0]} beyond the cap {DIMENSION_CAP}"
        )
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A.astype(np.result_type(A, float), copy=False)


def _lu_checked(A, name):
    """Pivoted LU factors of ``A``, rejected when the smallest pivot is
    at noise level."""
    # singularity is reported below with its pivot; scipy's own advisory
    # warning would only duplicate it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    diag = np.abs(np.diag(lu))
    scale = diag.max() if diag.size else 0.0
    tol = lu.shape[0] * np.finfo(float).eps * scale
    if scale == 0.0 or diag.min() <= tol:
        raise SingularMatrixError(
            f"{name} is singular to working precision "
            f"(smallest pivot magnitude {diag.min():.3e})",
            pivot_magnitude=float(diag.min()),
        )
    return lu, piv


def solve_dense(A, B):
    """Solve ``A X = B`` by pivoted LU factorization.

    ``B`` may be a vector or a matrix of right-hand sides.  Raises
    :class:`SingularMatrixError` with the offending pivot magnitude when
    ``A`` is singular to working precision.
    """
    A = _as_square(A)
    B = np.asarray(B)
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B[:, None]
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"rhs rows {B.shape[0]} != matrix dimension {A.shape[0]}")
    X = scipy.linalg.lu_solve(_lu_checked(A, "A"), B)
    return X[:, 0] if vector_rhs else X


def eig_dense(A, compute_vectors=False):
    """All eigenvalues of a dense (possibly nonsymmetric) matrix.

    Uses the LAPACK Hessenberg + shifted-QR path, in real arithmetic for
    real input, whose eigenvalues then come out in exact conjugate pairs.
    """
    A = _as_square(A)
    if compute_vectors:
        w, v = scipy.linalg.eig(A, right=True)
        res = _residual(A, w, v)
        return EigenResult(w, v, res)
    w = scipy.linalg.eigvals(A)
    return EigenResult(w, None, 0.0)


def eig_generalized(A, B, compute_vectors=False):
    """Eigenvalues of the pencil ``A v = lambda B v`` for invertible ``B``.

    Solved as the eigenproblem of ``B^{-1} A``, formed from the one
    pivot-checked LU of ``B``; real pencils stay real.  For the
    well-conditioned mass-type ``B`` of this package this agrees with the
    QZ algorithm (``scipy.linalg.eigvals(A, B)``), which the tests keep
    as the independent oracle.  Raises :class:`SingularMatrixError` when
    ``B`` is singular to working precision.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"pencil shapes differ: {A.shape} vs {B.shape}")
    C = scipy.linalg.lu_solve(_lu_checked(B, "B"), A)
    if compute_vectors:
        w, v = scipy.linalg.eig(C, right=True)
        res = _residual(A, w, v, B)
        return EigenResult(w, v, res)
    w = scipy.linalg.eigvals(C)
    return EigenResult(w, None, 0.0)


def _residual(A, w, v, B=None):
    """Largest relative residual of ``A v = w B v`` over the columns of
    ``v``; ``B`` defaults to the identity."""
    r = A @ v - (v if B is None else B @ v) * w[None, :]
    return float(np.max(np.linalg.norm(r, axis=0) / np.linalg.norm(v, axis=0)))

