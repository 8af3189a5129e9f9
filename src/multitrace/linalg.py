"""Dense linear algebra substrate.

Thin, contract-enforcing wrappers around LAPACK for the small-to-medium
dense problems of discretized multitrace operators.  The drivers are
called directly, in the precision scipy picks for the same arrays, so
results equal scipy's bit for bit without its per-call wrapper cost.
Real input stays in real arithmetic (eigenvalues of real matrices then
come in exact conjugate pairs); complex input, as from complex
relaxation parameters, takes the complex LAPACK path.  Every function is
pure (inputs are never mutated), so concurrent use is safe.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs


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
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"{name} must be square and non-empty, got {A.shape}")
    if A.shape[0] > DIMENSION_CAP:
        raise ValueError(
            f"{name} has dimension {A.shape[0]} beyond the cap {DIMENSION_CAP}"
        )
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A.astype(np.result_type(A, float), copy=False)


def _lapack(name, arrays, *args, **kwargs):
    driver, = get_lapack_funcs((name,), arrays)
    *out, info = driver(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {driver.__name__} info = {info}")
    return out


def _check_pivots(diag, name):
    """Reject ``name`` at a pivot magnitude ``<= dim x eps x`` the largest."""
    scale = diag.max()
    if scale == 0.0 or diag.min() <= len(diag) * np.finfo(float).eps * scale:
        raise SingularMatrixError(
            f"{name} is singular to working precision "
            f"(smallest pivot magnitude {diag.min():.3e})",
            pivot_magnitude=float(diag.min()),
        )


def _solve_checked(A, B, name):
    """``A^-1 B`` by pivoted LU, rejected at a noise-level pivot of ``A``."""
    # getrf's info > 0 is an exactly zero pivot: the test below rejects it
    lu, piv, _ = get_lapack_funcs(("getrf",), (A,))[0](A)
    _check_pivots(np.abs(np.diag(lu)), name)
    X, = _lapack("getrs", (lu, B), lu, piv, B)
    return X


def _eig(C, compute_vectors, A, B=None):
    """Eigenvalues (and vectors) of ``C``, the pencil ``(A, B)`` reduced;
    real ``geev`` returns the eigenvalues as real and imaginary parts."""
    if compute_vectors:
        w, v = scipy.linalg.eig(C, right=True)
        return EigenResult(w, v, _residual(A, w, v, B))
    lwork, = _lapack("geev_lwork", (C,), len(C), compute_vl=0, compute_vr=0)
    *w, _, _ = _lapack("geev", (C,), C, compute_vl=0, compute_vr=0,
                       lwork=int(lwork.real))
    return EigenResult(w[0] if len(w) == 1 else w[0] + 1j * w[1], None, 0.0)


def solve_dense(A, B, name="A"):
    """Solve ``A X = B`` by pivoted LU factorization.

    ``B`` may be a vector or a matrix of right-hand sides.  Raises
    :class:`SingularMatrixError` with the offending pivot magnitude when
    ``A`` is singular to working precision; errors call ``A`` by ``name``.
    """
    A = _as_square(A, name)
    B = np.asarray(B)
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B[:, None]
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"rhs rows {B.shape[0]} != matrix dimension {A.shape[0]}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B contains non-finite entries")
    X = _solve_checked(A, B, name)
    return X[:, 0] if vector_rhs else X


def eig_dense(A, compute_vectors=False):
    """All eigenvalues of a dense (possibly nonsymmetric) matrix.

    Uses the LAPACK Hessenberg + shifted-QR path, in real arithmetic for
    real input, whose eigenvalues then come out in exact conjugate pairs.
    """
    A = _as_square(A)
    return _eig(A, compute_vectors, A)


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
    C = _as_square(_solve_checked(B, A, "B"), "B^-1 A")
    return _eig(C, compute_vectors, A, B)


def eig_modes(A, B):
    """Eigenvalues of the pencils ``(A[k], B[k])`` of two equal stacks, one
    row per Fourier mode ``k``: the checks of :func:`eig_generalized` on
    each, a singular ``B[k]`` named by its mode, then one batched solve."""
    return np.linalg.eigvals(np.stack([
        _solve_checked(_as_square(b, "B"), _as_square(a, "A"),
                       f"B of mode {k}") for k, (a, b) in enumerate(zip(A, B))]))


def _residual(A, w, v, B=None):
    """Largest relative residual of ``A v = w B v`` over the columns of
    ``v``; ``B`` defaults to the identity."""
    r = A @ v - (v if B is None else B @ v) * w[None, :]
    return float(np.max(np.linalg.norm(r, axis=0) / np.linalg.norm(v, axis=0)))

