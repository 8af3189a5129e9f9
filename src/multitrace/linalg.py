"""Dense linear algebra substrate.

Thin, contract-enforcing wrappers around LAPACK for the small-to-medium
dense problems of discretized multitrace operators.  A matrix goes to
scipy's drivers, called directly in the precision scipy picks for the
same arrays, so its results equal scipy's bit for bit without its
per-call wrapper cost.  A stack of Fourier modes goes to numpy's batched
``solve`` and ``eigvals``, which link numpy's own LAPACK build; their
results may differ from scipy's in the last bits.
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


def _as_square(A, name="A", stacked=False):
    A = np.asarray(A)           # a stack (K, r, r) of modes if stacked
    if (A.ndim not in (2, 2 + stacked) or A.shape[-2] != A.shape[-1]
            or A.size == 0):
        raise ValueError(f"{name} must be square and non-empty, got {A.shape}")
    if A.shape[-1] > DIMENSION_CAP:
        raise ValueError(
            f"{name} has dimension {A.shape[-1]} beyond the cap {DIMENSION_CAP}"
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


def _check_lu(A, name):
    """:func:`_check_pivots` of the LU of ``A``, or of each mode of a stack
    ``A`` from one driver lookup, a failing ``A[k]`` rejected as ``name in
    mode k``."""
    getrf, = get_lapack_funcs(("getrf",), (A,))
    modes = A if A.ndim == 3 else A[None]
    diag = np.abs([getrf(a)[0].diagonal() for a in modes])
    tol = A.shape[-1] * np.finfo(float).eps * diag.max(axis=1)
    for k in np.flatnonzero(diag.min(axis=1) <= tol):
        _check_pivots(diag[k], f"{name} in mode {k}" if A.ndim == 3
                      else name)


def _solve_checked(A, B, name):
    """``A^-1 B`` by pivoted LU, rejected at a noise-level pivot of ``A``;
    a stack is checked per mode, then solved in one batch."""
    if A.ndim == 3:
        _check_lu(A, name)
        return np.linalg.solve(A, B)
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

    ``B`` may be a vector or a matrix of right-hand sides, per mode for a
    stack ``A``.  Raises :class:`SingularMatrixError` with the offending
    pivot magnitude when ``A`` is singular to working precision; errors
    call ``A`` by ``name`` (``A[k]`` by ``name in mode k``).
    """
    A = _as_square(A, name, stacked=True)
    B = np.asarray(B)
    vector_rhs = B.ndim == A.ndim - 1
    if vector_rhs:
        B = B[..., None]
    if B.shape[:-1] != A.shape[:-1]:
        raise ValueError(f"rhs rows {B.shape[-2]} != matrix dimension {A.shape[-1]}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B contains non-finite entries")
    X = _solve_checked(A, B, name)
    return X[..., 0] if vector_rhs else X


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

    Stacks ``(K, r, r)`` of Fourier-mode pencils give eigenvalues ``(K,
    r)``, a singular ``B[k]`` named ``B in mode k``; modes ``K - k`` that
    conjugate modes k, as for real matrices, take conjugate eigenvalues.
    """
    A = _as_square(A, "A", stacked=True)
    B = _as_square(B, "B", stacked=True)
    if A.shape != B.shape:
        raise ValueError(f"pencil shapes differ: {A.shape} vs {B.shape}")
    if A.ndim == 2:
        C = _as_square(_solve_checked(B, A, "B"), "B^-1 A")
        return _eig(C, compute_vectors, A, B)
    if compute_vectors:
        raise ValueError("a stack of pencils returns no eigenvectors")
    K = len(A)
    half = (K // 2 + 1 if all(np.array_equal(X[1:], X[:0:-1].conj())
                              for X in (A, B)) else K)
    w = np.linalg.eigvals(_as_square(_solve_checked(B[:half], A[:half], "B"),
                                     "B^-1 A", stacked=True))
    return EigenResult(np.concatenate([w, w[1:K - half + 1][::-1].conj()]),
                       None, 0.0)


def _residual(A, w, v, B=None):
    """Largest relative residual of ``A v = w B v`` over the columns of
    ``v``; ``B`` defaults to the identity."""
    r = A @ v - (v if B is None else B @ v) * w[None, :]
    return float(np.max(np.linalg.norm(r, axis=0) / np.linalg.norm(v, axis=0)))

