import warnings

import numpy as np
import pytest
import scipy.linalg

from multitrace import linalg
from multitrace.linalg import (DIMENSION_CAP, SingularMatrixError, eig_dense,
                               eig_generalized, solve_dense)
from helpers import match_multisets


def test_solve_identity():
    B = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    X = solve_dense(np.eye(3), B)
    assert np.allclose(X, B, atol=0, rtol=0)


def test_solve_diagonal_inverse():
    X = solve_dense(np.diag([2.0, 4.0]), np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.25]), atol=1e-15)


def test_solve_recovers_constructed_solution():
    rng = np.random.default_rng(7)
    A = np.eye(10) + 0.1 * rng.standard_normal((10, 10))
    X = rng.standard_normal((10, 3))
    B = A @ X
    assert np.max(np.abs(solve_dense(A, B) - X)) < 1e-12


def test_solve_reports_singularity_with_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        solve_dense(A, np.ones(2))
    assert err.value.pivot_magnitude is not None
    assert err.value.pivot_magnitude < 1e-12


def test_solve_roundtrip_well_conditioned():
    rng = np.random.default_rng(3)
    for n in (5, 40):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # condition number <= 1e6 by construction
        A = q1 @ np.diag(np.geomspace(1.0, 1e6, n)) @ q2
        b = rng.standard_normal(n)
        x = solve_dense(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_eig_symmetric_exchange():
    res = eig_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    match_multisets(res.eigenvalues, [1.0, -1.0], 1e-14)


def test_eig_companion_cube_roots_of_unity():
    C = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = np.exp(2j * np.pi / 3)
    match_multisets(eig_dense(C).eigenvalues, [1.0, w, w ** 2], 1e-12)


def test_eig_jacobi_line_operator_value():
    from multitrace import line1d
    op = line1d.jacobi_operator_2dom(1.0, 0.1, 0.1, line1d.JumpData(0, 0))
    ref = [0.30151134457776363, 0.30151134457776363,
           -0.30151134457776363, -0.30151134457776363]
    match_multisets(eig_dense(op.matrix).eigenvalues, ref, 1e-6)


def test_eig_residual_norm():
    rng = np.random.default_rng(11)
    for n in (20, 120):
        A = rng.standard_normal((n, n))
        res = eig_dense(A, compute_vectors=True)
        assert res.residual_norm <= 1e-8 * np.linalg.norm(A, 2)
        assert len(res.eigenvalues) == n


def test_eig_conjugate_pairs_for_real_input():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 12))
    w = eig_dense(A).eigenvalues
    match_multisets(w, np.conj(w), 1e-10)


def test_eig_generalized_identity_mass():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((15, 15))
    w1 = eig_generalized(A, np.eye(15)).eigenvalues
    w2 = eig_dense(A).eigenvalues
    match_multisets(w1, w2, 1e-10)


def test_eig_generalized_proportional_pencil():
    rng = np.random.default_rng(6)
    B = np.eye(8) + 0.2 * rng.standard_normal((8, 8))
    w = eig_generalized(2.0 * B, B).eigenvalues
    assert np.max(np.abs(w - 2.0)) < 1e-10


def test_eig_generalized_constructed_pencil():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((3, 3))
    B = G @ G.T + 3.0 * np.eye(3)
    A = B @ np.diag([1.0, 2.0, 3.0])
    match_multisets(eig_generalized(A, B).eigenvalues, [1.0, 2.0, 3.0], 1e-10)


def test_eig_generalized_real_pencil_stays_real():
    # real arithmetic gives complex eigenvalues in exact conjugate pairs
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 30))
    B = np.eye(30) + 0.2 * rng.standard_normal((30, 30))
    w = eig_generalized(A, B).eigenvalues
    assert np.count_nonzero(w.imag) >= 2
    np.testing.assert_array_equal(np.sort_complex(w),
                                  np.sort_complex(np.conj(w)))
    match_multisets(w, scipy.linalg.eigvals(A, B), 1e-10)


def test_complex_input_takes_the_complex_lapack_path():
    # complex operators (all of the 1D engines) reach LAPACK unchanged
    from multitrace import line1d
    rng = np.random.default_rng(12)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    np.testing.assert_array_equal(
        solve_dense(A, b),
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b[:, None])[:, 0])
    np.testing.assert_array_equal(
        solve_dense(A, b.real),
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(A),
                              b.real.astype(complex)))
    op = line1d.jacobi_operator_3dom(1.0, 0.4, -0.3, 1.1,
                                     line1d.JumpData(1.0, 0.5),
                                     line1d.JumpData(0.0, 1.0))
    assert op.matrix.dtype == complex
    for M in (A, op.matrix):
        np.testing.assert_array_equal(eig_dense(M).eigenvalues,
                                      scipy.linalg.eigvals(M))


def test_lapack_drivers_match_scipy_bitwise():
    # the drivers are called in the precision scipy picks for the same
    # arrays, so mixed real/complex input gives scipy's result exactly
    rng = np.random.default_rng(14)
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    B = np.eye(7) + 0.2 * rng.standard_normal((7, 7))
    A256 = rng.standard_normal((256, 256))
    B256 = np.eye(256) + 0.05 * rng.standard_normal((256, 256))
    for A_, B_ in ((A, B), (A256, B256)):
        reduced = scipy.linalg.lu_solve(scipy.linalg.lu_factor(B_), A_)
        np.testing.assert_array_equal(eig_generalized(A_, B_).eigenvalues,
                                      scipy.linalg.eigvals(reduced))
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    np.testing.assert_array_equal(
        solve_dense(B, b), scipy.linalg.lu_solve(scipy.linalg.lu_factor(B), b))


def test_exactly_singular_matrix_reports_zero_pivot_silently():
    # getrf meets an exactly zero pivot (info > 0) and emits no warning
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as err:
            solve_dense(A, np.ones(2))
    assert err.value.pivot_magnitude == 0.0


def test_lapack_failure_raises(monkeypatch):
    lookup = linalg.get_lapack_funcs

    def failing_geev(names, arrays):
        if names != ("geev",):
            return lookup(names, arrays)
        geev, = lookup(names, arrays)
        return (lambda *args, **kwargs: (*geev(*args, **kwargs)[:-1], 1),)

    monkeypatch.setattr(linalg, "get_lapack_funcs", failing_geev)
    A = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
        eig_dense(A)
    with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
        eig_generalized(A, np.eye(3))


def test_eig_generalized_rejects_singular_mass():
    A = np.eye(3)
    B = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularMatrixError):
        eig_generalized(A, B)


def test_eig_generalized_pencil_residual():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((25, 25))
    B = np.eye(25) + 0.1 * rng.standard_normal((25, 25))
    res = eig_generalized(A, B, compute_vectors=True)
    assert res.residual_norm < 1e-8 * np.linalg.norm(A, 2)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        eig_dense(np.zeros((0, 0)))


def test_dimension_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        eig_dense(np.zeros((DIMENSION_CAP + 1, DIMENSION_CAP + 1)))


def test_nonfinite_rejected():
    A = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        solve_dense(A, np.ones(2))
    with pytest.raises(ValueError, match="B contains non-finite"):
        solve_dense(np.eye(2), np.array([1.0, np.inf]))


def test_eig_generalized_stack_matches_each_pencil():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    B = np.eye(4) + 0.1 * rng.standard_normal((3, 4, 4))
    w = eig_generalized(A, B).eigenvalues
    assert w.shape == (3, 4)
    for k in range(3):
        match_multisets(w[k], scipy.linalg.eigvals(A[k], B[k]), 1e-12)


@pytest.mark.parametrize("K", [1, 2, 5, 6])
def test_eig_generalized_stack_of_conjugate_modes(K, monkeypatch):
    # mode K - k the conjugate of mode k: modes 0 .. K // 2 are solved,
    # and the others take the conjugate eigenvalues
    rng = np.random.default_rng(K)
    half = K // 2 + 1
    A, B = (rng.standard_normal((half, 4, 4))
            + 1j * rng.standard_normal((half, 4, 4)) for _ in range(2))
    B += 4 * np.eye(4)
    if K % 2 == 0:                  # the middle mode is its own conjugate
        A[-1], B[-1] = A[-1].real, B[-1].real
    A, B = (np.concatenate([X, X[1:(K + 1) // 2][::-1].conj()])
            for X in (A, B))
    solved = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda C: solved.append(len(C)) or eigvals(C))
    w = eig_generalized(A, B).eigenvalues
    assert solved == [half] and w.shape == (K, 4)
    for k in range(K):
        match_multisets(w[k], scipy.linalg.eigvals(A[k], B[k]), 1e-12)


def test_eig_generalized_stack_name_the_singular_mode():
    B = np.stack([np.eye(3), np.eye(3), np.diag([1.0, 1.0, 1e-17])])
    with pytest.raises(SingularMatrixError, match="B in mode 2") as err:
        eig_generalized(np.ones((3, 3, 3)), B)
    assert err.value.pivot_magnitude == 1e-17


@pytest.mark.parametrize("name", ["A", "B"])
def test_eig_generalized_stack_reject_non_finite_input(name):
    stacks = {"A": np.ones((2, 3, 3)), "B": np.stack([np.eye(3)] * 2)}
    stacks[name][1, 0, 2] = np.nan
    with pytest.raises(ValueError, match=f"{name} contains non-finite"):
        eig_generalized(stacks["A"], stacks["B"])


def test_eig_generalized_stack_returns_no_vectors():
    with pytest.raises(ValueError, match="no eigenvectors"):
        eig_generalized(np.ones((2, 3, 3)), np.stack([np.eye(3)] * 2),
                        compute_vectors=True)


def test_solve_dense_stack_names_the_singular_mode():
    rng = np.random.default_rng(2)
    A = np.eye(3) + 0.1 * rng.standard_normal((4, 3, 3))
    B = rng.standard_normal((4, 3, 2))
    X = solve_dense(A, B, "block")
    for k in range(4):
        np.testing.assert_allclose(A[k] @ X[k], B[k], atol=1e-13)
    np.testing.assert_allclose(solve_dense(A, B[..., 0]), X[..., 0],
                               atol=1e-15)
    A[1, 2] = A[1, 0]
    with pytest.raises(SingularMatrixError, match="^block in mode 1 is"):
        solve_dense(A, B, "block")
