"""Test helpers shared across the suite."""

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import i0, i1, k0, k1

from multitrace.bem2d import BoundaryMesh
from multitrace.bem2d.quadrature import gauss01
from multitrace.line1d import (JumpData, jacobi_operator_2dom,
                               jacobi_operator_3dom)
from multitrace.linalg import eig_dense
from multitrace.spectra import summarize_spectrum
from oracle_kernels import (kernel_2d, kernel_gradient_dot,
                            kernel_hessian_bilinear)


def match_multisets(values, reference, tol, label=""):
    """Assert two complex multisets agree within ``tol`` by optimal pairing.

    Returns the maximum matched distance.  Uses a minimax assignment so
    the comparison is robust to ordering of nearly-tied values.
    """
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if values.shape != reference.shape:
        raise ValueError(
            f"multiset sizes differ{': ' + label if label else ''}: "
            f"{values.shape} vs {reference.shape}"
        )
    cost = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max()) if values.size else 0.0
    if worst > tol:
        raise AssertionError(
            f"multisets differ{': ' + label if label else ''}: "
            f"max matched distance {worst:.3e} > {tol:.1e}"
        )
    return worst


def line_spectrum(a, sigmas, eps=0.05):
    """Spectrum of the exact line operator with zero jump data: two
    subdomains ``(s1, s2)`` or three ``(s0, s1, s2)``, middle first."""
    zero = JumpData(0.0, 0.0)
    op = (jacobi_operator_2dom(a, *sigmas, zero) if len(sigmas) == 2
          else jacobi_operator_3dom(a, *sigmas, zero, zero))
    return summarize_spectrum(eig_dense(op.matrix).eigenvalues, sigmas, eps)


def trace_flip(n):
    """Dense matrix of the trace flip (v, q) -> (v, -q) on n nodes."""
    return np.diag(np.r_[np.ones(n), -np.ones(n)])


def without_group(mesh):
    """The nodes of ``mesh`` as a new mesh that declares no rotation group,
    so assembly integrates every element pair: the per-pair path."""
    return BoundaryMesh(mesh.nodes)


def _gauss_points(mesh, s):
    return (mesh.nodes[:, None, :]
            + s[None, :, None] * mesh.directions[:, None, :])


def _pair_integrals(ker, w, bas, L_rows, L_cols):
    """Tensor-Gauss pairing of pointwise kernel values as one
    five-operand einsum, its contraction order chosen by numpy."""
    loc = np.einsum("k,l,kp,lq,ekfl->efpq", w, w, bas, bas, ker,
                    optimize=True)
    return (L_rows[:, None] * L_cols[None, :])[:, :, None, None] * loc


def smooth_pair_tables_reference(mesh, a, order, pool=None):
    """Slow reference of ``assembly._smooth_pair_tables``: the pointwise
    kernels of ``kernels`` evaluated on all point pairs at once (zero at
    coincident points, which only self pairs have), in the calling thread
    (``pool`` is ignored).  Self and adjacent blocks hold their smooth
    integrals, which the singular tables overwrite."""
    s, w = gauss01(order)
    bas = np.column_stack([1.0 - s, s])
    pts = _gauss_points(mesh, s)
    d = pts[:, :, None, None, :] - pts[None, None, :, :, :]
    r = np.linalg.norm(d, axis=-1)
    keep = r > 0
    r_safe = np.where(keep, r, 1.0)
    # d/dn(y) G(x - y) is minus the offset gradient along n(y)
    dlp = -kernel_gradient_dot(a, d, r_safe, mesh.normals[None, None, :, None, :])
    L = mesh.lengths
    return (_pair_integrals(np.where(keep, kernel_2d(a, r_safe), 0.0),
                            w, bas, L, L),
            _pair_integrals(np.where(keep, dlp, 0.0), w, bas, L, L))


def cross_block_reference(obs_mesh, src_mesh, a, obs_normal_sign,
                          src_normal_sign, quad_order=8):
    """Slow reference of ``assembly.cross_block`` from the pointwise
    kernels: one K0/K1 evaluation per kernel and block."""
    s, w = gauss01(quad_order)
    bas = np.column_stack([1.0 - s, s])
    d = (_gauss_points(obs_mesh, s)[:, :, None, None, :]
         - _gauss_points(src_mesh, s)[None, None, :, :, :])
    r = np.linalg.norm(d, axis=-1)
    no = obs_normal_sign * obs_mesh.normals[:, None, None, None, :]
    ns = src_normal_sign * src_mesh.normals[None, None, :, None, :]
    kernels = (kernel_gradient_dot(a, d, r, ns), kernel_2d(a, r),
               kernel_hessian_bilinear(a, d, r, no, ns),
               kernel_gradient_dot(a, d, r, no))
    n_o, n_s = obs_mesh.n_nodes, src_mesh.n_nodes
    R = np.zeros((2 * n_o, 2 * n_s))
    els_o, els_s = obs_mesh.elements, src_mesh.elements
    for (ri, ci), ker in zip(((0, 0), (0, 1), (1, 0), (1, 1)), kernels):
        loc = _pair_integrals(ker, w, bas, obs_mesh.lengths, src_mesh.lengths)
        I = np.broadcast_to(els_o[:, None, :, None], loc.shape)
        J = np.broadcast_to(els_s[None, :, None, :], loc.shape)
        np.add.at(R, (ri * n_o + I, ci * n_s + J), loc)
    return R


def k0_smooth_remainder(z):
    """``C0(z) = K0(z) + log(z) I0(z)``, entire and even in ``z``."""
    return k0(z) + np.log(z) * i0(z)


def k1_smooth_remainder(z):
    """``C1(z) = K1(z) - 1/z - log(z) I1(z)``, entire and odd in ``z``."""
    return k1(z) - 1.0 / z - np.log(z) * i1(z)
