"""Galerkin assembly of boundary integral operators on closed polylines.

Continuous P1 trial and test spaces are used for both the Dirichlet and
the Neumann trace component, so all blocks are square.  Element pairs
are integrated with tensor Gauss-Legendre rules except where the kernel
is singular:

* coincident pairs: the kernel is split into ``-log(r) I0(ar)/(2 pi)``
  plus a smooth remainder; the log factor reduces to a 1D integral in
  ``|s - t|`` handled by a log-weighted Gauss rule,
* pairs sharing one node: a Duffy-type split into two triangles turns
  the distance into ``s * m(v)`` with smooth ``m``, so ``log s`` is
  again integrated by the log-weighted rule.

The hypersingular operator is assembled only in its integration-by-parts
regularized form (weak kernel, tangential derivatives of the basis), and
the adjoint double layer is the exact transpose of the double layer.

The tensor-Gauss sums over all element pairs (smooth pair tables and
cross-curve blocks) pair the kernel values with the weighted basis
``w[:, None] * basis`` in two BLAS contractions over the Gauss axes
(``_contract``).  Each point of a cross-curve block evaluates K0 and K1
once; the four coupling kernels (gradient along either normal, value,
Hessian bilinear form) are derived from those two values.

Per-pair contributions are independent and reduced into matrices with no
ordering dependence; assembled objects are immutable, so all routines
are safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import i0, i1, k0, k1

from .kernels import (TWO_PI, _check_a, k0_smooth_remainder,
                      k1_smooth_remainder)
from .quadrature import gauss01, log_gauss01

# Tangential derivative signs of the two nodal basis functions.
_DSIGN = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class KernelParams:
    """Material constant of one subdomain plus quadrature resolution."""

    a: float
    quad_order: int = 8

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.quad_order < 2:
            raise ValueError("quad_order must be at least 2")

    @property
    def singular_order(self):
        return self.quad_order + 4


@dataclass(frozen=True)
class BemOperatorSet:
    """Galerkin matrices of the four boundary operators plus the mass.

    ``single_layer`` and ``hypersingular`` are symmetric up to assembly
    tolerance; ``adj_double_layer`` is exactly the transpose of
    ``double_layer`` (valid since trial and test spaces coincide).
    """

    single_layer: np.ndarray
    double_layer: np.ndarray
    adj_double_layer: np.ndarray
    hypersingular: np.ndarray
    mass: np.ndarray
    mesh: object
    params: KernelParams


def mass_matrix(mesh):
    """P1 mass matrix of the polyline."""
    n, m = mesh.n_nodes, mesh.n_elements
    L = mesh.lengths
    loc = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    M = np.zeros((n, n))
    vals = L[:, None, None] * loc[None, :, :]
    I = np.broadcast_to(mesh.elements[:, :, None], (m, 2, 2))
    J = np.broadcast_to(mesh.elements[:, None, :], (m, 2, 2))
    np.add.at(M, (I, J), vals)
    return M


def _scatter(target, elements_rows, elements_cols, loc):
    I = np.broadcast_to(elements_rows[:, None, :, None], loc.shape)
    J = np.broadcast_to(elements_cols[None, :, None, :], loc.shape)
    np.add.at(target, (I, J), loc)


def _weighted_basis(s, w):
    """Gauss weight times nodal basis value, ``(q, 2)``."""
    return w[:, None] * np.column_stack([1.0 - s, s])


def _contract(ker, wb):
    """Tensor-Gauss pairing of kernel values with the weighted basis.

    ``ker[e, k, f, l]`` is the kernel at Gauss point ``k`` of element
    ``e`` and ``l`` of ``f``; returns the ``(e, f, 2, 2)`` blocks
    ``sum_kl wb[k, p] wb[l, q] ker[e, k, f, l]`` as two BLAS
    contractions over the Gauss axes.
    """
    t = np.tensordot(ker, wb, axes=(3, 0))                  # (e, k, f, q)
    return np.tensordot(t, wb, axes=(1, 0)).transpose(0, 1, 3, 2)


def _smooth_pair_tables(mesh, a, order, exclude_mask, chunk=64):
    """Tensor-Gauss V/K pair integrals for all non-excluded pairs.

    Returns ``(v_loc, k_loc)`` where ``v_loc[e, f]`` is the 2x2
    single-layer block of the ordered pair and ``k_loc`` the double-layer
    block (kernel ``d/dn(y) G``).
    """
    m = mesh.n_elements
    s, w = gauss01(order)
    wb = _weighted_basis(s, w)
    pts = mesh.first_nodes[:, None, :] + s[None, :, None] * mesh.directions[:, None, :]
    px, py = pts[..., 0], pts[..., 1]                        # (m, q)
    nx = mesh.normals[None, None, :, None, 0]
    ny = mesh.normals[None, None, :, None, 1]
    L = mesh.lengths
    LL = L[:, None] * L[None, :]

    v_loc = np.zeros((m, m, 2, 2))
    k_loc = np.zeros((m, m, 2, 2))
    for e0 in range(0, m, chunk):
        e1 = min(e0 + chunk, m)
        dx = px[e0:e1, :, None, None] - px[None, None, :, :]
        dy = py[e0:e1, :, None, None] - py[None, None, :, :]
        r = np.sqrt(dx * dx + dy * dy)
        keep = ~exclude_mask[e0:e1][:, None, :, None] & (r > 0)
        r_safe = np.where(r > 0, r, 1.0)
        v_loc[e0:e1] = _contract(
            np.where(keep, k0(a * r_safe) / TWO_PI, 0.0), wb)
        nd = dx * nx + dy * ny
        k_loc[e0:e1] = _contract(
            np.where(keep, (a / TWO_PI) * k1(a * r_safe) * nd / r_safe, 0.0),
            wb)
    v_loc *= LL[:, :, None, None]
    k_loc *= LL[:, :, None, None]
    return v_loc, k_loc


def _coincident_tables(mesh, a, order):
    """Singular self-pair single-layer blocks, vectorized over elements.

    Splits ``G(r) = smooth(r) - I0(ar) log|s - t| / (2 pi)`` on the
    reference square with ``r = L |s - t|``; the log part reduces to an
    integral over ``u = |s - t|`` against the log-weighted rule.
    """
    L = mesh.lengths
    m = len(L)
    qs = order
    su, wu = gauss01(qs)
    sv, wv = gauss01(qs + 1)       # distinct orders: nodes never coincide
    bu = np.column_stack([1.0 - su, su])
    bv = np.column_stack([1.0 - sv, sv])
    dif = su[:, None] - sv[None, :]
    r = L[:, None, None] * np.abs(dif)[None, :, :]
    z = a * r
    smooth = (k0_smooth_remainder(z) - np.log(a * L)[:, None, None] * i0(z)) / TWO_PI
    part_a = np.einsum("k,l,kp,lq,ekl->epq", wu, wv, bu, bv, smooth)

    ulog, wlog = log_gauss01(order)
    sw, ww = gauss01(order)
    # inner integral over the diagonal strip of width 1 - u
    wpts = (1.0 - ulog)[:, None] * sw[None, :]               # (nlog, q)
    f1 = wpts + ulog[:, None]                                # s = w + u
    i0u = i0(a * L[:, None] * ulog[None, :])                 # (m, nlog)
    bsum = (np.einsum("mk,mkp,mkq->mpq",
                      np.broadcast_to((1.0 - ulog)[:, None], wpts.shape) * ww,
                      _p1(f1), _p1(wpts))
            + np.einsum("mk,mkp,mkq->mpq",
                        np.broadcast_to((1.0 - ulog)[:, None], wpts.shape) * ww,
                        _p1(wpts), _p1(f1)))                 # (nlog, 2, 2)
    part_b = np.einsum("n,en,npq->epq", wlog, i0u, bsum) / TWO_PI
    return (L ** 2)[:, None, None] * (part_a + part_b)


def _p1(x):
    """Nodal basis values at parameters ``x``: stack of (1 - x, x)."""
    return np.stack([1.0 - x, x], axis=-1)


def _adjacent_pair_tables(d1, d2, L1, L2, n_src, a, order,
                          e_shared_first, f_shared_first):
    """V and K blocks for ordered adjacent pairs (vectorized over pairs).

    Both elements are parametrized from the shared node, so the distance
    on each Duffy triangle is ``s * m(v)`` with ``m(v) = |d1 - v d2|``
    bounded away from zero; ``log s`` goes to the log-weighted rule.
    """
    npair = len(L1)
    v_loc = np.zeros((npair, 2, 2))
    k_loc = np.zeros((npair, 2, 2))
    sg, wg = gauss01(order)
    ul, wl = log_gauss01(order)

    for first_triangle in (True, False):
        # triangle 1: (x, y) at (s, s v); triangle 2: at (t v, t)
        dd1, dd2 = (d1, d2) if first_triangle else (d2, d1)
        mv = dd1[:, None, :] - sg[None, :, None] * dd2[:, None, :]
        m = np.linalg.norm(mv, axis=-1)                      # (npair, qv)
        c = np.sum(n_src[:, None, :] * (
            (d1[:, None, :] - sg[None, :, None] * d2[:, None, :])
            if first_triangle else
            (sg[None, :, None] * d1[:, None, :] - d2[:, None, :])), axis=-1)

        # basis values; shared-node bookkeeping differs per pair
        def bb(outer_coord):
            n_out = len(outer_coord)
            grid_outer = np.broadcast_to(outer_coord[None, :, None],
                                         (npair, n_out, len(sg)))
            grid_inner = grid_outer * sg[None, None, :]
            se, tf = ((grid_outer, grid_inner) if first_triangle
                      else (grid_inner, grid_outer))
            be = np.where(e_shared_first[:, None, None, None],
                          _p1(se), _p1(se)[..., ::-1])
            bf = np.where(f_shared_first[:, None, None, None],
                          _p1(tf), _p1(tf)[..., ::-1])
            return be[..., :, None] * bf[..., None, :]

        # smooth part on the unit square in (outer, v)
        bb_g = bb(sg)                                        # (npair, qs, qv, 2, 2)
        r = sg[None, :, None] * m[:, None, :]
        z = a * r
        ker_v = (k0_smooth_remainder(z)
                 - np.log(a * m)[:, None, :] * i0(z)) / TWO_PI
        ker_k = ((c / m ** 2)[:, None, :] / TWO_PI
                 + (a / TWO_PI) * (c / m)[:, None, :] * sg[None, :, None]
                 * (np.log(a * m)[:, None, :] * i1(z) + k1_smooth_remainder(z)))
        wsq = wg[:, None] * wg[None, :]
        v_loc += np.einsum("kv,nkvpq,nkv->npq", wsq, bb_g,
                           ker_v * sg[None, :, None])
        k_loc += np.einsum("kv,nkvpq,nkv->npq", wsq, bb_g, ker_k)

        # log-in-outer-coordinate part (weight -log s)
        bb_l = bb(ul)
        rl = ul[None, :, None] * m[:, None, :]
        zl = a * rl
        wlq = wl[:, None] * wg[None, :]
        v_loc += np.einsum("kv,nkvpq,nkv->npq", wlq, bb_l,
                           i0(zl) * ul[None, :, None]) / TWO_PI
        k_loc += -np.einsum("kv,nkvpq,nkv->npq", wlq, bb_l,
                            (a / TWO_PI) * (c / m)[:, None, :]
                            * ul[None, :, None] * i1(zl))
    LL = (L1 * L2)[:, None, None]
    return LL * v_loc, LL * k_loc


def _adjacency(mesh):
    """Ordered adjacent pairs: (e, next(e)) and (e, prev(e))."""
    nxt = mesh.next_element()
    prv = np.empty_like(nxt)
    prv[nxt] = np.arange(mesh.n_elements)
    return nxt, prv


def assemble_operators(mesh, params):
    """Assemble single layer V, double layer K, adjoint K', regularized
    hypersingular W and the mass matrix on one mesh."""
    a = params.a
    m = mesh.n_elements
    nxt, prv = _adjacency(mesh)

    exclude = np.zeros((m, m), dtype=bool)
    ar = np.arange(m)
    exclude[ar, ar] = True
    exclude[ar, nxt] = True
    exclude[ar, prv] = True

    v_loc, k_loc = _smooth_pair_tables(mesh, a, params.quad_order, exclude)

    # coincident corrections (double layer vanishes on straight elements)
    v_loc[ar, ar] = _coincident_tables(mesh, a, params.singular_order)

    # adjacent corrections, both orientations: for f = next(e) the shared
    # node is e's end node and f's start node; for f = prev(e) the mirror
    nodes, els = mesh.nodes, mesh.elements
    L = mesh.lengths
    for f_idx, e_first in ((nxt, False), (prv, True)):
        f_first = not e_first
        shared = els[ar, 0] if e_first else els[ar, 1]
        other_e = els[ar, 1] if e_first else els[ar, 0]
        other_f = els[f_idx, 1] if f_first else els[f_idx, 0]
        d1 = nodes[other_e] - nodes[shared]
        d2 = nodes[other_f] - nodes[shared]
        v_adj, k_adj = _adjacent_pair_tables(
            d1, d2, L[ar], L[f_idx], mesh.normals[f_idx], a,
            params.singular_order,
            np.full(m, e_first), np.full(m, f_first))
        v_loc[ar, f_idx] = v_adj
        k_loc[ar, f_idx] = k_adj

    LL = L[:, None] * L[None, :]
    s0_full = v_loc.sum(axis=(2, 3)) / LL     # partition of unity
    nn = mesh.normals @ mesh.normals.T
    sgn = np.outer(_DSIGN, _DSIGN)
    w_loc = (s0_full[:, :, None, None] * sgn[None, None, :, :]
             + (a * a) * nn[:, :, None, None] * v_loc)

    n = mesh.n_nodes
    V = np.zeros((n, n))
    K = np.zeros((n, n))
    W = np.zeros((n, n))
    _scatter(V, els, els, v_loc)
    _scatter(K, els, els, k_loc)
    _scatter(W, els, els, w_loc)
    return BemOperatorSet(V, K, K.T.copy(), W, mass_matrix(mesh),
                          mesh, params)


@dataclass(frozen=True)
class DiscreteCalderon:
    """Galerkin matrix of a Calderon projector paired against P1 tests.

    ``P`` is the mass-paired matrix; the actual coefficient-space
    operator is ``M_block^{-1} P`` and is only approximately a projector
    (residual vanishing under mesh refinement).
    """

    P: np.ndarray
    M_block: np.ndarray
    side: str
    mesh: object
    params: KernelParams

    @property
    def dim(self):
        return self.P.shape[0]

    @property
    def curves(self):
        return (self.mesh,)

    def operator(self):
        """Coefficient-space operator ``M_block^{-1} P``."""
        return scipy.linalg.solve(self.M_block, self.P, assume_a="pos")

    def projector_residual(self):
        """Spectral norm of ``Q^2 - Q`` for ``Q = M_block^{-1} P``."""
        Q = self.operator()
        return float(np.linalg.norm(Q @ Q - Q, 2))


def assemble_calderon_2d(mesh, params, side="interior", operators=None):
    """Discrete Calderon projector of the region inside (or outside) the
    closed curve, with the jump-relation 1/2 carried by the mass block.

    For the exterior side the double-layer signs flip (the outward
    normal of the complement is the reverse of the mesh normal); single
    layer, hypersingular and mass blocks are orientation independent.
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    ops = operators if operators is not None else assemble_operators(mesh, params)
    if ops.mesh is not mesh:
        raise ValueError("operator set was assembled on a different mesh")
    if ops.params != params:
        raise ValueError(f"operator set was assembled with {ops.params}, "
                         f"not {params}")
    V, K, Kt, W, M = (ops.single_layer, ops.double_layer,
                      ops.adj_double_layer, ops.hypersingular, ops.mass)
    k = 1.0 if side == "interior" else -1.0     # double-layer sign
    M_block = scipy.linalg.block_diag(M, M)
    P = 0.5 * M_block + np.block([[-k * K, V], [W, k * Kt]])
    return DiscreteCalderon(P, M_block, side, mesh, params)


def cross_block(obs_mesh, src_mesh, a, obs_normal_sign=1.0,
                src_normal_sign=1.0, quad_order=8, chunk=64):
    """Trace-on-obs of the potential generated on a disjoint source curve.

    Returns the 2x2 block matrix pairing P1 tests on the observation
    curve with P1 densities on the source curve.  All kernels are smooth
    because the curves do not intersect, so plain tensor Gauss applies.
    The normal signs select the orientation of the common subdomain on
    each curve relative to the stored (outward of enclosed) normals.

    With ``g(r) = K0(a r) / (2 pi)``, ``g' = -a K1(a r) / (2 pi)`` and
    ``g'' = a^2 g - g' / r``, the four kernels are ``ns . grad g``
    (vv), ``g`` (vq), ``no^T Hess(g) ns`` (qv) and ``no . grad g`` (qq),
    all from one K0 and one K1 per point.
    """
    if obs_mesh is src_mesh:
        raise ValueError("cross blocks require two distinct curves")
    a = _check_a(a)
    s, w = gauss01(quad_order)
    wb = _weighted_basis(s, w)
    xo = obs_mesh.first_nodes[:, None, :] + s[None, :, None] * obs_mesh.directions[:, None, :]
    ys = src_mesh.first_nodes[:, None, :] + s[None, :, None] * src_mesh.directions[:, None, :]
    n_obs = obs_normal_sign * obs_mesh.normals
    n_src = src_normal_sign * src_mesh.normals
    nsx = n_src[None, None, :, None, 0]
    nsy = n_src[None, None, :, None, 1]
    mo, ms = obs_mesh.n_elements, src_mesh.n_elements
    Lo, Ls = obs_mesh.lengths, src_mesh.lengths
    tol = 1e-12 * max(Lo.max(), Ls.max())

    blocks = {name: np.zeros((mo, ms, 2, 2)) for name in ("vv", "vq", "qv", "qq")}
    for e0 in range(0, mo, chunk):
        e1 = min(e0 + chunk, mo)
        dx = xo[e0:e1, :, None, None, 0] - ys[None, None, :, :, 0]
        dy = xo[e0:e1, :, None, None, 1] - ys[None, None, :, :, 1]
        r = np.sqrt(dx * dx + dy * dy)
        if r.min() <= tol:
            raise ValueError("curves intersect or touch")
        nox = n_obs[e0:e1, None, None, None, 0]
        noy = n_obs[e0:e1, None, None, None, 1]
        ro = (nox * dx + noy * dy) / r                       # no . rhat
        rs = (nsx * dx + nsy * dy) / r                       # ns . rhat
        del dx, dy
        g = k0(a * r) / TWO_PI
        blocks["vq"][e0:e1] = _contract(g, wb)
        gp = (-a / TWO_PI) * k1(a * r)
        blocks["vv"][e0:e1] = _contract(gp * rs, wb)
        blocks["qq"][e0:e1] = _contract(gp * ro, wb)
        g *= a * a
        g -= gp / r                                          # g''
        rors = ro * rs
        del ro, rs
        nn = nox * nsx + noy * nsy
        blocks["qv"][e0:e1] = _contract(g * rors + gp * (nn - rors) / r, wb)
    LL = (Lo[:, None] * Ls[None, :])[:, :, None, None]
    no_nodes, ns_nodes = obs_mesh.n_nodes, src_mesh.n_nodes
    R = np.zeros((2 * no_nodes, 2 * ns_nodes))
    for (name, ri, ci) in (("vv", 0, 0), ("vq", 0, 1), ("qv", 1, 0), ("qq", 1, 1)):
        _scatter(R[ri * no_nodes:(ri + 1) * no_nodes,
                   ci * ns_nodes:(ci + 1) * ns_nodes],
                 obs_mesh.elements, src_mesh.elements, blocks[name] * LL)
    return R


@dataclass(frozen=True)
class CouplingSet:
    """Blocks of the middle-subdomain projector on two disjoint curves.

    As a subdomain record it is ``P = [[P1~, R12], [R21, P2~]]`` over the
    curves ``(inner, outer)``, with the matching block-diagonal mass.
    """

    R12: np.ndarray
    R21: np.ndarray
    P1_tilde: DiscreteCalderon
    P2_tilde: DiscreteCalderon

    @property
    def P(self):
        return np.block([[self.P1_tilde.P, self.R12],
                         [self.R21, self.P2_tilde.P]])

    @property
    def M_block(self):
        return scipy.linalg.block_diag(self.P1_tilde.M_block,
                                       self.P2_tilde.M_block)

    @property
    def curves(self):
        return (self.P1_tilde.mesh, self.P2_tilde.mesh)


def assemble_coupling(inner_mesh, outer_mesh, params, operators=None):
    """Middle-subdomain (annular region) Calderon blocks.

    The middle region lies outside ``inner_mesh`` and inside
    ``outer_mesh``; its outward normal is the reverse of the inner
    mesh's normal and coincides with the outer mesh's normal.  The
    off-diagonal blocks couple the two curves through smooth kernels.
    ``operators`` is an optional ``(inner_ops, outer_ops)`` pair of
    operator sets already assembled with ``params`` on the two curves.
    """
    inner_ops, outer_ops = operators if operators is not None else (None, None)
    pt1 = assemble_calderon_2d(inner_mesh, params, side="exterior",
                               operators=inner_ops)
    pt2 = assemble_calderon_2d(outer_mesh, params, side="interior",
                               operators=outer_ops)
    R12 = cross_block(inner_mesh, outer_mesh, params.a,
                      obs_normal_sign=-1.0, src_normal_sign=1.0,
                      quad_order=params.quad_order)
    R21 = cross_block(outer_mesh, inner_mesh, params.a,
                      obs_normal_sign=1.0, src_normal_sign=-1.0,
                      quad_order=params.quad_order)
    return CouplingSet(R12, R21, pt1, pt2)
