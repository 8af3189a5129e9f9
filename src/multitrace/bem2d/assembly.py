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

``assemble_operators`` is one pipeline: the smooth table covers every
ordered element pair, and the singular corrections then overwrite the
self and adjacent entries.  Adjacent tables are computed with the shared
node first on both elements and stored with the local basis axis of the
element whose shared node is its end node reversed.

The smooth pair tables evaluate K0 and K1 once per unordered element
pair: the (f, e) blocks are the transposed (e, f) ones, the double layer
with the other element's normal, and the pairing with the weighted basis
``wb = w[:, None] * basis`` is a batched ``wb.T @ ker @ wb``.  Cross-curve
blocks pair in two BLAS contractions over the Gauss axes (``_contract``),
and each of their points evaluates K0 and K1 once for the four coupling
kernels (gradient along either normal, value, Hessian bilinear form).

Per-pair contributions are independent and reduced into matrices with no
ordering dependence; assembled objects are immutable, so all routines
are safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import i0, i1, k0, k1

from .kernels import TWO_PI, _check_a
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


def _smooth_pair_tables(mesh, a, order, chunk=4096):
    """Tensor-Gauss V/K pair integrals for all ordered element pairs.

    Returns ``(v_loc, k_loc)`` where ``v_loc[e, f]`` is the 2x2
    single-layer block of the ordered pair and ``k_loc`` the double-layer
    block (kernel ``d/dn(y) G``).  K0 and K1 are evaluated once per
    unordered pair ``e <= f``, ``chunk`` pairs at a time; the (f, e)
    blocks are the transposed (e, f) ones, the double layer with ``-n_e``
    in place of ``n_f``.  Self-pair blocks (distance placeholder 1) are
    for the singular corrections to overwrite.
    """
    m = mesh.n_elements
    s, w = gauss01(order)
    wb = _weighted_basis(s, w)
    pts = mesh.first_nodes[:, None, :] + s[None, :, None] * mesh.directions[:, None, :]
    px, py = pts[..., 0], pts[..., 1]                        # (m, q)
    nx, ny = mesh.normals[:, 0, None, None], mesh.normals[:, 1, None, None]

    v_loc, k_loc = np.empty((2, m, m, 2, 2))
    rows, cols = np.triu_indices(m)
    for p0 in range(0, len(rows), chunk):
        e, f = rows[p0:p0 + chunk], cols[p0:p0 + chunk]
        dx = px[e, :, None] - px[f, None, :]                 # (pair, k, l)
        dy = py[e, :, None] - py[f, None, :]
        r = np.sqrt(dx * dx + dy * dy)
        r[e == f] = 1.0                                      # self pairs
        ll = (mesh.lengths[e] * mesh.lengths[f])[:, None, None]
        v = ll * (wb.T @ (k0(a * r) / TWO_PI) @ wb)
        v_loc[e, f] = v
        v_loc[f, e] = v.transpose(0, 2, 1)
        g1 = (a / TWO_PI) * k1(a * r) / r
        k_loc[e, f] = ll * (wb.T @ (g1 * (dx * nx[f] + dy * ny[f])) @ wb)
        k_loc[f, e] = (ll * (wb.T @ (g1 * -(dx * nx[e] + dy * ny[e]))
                             @ wb)).transpose(0, 2, 1)
    return v_loc, k_loc


def _coincident_tables(mesh, a, order):
    """Singular self-pair single-layer blocks, vectorized over elements.

    Splits ``G(r) = smooth(r) - I0(ar) log|s - t| / (2 pi)`` on the
    reference square with ``r = L |s - t|``; the log part reduces to an
    integral over ``u = |s - t|`` against the log-weighted rule.
    """
    L = mesh.lengths
    su, wu = gauss01(order)
    sv, wv = gauss01(order + 1)    # distinct orders: nodes never coincide
    u = np.abs(su[:, None] - sv[None, :])                    # z / (a L)
    z = a * (L[:, None, None] * u[None, :, :])
    smooth = (k0(z) + np.log(u) * i0(z)) / TWO_PI
    part_a = _weighted_basis(su, wu).T @ smooth @ _weighted_basis(sv, wv)

    ulog, wlog = log_gauss01(order)
    sw, ww = gauss01(order)
    # inner integral over the diagonal strip of width 1 - u, s = w + u;
    # the (s, t) and (t, s) halves are transposes of each other
    wpts = (1.0 - ulog)[:, None] * sw[None, :]               # (nlog, q)
    strip = np.einsum("nk,nkp,nkq->npq", (1.0 - ulog)[:, None] * ww,
                      _p1(wpts + ulog[:, None]), _p1(wpts))  # (nlog, 2, 2)
    i0u = i0(a * L[:, None] * ulog[None, :])                 # (m, nlog)
    part_b = np.tensordot(i0u * wlog, strip + strip.transpose(0, 2, 1),
                          axes=(1, 0)) / TWO_PI
    return (L ** 2)[:, None, None] * (part_a + part_b)


def _p1(x):
    """Nodal basis values at parameters ``x``: stack of (1 - x, x)."""
    return np.stack([1.0 - x, x], axis=-1)


def _adjacent_pair_tables(d1, d2, L1, L2, n_src, a, order):
    """V and K blocks for ordered adjacent pairs (vectorized over pairs).

    Both elements are parametrized from the shared node, which is local
    basis index 0 on both, so the distance on each Duffy triangle is
    ``s * m(v)`` with ``m(v) = |d1 - v d2|`` bounded away from zero;
    ``log s`` goes to the log-weighted rule.  The weighted basis products
    of a triangle are one ``(q, q, 2, 2)`` array shared by all pairs.
    """
    sg, wg = gauss01(order)
    ul, wl = log_gauss01(order)
    v_loc = k_loc = 0.0

    def pair(ker, bw):
        return np.tensordot(ker, bw, axes=([1, 2], [0, 1]))

    # triangle 1: (x, y) at (s, s v); triangle 2: at (s v, s)
    for sign, dd1, dd2 in ((1.0, d1, d2), (-1.0, d2, d1)):
        mv = dd1[:, None, :] - sg[None, :, None] * dd2[:, None, :]
        m = np.linalg.norm(mv, axis=-1)                      # (npair, qv)
        c = sign * np.sum(n_src[:, None, :] * mv, axis=-1)

        def wbb(outer, w_outer):
            b_out = _p1(outer)[:, None, :]                   # (k, 1, 2)
            b_in = _p1(outer[:, None] * sg[None, :])         # (k, v, 2)
            be, bf = (b_out, b_in) if sign > 0 else (b_in, b_out)
            return ((w_outer[:, None] * wg[None, :])[..., None, None]
                    * be[..., :, None] * bf[..., None, :])

        # smooth part on the unit square in (outer, v)
        bw_g = wbb(sg, wg)
        z = a * sg[None, :, None] * m[:, None, :]
        log_s = np.log(sg)[None, :, None]                    # log(z / (a m))
        ker_v = (k0(z) + log_s * i0(z)) / TWO_PI
        # s K1(z) is bounded: its 1/z part times the Jacobian s is smooth
        ker_k = ((a / TWO_PI) * (c / m)[:, None, :] * sg[None, :, None]
                 * (k1(z) - log_s * i1(z)))
        v_loc += pair(ker_v * sg[None, :, None], bw_g)
        k_loc += pair(ker_k, bw_g)

        # log-in-outer-coordinate part (weight -log s)
        bw_l = wbb(ul, wl)
        zl = a * ul[None, :, None] * m[:, None, :]
        v_loc += pair(i0(zl) * ul[None, :, None], bw_l) / TWO_PI
        k_loc -= pair((a / TWO_PI) * (c / m)[:, None, :]
                      * ul[None, :, None] * i1(zl), bw_l)
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
    v_loc, k_loc = _smooth_pair_tables(mesh, a, params.quad_order)

    # singular pairs overwrite their smooth entries; the double layer
    # vanishes on a straight element
    ar = np.arange(m)
    v_loc[ar, ar] = _coincident_tables(mesh, a, params.singular_order)
    k_loc[ar, ar] = 0.0

    # adjacent pairs, tabulated with the shared node first on both
    # elements: for f = next(e) it is e's end node (p axis reversed),
    # for f = prev(e) it is f's end node (q axis reversed)
    nodes, els = mesh.nodes, mesh.elements
    L = mesh.lengths
    for f, e_end, flip_axis in ((nxt, 1, 1), (prv, 0, 2)):
        shared = nodes[els[:, e_end]]
        v_adj, k_adj = _adjacent_pair_tables(
            nodes[els[:, 1 - e_end]] - shared, nodes[els[f, e_end]] - shared,
            L, L[f], mesh.normals[f], a, params.singular_order)
        v_loc[ar, f] = np.flip(v_adj, flip_axis)
        k_loc[ar, f] = np.flip(k_adj, flip_axis)

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
