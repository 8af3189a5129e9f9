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
element pair that touches in no node, and the coincident and adjacent
singular tables fill the self and adjacent entries.  The smooth table and
the adjacent Duffy tables integrate each unordered pair once: the (f, e)
blocks are the transposed (e, f) ones, the double layer with the other
element's normal.  On a mesh that declares a rotation group of order m,
all three tables, and the cross blocks of concentric curves, integrate
one block row of n / m elements; ``_scatter`` sums it into node rows, and
the operator sets and records keep those rows, whose turns give the
whole matrices (``_expand``).

``quad_order`` is the tensor-Gauss order of near pairs.  The element
pairs of one curve and the cross-curve pairs go through the same graded
loop, ``_graded_pairs``, where a far pair uses the order of
``_pair_orders``: the fewest points whose Gauss error bound reaches
machine epsilon, from the pair's separation relative to its longer
element and from the decay of the kernel along an element (Sauter and
Schwab, *Boundary Element Methods*, ch. 5).  The rule is symmetric in the
pair, so swapped blocks stay transposes.  Kernel values are paired with
the weighted basis ``wb = w[:, None] * basis`` as a batched ``wb.T @ ker
@ wb``; a cross-curve point gives all four coupling kernels from one K0
and one K1.

Each ``_assemble_operators`` and ``_cross_blocks`` call whose element pairs
span more than one ``_CHUNK`` runs its pair work on a thread pool, opened
and joined by that call, so no thread outlives it; a smaller call runs it
on the calling thread.  The tasks are the ``_CHUNK`` batches of
``_graded_pairs``, the coincident table and the adjacent tables; each
writes its own element blocks, and scipy's Bessel functions and numpy's
array loops release the interpreter lock.  A pair's blocks do not depend on
its batch or its thread: the matrices are bit for bit those of a serial
run.  The pool has one thread per CPU this process may run on, so
``taskset`` restricts it.

What a pair integral does not depend on is built once, read-only: per
order the reference-element tables (``_weighted_basis``,
``_coincident_reference``, ``_adjacent_reference``), per mesh its
geometry (from its read-only ``BoundaryMesh.nodes``).

``assemble_operators`` keeps one set per mesh object and ``KernelParams``,
so every subdomain that meets a curve shares its V, K, K' and W.  Meshes
compare by identity, the stored matrices are read-only, and a set is
freed with its mesh; ``cross_block`` keeps each curve pair the same way.
Two threads that miss at once each assemble an equal set, harmlessly.
"""

import math
import os
import weakref
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from scipy.special import i0, i1, k0, k1

from ..line1d import _check_a
from .kernels import TWO_PI
from .mesh import common_rotation_order
from .quadrature import gauss01, log_gauss01

# Tangential derivative signs of the two nodal basis functions.
_DSIGN = np.array([-1.0, 1.0])
# Error target of the per-pair Gauss orders.
_EPS = np.finfo(float).eps
# Element pairs per task of _graded_pairs: bounds the point arrays of each
# thread and balances the load.
_CHUNK = 1024
# Threads of an assembly call's pool: the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# Largest quad_order: singular rules of 60 points take 0.25 s to build.
MAX_QUAD_ORDER = 56


@dataclass(frozen=True)
class KernelParams:
    """Material constant of one subdomain plus quadrature resolution."""

    a: float
    quad_order: int = 8

    def __post_init__(self):
        _check_a(self.a)
        if not (isinstance(self.quad_order, (int, np.integer))
                and 2 <= self.quad_order <= MAX_QUAD_ORDER):
            raise ValueError(f"quad_order must lie in [2, {MAX_QUAD_ORDER}] "
                             f"and be an integer, got {self.quad_order!r}")

    @property
    def singular_order(self):
        return self.quad_order + 4


def _frozen(arrays):
    """``arrays``, each made read-only."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _whole_part(i, cache="_whole"):
    """Part ``i`` of a record's whole matrices ``cache``, built on first
    use."""
    return property(lambda self: getattr(self, cache)[i])


def mass_matrix(L, rows=None):
    """The first ``rows`` rows (all by default) of the P1 mass matrix of
    elements of lengths ``L``, each from its node's elements i and i - 1."""
    n = len(L)
    i = np.arange(n if rows is None else rows)
    M = np.zeros((len(i), n))
    M[i, i] = L[i] * (1.0 / 3.0) + L[i - 1] * (1.0 / 3.0)
    M[i, (i + 1) % n] = L[i] * (1.0 / 6.0)
    M[i, i - 1] = L[i - 1] * (1.0 / 6.0)
    return M


@dataclass(frozen=True)
class BemOperatorSet:
    """Galerkin matrices of the four boundary operators plus the mass.

    The set keeps the first block row, ``n / m`` by ``n`` on a mesh of
    rotation order m, of V, K, K' and W, and the element lengths of the
    mass; ``rows(g)`` reads them at an order g dividing m.  The whole
    matrices below are built on first use.  ``single_layer`` and
    ``hypersingular`` are symmetric up to assembly tolerance;
    ``adj_double_layer`` is exactly the transpose of ``double_layer``
    (valid since trial and test spaces coincide).  The arrays are
    read-only: one set serves every caller on its mesh.
    """

    V: np.ndarray
    K: np.ndarray
    Kt: np.ndarray
    W: np.ndarray
    lengths: np.ndarray

    def rows(self, g=1):
        """V, K, K', W and the mass, each its first ``n / g`` rows.  Mass
        rows come from their own elements: a turned length differs in its
        last bits, and the whole mass must stay exactly symmetric."""
        m, n = self.V.shape[1] // len(self.V), len(self.lengths)
        return (*(_expand(x, m, g) for x in (self.V, self.K, self.Kt,
                                             self.W)),
                mass_matrix(self.lengths, n // g))

    _whole = cached_property(lambda self: _frozen(self.rows()))
    single_layer, double_layer, adj_double_layer, hypersingular, mass = map(
        _whole_part, range(5))


def _with_previous(rows, shift):
    """Element rows -1 .. s - 1 of the block row ``rows[..., e, f, k, l]``:
    row -1 is row s - 1 turned back one sector of ``shift`` columns."""
    return np.concatenate([np.roll(rows.take([-1], axis=-4), -shift, axis=-3),
                           rows], axis=-4)


def _scatter(rows):
    """Node rows of the element rows ``rows[..., 1 + e, f, k, l]``, ``e =
    -1 .. s - 1``: element ``e`` joins its nodes ``e`` and ``e + 1``,
    cyclically, so node row ``i < s`` sums elements ``i`` and ``i - 1``."""
    s, nc = rows.shape[-4] - 1, rows.shape[-3]
    turn = np.arange(-1, nc - 1)            # column j reads column j - 1
    head = np.zeros((*rows.shape[:-4], s, nc))
    for k in range(2):
        head += rows[..., 1 - k:s + 1 - k, :, k, 0]
        head += rows[..., 1 - k:s + 1 - k, turn, k, 1]
    return head


def _expand(row, m, g=1, blocks=1):
    """The first ``n / g`` rows of each of the ``blocks`` by ``blocks``
    blocks of the matrix whose first ``n / m`` are ``row``: the turn of
    order m moves each block's rows by ``n / m`` and its columns by a
    ``1 / m`` share.  At g = 1 the matrix is whole."""
    if m == g:
        return row
    r, c = len(row) // blocks, row.shape[1] // blocks
    cols = (np.arange(c) - c // m * np.arange(m // g)[:, None]) % c
    turned = row.reshape(blocks, r, blocks, c)[..., cols]
    return np.moveaxis(turned, -2, 1).reshape(-1, row.shape[1])


def _transposed(row, m):
    """The first block row of the transpose of ``_expand(row, m)``: the
    row's m column blocks, each transposed, in the order 0, m - 1 .. 1."""
    r, c = row.shape
    return (row.reshape(r, m, c // m)[:, -np.arange(m) % m]
            .transpose(2, 1, 0).reshape(c // m, m * r))


def _p1(x):
    """Nodal basis values at parameters ``x``: stack of (1 - x, x)."""
    return np.stack([1.0 - x, x], axis=-1)


@lru_cache(maxsize=None)
def _weighted_basis(q):
    """``w[:, None] * _p1(s)`` of the q-point Gauss rule, read-only."""
    s, w = gauss01(q)
    return _frozen([w[:, None] * _p1(s)])[0]


def _gauss_rules(order):
    """Gauss rules of every order 1..``order``, built up front so that one
    assembly builds every rule any assembly of the same ``order`` uses."""
    return {q: gauss01(q) for q in range(1, order + 1)}


# log of 2^(2q+1) (q!)^4 / ((2q+1) ((2q)!)^3), the constant of the q-point
# Gauss error on [-1, 1] times the 2q-th derivative of the integrand
def _log_gauss_error_constant(q):
    return ((2 * q + 1) * math.log(2.0) + 4 * math.lgamma(q + 1)
            - math.log(2 * q + 1) - 3 * math.lgamma(2 * q + 1))


def _pair_orders(mid1, L1, mid2, L2, a, quad_order):
    """Tensor-Gauss order of element pairs, from their geometry.

    ``q = min(quad_order, max(q_sep, q_exp))``, both the smallest order
    whose Gauss error bound reaches machine epsilon:

    * ``q_sep`` from analyticity: with ``delta = |mid1 - mid2| - (L1 +
      L2) / 2`` (a lower bound on the element distance) and ``L =
      max(L1, L2)``, a singularity ``delta`` beyond the end of an
      element of length ``L`` sits at ``t = 1 + 2 delta / L`` in its
      [-1, 1] parameter, so the kernel is analytic inside the Bernstein
      ellipse ``rho = t + sqrt(t^2 - 1)`` and the error decays as
      ``rho^(-2q)``.  A singularity beside the element has a slightly
      smaller ellipse; the oracle tests pin the resulting accuracy;
    * ``q_exp`` from decay: the Gauss error bound of ``exp(c x)`` on
      [-1, 1] with ``c = a L / 2``, the exponential variation of the
      kernel along one element.

    Touching pairs (``delta <= 0``, self and adjacent pairs among them)
    get ``quad_order``; no pair gets fewer than 2 points, the degree of
    the P1 basis products.  The rule is symmetric in the two elements
    and never rises with ``delta``.
    """
    L = np.maximum(L1, L2)
    delta = np.hypot(*(mid1 - mid2).T) - 0.5 * (L1 + L2)
    log_rho = np.arccosh(1.0 + 2.0 * np.maximum(delta, 0.0) / L)
    with np.errstate(divide="ignore"):
        q_sep = np.ceil(-np.log(_EPS) / (2.0 * log_rho))
    c = 0.5 * a * L
    log_c = np.log(c)
    q_exp = np.full(L.shape, quad_order)
    for q in range(quad_order - 1, 1, -1):      # the smallest passing q wins
        log_err = _log_gauss_error_constant(q) + 2 * q * log_c + c
        q_exp[log_err <= np.log(_EPS)] = q
    return np.minimum(quad_order, np.maximum(q_sep, q_exp)).astype(int)


class _Inline(Executor):
    """Runs each task on the calling thread at submit, raising its error."""

    def submit(self, fn, /, *args):
        (future := Future()).set_result(fn(*args))
        return future


def _executor(pairs):
    """A pool for more than one ``_CHUNK`` of element pairs, else inline."""
    return ThreadPoolExecutor(_WORKERS) if pairs > _CHUNK else _Inline()


def _gather(futures):
    """The results of ``futures`` in order.  The first error cancels the
    tasks that have not started and propagates."""
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        raise


def _graded_pairs(pool, obs, src, rows, cols, a, order, integrate):
    """Run ``integrate`` on the element pairs ``(rows[i], cols[i])`` of the
    curves ``obs`` and ``src``, each with the tensor-Gauss order of
    ``_pair_orders``: one ``pool`` task per ``_CHUNK`` pairs of one order,
    which forms its own point offsets.  Returns when every task has.

    ``integrate(e, f, dx, dy, r, ll, wb)`` gets the element indices, the
    offsets ``x - y`` of their Gauss points and the distances, ``(pair, k,
    l)``, the length products ``(pair, 1, 1)`` and the weighted basis.
    Gauss points go only to ``obs`` elements up to the last row used.
    """
    k = rows.max(initial=-1) + 1
    (xo, do, Lo), (xs, ds, Ls) = (
        (m.first_nodes[:n], m.directions[:n], m.lengths[:n])
        for m, n in ((obs, k), (src, None)))
    rules = _gauss_rules(order)
    pair_q = _pair_orders(xo[rows] + 0.5 * do[rows], Lo[rows],
                          xs[cols] + 0.5 * ds[cols], Ls[cols], a, order)

    def task(e, f, po, ps, wb):
        dx = po[e, :, None, 0] - ps[f, None, :, 0]
        dy = po[e, :, None, 1] - ps[f, None, :, 1]
        r = np.sqrt(dx * dx + dy * dy)
        integrate(e, f, dx, dy, r, (Lo[e] * Ls[f])[:, None, None], wb)

    futures = []
    for q in np.unique(pair_q).tolist():
        s, wb = rules[q][0], _weighted_basis(q)              # (q, 2)
        po, ps = (x[:, None, :] + s[None, :, None] * d[:, None, :]
                  for x, d in ((xo, do), (xs, ds)))
        sel = np.flatnonzero(pair_q == q)
        futures += [pool.submit(task, rows[sel[p0:p0 + _CHUNK]],
                                cols[sel[p0:p0 + _CHUNK]], po, ps, wb)
                    for p0 in range(0, len(sel), _CHUNK)]
    _gather(futures)


def _smooth_pair_tables(mesh, a, order, pool=None):
    """Tensor-Gauss V/K pair integrals for the element pairs that share no
    node, on ``pool`` or on the ``_executor`` of its block row.

    Returns the block row ``(v_loc, k_loc)``, ``(n / m, n, 2, 2)`` on a
    mesh of rotation order m (the whole table for m = 1), where ``v_loc[e,
    f]`` is the 2x2 single-layer block of the ordered pair and ``k_loc``
    the double-layer block (kernel ``d/dn(y) G``).  The self and adjacent
    blocks are zero, left to the singular tables.

    The partner of a pair, the (f, e) block turned into the row, is the
    transposed (e, f) one, the double layer with ``-n_e`` in place of
    ``n_f``: K0 and K1 are evaluated once per pair and partner (for m = 1,
    once per ``e < f``).  A pair that is its own partner (opposite
    elements, m even) gets a symmetrized V.
    """
    n, m = mesh.n_elements, mesh.rotation_order
    s = n // m
    if pool is None:
        with _executor(s * n) as pool:
            return _smooth_pair_tables(mesh, a, order, pool)
    nx, ny = mesh.normals[:, 0, None, None], mesh.normals[:, 1, None, None]

    def partner(e, f):                      # (f, e) rotated into the row
        return f % s, (e - f // s * s) % n

    rows, cols = np.divmod(np.arange(s * n), n)
    pe, pf = partner(rows, cols)
    keep = (rows * n + cols <= pe * n + pf) & ((cols - rows + 1) % n > 2)
    v_loc, k_loc = np.zeros((2, s, n, 2, 2))

    def integrate(e, f, dx, dy, r, ll, wb):
        pe, pf = partner(e, f)
        v = ll * (wb.T @ (k0(a * r) / TWO_PI) @ wb)
        own = (pe == e) & (pf == f)
        v[own] = 0.5 * (v[own] + v[own].transpose(0, 2, 1))
        v_loc[e, f] = v
        v_loc[pe, pf] = v.transpose(0, 2, 1)
        g1 = (a / TWO_PI) * k1(a * r) / r
        k_loc[e, f] = ll * (wb.T @ (g1 * (dx * nx[f] + dy * ny[f])) @ wb)
        k_loc[pe, pf] = (ll * (wb.T @ (g1 * -(dx * nx[e] + dy * ny[e]))
                               @ wb)).transpose(0, 2, 1)

    _graded_pairs(pool, mesh, mesh, rows[keep], cols[keep], a, order,
                  integrate)
    return v_loc, k_loc


@lru_cache(maxsize=None)
def _coincident_reference(order):
    """The read-only part of ``_coincident_tables`` at ``order``: the grid
    ``|s - t|``, its log, the weighted bases and the symmetrized strip."""
    su, wu = gauss01(order)
    sv, wv = gauss01(order + 1)    # distinct orders: nodes never coincide
    u = np.abs(su[:, None] - sv[None, :])                    # z / (a L)
    ulog, _ = log_gauss01(order)
    # inner integral over the diagonal strip of width 1 - u, s = w + u;
    # the (s, t) and (t, s) halves are transposes of each other
    wpts = (1.0 - ulog)[:, None] * su[None, :]               # (nlog, q)
    strip = np.einsum("nk,nkp,nkq->npq", (1.0 - ulog)[:, None] * wu,
                      _p1(wpts + ulog[:, None]), _p1(wpts))  # (nlog, 2, 2)
    return _frozen((u, np.log(u), (wu[:, None] * _p1(su)).T,
                    wv[:, None] * _p1(sv), strip + strip.transpose(0, 2, 1)))


def _coincident_tables(L, a, order):
    """Singular self-pair single-layer blocks of elements of lengths
    ``L``, vectorized over elements.

    Splits ``G(r) = smooth(r) - I0(ar) log|s - t| / (2 pi)`` on the
    reference square with ``r = L |s - t|``; the log part reduces to an
    integral over ``u = |s - t|`` against the log-weighted rule.
    """
    u, log_u, bu, bv, strip = _coincident_reference(order)
    z = a * (L[:, None, None] * u[None, :, :])
    smooth = (k0(z) + log_u * i0(z)) / TWO_PI
    part_a = bu @ smooth @ bv
    ulog, wlog = log_gauss01(order)
    i0u = i0(a * L[:, None] * ulog[None, :])                 # (m, nlog)
    part_b = np.tensordot(i0u * wlog, strip, axes=(1, 0)) / TWO_PI
    return (L ** 2)[:, None, None] * (part_a + part_b)


@lru_cache(maxsize=None)
def _adjacent_reference(order):
    """Read-only ``(q, q, 2, 2)`` weighted basis products of the adjacent
    blocks at ``order``: smooth and log part of triangle 1, then of 2."""
    sg, wg = gauss01(order)
    ul, wl = log_gauss01(order)

    def wbb(outer, w_outer, sign):
        b_out = _p1(outer)[:, None, :]                       # (k, 1, 2)
        b_in = _p1(outer[:, None] * sg[None, :])             # (k, v, 2)
        be, bf = (b_out, b_in) if sign > 0 else (b_in, b_out)
        return ((w_outer[:, None] * wg[None, :])[..., None, None]
                * be[..., :, None] * bf[..., None, :])

    return _frozen([wbb(x, w, sign) for sign in (1.0, -1.0)
                    for x, w in ((sg, wg), (ul, wl))])


def _adjacent_pair_tables(d1, d2, L1, L2, n1, n2, a, order):
    """V and K blocks of adjacent pairs (e, f), vectorized over pairs.

    Both elements are parametrized from the shared node, which is local
    basis index 0 on both, so the distance on each Duffy triangle is
    ``s * m(v)`` with ``m(v) = |d1 - v d2|`` bounded away from zero;
    ``log s`` goes to the log-weighted rule.  The weighted basis products
    are those of ``_adjacent_reference``.
    Returns V and K ``(2, npair, 2, 2)``: the double layer of (e, f) with
    normal ``n2``, and that of (f, e), transposed, with normal ``n1`` and
    the offset reversed, from the same Bessel values.
    """
    (sg, _), (ul, _) = gauss01(order), log_gauss01(order)
    bw = _adjacent_reference(order)
    v_loc = k_loc = 0.0

    def pair(ker, bw):
        return np.tensordot(ker, bw, axes=([-2, -1], [0, 1]))

    # triangle 1: (x, y) at (s, s v); triangle 2: at (s v, s)
    for sign, dd1, dd2, bw_g, bw_l in ((1.0, d1, d2, *bw[:2]),
                                       (-1.0, d2, d1, *bw[2:])):
        mv = dd1[:, None, :] - sg[None, :, None] * dd2[:, None, :]
        m = np.linalg.norm(mv, axis=-1)                      # (npair, qv)
        # n . (x - y) / s for (e, f); (f, e) sees y - x
        c = sign * np.einsum("pnd,nvd->pnv", np.stack([n2, -n1]), mv)

        # smooth part on the unit square in (outer, v)
        z = a * sg[None, :, None] * m[:, None, :]
        log_s = np.log(sg)[None, :, None]                    # log(z / (a m))
        ker_v = (k0(z) + log_s * i0(z)) / TWO_PI
        # s K1(z) is bounded: its 1/z part times the Jacobian s is smooth
        ker_k = ((a / TWO_PI) * (c / m)[:, :, None, :] * sg[None, :, None]
                 * (k1(z) - log_s * i1(z)))
        v_loc += pair(ker_v * sg[None, :, None], bw_g)
        k_loc += pair(ker_k, bw_g)

        # log-in-outer-coordinate part (weight -log s)
        zl = a * ul[None, :, None] * m[:, None, :]
        v_loc += pair(i0(zl) * ul[None, :, None], bw_l) / TWO_PI
        k_loc -= pair((a / TWO_PI) * (c / m)[:, :, None, :]
                      * ul[None, :, None] * i1(zl), bw_l)
    LL = (L1 * L2)[:, None, None]
    return LL * v_loc, LL * k_loc


# mesh -> {KernelParams: BemOperatorSet}; an entry goes with its mesh
_SETS = weakref.WeakKeyDictionary()
# obs mesh -> src mesh -> {KernelParams: unsigned cross_block blocks}
_CROSS = weakref.WeakKeyDictionary()


def assemble_operators(mesh, params):
    """Single layer V, double layer K, adjoint K', regularized
    hypersingular W and the mass matrix on one mesh, assembled on the
    first call for this mesh object and ``params`` and shared after."""
    sets = _SETS.setdefault(mesh, {})
    if params not in sets:
        sets[params] = _assemble_operators(mesh, params)
    return sets[params]


def _assemble_operators(mesh, params):
    # the block row e < s = n / m; adjacent pairs (e, e + 1) tabulated from
    # the shared node, the end node of e (its basis axis reversed); (e, e -
    # 1) is the transposed table of e - 1, turned into the row at e = 0
    a, n, m = params.a, mesh.n_elements, mesh.rotation_order
    s = n // m
    e = np.arange(s)
    nxt = (e + 1) % n
    d, L, nrm = mesh.directions, mesh.lengths, mesh.normals
    with _executor(s * n) as pool:
        # the singular tables go first: the adjacent one is the longest task
        singular = [
            pool.submit(_adjacent_pair_tables, -d[e], d[nxt], L[e], L[nxt],
                        nrm[e], nrm[nxt], a, params.singular_order),
            pool.submit(_coincident_tables, L[e], a, params.singular_order)]
        v_loc, k_loc = _smooth_pair_tables(mesh, a, params.quad_order, pool)
        (v_adj, k_adj), v_self = _gather(singular)

    # the singular tables overwrite whatever the smooth table holds there;
    # the double layer vanishes on a straight element
    v_loc[e, e] = v_self
    k_loc[e, e] = 0.0
    v_loc[e, nxt] = v_adj[:, ::-1]
    v_loc[e, e - 1] = v_adj[e - 1, ::-1].transpose(0, 2, 1)
    k_loc[e, nxt] = k_adj[0, :, ::-1]
    k_loc[e, e - 1] = k_adj[1, e - 1, ::-1].transpose(0, 2, 1)
    v_loc, k_loc = (_with_previous(x, s) for x in (v_loc, k_loc))

    # W of the element rows -1 .. s - 1, from the lengths and normals of
    # the elements n - 1, 0 .. s - 1 themselves
    r = np.arange(-1, s)
    s0 = v_loc.sum(axis=(2, 3)) / (L[r, None] * L[None, :])  # partition of 1
    nn = nrm[r] @ nrm.T
    sgn = np.outer(_DSIGN, _DSIGN)
    w_loc = (s0[:, :, None, None] * sgn[None, None, :, :]
             + (a * a) * nn[:, :, None, None] * v_loc)

    V, K, W = (_scatter(x) for x in (v_loc, k_loc, w_loc))
    return BemOperatorSet(*_frozen((V, K, _transposed(K, m), W, L)))


def _segments_meet(obs, src, tol, rows):
    """Whether one of the first ``rows`` elements of ``obs`` crosses an
    element of ``src`` or comes within ``tol`` of it: on curves of a
    common rotation order g, n_obs / g rows stand for all the others."""
    p, u = (x[:rows, None] @ [1, 1j] for x in (obs.nodes, obs.directions))
    q, v = (x @ [1, 1j] for x in (src.nodes, src.directions))

    def side(d, x):                          # sign of the cross product
        return np.sign((d.conjugate() * x).imag)

    def gap(x, b, d):                        # distance of x to [b, b + d]
        t = np.clip(((x - b) * d.conjugate()).real / abs(d) ** 2, 0.0, 1.0)
        return abs(x - b - t * d)

    crossing = ((side(u, q - p) * side(u, q + v - p) < 0)
                & (side(v, p - q) * side(v, p + u - q) < 0))
    near = np.minimum.reduce([gap(p, q, v), gap(p + u, q, v),
                              gap(q, p, u), gap(q + v, p, u)]) <= tol
    return bool(np.any(crossing | near))


@dataclass(frozen=True)
class DiscreteCalderon:
    """Galerkin matrix of a Calderon projector paired against P1 tests.

    ``P`` is the mass-paired matrix; the actual coefficient-space
    operator is ``M_block^{-1} P`` and is only approximately a projector
    (residual vanishing under mesh refinement).  The record keeps
    ``P_row`` and ``M_row``, the first ``n / m`` rows of each trace block
    of ``P`` and ``M_block`` on a mesh of rotation order m, and ``ops``,
    their operator set; ``P`` and ``M_block`` are built on first use.
    """

    P_row: np.ndarray
    M_row: np.ndarray
    side: str
    mesh: object
    params: KernelParams
    ops: BemOperatorSet = None

    @property
    def curves(self):
        return (self.mesh,)

    def rows(self, g):
        """``P`` and ``M_block`` at an order g dividing m: the stored rows
        if they hold ``n / g`` of each trace block, else rows from ``ops``."""
        if len(self.P_row) * g == 2 * self.mesh.n_nodes:
            return self.P_row, self.M_row
        return _calderon_rows(self.ops, self.side, g)

    _whole = cached_property(lambda self: self.rows(1))
    P, M_block = map(_whole_part, range(2))


def _calderon_rows(ops, side, g):
    """``P`` and ``M_block`` rows at order g from ``ops`` on ``side``, the
    jump-relation 1/2 carried by the mass block."""
    V, K, Kt, W, M = ops.rows(g)
    k = 1.0 if side == "interior" else -1.0     # double-layer sign
    r, c = M.shape
    M_row = np.zeros((2 * r, 2 * c))
    M_row[:r, :c] = M_row[r:, c:] = M
    P = 0.5 * M_row
    for i, j, x in ((0, 0, -k * K), (0, 1, V), (1, 0, W), (1, 1, k * Kt)):
        P[i * r:(i + 1) * r, j * c:(j + 1) * c] += x
    return P, M_row


def assemble_calderon_2d(mesh, params, side="interior"):
    """Discrete Calderon projector of the region inside (or outside) the
    closed curve, with the jump-relation 1/2 carried by the mass block.

    For the exterior side the double-layer signs flip (the outward
    normal of the complement is the reverse of the mesh normal); single
    layer, hypersingular and mass blocks are orientation independent.
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    ops = assemble_operators(mesh, params)
    return DiscreteCalderon(*_calderon_rows(ops, side, mesh.rotation_order),
                            side, mesh, params, ops)


def cross_block(obs_mesh, src_mesh, params, obs_normal_sign=1.0,
                src_normal_sign=1.0):
    """Trace-on-obs of the potential generated on a disjoint source curve.

    Returns the 2x2 block matrix pairing P1 tests on the observation
    curve with P1 densities on the source curve, as the first ``n_obs /
    g`` rows of each trace block on curves of a common rotation order g
    (``_expand`` makes it whole).  All kernels are smooth
    because the curves do not meet (checked segment by segment), so plain
    tensor Gauss applies to the (obs, src) element pairs of
    ``_graded_pairs``.  The normal signs, each -1 or 1, select the
    orientation of the common subdomain on each curve relative to the
    stored (outward of enclosed) normals.

    With ``g(r) = K0(a r) / (2 pi)``, ``g' = -a K1(a r) / (2 pi)`` and
    ``g'' = a^2 g - g' / r``, the four kernels are ``ns . grad g``
    (vv), ``g`` (vq), ``no^T Hess(g) ns`` (qv) and ``no . grad g`` (qq),
    all from one K0 and one K1 per point.

    A curve pair is integrated unsigned once per ``KernelParams`` and
    kept until either curve is freed; a swapped call reads it as ``[[-qq^T,
    vq^T], [qv^T, -vv^T]]`` (by ``_transposed``), and each call signs it
    exactly.
    """
    if obs_mesh is src_mesh:
        raise ValueError("cross blocks require two distinct curves")
    for name, sign in (("obs", obs_normal_sign), ("src", src_normal_sign)):
        if sign not in (-1.0, 1.0):
            raise ValueError(f"{name}_normal_sign must be -1 or 1: {sign!r}")
    blocks = _CROSS.get(obs_mesh, {}).get(src_mesh, {}).get(params)
    if blocks is None:
        swapped = _CROSS.get(src_mesh, {}).get(obs_mesh, {}).get(params)
        if swapped is not None:
            g = common_rotation_order((obs_mesh, src_mesh))
            vv, vq, qv, qq = (_transposed(x, g) for x in swapped)
            blocks = (-qq, vq, qv, -vv)
        else:
            blocks = _cross_blocks(obs_mesh, src_mesh, params.a,
                                   params.quad_order)
            _CROSS.setdefault(obs_mesh, weakref.WeakKeyDictionary()
                              ).setdefault(src_mesh, {})[params] = blocks
    vv, vq, qv, qq = blocks
    so, ss = obs_normal_sign, src_normal_sign
    r, c = vv.shape
    out = np.empty((2 * r, 2 * c))
    out[:r, :c], out[:r, c:] = ss * vv, vq
    out[r:, :c], out[r:, c:] = so * ss * qv, so * qq
    return out


def _cross_blocks(obs_mesh, src_mesh, a, quad_order):
    """Unsigned ``(vv, vq, qv, qq)`` node rows of ``cross_block``."""
    # concentric curves of a common order g: test and integrate one block row
    g = common_rotation_order((obs_mesh, src_mesh))
    mo, ms = obs_mesh.n_elements // g, src_mesh.n_elements
    tol = 1e-12 * max(obs_mesh.lengths.max(), src_mesh.lengths.max())
    if _segments_meet(obs_mesh, src_mesh, tol, mo):
        raise ValueError("curves intersect or touch")
    rows, cols = np.divmod(np.arange(mo * ms), ms)
    blocks = np.empty((4, mo, ms, 2, 2))

    def integrate(e, f, dx, dy, r, ll, wb):
        nox, noy = obs_mesh.normals[e].T[:, :, None, None]
        nsx, nsy = src_mesh.normals[f].T[:, :, None, None]
        ro = (nox * dx + noy * dy) / r                       # no . rhat
        rs = (nsx * dx + nsy * dy) / r                       # ns . rhat
        g = k0(a * r) / TWO_PI
        gp = (-a / TWO_PI) * k1(a * r)
        gpp = a * a * g - gp / r
        for k, ker in enumerate((
                gp * rs, g,
                gpp * ro * rs + gp * (nox * nsx + noy * nsy - ro * rs) / r,
                gp * ro)):
            blocks[k, e, f] = ll * (wb.T @ ker @ wb)

    with _executor(mo * ms) as pool:
        _graded_pairs(pool, obs_mesh, src_mesh, rows, cols, a, quad_order,
                      integrate)
    return tuple(_scatter(_with_previous(blocks, ms // g)))


@dataclass(frozen=True)
class CouplingSet:
    """Blocks of the middle-subdomain projector on two disjoint curves.

    As a subdomain record it is ``P = [[P1~, R12], [R21, P2~]]`` over the
    curves ``(inner, outer)``, with the matching block-diagonal mass,
    from the ``cross_block`` rows ``R12_row`` and ``R21_row``; ``R21`` is
    ``R12``'s signed block transpose, from one integration.  The whole
    matrices are built on first use and read-only, one for every caller.
    """

    R12_row: np.ndarray
    R21_row: np.ndarray
    P1_tilde: DiscreteCalderon
    P2_tilde: DiscreteCalderon

    @property
    def curves(self):
        return (self.P1_tilde.mesh, self.P2_tilde.mesh)

    def _crossed(self, g):
        return [_expand(R, 2 * c.n_nodes // len(R), g, 2) for R, c in
                zip((self.R12_row, self.R21_row), self.curves)]

    def rows(self, g):
        """``P`` and ``M_block`` at an order g dividing the curves' own."""
        (P1, M1), (P2, M2) = (p.rows(g) for p in (self.P1_tilde,
                                                   self.P2_tilde))
        R12, R21 = self._crossed(g)
        return (np.block([[P1, R12], [R21, P2]]),
                scipy.linalg.block_diag(M1, M2))

    _whole = cached_property(lambda self: _frozen(self.rows(1)))
    _cross = cached_property(lambda self: _frozen(self._crossed(1)))
    P, M_block = map(_whole_part, range(2))
    R12, R21 = (_whole_part(i, "_cross") for i in range(2))


def assemble_coupling(inner_mesh, outer_mesh, params):
    """Middle-subdomain (annular region) Calderon blocks.

    The middle region lies outside ``inner_mesh`` and inside
    ``outer_mesh``; its outward normal is the reverse of the inner
    mesh's normal and coincides with the outer mesh's normal.  One
    ``cross_block`` integration gives both smooth off-diagonal blocks.
    """
    pt1 = assemble_calderon_2d(inner_mesh, params, side="exterior")
    pt2 = assemble_calderon_2d(outer_mesh, params, side="interior")
    R12 = cross_block(inner_mesh, outer_mesh, params,
                      obs_normal_sign=-1.0, src_normal_sign=1.0)
    R21 = cross_block(outer_mesh, inner_mesh, params,
                      obs_normal_sign=1.0, src_normal_sign=-1.0)
    return CouplingSet(R12, R21, pt1, pt2)
