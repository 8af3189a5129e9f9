"""Closed polyline meshes for the 2D boundary element discretization.

A mesh is one closed curve: its nodes in counterclockwise order, element
``e`` joining node ``e`` to node ``e + 1`` and the last node joining back
to node 0, so the per-element normals point out of the region the curve
encloses.  Orientation is validated via the signed area.

A builder that knows a rotation symmetry declares it: ``rotation_order``
m about ``center`` says that the turn by ``2 pi / m`` maps node ``i`` onto
node ``i + n / m``.  Assembly then integrates one block row of element
pairs, and ``spectra`` solves ``q`` per Fourier mode.  A mesh built by
hand declares none (order 1).
"""

import math
from dataclasses import dataclass

import numpy as np

# Largest gap between a turned node and its image, per unit of the
# largest node coordinate.
ROTATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BoundaryMesh:
    """One closed polyline with P1 node/element connectivity.

    ``nodes``: (n, 2) coordinates traversed counterclockwise; the ``n``
    elements and their node pairs are derived from that order.  The mesh
    keeps its own read-only copy of the nodes, and computes its geometry
    (``second_nodes``, ``directions``, ``lengths``, ``normals``) once, in
    the constructor, as read-only arrays.  On a mesh of rotation order m
    every sector has the first sector's ``lengths``, bit for bit; the
    normals come from each element's own direction.  Meshes compare and
    hash by identity: two meshes with equal nodes are distinct curves.
    """

    nodes: np.ndarray
    rotation_order: int = 1
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float, order="C")
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (n, 2)")
        if len(nodes) < 3:
            raise ValueError(f"a closed curve needs at least 3 nodes, "
                             f"got {len(nodes)}")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        second = np.roll(nodes, -1, axis=0)
        with np.errstate(over="ignore"):
            directions = second - nodes
            lengths = np.linalg.norm(directions, axis=1)
        if not np.all(np.isfinite(lengths)):
            raise ValueError("element lengths overflow to inf")
        if np.any(lengths[np.any(directions != 0, axis=1)] == 0):
            raise ValueError("element lengths underflow to zero between "
                             "distinct nodes")
        if np.any(lengths == 0):
            raise ValueError("degenerate element of zero length")
        if np.sum(nodes[:, 0] * second[:, 1]
                  - second[:, 0] * nodes[:, 1]) <= 0:
            raise ValueError("curve is not counterclockwise; outward normals "
                             "would point into the enclosed region")
        m, n = self.rotation_order, len(nodes)
        if not (isinstance(m, (int, np.integer)) and m >= 1 and n % m == 0):
            raise ValueError(f"rotation_order {m!r} does not divide the "
                             f"{n} nodes")
        z = (nodes - self.center) @ [1, 1j]
        gap = np.abs(z * np.exp(2j * np.pi / m) - np.roll(z, -(n // m))).max()
        if not gap <= ROTATION_TOL * np.abs(nodes).max():
            raise ValueError(f"rotation_order {m} about center {self.center} "
                             f"does not map node i onto node i + {n // m}: "
                             f"they lie {gap:.3e} apart")
        t = directions / lengths[:, None]
        normals = np.column_stack([t[:, 1], -t[:, 0]])      # unit, outward
        lengths = np.tile(lengths[:n // m], m)  # so the mass turns exactly
        for name, x in (("nodes", nodes), ("second_nodes", second),
                        ("directions", directions), ("lengths", lengths),
                        ("normals", normals)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.nodes)

    @property
    def elements(self):
        """``(m, 2)`` node indices ``(e, e + 1 mod m)`` of each element."""
        first = np.arange(self.n_elements, dtype=np.int64)
        return np.column_stack([first, np.roll(first, -1)])


def common_rotation_order(curves):
    """Gcd of the curves' rotation orders if all share a centre, else 1."""
    curves = list(curves)
    same = all(np.array_equal(c.center, curves[0].center) for c in curves)
    return math.gcd(*(c.rotation_order for c in curves)) if same else 1


def _check_count(count, least, what):
    """An integer count, Python's or numpy's, of at least ``least``."""
    if not (isinstance(count, (int, np.integer)) and count >= least):
        raise ValueError(f"{what} must be an integer of at least {least}, "
                         f"got {count!r}")


def make_circle(n_elems, radius=1.0, center=(0.0, 0.0)):
    """Regular inscribed polygon approximating a circle, CCW."""
    _check_count(n_elems, 3, "n_elems")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    theta = 2.0 * np.pi * np.arange(n_elems) / n_elems
    nodes = np.column_stack([
        center[0] + radius * np.cos(theta),
        center[1] + radius * np.sin(theta),
    ])
    return BoundaryMesh(nodes, n_elems, center)


def make_square(n_per_side, side=1.0, center=(0.0, 0.0)):
    """Square boundary with nodes exactly at the corners, CCW."""
    _check_count(n_per_side, 1, "n_per_side")
    if not 0 < side < np.inf:
        raise ValueError(f"side must be finite and positive, got {side}")
    h = side / 2.0
    corners = np.array([[h, -h], [h, h], [-h, h], [-h, -h]]) + np.asarray(center)
    nodes = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        frac = np.arange(n_per_side)[:, None] / n_per_side
        nodes.append(a[None, :] * (1 - frac) + b[None, :] * frac)
    return BoundaryMesh(np.vstack(nodes), 4, center)


def make_three_domain(n_inner=96, n_outer=None, r_inner=0.5, r_outer=1.0):
    """Two disjoint concentric circles bounding an annular middle region.

    Returns ``(inner, outer)`` meshes: the bounded subdomain sits inside
    the inner curve, the unbounded one outside the outer curve, and the
    middle subdomain is the annulus in between.
    """
    if n_outer is None:
        n_outer = n_inner
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    return make_circle(n_inner, r_inner), make_circle(n_outer, r_outer)
