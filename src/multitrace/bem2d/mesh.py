"""Closed polyline meshes for the 2D boundary element discretization.

A mesh is a set of nodes plus straight segments; each closed curve must
be stored counterclockwise so that the per-element normals point out of
the region the curve encloses.  Orientation is validated via the signed
area, and segment connectivity must form one cycle per curve id.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class BoundaryMesh:
    """Closed polyline(s) with P1 node/element connectivity.

    ``nodes``: (n, 2) coordinates.  ``elements``: (m, 2) node index
    pairs traversed counterclockwise.  ``curve_id``: (m,) integer label
    of the closed curve each element belongs to.  Meshes compare and
    hash by identity: two meshes with equal nodes are distinct curves.
    """

    nodes: np.ndarray
    elements: np.ndarray
    curve_id: np.ndarray = None

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        elements = np.ascontiguousarray(np.asarray(self.elements, dtype=int))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        if self.curve_id is None:
            object.__setattr__(self, "curve_id", np.zeros(len(elements), dtype=int))
        else:
            object.__setattr__(
                self, "curve_id", np.asarray(self.curve_id, dtype=int))
        self._validate()

    def _validate(self):
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (n, 2)")
        if self.elements.ndim != 2 or self.elements.shape[1] != 2:
            raise ValueError("elements must have shape (m, 2)")
        if len(self.elements) == 0:
            raise ValueError("mesh has no elements")
        if len(self.curve_id) != len(self.elements):
            raise ValueError("curve_id must have one entry per element")
        n = len(self.nodes)
        if self.elements.min() < 0 or self.elements.max() >= n:
            raise ValueError("element indices out of range")
        if np.any(self.lengths <= 0):
            raise ValueError("degenerate element of zero length")
        # Closed-curve connectivity: every node is the start of exactly
        # one element and the end of exactly one element.
        starts = np.bincount(self.elements[:, 0], minlength=n)
        ends = np.bincount(self.elements[:, 1], minlength=n)
        if not (np.all(starts == 1) and np.all(ends == 1)):
            raise ValueError("mesh is not a disjoint union of closed curves")
        for cid in np.unique(self.curve_id):
            sel = self.curve_id == cid
            if np.count_nonzero(sel) < 3:
                raise ValueError(f"curve {cid} has fewer than 3 elements")
            if self.signed_area(cid) <= 0:
                raise ValueError(
                    f"curve {cid} is not counterclockwise; outward normals "
                    "would point into the enclosed region")

    def signed_area(self, cid):
        sel = self.curve_id == cid
        a = self.nodes[self.elements[sel, 0]]
        b = self.nodes[self.elements[sel, 1]]
        return 0.5 * float(np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def first_nodes(self):
        return self.nodes[self.elements[:, 0]]

    @property
    def second_nodes(self):
        return self.nodes[self.elements[:, 1]]

    @property
    def directions(self):
        return self.second_nodes - self.first_nodes

    @property
    def lengths(self):
        return np.linalg.norm(self.directions, axis=1)

    @property
    def tangents(self):
        return self.directions / self.lengths[:, None]

    @property
    def normals(self):
        """Unit normals pointing out of the enclosed region."""
        t = self.tangents
        return np.column_stack([t[:, 1], -t[:, 0]])

    @property
    def total_length(self):
        return float(self.lengths.sum())

    def next_element(self):
        """``nxt[e]`` = element starting at the end node of ``e``."""
        start_of = np.empty(self.n_nodes, dtype=int)
        start_of[self.elements[:, 0]] = np.arange(self.n_elements)
        return start_of[self.elements[:, 1]]


def make_circle(n_elems, radius=1.0, center=(0.0, 0.0)):
    """Regular inscribed polygon approximating a circle, CCW."""
    if n_elems < 3:
        raise ValueError("need at least 3 elements")
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = 2.0 * np.pi * np.arange(n_elems) / n_elems
    nodes = np.column_stack([
        center[0] + radius * np.cos(theta),
        center[1] + radius * np.sin(theta),
    ])
    elements = np.column_stack([
        np.arange(n_elems), (np.arange(n_elems) + 1) % n_elems])
    return BoundaryMesh(nodes, elements)


def make_square(n_per_side, side=1.0, center=(0.0, 0.0)):
    """Square boundary with nodes exactly at the corners, CCW."""
    if n_per_side < 1:
        raise ValueError("need at least 1 element per side")
    if side <= 0:
        raise ValueError("side must be positive")
    h = side / 2.0
    corners = np.array([[h, -h], [h, h], [-h, h], [-h, -h]]) + np.asarray(center)
    nodes = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        frac = np.arange(n_per_side)[:, None] / n_per_side
        nodes.append(a[None, :] * (1 - frac) + b[None, :] * frac)
    nodes = np.vstack(nodes)
    m = 4 * n_per_side
    elements = np.column_stack([np.arange(m), (np.arange(m) + 1) % m])
    return BoundaryMesh(nodes, elements)


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


def save_mesh(mesh, path):
    """Write a mesh as plain text: node lines ``x y``, element lines
    ``i j curve_id``, with ``nodes``/``elements`` count headers."""
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"elements {mesh.n_elements}\n")
        for (i, j), cid in zip(mesh.elements, mesh.curve_id):
            fh.write(f"{i} {j} {cid}\n")


def load_mesh(path):
    """Read a mesh written by :func:`save_mesh` (validates on load).

    A wrong or missing section header, a section shorter than its count
    and tokens after the last element raise
    ``ValueError("malformed mesh file: ...")``.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0

    def section(word, width, dtype):
        nonlocal pos
        if pos + 2 > len(tokens):
            raise ValueError(f"malformed mesh file: expected the "
                             f"'{word} <count>' header at token {pos}, "
                             f"found the end of the file")
        if tokens[pos] != word:
            raise ValueError(f"malformed mesh file: expected {word!r} "
                             f"at token {pos}, got {tokens[pos]!r}")
        if not tokens[pos + 1].isdigit():
            raise ValueError(f"malformed mesh file: {word} count must be a "
                             f"nonnegative integer, got {tokens[pos + 1]!r}")
        count = int(tokens[pos + 1])
        body = tokens[pos + 2:pos + 2 + width * count]
        if len(body) != width * count:
            raise ValueError(f"malformed mesh file: {word} section expects "
                             f"{count} rows of {width} values "
                             f"({width * count} tokens), got {len(body)}")
        pos += 2 + width * count
        return np.array(body, dtype=dtype).reshape(count, width)

    nodes = section("nodes", 2, float)
    rows = section("elements", 3, int)
    if pos != len(tokens):
        raise ValueError(f"malformed mesh file: {len(tokens) - pos} extra "
                         f"token(s) after the elements section of "
                         f"{len(rows)} rows")
    return BoundaryMesh(nodes, rows[:, :2], rows[:, 2])
