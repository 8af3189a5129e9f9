import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitrace.bem2d.mesh import (BoundaryMesh, load_mesh, make_circle,
                                   make_square, make_three_domain, save_mesh)


class TestCircle:
    def test_perimeter_close_to_circle(self):
        mesh = make_circle(64)
        assert abs(mesh.total_length - 2 * np.pi) / (2 * np.pi) < 0.002

    def test_normals_radial_outward(self):
        mesh = make_circle(32, radius=2.0)
        mids = 0.5 * (mesh.first_nodes + mesh.second_nodes)
        outward = mids / np.linalg.norm(mids, axis=1, keepdims=True)
        dots = np.sum(mesh.normals * outward, axis=1)
        assert np.all(dots > 0.99)

    def test_too_few_elements(self):
        with pytest.raises(ValueError):
            make_circle(2)


class TestSquare:
    def test_counts_and_corners(self):
        mesh = make_square(8, side=1.0)
        assert mesh.n_elements == 32
        assert mesh.n_nodes == 32
        corners = {(0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)}
        node_set = {tuple(np.round(p, 12)) for p in mesh.nodes}
        assert corners <= node_set

    def test_total_length(self):
        mesh = make_square(5, side=2.0)
        assert abs(mesh.total_length - 8.0) < 1e-12


class TestThreeDomain:
    def test_disjoint_curves(self):
        inner, outer = make_three_domain(24, 36)
        d = np.linalg.norm(inner.nodes[:, None, :] - outer.nodes[None, :, :],
                           axis=-1)
        assert d.min() > 0.4
        assert inner.n_elements == 24 and outer.n_elements == 36

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            make_three_domain(16, 16, r_inner=1.0, r_outer=0.5)


class TestValidation:
    def test_orientation_rejected_clockwise(self):
        mesh = make_circle(12)
        with pytest.raises(ValueError, match="counterclockwise"):
            BoundaryMesh(mesh.nodes[::-1])

    def test_degenerate_element_rejected(self):
        nodes = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="degenerate|length"):
            BoundaryMesh(nodes)

    def test_empty_mesh_rejected(self):
        with pytest.raises(ValueError, match="at least 3 nodes, got 0"):
            BoundaryMesh(np.empty((0, 2)))

    @pytest.mark.parametrize("build", [
        lambda: make_circle(8, center=(np.nan, 0.0)),
        lambda: make_circle(8, radius=np.inf),
        lambda: BoundaryMesh([[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]])],
        ids=["nan-center", "inf-radius", "inf-node"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_next_element_cyclic(self):
        mesh = make_circle(10)
        nxt = mesh.next_element()
        assert sorted(nxt) == list(range(10))
        assert np.all(mesh.elements[nxt, 0] == mesh.elements[:, 1])
        assert mesh.elements.dtype == np.int64
        assert np.array_equal(mesh.second_nodes, mesh.nodes[nxt])


def star_polygons():
    """Counterclockwise polygons star-shaped about their center: node k
    at angle 2 pi (k + u_k) / n with u_k in [0, 0.4], so every turn
    between neighbours is below pi."""
    return st.integers(3, 48).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n),
        st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n),
        st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))))


def star_nodes(u, r, center):
    theta = 2.0 * np.pi * (np.arange(len(u)) + np.array(u)) / len(u)
    return (np.asarray(center)
            + np.array(r)[:, None] * np.column_stack([np.cos(theta),
                                                      np.sin(theta)]))


class TestIo:
    def test_round_trip(self, tmp_path):
        mesh = make_square(3)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)

    @settings(max_examples=60, deadline=None)
    @given(star_polygons())
    def test_round_trip_property(self, tmp_path_factory, polygon):
        nodes = star_nodes(*polygon)
        path = tmp_path_factory.mktemp("star") / "mesh.txt"
        save_mesh(BoundaryMesh(nodes), path)
        back = load_mesh(path)
        assert back.nodes.tobytes() == nodes.tobytes()
        with pytest.raises(ValueError, match="counterclockwise"):
            BoundaryMesh(nodes[::-1])

    def test_empty_mesh_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("nodes 0\n")
        with pytest.raises(ValueError, match="at least 3 nodes, got 0"):
            load_mesh(path)

    def test_non_finite_file_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("nodes 3\n0.0 0.0\n1.0 0.0\nnan 1.0\n")
        with pytest.raises(ValueError, match="nodes must be finite"):
            load_mesh(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertices 3\n0 0\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="expected"):
            load_mesh(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines[:3], r"nodes section expects 6 rows of 2 values "
                                  r"\(12 tokens\), got 4"),
        (lambda lines: lines + ["0 1"], r"nodes section expects 6 rows of 2 "
                                        r"values \(12 tokens\), got 14"),
        (lambda lines: ["nodes six"] + lines[1:], r"nodes count must be a "
                                                  r"nonnegative integer"),
        (lambda lines: lines + ["elements 6"] + [f"{e} {(e + 1) % 6} 0"
                                                 for e in range(6)],
         r"nodes section expects 6 rows of 2 values \(12 tokens\), got 32"),
    ], ids=["cut-in-nodes", "trailing-tokens", "bad-count", "elements-section"])
    def test_truncated_or_padded_rejected(self, tmp_path, edit, match):
        path = tmp_path / "mesh.txt"
        save_mesh(make_circle(6), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError, match="malformed mesh file: " + match):
            load_mesh(path)
