import numpy as np
import pytest

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
            BoundaryMesh(mesh.nodes, mesh.elements[:, ::-1])

    def test_open_curve_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        elements = np.array([[0, 1], [1, 2], [2, 3]])   # not closed
        with pytest.raises(ValueError, match="closed"):
            BoundaryMesh(nodes, elements)

    def test_degenerate_element_rejected(self):
        nodes = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        elements = np.array([[0, 1], [1, 2], [2, 0]])
        with pytest.raises(ValueError, match="degenerate|length"):
            BoundaryMesh(nodes, elements)

    def test_next_element_cyclic(self):
        mesh = make_circle(10)
        nxt = mesh.next_element()
        assert sorted(nxt) == list(range(10))
        assert np.all(mesh.elements[nxt, 0] == mesh.elements[:, 1])


class TestIo:
    def test_round_trip(self, tmp_path):
        mesh = make_square(3)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)
        assert np.array_equal(back.curve_id, mesh.curve_id)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertices 3\n0 0\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="expected"):
            load_mesh(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines[:3], r"nodes section expects 6 rows of 2 values "
                                  r"\(12 tokens\), got 4"),
        (lambda lines: lines[:7], r"expected the 'elements <count>' header"),
        (lambda lines: lines[:10], r"elements section expects 6 rows of 3 "
                                   r"values \(18 tokens\), got 6"),
        (lambda lines: lines + ["0 1"], r"2 extra token\(s\) after the "
                                        r"elements section of 6 rows"),
        (lambda lines: ["nodes six"] + lines[1:], r"nodes count must be a "
                                                  r"nonnegative integer"),
    ], ids=["cut-in-nodes", "cut-before-elements", "cut-in-elements",
            "trailing-tokens", "bad-count"])
    def test_truncated_or_padded_rejected(self, tmp_path, edit, match):
        path = tmp_path / "mesh.txt"
        save_mesh(make_circle(6), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError, match="malformed mesh file: " + match):
            load_mesh(path)
