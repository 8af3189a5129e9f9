import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitrace.bem2d.mesh import (BoundaryMesh, common_rotation_order,
                                   make_circle, make_square, make_three_domain)


class TestCircle:
    def test_perimeter_close_to_circle(self):
        mesh = make_circle(64)
        assert abs(mesh.lengths.sum() - 2 * np.pi) / (2 * np.pi) < 0.002

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
        assert abs(mesh.lengths.sum() - 8.0) < 1e-12


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

    def test_overflowing_lengths_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            make_circle(5, radius=1e300)

    def test_underflowing_lengths_named_as_underflow(self):
        # the nodes are distinct; only their squared distances underflow
        with pytest.raises(ValueError, match="underflow .* distinct nodes"):
            make_circle(7, radius=1e-300)

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

    @pytest.mark.parametrize("build, count", [
        (make_circle, 8.5), (make_square, 2.5), (make_three_domain, 8.5)],
        ids=["circle", "square", "three-domain"])
    def test_non_integer_count_rejected(self, build, count):
        with pytest.raises(ValueError, match=f"integer .*, got {count}$"):
            build(count)
        build(np.int64(4))                  # numpy integers are counts too

    def test_elements_are_cyclic(self):
        mesh = make_circle(10)
        first, second = mesh.elements.T
        assert np.array_equal(first, np.arange(10))
        assert np.array_equal(second, np.roll(first, -1))
        assert mesh.elements.dtype == np.int64
        assert np.array_equal(mesh.second_nodes, mesh.nodes[second])


# the geometry a mesh computes once, in its constructor
GEOMETRY = ("nodes", "second_nodes", "directions", "lengths", "normals")


class TestGeometryOnce:
    @pytest.mark.parametrize("name", GEOMETRY)
    def test_each_read_returns_the_stored_array(self, name):
        mesh = make_square(3)
        assert getattr(mesh, name) is getattr(mesh, name)
        assert mesh.first_nodes is mesh.nodes

    @pytest.mark.parametrize("name", GEOMETRY)
    def test_geometry_is_read_only(self, name):
        mesh = make_circle(8)
        with pytest.raises(ValueError, match="read-only"):
            getattr(mesh, name)[0] = 1.0

    def test_callers_array_is_copied_not_frozen(self):
        nodes = make_circle(12).nodes.copy()
        before = nodes.copy()
        mesh = BoundaryMesh(nodes)
        assert nodes.flags.writeable and np.array_equal(nodes, before)
        assert not np.shares_memory(mesh.nodes, nodes)
        nodes[0] = (5.0, 5.0)           # the mesh keeps its own copy
        assert np.array_equal(mesh.nodes, before)


class TestRotationGroup:
    def test_builders_declare_their_groups(self):
        assert make_circle(12).rotation_order == 12
        assert make_circle(12, center=(2.0, -1.0)).center == (2.0, -1.0)
        assert make_square(3).rotation_order == 4
        inner, outer = make_three_domain(12, 16)
        assert (inner.rotation_order, outer.rotation_order) == (12, 16)
        assert BoundaryMesh(make_circle(12).nodes).rotation_order == 1

    @pytest.mark.parametrize("order", [5, 0, -3, 2.0, 24])
    def test_order_must_divide_the_node_count(self, order):
        with pytest.raises(ValueError, match="rotation_order .* does not "
                                             "divide the 12 nodes"):
            BoundaryMesh(make_circle(12).nodes, order)

    @pytest.mark.parametrize("nodes, order, center", [
        (make_circle(12).nodes, 12, (0.1, 0.0)),
        (make_circle(12).nodes + ([[1e-9, 0.0]] + [[0.0, 0.0]] * 11), 6,
         (0.0, 0.0)),
        (make_square(2).nodes, 8, (0.0, 0.0))],
        ids=["another-centre", "nodes-off-by-1e-9", "square-turned-by-45"])
    def test_rotation_must_map_nodes_onto_nodes(self, nodes, order, center):
        with pytest.raises(ValueError, match="rotation_order .* does not "
                                             "map node i onto node i \\+"):
            BoundaryMesh(nodes, order, center)

    def test_common_order_is_the_gcd_about_one_centre(self):
        inner, outer = make_three_domain(12, 16)
        assert common_rotation_order((inner,)) == 12
        assert common_rotation_order((inner, outer, inner)) == 4
        assert common_rotation_order(
            (inner, make_circle(16, center=(3.0, 0.0)))) == 1
        assert common_rotation_order(
            (inner, BoundaryMesh(outer.nodes))) == 1

    def test_rounding_of_the_nodes_is_tolerated(self):
        nodes = make_circle(12).nodes.copy()
        nodes[5, 0] += 1e-14            # within ROTATION_TOL = 1e-12
        assert BoundaryMesh(nodes, 12).rotation_order == 12


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


@settings(max_examples=60, deadline=None)
@given(star_polygons())
def test_star_polygon_keeps_its_nodes(polygon):
    nodes = star_nodes(*polygon)
    assert BoundaryMesh(nodes).nodes.tobytes() == nodes.tobytes()
    with pytest.raises(ValueError, match="counterclockwise"):
        BoundaryMesh(nodes[::-1])
