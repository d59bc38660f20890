import itertools

import numpy as np
import pytest

from vicontrol.assembly import ProblemData, assemble
from vicontrol.convergence import fit_order
from vicontrol.errors import EvaluationError, InvalidParameterError, MeshError
from vicontrol.mesh import (
    SIDES,
    Mesh,
    ScalarField,
    _element_geometry,
    _prolongation,
    build_unit_square,
    constant_field,
    format_rows,
    interpolate,
    prolongate,
    refine_uniform,
    validate_mesh,
    write_mesh,
)

from oracles import h1_seminorm_error, l2_error, prolongate_barycentric


def test_two_triangle_square_counts():
    m = build_unit_square(1, "bottom")
    assert m.triangle_count == 2
    assert m.node_count == 4
    assert m.gamma1_edges.shape[0] == 1
    assert m.gamma2_edges.shape[0] == 3


def test_structured_counts_and_h():
    m = build_unit_square(2)
    assert m.triangle_count == 8
    assert m.node_count == 9
    assert m.h == pytest.approx(np.sqrt(2) / 2, abs=0)


@pytest.mark.parametrize("gamma1", ["bottom", "left", "bottom,left", "top,right,left"])
def test_conformity_audit(gamma1):
    validate_mesh(build_unit_square(4, gamma1))


def test_zero_subdivisions_rejected():
    with pytest.raises(InvalidParameterError):
        build_unit_square(0)


def test_bad_side_name_rejected():
    with pytest.raises(InvalidParameterError):
        build_unit_square(2, "north")


def test_refine_quadruples_triangles_and_halves_h():
    m = build_unit_square(1)
    r = refine_uniform(m)
    assert r.triangle_count == 8
    assert r.h == pytest.approx(m.h / 2, abs=0)
    validate_mesh(r)
    rr = refine_uniform(r)
    assert rr.triangle_count == 16 * m.triangle_count


def _longest_edge_by_norms(nodes, triangles):
    p = nodes[triangles]
    d01 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    d12 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    d20 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    return float(max(d01.max(), d12.max(), d20.max()))


def _edge_test_meshes():
    """Structured and refined meshes, then randomly perturbed structured ones."""
    meshes = [build_unit_square(n) for n in (1, 2, 3, 128)]
    meshes += [refine_uniform(build_unit_square(3, "bottom,left")),
               refine_uniform(refine_uniform(build_unit_square(1)))]
    yield from meshes
    rng = np.random.default_rng(5)
    for n in (2, 7, 16):
        m = build_unit_square(n)
        yield Mesh(m.nodes + rng.uniform(-0.3, 0.3, m.nodes.shape) / n, m.triangles,
                   m.gamma1_edges, m.gamma2_edges)


def test_longest_edge_is_bitwise_the_largest_side_norm():
    # h comes from the squared side vectors of the element geometry; it must
    # round as the largest of the side norms does
    for m in _edge_test_meshes():
        assert m.h == _longest_edge_by_norms(m.nodes, m.triangles)


def _strided_geometry(mesh):
    """b, c and area read through stride-2 views of the (T, 3, 2) corner array."""
    p = mesh.nodes[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return b, c, 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])


def test_element_geometry_equals_the_strided_corner_reading_bit_for_bit():
    # the geometry gathers x and y one coordinate at a time; on grids and on
    # jittered meshes that are not grids its bytes are those of the corners
    rng = np.random.default_rng(9)
    jittered = []
    for n in (5, 64, 128):
        m = build_unit_square(n)
        jittered.append(Mesh(m.nodes + rng.uniform(-0.3, 0.3, m.nodes.shape) / n, m.triangles,
                             m.gamma1_edges, m.gamma2_edges))
    for m in [*_edge_test_meshes(), build_unit_square(256), *jittered]:
        for got, want in zip(_element_geometry(m), _strided_geometry(m)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_refine_inherits_boundary_tags():
    m = build_unit_square(2, "bottom,left")
    r = refine_uniform(m)
    validate_mesh(r)
    assert r.gamma1_edges.shape[0] == 2 * m.gamma1_edges.shape[0]
    assert r.gamma2_edges.shape[0] == 2 * m.gamma2_edges.shape[0]
    # every child gamma1 edge lies on the bottom or left side
    for a, b in r.gamma1_edges:
        pa, pb = r.nodes[a], r.nodes[b]
        on_bottom = pa[1] == 0.0 and pb[1] == 0.0
        on_left = pa[0] == 0.0 and pb[0] == 0.0
        assert on_bottom or on_left


def test_refine_matches_rebuild_on_dyadic_grid():
    for k in range(1, len(SIDES) + 1):
        for sides in itertools.combinations(SIDES, k):
            r = refine_uniform(build_unit_square(4, sides))
            b = build_unit_square(8, sides)
            np.testing.assert_array_equal(r.nodes, b.nodes)
            assert r.division_count == 8
            for got, want in ((r.gamma1_edges, b.gamma1_edges),
                              (r.gamma2_edges, b.gamma2_edges)):
                assert set(map(tuple, got.tolist())) == set(map(tuple, want.tolist()))


def test_interpolation_reproduces_affine_functions():
    m = build_unit_square(3)
    f = lambda x, y: 3.0 * x - y
    field = interpolate(m, f)
    assert l2_error(m, field.values, f) < 1e-14
    assert h1_seminorm_error(m, field.values, lambda x, y: (3.0, -1.0)) < 1e-13


def test_interpolation_of_constant():
    m = build_unit_square(2)
    field = interpolate(m, lambda x, y: 4.5)
    np.testing.assert_array_equal(field.values, np.full(9, 4.5))


def test_interpolation_is_a_projection():
    m = build_unit_square(4)
    field = interpolate(m, lambda x, y: np.sin(x) + y * y)
    again = ScalarField(m, field.values.copy())
    np.testing.assert_array_equal(field.values, again.values)


def test_interpolation_error_orders_for_x_squared():
    f = lambda x, y: x * x
    grad = lambda x, y: (2.0 * x, 0.0)
    rows_l2, rows_h1 = [], []
    for n in (4, 8, 16, 32):
        m = build_unit_square(n)
        v = interpolate(m, f).values
        rows_l2.append((m.h, l2_error(m, v, f)))
        e_h1 = h1_seminorm_error(m, v, grad)
        e_l2 = rows_l2[-1][1]
        rows_h1.append((m.h, np.hypot(e_l2, e_h1)))
    assert abs(fit_order(rows_l2) - 2.0) <= 0.1
    assert abs(fit_order(rows_h1) - 1.0) <= 0.1


def test_interpolation_rejects_non_finite_values():
    m = build_unit_square(2)
    with pytest.raises(EvaluationError):
        interpolate(m, lambda x, y: np.inf if x > 0.4 else 0.0)


def test_interpolation_names_the_one_non_finite_node():
    m = build_unit_square(8)
    bad = 4 * 9 + 3  # interior node (3/8, 4/8)

    def f(x, y):
        return np.nan if (x, y) == (3 / 8, 4 / 8) else x * y

    with pytest.raises(EvaluationError, match=f"f\\(0.375, 0.5\\) = nan at node {bad} is not"):
        interpolate(m, f)
    g = lambda x, y: np.sin(7 * x) * np.exp(y)
    assert interpolate(m, g).values.tobytes() == interpolate(m, g).values.tobytes()


def test_field_length_mismatch_rejected():
    m = build_unit_square(2)
    with pytest.raises(InvalidParameterError):
        ScalarField(m, np.zeros(5))


def test_prolongation_is_exact_on_nested_grids():
    coarse = build_unit_square(4)
    fine = build_unit_square(16)
    f = lambda x, y: 2.0 * x - 0.5 * y + 1.0
    lifted = prolongate(interpolate(coarse, f), fine)
    np.testing.assert_allclose(lifted.values, interpolate(fine, f).values, atol=1e-14)
    # injection at shared nodes for a non-affine field
    g = interpolate(coarse, lambda x, y: np.cos(3 * x) * y)
    lifted = prolongate(g, fine)
    for i, (x, y) in enumerate(coarse.nodes):
        j = np.flatnonzero((fine.nodes[:, 0] == x) & (fine.nodes[:, 1] == y))[0]
        assert lifted.values[j] == g.values[i]


@pytest.mark.parametrize("nc", [1, 2, 3, 4, 8])
def test_prolongation_matches_the_barycentric_formula_bit_for_bit(nc):
    # P @ u must add each row's terms in the formula's order: a P whose rows
    # are sorted by column rounds differently once a row has three terms
    rng = np.random.default_rng(nc)
    coarse = build_unit_square(nc)
    for ratio in (2, 3, 4, 8, 16):
        u = rng.standard_normal(coarse.node_count)
        fine = build_unit_square(ratio * nc)
        got = prolongate(ScalarField(coarse, u), fine).values
        assert got.tobytes() == prolongate_barycentric(u, nc, fine.nodes).tobytes(), ratio


def test_prolongation_matrix_is_built_once_and_read_only():
    nc, ratio = 3, 4
    P = _prolongation(nc, ratio)
    assert _prolongation(nc, ratio) is P
    for arr in (P.data, P.indices, P.indptr):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        P.sort_indices()  # would reorder each row's terms for every caller
    fine = build_unit_square(ratio * nc)
    sys = assemble(fine, ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0))
    P.T @ sys.K @ P
    u = np.random.default_rng(4).standard_normal((nc + 1) ** 2)
    got = prolongate(ScalarField(build_unit_square(nc), u), fine).values
    assert got.tobytes() == prolongate_barycentric(u, nc, fine.nodes).tobytes()


def test_prolongation_requires_nested_structured_meshes():
    with pytest.raises(InvalidParameterError):
        prolongate(constant_field(build_unit_square(3), 1.0), build_unit_square(4))


def test_validate_catches_tag_overlap():
    m = build_unit_square(2)
    broken = Mesh(
        nodes=m.nodes.copy(),
        triangles=m.triangles.copy(),
        gamma1_edges=m.gamma1_edges.copy(),
        gamma2_edges=np.vstack([m.gamma2_edges, m.gamma1_edges[:1]]),
    )
    with pytest.raises(MeshError):
        validate_mesh(broken)


def test_mesh_export_format(tmp_path):
    m = build_unit_square(1)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "nodes 4 triangles 2"
    assert lines[1 + 4 + 2] == "gamma1"
    assert lines[1 + 4 + 2 + 1 + 1] == "gamma2"
    # node lines parse back to the coordinates
    coords = [tuple(map(float, ln.split())) for ln in lines[1:5]]
    np.testing.assert_array_equal(np.array(coords), m.nodes)


def test_an_empty_edge_list_adds_no_line_to_the_mesh_file(tmp_path):
    m = build_unit_square(2, "bottom,right,top,left")
    assert m.gamma2_edges.shape == (0, 2)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    text = path.read_text()
    assert text.endswith("\ngamma2\n")
    assert text.splitlines()[1 + 9 + 8] == "gamma1" and text.count("\n") == 1 + 9 + 8 + 1 + 8 + 1


def test_format_rows_prints_what_the_row_lists_printed():
    m = build_unit_square(3)
    u = np.linspace(-1.0, 1.0, m.node_count)
    u[[0, 5, 7]] = [-0.0, 1e-300, -5e-324]
    for fmt, columns in [("%.17g,%.17g,%.17g", (m.nodes, u)), ("%d %d %d", (m.triangles,)),
                         ("%.17g", (u,)), ("%d %d", (m.gamma1_edges[:0],)),
                         ("%.17g", (np.array([0.0, -0.0, 0.0, -0.0]),)),
                         ("%.17g %.17g", (m.nodes[:1],)), ("%d %d %d", (m.triangles[:1],)),
                         ("%.17g,%.17g,%.17g", (m.nodes[:0], u[:0]))]:
        old = [fmt % tuple(row) for row in np.column_stack(columns).tolist()]
        assert format_rows(fmt, *columns) == "\n".join(old)
    assert format_rows("%.17g,%.17g,%.17g", m.nodes, u).split("\n")[0] == "0,0,-0"
