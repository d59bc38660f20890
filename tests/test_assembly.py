import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import vicontrol
from vicontrol.assembly import (
    _EDGE_TEMPLATE,
    _MASS_TEMPLATE,
    DOT_RUN,
    ProblemData,
    _dot,
    _edge_lengths,
    as_control_field,
    assemble,
    coercivity_constant,
    dump_matrix,
    load_vector,
    norm_V,
    norms,
    robin_matrix,
)
from vicontrol.errors import AssemblyError, InvalidParameterError
from vicontrol.mesh import (Mesh, _element_geometry, build_unit_square, constant_field,
                            interpolate, refine_uniform)
from vicontrol.presets import box_control

from oracles import quad_assemble, quad_load


def unit_right_triangle_mesh():
    """Single unit right triangle, right-angle vertex first."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]])
    return Mesh(
        nodes=nodes,
        triangles=triangles,
        gamma1_edges=np.array([[0, 1]]),
        gamma2_edges=np.array([[0, 2], [1, 2]]),
    )


def test_local_stiffness_closed_form():
    sys = assemble(unit_right_triangle_mesh())
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_array_equal(sys.K.toarray(), expected)


def test_boundary_mass_edge_block():
    # single gamma1 edge of length 1: the assembled M_R is the local block
    m = build_unit_square(1)
    sys = assemble(m)
    block = sys.M_R[np.ix_([0, 1], [0, 1])].toarray()
    np.testing.assert_array_equal(block, np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0)
    # a node shared by two gamma1 edges accumulates both local diagonals
    m2 = build_unit_square(2)
    sys2 = assemble(m2)
    ell = 0.5
    assert sys2.M_R[1, 1] == pytest.approx(2.0 * (2.0 * ell / 6.0), abs=0)
    assert sys2.M_R[0, 1] == pytest.approx(ell / 6.0, abs=0)


def test_constant_field_energies():
    m = build_unit_square(3)
    sys = assemble(m)
    c = 2.5
    v = np.full(m.node_count, c)
    assert v @ (sys.K @ v) == pytest.approx(0.0, abs=1e-14)
    assert v @ (sys.M_H @ v) == pytest.approx(c * c * 1.0, rel=1e-14)


def _symmetry_test_meshes():
    """Structured meshes with one to four gamma1 sides, a twice-refined mesh
    and a structured mesh with randomly moved interior nodes."""
    for n in (1, 2, 3, 7, 16, 64, 128):
        for sides in ("bottom", "bottom,left", "bottom,right,top,left"):
            yield build_unit_square(n, sides)
    yield refine_uniform(refine_uniform(build_unit_square(3, "left")))
    m = build_unit_square(9)
    inner = np.all((m.nodes > 0.0) & (m.nodes < 1.0), axis=1)
    shift = np.random.default_rng(3).uniform(-0.3, 0.3, m.nodes.shape) / 9
    nodes = m.nodes + inner[:, None] * shift
    yield replace(m, nodes=nodes)


def test_matrices_exactly_symmetric():
    # the element matrices are exactly symmetric, so summing them once stores
    # the bytes of the symmetrized (A + A^T) / 2, which keeps no zeros
    for m in _symmetry_test_meshes():
        sys = assemble(m)
        for mat in (sys.K, sys.M_H, sys.M_R):
            assert abs(mat - mat.T).max() == 0.0
            sym = ((mat + mat.T) * 0.5).tocsr()
            for name in ("data", "indices", "indptr"):
                got, want = getattr(mat, name), getattr(sym, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (mat.data != 0.0).all()


def test_matrices_own_exactly_their_stored_entries():
    # pruning the zero sums leaves views of the larger unpruned sum; at n = 64
    # K's arrays held 29057 slots for 20865 entries
    def buffer_size(arr):
        while arr.base is not None:
            arr = arr.base
        return arr.size

    for m in _symmetry_test_meshes():
        sys = assemble(m)
        for mat in (sys.K, sys.M_H, sys.M_R):
            assert buffer_size(mat.data) == buffer_size(mat.indices) == mat.nnz
            assert buffer_size(mat.indptr) == m.node_count + 1


def test_boundary_mass_support_is_gamma1():
    m = build_unit_square(4, "bottom,left")
    sys = assemble(m)
    np.testing.assert_array_equal(np.unique(sys.M_R.nonzero()[0]), m.gamma1_nodes())


def test_matrices_match_quadrature_oracle():
    m = build_unit_square(3, "bottom,left")
    sys = assemble(m)
    K, M, MR, _, _ = quad_assemble(m)
    np.testing.assert_allclose(sys.K.toarray(), K, atol=1e-13)
    np.testing.assert_allclose(sys.M_H.toarray(), M, atol=1e-14)
    np.testing.assert_allclose(sys.M_R.toarray(), MR, atol=1e-14)


def test_degenerate_triangle_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    mesh = Mesh(
        nodes=nodes,
        triangles=np.array([[0, 1, 2]]),
        gamma1_edges=np.array([[0, 1]]),
        gamma2_edges=np.array([[1, 2], [0, 2]]),
    )
    with pytest.raises(AssemblyError, match="triangle 0"):
        assemble(mesh)


def test_robin_matrix_definition_and_rejection():
    sys = assemble(build_unit_square(2))
    a1 = robin_matrix(sys, 1.0)
    assert abs(a1 - (sys.K + sys.M_R)).max() == 0.0
    with pytest.raises(InvalidParameterError):
        robin_matrix(sys, 0.0)
    with pytest.raises(InvalidParameterError):
        robin_matrix(sys, -2.0)


def test_robin_energy_monotone_in_alpha():
    sys = assemble(build_unit_square(3))
    rng = np.random.default_rng(0)
    a1 = robin_matrix(sys, 1.0)
    for alpha in (1.0, 2.0, 10.0):
        a = robin_matrix(sys, alpha)
        for _ in range(10):
            v = rng.standard_normal(sys.mesh.node_count)
            assert v @ (a @ v) >= v @ (a1 @ v) - 1e-12


def test_robin_matrix_positive_definite_on_benchmarks():
    for n, gamma1 in ((2, "bottom"), (4, "bottom,left"), (8, "top")):
        sys = assemble(build_unit_square(n, gamma1))
        for alpha in (0.5, 1.0, 4.0):
            # Cholesky succeeds only for positive definite matrices
            scipy.linalg.cholesky(robin_matrix(sys, alpha).toarray())


def test_coercivity_constant_structure():
    sys = assemble(build_unit_square(4))
    lam1 = coercivity_constant(sys, 1.0)
    assert lam1 > 0
    for alpha in (0.5, 1.0, 4.0):
        lam = coercivity_constant(sys, alpha)
        assert lam >= lam1 * min(1.0, alpha) - 1e-10


def test_coercivity_bound_on_random_fields():
    sys = assemble(build_unit_square(4))
    rng = np.random.default_rng(7)
    for alpha in (0.5, 2.0):
        lam = coercivity_constant(sys, alpha)
        a = robin_matrix(sys, alpha)
        for _ in range(100):
            v = rng.standard_normal(sys.mesh.node_count)
            assert v @ (a @ v) >= lam * norm_V(sys, v) ** 2 - 1e-10


def test_load_reduces_to_environment_term():
    m = build_unit_square(2)
    data = ProblemData(alpha=3.0, b=1.25, q=0.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    f = load_vector(sys, data)
    np.testing.assert_allclose(f, data.alpha * sys.b_load, atol=0)


def test_environment_load_entries():
    m = build_unit_square(2)
    b = 2.0
    data = ProblemData(alpha=1.0, b=b, q=0.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    f = load_vector(sys, data)
    # gamma1 is the bottom side: corner nodes see one edge of length 1/2,
    # the middle node two; interior and far-boundary nodes see none.
    expected = np.zeros(9)
    expected[0] = expected[2] = b * 0.5 / 2.0
    expected[1] = b * 0.5
    np.testing.assert_allclose(f, expected, atol=1e-15)


def test_full_load_matches_quadrature_oracle():
    m = build_unit_square(2)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=1.0)
    sys = assemble(m, data)
    f = load_vector(sys, data)
    oracle = quad_load(m, np.ones(m.node_count), 1.0, 1.0, 1.0)
    np.testing.assert_allclose(f, oracle, atol=1e-12)


def test_a_callable_or_per_side_flux_loads_as_the_constant():
    # gamma2 is right, top and left; the per-edge flux values are the same floats
    m = build_unit_square(8)
    want = load_vector(assemble(m), ProblemData(alpha=2.0, q=1.0)).tobytes()
    for q in (lambda x, y: 1.0, {"right": 1.0, "top": 1.0, "left": 1.0}):
        data = ProblemData(alpha=2.0, q=q)
        assert load_vector(assemble(m, data), data).tobytes() == want


def test_a_load_that_overflows_float64_raises():
    # alpha * b rounds to inf, and inf times the zero entries off gamma1 would be NaN
    m = build_unit_square(4)
    data = ProblemData(alpha=2.0, b=1e308, q=1.0, M_cost=1.0, g=0.0)
    with pytest.raises(InvalidParameterError):
        load_vector(assemble(m, data), data)


def test_load_affine_in_control():
    m = build_unit_square(3)
    rng = np.random.default_rng(3)
    data0 = ProblemData(alpha=2.0, b=1.0, q=0.5, M_cost=1.0, g=0.0)
    sys = assemble(m, data0)
    f0 = load_vector(sys, data0)
    from vicontrol.mesh import ScalarField

    g1 = ScalarField(m, rng.standard_normal(m.node_count))
    g2 = ScalarField(m, rng.standard_normal(m.node_count))
    f1 = load_vector(sys, ProblemData(alpha=2.0, b=1.0, q=0.5, M_cost=1.0, g=g1))
    f2 = load_vector(sys, ProblemData(alpha=2.0, b=1.0, q=0.5, M_cost=1.0, g=g2))
    comb = ScalarField(m, 2.0 * g1.values - 3.0 * g2.values)
    f = load_vector(sys, ProblemData(alpha=2.0, b=1.0, q=0.5, M_cost=1.0, g=comb))
    np.testing.assert_allclose(
        f - f0, 2.0 * (f1 - f0) - 3.0 * (f2 - f0), atol=1e-12
    )
    np.testing.assert_allclose(f1 - f0, sys.M_H @ g1.values, atol=1e-14)


def test_per_side_flux():
    m = build_unit_square(2)
    data = ProblemData(alpha=1.0, b=1.0, q={"top": 2.0}, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    f = load_vector(sys, data)
    # only top-side nodes receive flux; corners one half-edge, middle two
    assert f[7] == -1.0
    assert f[6] == f[8] == -0.5
    top = [6, 7, 8]
    assert all(f[i] == pytest.approx(data.alpha * sys.b_load[i], abs=1e-15)
               for i in range(9) if i not in top)


def test_norms_of_constant_and_zero():
    m = build_unit_square(4)
    sys = assemble(m)
    ones = constant_field(m, 1.0)
    out = norms(sys, ones)
    assert out["H"] == pytest.approx(1.0, rel=1e-14)
    assert out["R"] == pytest.approx(1.0, rel=1e-14)  # gamma1 = bottom, length 1
    zero = constant_field(m, 0.0)
    assert norms(sys, zero) == {"H": 0.0, "V": 0.0, "R": 0.0}


def test_norm_of_linear_interpolant():
    m = build_unit_square(8)
    sys = assemble(m)
    v = interpolate(m, lambda x, y: x)
    # exact V-norm^2 of x on the unit square: 1/3 + 1
    assert norm_V(sys, v) ** 2 == pytest.approx(1.0 / 3.0 + 1.0, abs=1e-2)
    K, M, _, _, _ = quad_assemble(m)
    oracle = np.sqrt(v.values @ K @ v.values + v.values @ M @ v.values)
    assert norm_V(sys, v) == pytest.approx(oracle, abs=1e-12)


def test_norms_dimension_mismatch():
    sys = assemble(build_unit_square(2))
    with pytest.raises(InvalidParameterError):
        norms(sys, np.zeros(4))


def test_problem_data_validation():
    with pytest.raises(InvalidParameterError):
        ProblemData(alpha=-1.0)
    with pytest.raises(InvalidParameterError):
        ProblemData(b=0.0)
    with pytest.raises(InvalidParameterError):
        ProblemData(M_cost=0.0)
    ProblemData(alpha=None)  # allowed for Dirichlet-limit data


def test_matrix_dump_triplets(tmp_path):
    sys = assemble(build_unit_square(1))
    path = tmp_path / "K.txt"
    dump_matrix(sys.K, path)
    rows = [ln.split() for ln in path.read_text().splitlines()]
    assert all(len(r) == 3 for r in rows)
    rebuilt = np.zeros((4, 4))
    for i, j, v in rows:
        rebuilt[int(i), int(j)] = float(v)
    np.testing.assert_array_equal(rebuilt, sys.K.toarray())


def reference_scatter(mesh, cells, local):
    """The scatter that built each matrix from its own (row, col) broadcast,
    recast by scipy; the shared index arrays must give the same bytes."""
    rows = np.broadcast_to(cells[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(cells[:, None, :], local.shape).ravel()
    n = mesh.node_count
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    a.eliminate_zeros()
    return a.copy()


@pytest.mark.parametrize("mesh", [build_unit_square(n, g) for n in (1, 2, 7, 16, 33)
                                  for g in ("bottom", "bottom,left", "bottom,right,top,left")]
                         + [refine_uniform(build_unit_square(3, "bottom,left"))])
def test_matrices_have_the_bytes_of_the_reference_scatter(mesh):
    bvec, cvec, area = _element_geometry(mesh)
    k_local = (np.einsum("ti,tj->tij", bvec, bvec)
               + np.einsum("ti,tj->tij", cvec, cvec)) / (4.0 * area)[:, None, None]
    ell = _edge_lengths(mesh, mesh.gamma1_edges)
    sys = assemble(mesh)
    for got, (cells, local) in [
        (sys.K, (mesh.triangles, k_local)),
        (sys.M_H, (mesh.triangles, area[:, None, None] * _MASS_TEMPLATE)),
        (sys.M_R, (mesh.gamma1_edges, ell[:, None, None] * _EDGE_TEMPLATE)),
    ]:
        ref = reference_scatter(mesh, cells, local)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_a_box_control_on_all_nodes_is_its_value_at_each_node():
    for n in range(1, 34):
        m = build_unit_square(n)
        t = np.arange(n + 1) / n  # the grid lines, as the node coordinates hold them
        lo, hi = t[n // 4], t[(3 * n) // 4]
        for value in (-0.0, -20.0, 3.5):
            for box in (box_control(value, lo, hi, lo, hi),  # edges on grid lines
                        box_control(value, 0.25 + 1e-9, 0.75 - 1e-9, 0.3, 0.7),
                        box_control(value, -0.5, 0.5, 0.5, 1.5)):  # partly outside
                at_once = as_control_field(m, box).values
                per_node = interpolate(m, box).values
                assert at_once.tobytes() == per_node.tobytes()  # bit for bit: -0.0 is not 0.0
            corner = np.flatnonzero((m.nodes[:, 0] == lo) & (m.nodes[:, 1] == lo))
            on_edge = as_control_field(m, box_control(value, lo, hi, lo, hi)).values[corner]
            assert on_edge.tobytes() == np.float64(value).tobytes()  # the closed box holds it


def test_a_box_control_refuses_a_nan_bound_and_keeps_infinite_ones():
    nan, inf = float("nan"), float("inf")
    for k, name in enumerate(("x0", "x1", "y0", "y1")):
        bounds = [0.25, 0.75, 0.25, 0.75]
        bounds[k] = nan
        with pytest.raises(InvalidParameterError, match=f"box control bound {name} is nan"):
            box_control(-20.0, *bounds)
    m = build_unit_square(4)
    whole = as_control_field(m, box_control(-20.0, -inf, inf, -inf, inf)).values
    assert (whole == -20.0).all()


def test_dot_is_the_blas_dot_up_to_one_run():
    rng = np.random.default_rng(0)
    for size in (1, 3, 1000, DOT_RUN - 1, DOT_RUN):
        x, y = rng.standard_normal(size), rng.standard_normal(size)
        assert _dot(x, y).hex() == float(x @ y).hex()


def test_dot_sums_a_longer_vector_run_by_run_in_order():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(2 * DOT_RUN + 5), rng.standard_normal(2 * DOT_RUN + 5)
    runs = [float(x[i:i + DOT_RUN] @ y[i:i + DOT_RUN]) for i in (0, DOT_RUN, 2 * DOT_RUN)]
    assert _dot(x, y).hex() == ((runs[0] + runs[1]) + runs[2]).hex()


LONG_NORM = """
import numpy as np
from vicontrol.assembly import assemble, norm_H
from vicontrol.mesh import build_unit_square
sys_ = assemble(build_unit_square(256))
for seed in range(4):
    print(norm_H(sys_, np.random.default_rng(seed).standard_normal(sys_.mesh.node_count)).hex())
"""


def test_a_long_norm_has_the_same_bits_on_one_and_two_blas_threads():
    # 66 049 nodes: OpenBLAS sums one dot product that long in per-thread parts;
    # a plain x @ M x gives the fourth norm another last bit on 2 threads than on 1
    src = str(Path(vicontrol.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    bits = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", LONG_NORM], env=env, capture_output=True,
                             text=True, check=True)
        bits.add(run.stdout)
    assert len(bits) == 1, bits


def test_assembly_holds_one_local_array_at_a_time():
    """At n = 128 one array of local matrices is 2.4 MB: the traced peak stays
    below what holding the stiffness and mass locals together would take."""
    mesh = build_unit_square(128, "bottom")
    assemble(mesh)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6
