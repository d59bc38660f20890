"""The PSOR layout: red-black classes from the grid, each class contiguous.

``solve_psor`` sweeps a permuted copy of the free-node matrix instead of
gathering and scattering each colour class; these tests hold it to the
greedy colouring and to the fancy-index sweep kept in ``oracles``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import reference_psor
from vicontrol import vi_solver
from vicontrol.assembly import ProblemData, assemble
from vicontrol.cli import main
from vicontrol.mesh import build_unit_square
from vicontrol.presets import box_control
from vicontrol.vi_solver import (
    DIRICHLET_LIMIT,
    ROBIN,
    VIProblem,
    _coarse_contact,
    _colour_classes,
    _grid_classes,
    build_vi_problem,
    solve_active_set,
    solve_psor,
)

FAMILIES = [ROBIN, DIRICHLET_LIMIT]
ALL_SIDES = "bottom,right,top,left"


def _contact_v1(n, family, gamma1="bottom"):
    m = build_unit_square(n, gamma1)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                       g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
    return build_vi_problem(m, assemble(m, data), data, family)


def _three_colour_m_matrix():
    # the matrix and load of test_psor_matches_active_set_on_a_three_colour_m_matrix
    rng = np.random.default_rng(3)
    n = 40
    upper = sp.triu(sp.random(n, n, density=0.12, random_state=rng), k=1)
    off = -(upper + upper.T).tocsr()
    a = (off + sp.diags(1.0 + np.asarray(abs(off).sum(axis=1)).ravel())).tocsr()
    return VIProblem(A=a, F=rng.uniform(-1.0, 1.0, n), lower_bound=np.zeros(n))


def assert_same_classes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def assert_grid_coloured(p):
    op = p._operator
    grid = _grid_classes(op.a_ff, op.free, p.division_count)
    assert grid is not None
    assert_same_classes(grid, _colour_classes(op.a_ff))
    assert_same_classes(op.psor_layout[0], grid)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("gamma1", ["bottom", "left", "bottom,left", ALL_SIDES])
def test_the_grid_colouring_is_the_greedy_one(family, gamma1):
    for n in (1, 2, 3, 8, 24, 33):
        assert_grid_coloured(_contact_v1(n, family, gamma1))


@pytest.mark.parametrize("family", FAMILIES)
def test_the_galerkin_operators_of_a_nested_start_are_grid_coloured(monkeypatch, family):
    coarse = []
    solve = vi_solver.solve_active_set

    def spy(p, **kwargs):
        coarse.append(p)
        return solve(p, **kwargs)

    monkeypatch.setattr(vi_solver, "solve_active_set", spy)
    assert _coarse_contact(_contact_v1(64, family), 1e-10) is not None
    assert sorted(p.division_count for p in coarse) == [8, 16, 32]
    for p in coarse:
        assert_grid_coloured(p)


def test_a_matrix_without_a_grid_keeps_the_greedy_classes():
    p = _three_colour_m_matrix()
    classes, perm, rows = p._operator.psor_layout
    want = _colour_classes(p._operator.a_ff)
    assert len(want) >= 3
    assert_same_classes(classes, want)
    np.testing.assert_array_equal(perm, np.concatenate(want))
    assert [a_c.shape[0] for a_c in rows] == [c.size for c in want]


def _with_cell_diagonal(p, weight):
    """p with weight (e_0 - e_k)(e_0 - e_k)^T added to A, k = n + 2 the node
    diagonally above node 0, so A couples two nodes of one parity; at weight
    0 the coupling is stored as an explicit zero."""
    k = p.division_count + 2
    a = p.A.tocoo()
    rows, cols = np.append(a.row, [0, k, 0, k]), np.append(a.col, [k, 0, 0, k])
    A = sp.coo_matrix((np.append(a.data, [-weight, -weight, weight, weight]), (rows, cols)),
                      shape=a.shape).tocsr()
    assert A.nnz == p.A.nnz + 2
    return VIProblem(A=A, F=p.F, lower_bound=p.lower_bound, division_count=p.division_count)


@pytest.mark.parametrize("weight", [0.0, 0.5])
def test_a_grid_matrix_coupling_one_parity_keeps_the_greedy_classes(weight):
    p = _with_cell_diagonal(_contact_v1(4, ROBIN), weight)
    op = p._operator
    greedy = _colour_classes(op.a_ff)
    assert len(greedy) == (2 if weight == 0.0 else 3)
    assert (_grid_classes(op.a_ff, op.free, 4) is None) == (weight != 0.0)
    assert_same_classes(op.psor_layout[0], greedy)
    values, iterations, _ = reference_psor(p)
    rep = solve_psor(p)
    assert (rep.iterations, rep.solution.tobytes()) == (iterations, values.tobytes())


@pytest.mark.parametrize("p", [
    *(_contact_v1(n, f) for f in FAMILIES for n in (24, 33)),
    _three_colour_m_matrix(),
], ids=["robin-24", "robin-33", "dirichlet_limit-24", "dirichlet_limit-33", "m-matrix"])
def test_psor_makes_the_sweeps_and_bytes_of_the_fancy_index_reference(p):
    values, iterations, residual = reference_psor(p)
    rep = solve_psor(p)
    assert rep.iterations == iterations
    assert rep.solution.tobytes() == values.tobytes()
    assert rep.residual == residual


@pytest.mark.parametrize("n, free", [(1, 0), (2, 1)])
def test_psor_with_at_most_one_free_node_returns_the_trace(n, free):
    p = _contact_v1(n, DIRICHLET_LIMIT, ALL_SIDES)
    assert p._operator.free.size == free
    rep = solve_psor(p)
    np.testing.assert_array_equal(rep.solution[p.dirichlet_nodes], p.dirichlet_values)
    values, iterations, _ = reference_psor(p)
    assert rep.iterations == iterations
    assert rep.solution.tobytes() == values.tobytes()
    assert np.max(np.abs(rep.values() - solve_active_set(p).values())) <= 1e-10


@pytest.mark.parametrize("family", FAMILIES)
def test_a_psor_state_on_a_grid_never_colours_greedily(monkeypatch, tmp_path, family):
    def greedy(a):
        raise AssertionError("greedy colouring on a grid")

    monkeypatch.setattr(vi_solver, "_colour_classes", greedy)
    assert main(["state", "--set", "solver=psor", "--cross-check", "--set", f"family={family}",
                 "--out", str(tmp_path)]) == 0
