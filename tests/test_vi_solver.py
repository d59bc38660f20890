import gc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vicontrol import vi_solver
from vicontrol.assembly import (
    ProblemData,
    assemble,
    coercivity_constant,
    norm_H,
    norm_V,
)
from vicontrol.errors import InvalidParameterError, MatrixError, NonConvergenceError
from vicontrol.mesh import ScalarField, build_unit_square, prolongate
from vicontrol.presets import box_control
from vicontrol.vi_solver import (
    DIRICHLET_LIMIT,
    ROBIN,
    VIProblem,
    _colour_classes,
    _free_split,
    _prolongation,
    adjoint_lift,
    build_vi_problem,
    solve_active_set,
    solve_enumerate,
    solve_psor,
    solve_state,
)


def contact_problem(n=2, alpha=2.0, g=-20.0, q=1.0, b=1.0):
    m = build_unit_square(n)
    data = ProblemData(alpha=alpha, b=b, q=q, M_cost=1.0, g=g)
    sys = assemble(m, data)
    return m, sys, data


def test_constant_solution_when_data_is_quiet():
    m, sys, data = contact_problem(n=3, alpha=2.0, g=0.0, q=0.0, b=1.5)
    for solver in ("psor", "active_set"):
        rep = solve_state(m, sys, data, ROBIN, solver=solver)
        np.testing.assert_allclose(rep.values(), 1.5, atol=1e-9)
    rep = solve_state(m, sys, data, DIRICHLET_LIMIT)
    np.testing.assert_allclose(rep.values(), 1.5, atol=1e-9)


def test_inactive_constraint_reduces_to_linear_solve():
    # strong heating keeps the state far from the obstacle
    m, sys, data = contact_problem(n=3, alpha=1.0, g=5.0, q=0.0)
    p = build_vi_problem(m, sys, data, ROBIN)
    direct = spla.spsolve(p.A.tocsc(), p.F)
    assert direct.min() > 0.1
    for rep in (solve_psor(p, mesh=m), solve_active_set(p, mesh=m)):
        np.testing.assert_allclose(rep.values(), direct, atol=1e-9)
        assert rep.active_set.size == 0


def test_contact_instance_matches_enumeration_oracle():
    m, sys, data = contact_problem(n=2, alpha=2.0, g=-20.0, q=1.0, b=1.0)
    p = build_vi_problem(m, sys, data, ROBIN)
    oracle = solve_enumerate(p, mesh=m)
    for rep in (solve_psor(p, mesh=m), solve_active_set(p, mesh=m)):
        assert np.max(np.abs(rep.values() - oracle.values())) <= 1e-10


def test_randomized_oracle_equivalence_small():
    rng = np.random.default_rng(11)
    m = build_unit_square(2)
    for _ in range(5):
        data = ProblemData(
            alpha=float(rng.uniform(0.5, 4.0)),
            b=float(rng.uniform(0.5, 2.0)),
            q=float(rng.uniform(-1.0, 2.0)),
            M_cost=1.0,
            g=ScalarField(m, rng.uniform(-30.0, 10.0, m.node_count)),
        )
        sys = assemble(m, data)
        p = build_vi_problem(m, sys, data, ROBIN)
        oracle = solve_enumerate(p, mesh=m)
        assert np.max(np.abs(solve_psor(p).values() - oracle.values())) <= 1e-10
        assert np.max(np.abs(solve_active_set(p).values() - oracle.values())) <= 1e-10


def test_solutions_are_feasible_and_complementary():
    m, sys, data = contact_problem(n=4)
    p = build_vi_problem(m, sys, data, ROBIN)
    for rep in (solve_psor(p, mesh=m), solve_active_set(p, mesh=m)):
        assert rep.values().min() >= -1e-12
        assert rep.residual <= 1e-10
        r = p.A @ rep.values() - p.F
        assert np.max(np.abs(np.minimum(rep.values(), r))) <= 1e-10


def test_dirichlet_rows_pinned_exactly():
    m, sys, data = contact_problem(n=4, g=-5.0)
    rep = solve_state(m, sys, data, DIRICHLET_LIMIT)
    np.testing.assert_array_equal(rep.values()[m.gamma1_nodes()], data.b)


def test_dirichlet_value_must_respect_obstacle():
    m = build_unit_square(2)
    nodes = m.gamma1_nodes()
    with pytest.raises(InvalidParameterError):
        VIProblem(
            A=assemble(m).K.tocsr(),
            F=np.zeros(9),
            lower_bound=np.zeros(9),
            dirichlet_nodes=nodes,
            dirichlet_values=np.full(nodes.size, -1.0),
        )


def test_uniqueness_across_initial_iterates():
    m, sys, data = contact_problem(n=8)
    p = build_vi_problem(m, sys, data, ROBIN)
    rng = np.random.default_rng(5)
    sols = []
    for _ in range(5):
        u0 = np.maximum(rng.uniform(-1.0, 3.0, m.node_count), 0.0)
        sols.append(solve_psor(p, tol=1e-11, u0=u0, mesh=m).values())
    base = solve_active_set(p, mesh=m).values()
    for k in range(5):
        start = rng.choice(m.node_count, size=k + 1, replace=False)
        sols.append(solve_active_set(p, initial_active=start, mesh=m).values())
    for u in sols:
        assert norm_V(sys, u - base) <= 1e-8


def test_lipschitz_dependence_on_the_control():
    m = build_unit_square(4)
    rng = np.random.default_rng(17)
    alpha = 1.0
    base = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, base)
    lam = coercivity_constant(sys, alpha)
    for _ in range(10):
        g1 = ScalarField(m, rng.uniform(-10.0, 10.0, m.node_count))
        g2 = ScalarField(m, rng.uniform(-10.0, 10.0, m.node_count))
        d1 = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0, g=g1)
        d2 = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0, g=g2)
        u1 = solve_state(m, sys, d1, ROBIN).values()
        u2 = solve_state(m, sys, d2, ROBIN).values()
        assert norm_V(sys, u2 - u1) <= norm_H(sys, g2.values - g1.values) / lam + 1e-8


def test_state_norm_bounded_along_refinement():
    # discrete V-norms approach the bound from below; the 1.05x cap applies
    # once the mesh resolves the contact geometry (h0 = h at n = 16)
    norms_v = []
    for n in (16, 32, 64):
        m = build_unit_square(n)
        data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                           g=lambda x, y: -20.0 if 0.25 <= x <= 0.75 and 0.25 <= y <= 0.75 else 0.0)
        sys = assemble(m, data)
        rep = solve_state(m, sys, data, ROBIN)
        norms_v.append(norm_V(sys, rep.values()))
    coarsest = norms_v[0]
    assert all(v <= 1.05 * coarsest for v in norms_v[1:])


def test_monotone_load_property_is_flagged_not_asserted():
    # raising the control nodewise should not lower the state; record only
    m, sys, data = contact_problem(n=4)
    rng = np.random.default_rng(23)
    violations = 0
    for _ in range(10):
        g1 = rng.uniform(-10.0, 5.0, m.node_count)
        g2 = g1 + rng.uniform(0.0, 5.0, m.node_count)
        d1 = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=ScalarField(m, g1))
        d2 = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=ScalarField(m, g2))
        u1 = solve_state(m, sys, d1, ROBIN).values()
        u2 = solve_state(m, sys, d2, ROBIN).values()
        if np.min(u2 - u1) < -1e-9:
            violations += 1
    print(f"monotone-load violations: {violations}/10 (recorded, not asserted)")


def test_cross_check_mode_agrees():
    m, sys, data = contact_problem(n=4)
    rep = solve_state(m, sys, data, ROBIN, cross_check=True)
    assert rep.residual <= 1e-10


def test_psor_nonconvergence_carries_residual():
    # a smooth (contact-free) solve cannot reach 1e-14 in two sweeps
    m, sys, data = contact_problem(n=8, g=5.0, q=0.0)
    p = build_vi_problem(m, sys, data, ROBIN)
    with pytest.raises(NonConvergenceError) as info:
        solve_psor(p, tol=1e-14, max_iter=2)
    assert info.value.residual is not None and info.value.residual > 1e-14


def test_non_positive_diagonal_detected():
    m = build_unit_square(2)
    sys = assemble(m)
    p = VIProblem(A=(-sys.M_H).tocsr(), F=np.zeros(9), lower_bound=np.zeros(9))
    with pytest.raises(MatrixError):
        solve_psor(p)
    with pytest.raises(MatrixError):
        solve_active_set(p)


def test_enumeration_refuses_large_problems():
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    p = build_vi_problem(m, sys, data, ROBIN)
    with pytest.raises(InvalidParameterError):
        solve_enumerate(p)


def test_unknown_family_and_solver_rejected():
    m, sys, data = contact_problem()
    with pytest.raises(InvalidParameterError):
        solve_state(m, sys, data, "neumann")
    with pytest.raises(InvalidParameterError):
        solve_state(m, sys, data, ROBIN, solver="multigrid")


def test_dirichlet_limit_load_ignores_alpha():
    # same Dirichlet system for different alpha values in the data
    m = build_unit_square(3)
    d1 = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=-3.0)
    d2 = ProblemData(alpha=500.0, b=1.0, q=1.0, M_cost=1.0, g=-3.0)
    sys = assemble(m, d1)
    u1 = solve_state(m, sys, d1, DIRICHLET_LIMIT).values()
    u2 = solve_state(m, sys, d2, DIRICHLET_LIMIT).values()
    np.testing.assert_array_equal(u1, u2)


def assert_proper_colouring(a, classes):
    nodes = np.concatenate(classes)
    np.testing.assert_array_equal(np.sort(nodes), np.arange(a.shape[0]))
    colour = np.empty(a.shape[0], dtype=np.int64)
    for k, c in enumerate(classes):
        colour[c] = k
    coo = a.tocoo()
    off = coo.row != coo.col
    assert np.all(colour[coo.row[off]] != colour[coo.col[off]])


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_colour_classes_split_free_nodes_into_uncoupled_sets(family):
    m, sys, data = contact_problem(n=8)
    _, a_ff, _, _, _ = _free_split(build_vi_problem(m, sys, data, family))
    classes = _colour_classes(a_ff)
    assert_proper_colouring(a_ff, classes)
    assert len(classes) == 2  # the structured stencil stores no cell-diagonal coupling


def test_psor_matches_active_set_on_a_three_colour_m_matrix():
    rng = np.random.default_rng(3)
    n = 40
    upper = sp.triu(sp.random(n, n, density=0.12, random_state=rng), k=1)
    off = -(upper + upper.T).tocsr()
    a = (off + sp.diags(1.0 + np.asarray(abs(off).sum(axis=1)).ravel())).tocsr()
    classes = _colour_classes(a)
    assert len(classes) >= 3
    assert_proper_colouring(a, classes)
    p = VIProblem(A=a, F=rng.uniform(-1.0, 1.0, n), lower_bound=np.zeros(n))
    psor = solve_psor(p)
    ref = solve_active_set(p, tol=1e-12)
    assert ref.active_set.size > 0
    assert np.max(np.abs(psor.values() - ref.values())) <= 1e-9


def test_psor_repeat_is_bit_identical():
    m, sys, data = contact_problem(n=16)
    p = build_vi_problem(m, sys, data, ROBIN)
    np.testing.assert_array_equal(solve_psor(p).values(), solve_psor(p).values())


class _Factor:
    """An LU factor that a weakref can follow."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)


def _proxy_splu(monkeypatch, record):
    """Route vi_solver's splu through a proxy that passes each factor to record."""
    def splu(a):
        factor = _Factor(spla.splu(a))
        record(factor)
        return factor

    monkeypatch.setattr(vi_solver, "spla", SimpleNamespace(splu=splu))


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_with_load_reuses_the_last_lu_factor(family, monkeypatch):
    made = []
    _proxy_splu(monkeypatch, made.append)
    m, sys, data = contact_problem(n=8)
    p = build_vi_problem(m, sys, data, family)
    rep = solve_active_set(p, mesh=m)
    assert rep.active_set.size > 0
    count = len(made)
    q = p.with_load(1.001 * p.F)
    again = solve_active_set(q, initial_active=rep.active_set, mesh=m)
    np.testing.assert_array_equal(again.active_set, rep.active_set)
    rhs = sys.M_H @ again.values()
    w = adjoint_lift(q, again.active_set, rhs)
    assert q._operator is p._operator
    assert len(made) == count
    # the shared factor gives the answers of a problem reduced afresh
    fresh = replace(p, F=1.001 * p.F)
    np.testing.assert_array_equal(solve_active_set(fresh, mesh=m).values(), again.values())
    np.testing.assert_array_equal(adjoint_lift(fresh, again.active_set, rhs), w)


def test_an_operator_keeps_at_most_one_lu_factor(monkeypatch):
    live, alive_at_make = weakref.WeakSet(), []

    def record(factor):
        alive_at_make.append(len(live))
        live.add(factor)

    _proxy_splu(monkeypatch, record)
    m, sys, data = contact_problem(n=16, g=-20.0, q=1.0)
    p = build_vi_problem(m, sys, data, DIRICHLET_LIMIT)
    rep = solve_active_set(p, mesh=m)
    assert rep.iterations > 2
    assert alive_at_make == [0] * len(alive_at_make)  # the old one goes first
    gc.collect()
    assert len(live) <= 1


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_replace_reduces_a_changed_matrix_afresh(family):
    m, sys, data = contact_problem(n=8)
    p = build_vi_problem(m, sys, data, family)
    before = solve_active_set(p).values()
    q = replace(p, A=2.0 * p.A)
    assert q._operator is not p._operator
    built = VIProblem(
        A=2.0 * p.A, F=p.F, lower_bound=p.lower_bound,
        dirichlet_nodes=p.dirichlet_nodes, dirichlet_values=p.dirichlet_values,
    )
    after = solve_active_set(q).values()
    np.testing.assert_array_equal(after, solve_active_set(built).values())
    assert np.max(np.abs(after - before)) > 1e-3


def test_with_load_free_split_matches_a_fresh_dirichlet_problem():
    m, sys, data = contact_problem(n=8)
    p = build_vi_problem(m, sys, replace(data, g=0.0), DIRICHLET_LIMIT)
    fresh = build_vi_problem(m, sys, data, DIRICHLET_LIMIT)
    free, _, f_f, lb_f, full = _free_split(p.with_load(fresh.F))
    free2, _, f_f2, lb_f2, full2 = _free_split(fresh)
    for a, b in ((free, free2), (f_f, f_f2), (lb_f, lb_f2), (full, full2)):
        np.testing.assert_array_equal(a, b)
    assert f_f.tobytes() == f_f2.tobytes()


@pytest.mark.parametrize("nc", [1, 2, 3, 8])
def test_prolongation_matrix_is_prolongate(nc):
    u = np.random.default_rng(nc).standard_normal((nc + 1) ** 2)
    fine = prolongate(ScalarField(build_unit_square(nc), u), build_unit_square(2 * nc))
    assert (_prolongation(nc) @ u).tobytes() == fine.values.tobytes()


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_nested_start_gives_the_cold_answer_in_few_iterations(family):
    m, sys, data = contact_problem(n=64)
    cold = solve_active_set(build_vi_problem(m, sys, data, family), mesh=m)
    rep = solve_state(m, sys, data, family)
    assert cold.iterations > 5 >= rep.iterations
    assert rep.values().tobytes() == cold.values().tobytes()


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_smoothed_nested_start_needs_at_most_two_fine_iterations(family):
    # the contact-v1 box control; unsmoothed prolonged sets take 3-4 here
    m, sys, data = contact_problem(n=64, g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
    cold = solve_active_set(build_vi_problem(m, sys, data, family), mesh=m)
    rep = solve_state(m, sys, data, family)
    assert rep.iterations <= 2
    assert rep.values().tobytes() == cold.values().tobytes()


def test_nested_start_never_sweeps_a_non_positive_diagonal():
    m, sys, data = contact_problem(n=16)
    p = build_vi_problem(m, sys, data, ROBIN)
    a = p.A.tolil()
    a[18, 18] = 0.0  # node (1, 1) of the 16 grid is on no coarse node
    p = replace(p, A=a.tocsr())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MatrixError):
            vi_solver._solve(p, "active_set", 1e-10, mesh=m)


def test_a_failed_coarse_solve_starts_the_fine_solve_cold(monkeypatch):
    m, sys, data = contact_problem(n=32)
    fine_size = m.node_count
    solve = vi_solver.solve_active_set

    def failing_on_coarse(p, *args, **kwargs):
        if p.size < fine_size:
            raise NonConvergenceError("coarse", residual=1.0)
        return solve(p, *args, **kwargs)

    cold = solve_active_set(build_vi_problem(m, sys, data, DIRICHLET_LIMIT), mesh=m)
    monkeypatch.setattr(vi_solver, "solve_active_set", failing_on_coarse)
    rep = solve_state(m, sys, data, DIRICHLET_LIMIT)
    assert rep.iterations == cold.iterations
    assert rep.values().tobytes() == cold.values().tobytes()


@pytest.mark.parametrize("n, division_count", [(33, 33), (32, None)])
def test_no_nested_start_without_an_even_division_count(n, division_count):
    m, sys, data = contact_problem(n=n)
    cold = solve_active_set(build_vi_problem(m, sys, data, DIRICHLET_LIMIT), mesh=m)
    m = replace(m, division_count=division_count)
    rep = solve_state(m, sys, data, DIRICHLET_LIMIT)
    assert rep.iterations == cold.iterations > 5


def test_nested_start_frees_each_coarse_factor_before_the_next(monkeypatch):
    live, alive_at_make, sizes = weakref.WeakSet(), [], []

    def record(factor):
        alive_at_make.append(len(live))
        sizes.append(factor.lu.shape[0])
        live.add(factor)

    _proxy_splu(monkeypatch, record)
    m, sys, data = contact_problem(n=32)
    solve_state(m, sys, data, DIRICHLET_LIMIT)
    assert min(sizes) < 17 ** 2 < max(sizes)  # both levels factored
    assert alive_at_make == [0] * len(alive_at_make)
