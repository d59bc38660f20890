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
    robin_matrix,
)
from vicontrol.errors import (CrossCheckError, InvalidParameterError, MatrixError,
                              NonConvergenceError)
from vicontrol.mesh import ScalarField, build_unit_square, prolongate
from vicontrol.presets import box_control
from oracles import contact_candidates, enumerate_vi_dense, inactive_block
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


# a bordered factor's solve rounds otherwise than a fresh LU of the same
# block, so starts that end on one contact set agree to this max-norm gap
ROUNDING = 1e-13


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
    for rep in (solve_psor(p), solve_active_set(p)):
        np.testing.assert_allclose(rep.values(), direct, atol=1e-9)
        assert rep.active_set.size == 0


def test_contact_instance_matches_enumeration_oracle():
    m, sys, data = contact_problem(n=2, alpha=2.0, g=-20.0, q=1.0, b=1.0)
    p = build_vi_problem(m, sys, data, ROBIN)
    oracle = solve_enumerate(p)
    for rep in (solve_psor(p), solve_active_set(p)):
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
        oracle = solve_enumerate(p)
        assert np.max(np.abs(solve_psor(p).values() - oracle.values())) <= 1e-10
        assert np.max(np.abs(solve_active_set(p).values() - oracle.values())) <= 1e-10


def test_solutions_are_feasible_and_complementary():
    m, sys, data = contact_problem(n=4)
    p = build_vi_problem(m, sys, data, ROBIN)
    for rep in (solve_psor(p), solve_active_set(p)):
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
        sols.append(solve_psor(p, tol=1e-11, u0=u0).values())
    base = solve_active_set(p).values()
    for k in range(5):
        start = rng.choice(m.node_count, size=k + 1, replace=False)
        sols.append(solve_active_set(p, initial_active=start).values())
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


def _contact_v1(n, alpha=2.0):
    return contact_problem(n=n, alpha=alpha, g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))


@pytest.mark.parametrize("family, n, alpha", [
    (ROBIN, 24, 2.0), (DIRICHLET_LIMIT, 24, 2.0), (ROBIN, 64, 2.0), (DIRICHLET_LIMIT, 64, 2.0),
    (ROBIN, 32, 16384.0),  # K + alpha M_R is not an M-matrix here
])
def test_the_reference_answer_does_not_depend_on_its_start(family, n, alpha):
    # the active-set reference of a PSOR cross-check, at its tolerance
    m, sys, data = _contact_v1(n, alpha)

    def reference(initial_active=None):
        p = build_vi_problem(m, sys, data, family)
        return vi_solver._solve(p, "active_set", 1e-12, initial_active=initial_active)

    nested = reference()
    p = build_vi_problem(m, sys, data, family)
    from_psor = reference(solve_psor(p).active_set)
    everywhere = reference(p._operator.free)
    assert from_psor.iterations == 1
    for rep in (from_psor, everywhere):
        np.testing.assert_allclose(rep.values(), nested.values(), rtol=0.0, atol=ROUNDING)
        assert rep.active_set.tobytes() == nested.active_set.tobytes()


def _spy(monkeypatch, name, calls):
    solve = getattr(vi_solver, name)

    def spy(p, **kwargs):
        rep = solve(p, **kwargs)
        calls.append((kwargs, rep))
        return rep

    monkeypatch.setattr(vi_solver, name, spy)


def test_a_psor_cross_check_starts_its_reference_from_the_psor_contact_set(monkeypatch):
    psor, active = [], []
    _spy(monkeypatch, "solve_psor", psor)
    _spy(monkeypatch, "solve_active_set", active)
    m, sys, data = _contact_v1(24)
    solve_state(m, sys, data, ROBIN, solver="psor", cross_check=True)
    (_, rep), = psor
    (kwargs, ref), = active  # no coarse solve
    assert kwargs["initial_active"] is rep.active_set
    assert ref.iterations == 1


def test_an_active_set_cross_check_starts_psor_at_the_obstacle(monkeypatch):
    psor = []
    _spy(monkeypatch, "solve_psor", psor)
    m, sys, data = _contact_v1(24)
    solve_state(m, sys, data, DIRICHLET_LIMIT, solver="active_set", cross_check=True)
    (kwargs, _), = psor
    assert kwargs.get("u0") is None


def test_a_cross_check_failure_carries_the_gap_as_its_residual(monkeypatch):
    solve_psor = vi_solver.solve_psor

    def shifted(p, **kwargs):
        rep = solve_psor(p, **kwargs)
        return replace(rep, solution=rep.solution + 1e-3)  # a reference that disagrees

    monkeypatch.setattr(vi_solver, "solve_psor", shifted)
    m, sys, data = contact_problem(n=4)
    with pytest.raises(CrossCheckError) as err:
        solve_state(m, sys, data, ROBIN, cross_check=True)
    assert isinstance(err.value, NonConvergenceError)
    assert err.value.residual == pytest.approx(1e-3, rel=1e-9)
    assert f"max difference {err.value.residual:.3e}" in str(err.value)


def test_psor_nonconvergence_carries_residual():
    # a smooth (contact-free) solve cannot reach 1e-14 in two sweeps
    m, sys, data = contact_problem(n=8, g=5.0, q=0.0)
    p = build_vi_problem(m, sys, data, ROBIN)
    with pytest.raises(NonConvergenceError) as info:
        solve_psor(p, tol=1e-14, max_iter=2)
    assert info.value.residual is not None and info.value.residual > 1e-14


def _dirichlet_problem(b, gamma1="bottom"):
    m = build_unit_square(4, gamma1)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=-20.0)
    p = build_vi_problem(m, assemble(m, data), data, DIRICHLET_LIMIT)
    return replace(p, dirichlet_values=np.full(p.dirichlet_nodes.size, b))


@pytest.mark.parametrize("make", [
    lambda p: replace(p, F=np.where(np.arange(p.size) == 3, np.inf, p.F)),
    lambda p: replace(p, F=np.full(p.size, np.nan)),
    lambda p: replace(p, lower_bound=np.where(np.arange(p.size) == 3, np.inf, 0.0)),
    lambda p: replace(p, lower_bound=np.where(np.arange(p.size) == 3, np.nan, 0.0)),
    lambda p: replace(p, A=p.A.multiply(np.where(p.A.toarray() < 0, np.inf, 1.0)).tocsr()),
    lambda p: _dirichlet_problem(np.inf),
    # node (h, h) couples to two pinned nodes, so A[free][:, pinned] @ b overflows
    lambda p: _dirichlet_problem(1.7e308, "bottom,left"),
], ids=["inf-load", "nan-load", "inf-bound", "nan-bound", "matrix", "trace", "trace-shift"])
@pytest.mark.parametrize("solve", [solve_psor, solve_active_set])
def test_non_finite_data_is_rejected_before_the_first_step(solve, make):
    # a NaN residual fails every "res > tol" test, so PSOR used to return
    # inf/NaN values after one sweep and PDAS reported cycling
    m, sys, data = contact_problem(n=4)
    p = make(build_vi_problem(m, sys, data, ROBIN))
    with pytest.raises(InvalidParameterError, match="must be finite"):
        solve(p)


@pytest.mark.parametrize("solve", [solve_psor, solve_active_set])
@pytest.mark.parametrize("make", [
    lambda p: replace(p, F=np.full(p.size, 1.7e308)),
    lambda p: _dirichlet_problem(1e308),  # the solution is near 1e308, and 4u overflows in A u
], ids=["load", "trace"])
def test_finite_data_that_overflow_in_a_solve_are_rejected(solve, make):
    m, sys, data = contact_problem(n=4)
    p = make(build_vi_problem(m, sys, data, ROBIN))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidParameterError, match="overflow"):
            solve(p)


@pytest.mark.parametrize("solve", [solve_psor, solve_active_set])
def test_a_minus_infinite_bound_leaves_a_node_unconstrained(solve):
    # l = -inf is no obstacle: the same bytes as a bound the solution never reaches
    m, sys, data = contact_problem(n=4)
    p = build_vi_problem(m, sys, data, ROBIN)
    touching = solve(p).active_set
    assert touching.size > 2
    lb = p.lower_bound.copy()
    lb[touching[::2]] = -np.inf
    rep = solve(replace(p, lower_bound=lb))
    far = solve(replace(p, lower_bound=np.where(np.isinf(lb), -1e6, lb)))
    assert np.all(rep.values()[touching[::2]] < 0.0)
    assert rep.values().tobytes() == far.values().tobytes()
    assert rep.active_set.tobytes() == far.active_set.tobytes()


def test_a_coarse_load_that_overflows_leaves_the_fine_solve_to_its_own_data():
    # the Galerkin coarse load P^T F sums up to four fine entries, so it
    # overflows here while the fine load stays finite; the nested start
    # falls back to None instead of raising the coarse problem's error
    m, sys, data = contact_problem(n=16)
    p = build_vi_problem(m, sys, data, ROBIN)
    x, y = m.nodes.T
    region = np.flatnonzero((abs(x - 0.5) < 0.2) & (abs(y - 0.5) < 0.2))
    p = replace(p, F=np.where(np.isin(np.arange(p.size), region), -1e308, p.F))
    assert vi_solver._coarse_contact(p, 1e-10) is None
    rep = solve_active_set(p, initial_active=region)
    assert np.isfinite(rep.values()).all() and rep.residual <= 1e-10
    assert np.isin(region, rep.active_set).all()


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_a_mixed_sign_obstacle_matches_the_enumeration_oracle(family):
    # the only problems whose inactive right-hand side carries the bound's term
    rng = np.random.default_rng(5)
    m, sys, data = contact_problem(n=3)
    lb = rng.uniform(-0.3, 0.3, m.node_count)
    F = sys.M_H @ rng.uniform(-30.0, 5.0, m.node_count)
    nodes = values = None
    if family == ROBIN:
        a = robin_matrix(sys, 2.0)
    else:
        a, nodes = sys.K.tocsr(), m.gamma1_nodes()
        values = lb[nodes] + 0.2  # a trace above the obstacle
    p = VIProblem(A=a, F=F, lower_bound=lb, dirichlet_nodes=nodes, dirichlet_values=values)
    dense = a.toarray()
    oracle = enumerate_vi_dense(dense, F, lb, nodes, values,
                                candidates=contact_candidates(dense, F, lb, nodes, values))
    for rep in (solve_active_set(p), solve_psor(p, tol=1e-13)):
        assert rep.active_set.size > 0
        assert np.any(lb[rep.active_set] < 0.0) and np.any(lb[rep.active_set] > 0.0)
        assert np.max(np.abs(rep.values() - oracle)) <= 1e-10


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
    _, a_ff, _, _ = _free_split(build_vi_problem(m, sys, data, family))
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
    """An LU factor that a weakref can follow, with the size of its block."""

    def __init__(self, lu, size):
        self.lu, self.size = lu, size

    def solve(self, rhs):
        return self.lu.solve(rhs)


def _record_factors(monkeypatch, record):
    """Route both kinds of vi_solver block factor, SuperLU's splu and the
    dense _DenseLU, through a proxy that passes each factor to record.  The
    LU of a bordered system's Schur complement factors no block: it goes
    unrecorded."""
    dense_lu, bordered = vi_solver._DenseLU, vi_solver._Bordered

    def splu(a, **kw):
        factor = _Factor(spla.splu(a, **kw), a.shape[0])
        record(factor)
        return factor

    def dense(a):
        factor = _Factor(dense_lu(a), a.shape[0])
        record(factor)
        return factor

    def unrecorded(op, active):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vi_solver, "_DenseLU", dense_lu)
            return bordered(op, active)

    monkeypatch.setattr(vi_solver, "spla", SimpleNamespace(splu=splu))
    monkeypatch.setattr(vi_solver, "_DenseLU", dense)
    monkeypatch.setattr(vi_solver, "_Bordered", unrecorded)


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_with_load_reuses_the_last_lu_factor(family, monkeypatch):
    made = []
    _record_factors(monkeypatch, made.append)
    m, sys, data = contact_problem(n=8)
    p = build_vi_problem(m, sys, data, family)
    rep = solve_active_set(p)
    assert rep.active_set.size > 0
    count = len(made)
    q = p.with_load(1.001 * p.F)
    again = solve_active_set(q, initial_active=rep.active_set)
    np.testing.assert_array_equal(again.active_set, rep.active_set)
    rhs = sys.M_H @ again.values()
    w = adjoint_lift(q, again.active_set, rhs)
    assert q._operator is p._operator
    assert len(made) == count
    # the shared factor gives the answers of a problem reduced afresh
    fresh = replace(p, F=1.001 * p.F)
    np.testing.assert_array_equal(solve_active_set(fresh).values(), again.values())
    np.testing.assert_array_equal(adjoint_lift(fresh, again.active_set, rhs), w)


def test_an_operator_keeps_at_most_one_lu_factor(monkeypatch):
    live, alive_at_make = weakref.WeakSet(), []

    def record(factor):
        alive_at_make.append(len(live))
        live.add(factor)

    _record_factors(monkeypatch, record)
    m, sys, data = contact_problem(n=16, g=-20.0, q=1.0)
    p = build_vi_problem(m, sys, data, DIRICHLET_LIMIT)
    rep = solve_active_set(p)
    assert rep.iterations > 2
    assert alive_at_make == [0] * len(alive_at_make)  # the old one goes first
    gc.collect()
    assert len(live) <= 1


def _block_test_problems():
    """n = 16 Robin and Dirichlet-limit problems, the Galerkin coarse
    problem of the latter, and a non-symmetric matrix whose CSR rows are
    stored in reverse column order."""
    m, sys, data = contact_problem(n=16)
    robin, dirichlet = (build_vi_problem(m, sys, data, f) for f in (ROBIN, DIRICHLET_LIMIT))
    P, gamma1 = _prolongation(8), build_unit_square(8).gamma1_nodes()
    galerkin = VIProblem(
        A=(P.T @ dirichlet.A @ P).tocsr(), F=P.T @ dirichlet.F, lower_bound=np.zeros(81),
        dirichlet_nodes=gamma1, dirichlet_values=np.ones(gamma1.size),
    )
    return [robin, dirichlet, galerkin, _skew_problem(40)]


def _skew_problem(n):
    """A non-symmetric n x n matrix, about six entries a row plus 5 I,
    whose CSR rows are stored in reverse column order."""
    a = (sp.random(n, n, density=6 / n, random_state=5) + 5.0 * sp.eye(n)).tocsr()
    rev = np.concatenate([np.arange(a.indptr[i + 1] - 1, a.indptr[i] - 1, -1)
                          for i in range(n)])
    return VIProblem(A=sp.csr_matrix((a.data[rev], a.indices[rev], a.indptr), shape=a.shape),
                     F=np.ones(n), lower_bound=np.zeros(n))


def _block_test_operators():
    """The free-node reductions of :func:`_block_test_problems`."""
    return [q._operator for q in _block_test_problems()]


def _stored_twice(p):
    """p with each stored entry of its matrix split in halves stored side by
    side, so its CSR rows hold duplicates (in p's storage order)."""
    a = p.A
    twice = np.concatenate([np.tile(r, 2) for r in np.split(np.arange(a.nnz), a.indptr[1:-1])])
    return replace(p, A=sp.csr_matrix((0.5 * a.data[twice], a.indices[twice], 2 * a.indptr),
                                      shape=a.shape))


def _ell_rows(op):
    """The (columns, values, row lengths) that ``op.ell`` stores, padding cut off."""
    cols, vals = op.ell
    real = cols < op.a_ff.shape[0]
    assert not vals[~real].any()
    return cols[real], vals[real], real.sum(axis=1)


def test_ell_of_a_canonical_matrix_holds_the_arrays_of_its_coo_round_trip():
    *canonical, skew = _block_test_problems()  # skew: stored in reverse column order
    split = _stored_twice(skew)
    for k, p in enumerate(canonical + [skew, split]):
        op = p._operator
        assert op.a_ff.has_canonical_format == (k < len(canonical))
        ref = op.a_ff.tocoo().tocsr()
        cols, vals, lengths = _ell_rows(op)
        assert cols.tobytes() == ref.indices.astype(cols.dtype).tobytes()
        assert vals.tobytes() == ref.data.tobytes()
        assert (lengths == np.diff(ref.indptr)).all()
    for got, want in zip(_ell_rows(split._operator), _ell_rows(skew._operator)):
        assert got.tobytes() == want.tobytes()  # the duplicates are summed


def test_factor_hands_splu_the_fancy_indexed_inactive_block(monkeypatch):
    blocks = []

    def splu(a, **kw):
        blocks.append(a.copy())  # as handed over: splu sorts its input in place
        return spla.splu(a, **kw)

    monkeypatch.setattr(vi_solver, "spla", SimpleNamespace(splu=splu))
    monkeypatch.setattr(vi_solver, "DENSE_MAX", 0)  # every block to SuperLU
    rng = np.random.default_rng(8)
    for op in _block_test_operators():
        k = op.free.size
        one_free = np.ones(k, dtype=bool)
        one_free[k // 2] = False
        masks = [rng.random(k) < d for d in (0.1, 0.5, 0.9)] + [np.zeros(k, bool), one_free]
        for active in masks:
            op.factor(active)
            got, want = blocks.pop(), inactive_block(op.a_ff, active)
            assert got.format == "csc" and got.shape == want.shape
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()


def _pin_test_operators():
    """Both families, the Galerkin and skew problems, and the skew problem
    with every entry stored twice: unsorted rows holding duplicates."""
    return _block_test_operators() + [_stored_twice(_skew_problem(40))._operator]


def test_a_block_is_the_cut_of_a_csc_copy_of_a_ff_array_for_array():
    # block cuts a_ff's CSR arrays and converts the cut; SuperLU must get the
    # arrays a cut of a_ff's CSC form gives, duplicates and unsorted rows too
    rng = np.random.default_rng(11)
    ops = _pin_test_operators()
    assert not ops[-1].a_ff.has_canonical_format
    for op in ops:
        k = op.free.size
        for active in [rng.random(k) < d for d in (0.1, 0.5, 0.9)] + [np.zeros(k, bool)]:
            got, want = op.block(active), vi_solver._cut(op.a_ff.tocsc(), ~active)
            assert got.format == want.format == "csc" and got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_a_bordered_factor_takes_its_border_columns_as_a_csc_cut_would(monkeypatch):
    # the border columns a_ff[I0 + S, S] come from a_ff's CSR form; they must
    # equal the columns cut from a CSC copy, and so must the Schur complement
    monkeypatch.setattr(vi_solver, "DENSE_MAX", 0)  # every base to SuperLU
    schur, dense_lu = [], vi_solver._DenseLU
    monkeypatch.setattr(vi_solver, "_DenseLU", lambda a: schur.append(a.copy()) or dense_lu(a))
    rng = np.random.default_rng(12)
    for op in _pin_test_operators():
        k = op.free.size
        base = rng.random(k) < 0.3
        op.factor(base)
        splu, border = op.base, []
        op.base = SimpleNamespace(solve=lambda rhs: border.append(rhs.copy()) or splu.solve(rhs))
        active = base.copy()
        active[rng.choice(np.flatnonzero(base), 3, replace=False)] = False  # freed
        active[rng.choice(np.flatnonzero(~base), 3, replace=False)] = True  # pinned
        lu = op.factor(active)
        assert isinstance(lu, vi_solver._Bordered)
        idx0, freed = np.flatnonzero(~base), np.flatnonzero(base & ~active)
        m, s = idx0.size, freed.size
        want = np.zeros((m + 6, 6))
        want[:m + s, :s] = op.a_ff.tocsc()[:, freed][np.append(idx0, freed)].toarray()
        want[lu.pin, np.arange(s, 6)] = 1.0
        assert border[0].tobytes() == want[:m].tobytes()
        assert schur[-1].tobytes() == (want[m:] - lu._border(lu.W)).tobytes()


def test_factor_pivots_spd_blocks_on_the_diagonal_and_solves_as_colamd(monkeypatch):
    # the symmetric ordering keeps the diagonal pivots of an SPD block, and
    # partial pivoting still serves a non-symmetric one
    monkeypatch.setattr(vi_solver, "DENSE_MAX", 0)  # every block to SuperLU
    rng = np.random.default_rng(3)
    *spd, skew = _block_test_operators()
    for op in spd + [skew]:
        k = op.free.size
        for active in [rng.random(k) < d for d in (0.1, 0.5)] + [np.zeros(k, bool)]:
            lu = op.factor(active)
            if op is not skew:
                np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
            rhs = rng.standard_normal(lu.shape[0])
            want = spla.splu(op.block(active), permc_spec="COLAMD").solve(rhs)
            err = np.abs(lu.solve(rhs) - want).max()
            assert err <= 1e-12 * np.abs(want).max()


def _inactive_masks(rng, k, sizes):
    """A mask of k nodes for each inactive count in sizes, the inactive
    nodes drawn at random."""
    masks = []
    for m in sizes:
        active = np.ones(k, dtype=bool)
        active[rng.choice(k, size=min(m, k), replace=False)] = False
        masks.append(active)
    return masks


def _almost_all_in_contact_128():
    """The n = 128 Robin operator and a mask leaving DENSE_MAX nodes of one
    patch out of contact."""
    op = build_vi_problem(*contact_problem(n=128), ROBIN)._operator
    patch = (129 * np.arange(56, 72)[:, None] + np.arange(56, 72)).ravel()
    active = np.ones(op.free.size, dtype=bool)
    active[patch[:vi_solver.DENSE_MAX]] = False
    return op, active


def test_factor_hands_the_dense_lu_the_fancy_indexed_inactive_block(monkeypatch):
    blocks, dense_lu = [], vi_solver._DenseLU

    def dense(a):
        blocks.append(a.copy(order="A"))  # as handed over: getrf overwrites it
        return dense_lu(a)

    monkeypatch.setattr(vi_solver, "_DenseLU", dense)
    *_, skew = _block_test_problems()
    a = skew.A  # and a copy storing each entry twice, halved: splu sums duplicates
    twice = np.concatenate([np.tile(r, 2) for r in np.split(np.arange(a.nnz), a.indptr[1:-1])])
    split = sp.csr_matrix((0.5 * a.data[twice], a.indices[twice], 2 * a.indptr), shape=a.shape)
    assert not split.has_canonical_format
    ops = _block_test_operators() + [replace(skew, A=split)._operator]
    rng = np.random.default_rng(8)
    cases = [(op, mask) for op in ops
             for mask in _inactive_masks(rng, op.free.size, (1, 17, vi_solver.DENSE_MAX))]
    for op, active in cases + [_almost_all_in_contact_128()]:
        op.factor(active)
        got, want = blocks.pop(), inactive_block(op.a_ff, active).toarray()
        assert got.flags.f_contiguous and got.shape == want.shape
        assert got.tobytes(order="F") == want.tobytes(order="F")


def test_dense_max_unknowns_go_dense_and_one_more_to_superlu():
    op, active = _almost_all_in_contact_128()
    assert isinstance(op.factor(active), vi_solver._DenseLU)
    active[np.flatnonzero(active)[0]] = False
    assert isinstance(op.factor(active), spla.SuperLU)


def test_the_dense_factor_solves_as_colamd():
    rng = np.random.default_rng(4)
    for op in _block_test_operators():
        for active in _inactive_masks(rng, op.free.size, (1, 40, vi_solver.DENSE_MAX)):
            lu = op.factor(active)
            assert isinstance(lu, vi_solver._DenseLU)
            rhs = rng.standard_normal(np.count_nonzero(~active))
            want = spla.splu(op.block(active), permc_spec="COLAMD").solve(rhs)
            assert np.abs(lu.solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dense_max", [0, 3])
def test_an_exactly_singular_block_raises_as_splu_does(dense_max, monkeypatch):
    monkeypatch.setattr(vi_solver, "DENSE_MAX", dense_max)
    a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]))
    op = VIProblem(A=a, F=np.ones(3), lower_bound=np.zeros(3))._operator
    with pytest.raises(RuntimeError, match="Factor is exactly singular"):
        op.factor(np.zeros(3, dtype=bool))
    assert op.lu is None and op.key is None


def test_switching_factor_kinds_never_holds_two_factors(monkeypatch):
    live, alive_at_make, sizes = weakref.WeakSet(), [], []

    def record(factor):
        alive_at_make.append(len(live))
        sizes.append(factor.size)
        live.add(factor)

    _record_factors(monkeypatch, record)
    op = _block_test_operators()[0]
    for active in _inactive_masks(np.random.default_rng(5), op.free.size,
                                  (20, 200, 60, 250, vi_solver.DENSE_MAX)):
        op.factor(active)
    assert sizes == [20, 200, 60, 250, vi_solver.DENSE_MAX]  # dense, sparse, ...
    assert alive_at_make == [0] * 5
    gc.collect()
    assert len(live) == 1


def _flipped(rng, active, pin, free):
    """``active`` with ``pin`` of its inactive nodes made active and ``free``
    of its active nodes made inactive, drawn at random."""
    out = active.copy()
    out[rng.choice(np.flatnonzero(~active), pin, replace=False)] = True
    out[rng.choice(np.flatnonzero(active), free, replace=False)] = False
    return out


def _assert_solves_as_a_fresh_lu(rng, op, active):
    rhs = rng.standard_normal(np.count_nonzero(~active))
    want = spla.splu(op.block(active), permc_spec="COLAMD").solve(rhs)
    assert np.abs(op.factor(active).solve(rhs) - want).max() <= ROUNDING * np.abs(want).max()


@pytest.mark.parametrize("make", [
    lambda: _block_test_problems()[0], lambda: _block_test_problems()[1],
    lambda: _skew_problem(400),  # above DENSE_MAX, and not symmetric
], ids=["robin", "dirichlet_limit", "skew"])
def test_a_bordered_solve_matches_a_fresh_lu(make):
    # the base's contact set moved by k <= BORDER_MAX nodes: pins only,
    # frees only, or both
    op, rng = make()._operator, np.random.default_rng(11)
    base = rng.random(op.free.size) < 0.3
    assert isinstance(op.factor(base), spla.SuperLU)
    for k in range(1, vi_solver.BORDER_MAX + 1):
        for pin in {0, k // 2, k}:
            active = _flipped(rng, base, pin, k - pin)
            assert isinstance(op.factor(active), vi_solver._Bordered)
            _assert_solves_as_a_fresh_lu(rng, op, active)
    assert op.factor(base) is op.base


def test_an_adjoint_lift_solves_through_a_bordered_factor():
    p = _block_test_problems()[0]
    op, rng = p._operator, np.random.default_rng(12)
    base = rng.random(op.free.size) < 0.3
    op.factor(base)
    active = _flipped(rng, base, 3, 4)
    rhs = rng.standard_normal(p.size)
    w = adjoint_lift(p, op.free[active], rhs)
    assert isinstance(op.lu, vi_solver._Bordered)
    want = np.zeros(p.size)
    want[op.free[~active]] = spla.splu(op.block(active)).solve(rhs[op.free[~active]])
    assert np.abs(w - want).max() <= ROUNDING * np.abs(want).max()


def test_a_move_past_border_max_refactors_and_no_two_superlu_factors_live(monkeypatch):
    live, alive_at_make, sizes = weakref.WeakSet(), [], []

    def record(factor):
        alive_at_make.append(len(live))
        sizes.append(factor.size)
        live.add(factor)

    _record_factors(monkeypatch, record)
    op, rng = _block_test_operators()[0], np.random.default_rng(13)
    first = rng.random(op.free.size) < 0.3
    second = _flipped(rng, first, 8, vi_solver.BORDER_MAX - 7)  # one flip too many
    masks = [first, _flipped(rng, first, 2, 3), second,
             _flipped(rng, second, 8, vi_solver.BORDER_MAX - 8), _flipped(rng, second, 0, 2)]
    for active in masks:
        op.factor(active)
    assert sizes == [np.count_nonzero(~first), np.count_nonzero(~second)]  # two bases
    assert alive_at_make == [0, 0]
    assert op.lu.base is op.base  # the last mask is solved bordered on the second base
    gc.collect()
    assert len(live) == 1


def test_an_exactly_singular_bordered_system_raises_as_splu_does(monkeypatch):
    monkeypatch.setattr(vi_solver, "DENSE_MAX", 0)
    a = np.array([[2.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    op = VIProblem(A=sp.csr_matrix(a), F=np.ones(4), lower_bound=np.zeros(4))._operator
    op.factor(np.array([False, False, False, True]))  # the base, of rows 0-2
    with pytest.raises(RuntimeError, match="Factor is exactly singular"):
        op.factor(np.zeros(4, dtype=bool))
    assert op.lu is None and op.key is None


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_a_nested_state_solve_makes_one_fresh_fine_lu(family, monkeypatch):
    sizes = []
    _record_factors(monkeypatch, lambda factor: sizes.append(factor.size))
    for n in (64, 128):
        m, sys, data = _contact_v1(n)
        sizes.clear()
        rep = solve_state(m, sys, data, family)
        assert rep.iterations <= 2
        assert sum(s > (n // 2 + 1) ** 2 for s in sizes) == 1 and sizes[-1] > (n // 2 + 1) ** 2
        cold = solve_active_set(build_vi_problem(m, sys, data, family))
        np.testing.assert_allclose(rep.values(), cold.values(), rtol=0.0, atol=ROUNDING)


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
    q = p.with_load(fresh.F)
    free, _, f_f, lb_f = _free_split(q)
    free2, _, f_f2, lb_f2 = _free_split(fresh)
    full, full2 = q._operator.template, fresh._operator.template
    for a, b in ((free, free2), (f_f, f_f2), (lb_f, lb_f2), (full, full2)):
        np.testing.assert_array_equal(a, b)
    assert f_f.tobytes() == f_f2.tobytes()


@pytest.mark.parametrize("nc", [1, 2, 3, 8])
def test_prolongation_matrix_is_prolongate(nc):
    u = np.random.default_rng(nc).standard_normal((nc + 1) ** 2)
    fine = prolongate(ScalarField(build_unit_square(nc), u), build_unit_square(2 * nc))
    assert (_prolongation(nc) @ u).tobytes() == fine.values.tobytes()


def _assert_galerkin_bytes(fine, coarse, nc):
    P = _prolongation(nc)
    want = (P.T @ fine @ P).tocsr()
    assert coarse.has_sorted_indices and want.has_sorted_indices
    for name in ("data", "indices", "indptr"):
        a, b = getattr(coarse, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_each_galerkin_problem_of_the_chain_has_the_bytes_of_the_csc_products(family,
                                                                               monkeypatch):
    problems, solve = [], vi_solver._solve
    monkeypatch.setattr(vi_solver, "_solve",
                        lambda p, *args, **kw: problems.append(p) or solve(p, *args, **kw))
    m, sys, data = contact_problem(n=128, alpha=0.37, b=1.3,
                                   g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
    vi_solver.solve_state(m, sys, data, family)
    assert [p.division_count for p in problems] == [128, 64, 32, 16, 8]
    for fine, coarse in zip(problems, problems[1:]):
        _assert_galerkin_bytes(fine.A, coarse.A, coarse.division_count)


@pytest.mark.parametrize("nc", [8, 16, 32, 64])
def test_galerkin_sums_each_entry_as_the_csc_products_do(nc):
    # entries jittered off the grid's dyadic values, so the order of a sum shows
    m, sys, data = contact_problem(n=2 * nc, alpha=0.37)
    a = build_vi_problem(m, sys, data, ROBIN).A.copy()
    a.data *= 1.0 + 1e-3 * np.random.default_rng(nc).standard_normal(a.nnz)
    _assert_galerkin_bytes(a, vi_solver._galerkin(a, nc), nc)


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_nested_start_gives_the_cold_answer_in_few_iterations(family):
    m, sys, data = contact_problem(n=64)
    cold = solve_active_set(build_vi_problem(m, sys, data, family))
    rep = solve_state(m, sys, data, family)
    assert cold.iterations > 5 >= rep.iterations
    np.testing.assert_allclose(rep.values(), cold.values(), rtol=0.0, atol=ROUNDING)


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_smoothed_nested_start_needs_at_most_two_fine_iterations(family):
    # the contact-v1 box control; unsmoothed prolonged sets take 3-4 here
    m, sys, data = contact_problem(n=64, g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
    cold = solve_active_set(build_vi_problem(m, sys, data, family))
    rep = solve_state(m, sys, data, family)
    assert rep.iterations <= 2
    np.testing.assert_allclose(rep.values(), cold.values(), rtol=0.0, atol=ROUNDING)


def test_nested_start_never_sweeps_a_non_positive_diagonal():
    m, sys, data = contact_problem(n=16)
    p = build_vi_problem(m, sys, data, ROBIN)
    a = p.A.tolil()
    a[18, 18] = 0.0  # node (1, 1) of the 16 grid is on no coarse node
    p = replace(p, A=a.tocsr())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MatrixError):
            vi_solver._solve(p, "active_set", 1e-10)


def test_a_failed_coarse_solve_starts_the_fine_solve_cold(monkeypatch):
    m, sys, data = contact_problem(n=32)
    fine_size = m.node_count
    solve = vi_solver.solve_active_set

    def failing_on_coarse(p, *args, **kwargs):
        if p.size < fine_size:
            raise NonConvergenceError("coarse", residual=1.0)
        return solve(p, *args, **kwargs)

    cold = solve_active_set(build_vi_problem(m, sys, data, DIRICHLET_LIMIT))
    monkeypatch.setattr(vi_solver, "solve_active_set", failing_on_coarse)
    rep = solve_state(m, sys, data, DIRICHLET_LIMIT)
    assert rep.iterations == cold.iterations
    assert rep.values().tobytes() == cold.values().tobytes()


@pytest.mark.parametrize("n, division_count", [(33, 33), (32, None)])
def test_no_nested_start_without_an_even_division_count(n, division_count):
    m, sys, data = contact_problem(n=n)
    cold = solve_active_set(build_vi_problem(m, sys, data, DIRICHLET_LIMIT))
    m = replace(m, division_count=division_count)
    rep = solve_state(m, sys, data, DIRICHLET_LIMIT)
    assert rep.iterations == cold.iterations > 5


def test_nested_start_frees_each_coarse_factor_before_the_next(monkeypatch):
    live, alive_at_make, sizes = weakref.WeakSet(), [], []

    def record(factor):
        alive_at_make.append(len(live))
        sizes.append(factor.size)
        live.add(factor)

    _record_factors(monkeypatch, record)
    m, sys, data = contact_problem(n=32)
    solve_state(m, sys, data, DIRICHLET_LIMIT)
    assert min(sizes) < 17 ** 2 < max(sizes)  # both levels factored
    assert alive_at_make == [0] * len(alive_at_make)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [solve_psor, solve_active_set])
def test_a_non_finite_tolerance_is_rejected(solve, tol):
    # NaN passes a bare tol <= 0 test and stops a solver before its first
    # sweep; inf accepts any iterate
    m, sys, data = contact_problem(n=4)
    with pytest.raises(InvalidParameterError, match="finite"):
        solve(build_vi_problem(m, sys, data, ROBIN), tol=tol)


@pytest.mark.parametrize("solve", [
    lambda m, sys, data: solve_state(m, sys, data, ROBIN),
    lambda m, sys, data: solve_state(m, sys, data, DIRICHLET_LIMIT),
], ids=["robin", "dirichlet_limit"])
def test_a_system_assembled_on_another_mesh_is_rejected(solve):
    # same node count, other gamma1: the Robin state came out about 0.075
    # off with no error
    m, sys, data = contact_problem(n=8)
    other = assemble(build_unit_square(8, "left"), data)
    with pytest.raises(InvalidParameterError, match="different mesh"):
        solve(m, other, data)
    solve(build_unit_square(8), sys, data)  # an equal mesh built afresh is accepted


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_a_control_field_on_an_equal_mesh_is_accepted(family):
    m = build_unit_square(8)
    g = ScalarField(m, -20.0 * np.random.default_rng(3).random(m.node_count))
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=g)
    sys = assemble(m, data)
    want = solve_state(m, sys, data, family).values()
    assert solve_state(build_unit_square(8), sys, data, family).values().tobytes() == \
        want.tobytes()
    other = replace(data, g=ScalarField(build_unit_square(8, "left"), g.values))
    with pytest.raises(InvalidParameterError, match="different mesh"):
        solve_state(m, sys, other, family)


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_psor_sweeps_grow_like_one_over_h(family):
    # optimal over-relaxation takes O(1/h) sweeps (83 -> 154 Robin from n = 24
    # to 48); a fixed factor of 1.5 took O(1/h^2), 187 -> 777
    sweeps = []
    for n in (24, 48):
        m, sys, data = contact_problem(n=n, g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
        sweeps.append(solve_psor(build_vi_problem(m, sys, data, family)).iterations)
    assert sweeps[1] <= 2.5 * sweeps[0]


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_a_problem_relaxes_psor_by_young_on_its_own_grid(family):
    # the problem carries its division count, so a bare solve_psor takes
    # Young's factor for it (84 Robin sweeps here; the fixed 1.5 takes 199)
    m, sys, data = _contact_v1(24)
    bare = solve_psor(build_vi_problem(m, sys, data, family))
    assert bare.iterations == solve_state(m, sys, data, family, solver="psor").iterations
    assert bare.iterations < 120


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_a_division_count_that_does_not_match_the_matrix_is_refused(family):
    m, sys, data = contact_problem(n=8)
    p = build_vi_problem(m, sys, data, family)
    assert p.division_count == 8
    assert p.with_load(2.0 * p.F).division_count == 8
    for n in (7, 16):
        with pytest.raises(InvalidParameterError, match="divisions"):
            replace(p, division_count=n)
    assert replace(p, division_count=None).division_count is None


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_a_state_report_holds_the_nodal_vector(family):
    m, sys, data = contact_problem(n=8)
    rep = solve_state(m, sys, data, family)
    assert type(rep.solution) is np.ndarray and rep.solution.shape == (m.node_count,)
    assert rep.values() is rep.solution
