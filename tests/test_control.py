import os
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from vicontrol import control, vi_solver
from vicontrol.assembly import ProblemData, assemble, norm_H
from vicontrol.control import (
    check_open_problems,
    convex_combination_states,
    cost,
    optimize,
)
from vicontrol.errors import InvalidParameterError, LineSearchError, NonConvergenceError
from vicontrol.mesh import ScalarField, build_unit_square
from vicontrol.presets import box_control
from vicontrol.vi_solver import DIRICHLET_LIMIT, ROBIN, solve_state

from oracles import cost_oracle, reference_conjecture_trials


def test_cost_of_quiet_data_is_half_measure():
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    rep = cost(sys, data, ROBIN)
    assert rep.value == pytest.approx(0.5, abs=1e-9)
    assert rep.control_term == 0.0


def test_cost_decomposition_is_exact():
    m = build_unit_square(4)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=3.0, g=-2.0)
    sys = assemble(m, data)
    rep = cost(sys, data, ROBIN)
    assert rep.value == rep.state_term + rep.control_term
    assert rep.state_term >= 0.0 and rep.control_term >= 0.0


def test_doubling_cost_weight_doubles_control_term_only():
    m = build_unit_square(4)
    d1 = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=-2.0)
    d2 = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=2.0, g=-2.0)
    sys = assemble(m, d1)
    r1 = cost(sys, d1, ROBIN)
    r2 = cost(sys, d2, ROBIN)
    assert r2.control_term == pytest.approx(2.0 * r1.control_term, rel=1e-15)
    assert r2.state_term == pytest.approx(r1.state_term, abs=1e-12)


def test_cost_matches_end_to_end_oracle():
    m = build_unit_square(4)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=1.0)
    sys = assemble(m, data)
    rep = cost(sys, data, ROBIN)
    j_oracle, _ = cost_oracle(m, np.ones(m.node_count), 1.0, 1.0, 2.0, 1.0)
    assert rep.value == pytest.approx(j_oracle, abs=1e-9)


def test_cost_oracle_dirichlet_family():
    m = build_unit_square(3)
    data = ProblemData(alpha=None, b=1.0, q=1.0, M_cost=1.0, g=-4.0)
    sys = assemble(m, data)
    rep = cost(sys, data, DIRICHLET_LIMIT)
    j_oracle, _ = cost_oracle(
        m, np.full(m.node_count, -4.0), 1.0, 1.0, None, 1.0, family="dirichlet"
    )
    assert rep.value == pytest.approx(j_oracle, abs=1e-9)


def _colamd_splu(a, **kw):
    """splu with scipy's defaults: COLAMD ordering, partial pivoting."""
    return spla.splu(a, permc_spec="COLAMD")


@pytest.mark.parametrize("ordering", ["colamd", "default"])
def test_optimizer_bound_and_monotone_history(ordering, monkeypatch):
    # the optimizer's stop must not hang on the rounding of one LU ordering
    if ordering == "colamd":
        monkeypatch.setattr(vi_solver, "spla", SimpleNamespace(splu=_colamd_splu))
        monkeypatch.setattr(vi_solver, "DENSE_MAX", 0)  # n = 4 blocks go dense otherwise
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    rep = optimize(sys, data, ROBIN, tol=1e-9)
    u0 = solve_state(m, sys, data, ROBIN).values()
    assert norm_H(sys, rep.g_opt) <= norm_H(sys, u0) / np.sqrt(data.M_cost) + 1e-8
    assert rep.J_opt <= 0.5 * norm_H(sys, u0) ** 2 + 1e-12
    assert all(b <= a for a, b in zip(rep.history, rep.history[1:]))


def test_the_newton_method_converges_below_the_old_rounding_floor():
    # near 2e-12 a gradient step's Armijo decrease is below the rounding of J;
    # on a stable contact set one Newton step reaches the tolerance
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    rep = optimize(assemble(m, data), data, ROBIN, tol=1e-12)
    assert rep.gradient_norm_final <= 1e-12
    assert all(b <= a for a, b in zip(rep.history, rep.history[1:]))


def test_a_step_that_rounds_away_ends_the_line_search(monkeypatch):
    # past the first step no trial lowers J, and tol 0 is out of reach: the
    # backtracking halves the step until g + step d == g, and that null step
    # ends the search before MAX_BACKTRACKS, with the best point so far
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    values = []
    evaluate = control._Evaluator.cost

    def never_lower(ev, gvals):
        rep = evaluate(ev, gvals)
        values.append(rep.value)
        return rep if len(values) <= 2 else replace(rep, value=values[0])

    monkeypatch.setattr(control._Evaluator, "cost", never_lower)
    with pytest.raises(LineSearchError) as err:
        optimize(assemble(m, data), data, ROBIN, tol=0.0)
    assert len(values) < 2 + control.MAX_BACKTRACKS
    assert err.value.best.iterations == 1
    assert err.value.best.J_opt == values[1] < values[0]


def test_a_trial_that_does_not_lower_j_is_not_taken(monkeypatch):
    # below J's rounding the Armijo term c step <grad, d>_H rounds away, so a
    # trial that moved g but left J(g) unchanged passed it, and the optimizer
    # took such steps until max_iter; now the search backtracks to its end
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    values = []
    evaluate = control._Evaluator.cost

    def level(ev, gvals):
        rep = evaluate(ev, gvals)
        values.append(rep.value)
        return replace(rep, value=values[0])  # every trial moves g, none changes J

    monkeypatch.setattr(control._Evaluator, "cost", level)
    with pytest.raises(LineSearchError) as err:
        optimize(assemble(m, data), data, ROBIN, tol=0.0, max_iter=5)
    assert len(values) == 1 + control.MAX_BACKTRACKS
    assert err.value.best.iterations == 0
    assert err.value.best.history == (values[0],)


def test_a_stalled_line_search_carries_its_gradient_norm_as_residual(monkeypatch):
    # every exit-3 error has one shape: the residual, and the best report when there is one
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    values = []
    evaluate = control._Evaluator.cost

    def level(ev, gvals):
        rep = evaluate(ev, gvals)
        values.append(rep.value)
        return replace(rep, value=values[0])  # no trial lowers J: the first step stalls

    monkeypatch.setattr(control._Evaluator, "cost", level)
    with pytest.raises(LineSearchError) as err:
        optimize(assemble(m, data), data, ROBIN, tol=0.0)
    assert isinstance(err.value, NonConvergenceError)
    assert err.value.residual == err.value.best.gradient_norm_final > 0.0
    assert f"gradient norm {err.value.residual:.3e}" in str(err.value)


def test_huge_cost_weight_collapses_the_control():
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1e6, g=0.0)
    sys = assemble(m, data)
    # stationarity scale grows with M; 1e-5 still pins g to ~1e-11 accuracy
    rep = optimize(sys, data, ROBIN, tol=1e-5)
    u0 = solve_state(m, sys, data, ROBIN).values()
    assert norm_H(sys, rep.g_opt) <= 1e-3 * norm_H(sys, u0)


def test_the_optimal_control_lives_on_the_system_mesh():
    m = build_unit_square(3)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    assert optimize(sys, data, ROBIN, tol=1e-9).g_opt.mesh is sys.mesh


def test_gradient_method_agrees_with_compass_oracle():
    m = build_unit_square(2)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    grad = optimize(sys, data, ROBIN, method="proj_grad_adjoint", tol=1e-9)
    compass = optimize(sys, data, ROBIN, method="coord_search", tol=1e-6,
                       max_iter=20000)
    assert grad.J_opt == pytest.approx(compass.J_opt, abs=1e-6)
    assert norm_H(sys, grad.g_opt.values - compass.g_opt.values) <= 1e-3


def test_adjoint_gradient_matches_finite_differences_without_contact():
    # heating keeps the obstacle inactive, so the cost is smooth
    m = build_unit_square(3)
    base = np.full(m.node_count, 2.0)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=ScalarField(m, base))
    sys = assemble(m, data)
    from vicontrol.control import _Evaluator

    ev = _Evaluator(sys, data, ROBIN, tol=1e-13)
    rep = ev.state(base)
    assert rep.active_set.size == 0
    grad_nodal = sys.M_H @ ev.gradient(base, rep)  # Euclidean partials

    eps = 1e-5
    fd = np.empty(m.node_count)
    for i in range(m.node_count):
        gp, gm = base.copy(), base.copy()
        gp[i] += eps
        gm[i] -= eps
        fd[i] = (ev.cost(gp).value - ev.cost(gm).value) / (2.0 * eps)
    scale = np.linalg.norm(grad_nodal)
    assert np.linalg.norm(fd - grad_nodal) <= 1e-5 * scale


def test_cost_coercivity_lower_bound():
    m = build_unit_square(4)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    u0 = solve_state(m, sys, data, ROBIN).values()
    c_hat = 10.0 * norm_H(sys, u0)
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(m.node_count)
    direction /= norm_H(sys, direction)
    previous = None
    for size in (1.0, 10.0, 100.0, 1000.0):
        g = ScalarField(m, size * direction)
        d = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=g)
        j = cost(sys, d, ROBIN).value
        assert j >= 0.5 * data.M_cost * size**2 - c_hat * size
        if previous is not None:
            assert j > previous
        previous = j


def test_convex_combination_endpoints_and_degenerate_pair():
    m = build_unit_square(3)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    rng = np.random.default_rng(9)
    g1 = ScalarField(m, rng.uniform(-5.0, 5.0, m.node_count))
    g2 = ScalarField(m, rng.uniform(-5.0, 5.0, m.node_count))
    for mu in (0.0, 1.0):
        out = convex_combination_states(sys, data, g1, g2, mu)
        np.testing.assert_allclose(out["u3"].values, out["u4"].values, atol=1e-11)
    out = convex_combination_states(sys, data, g1, g1, 0.37)
    np.testing.assert_allclose(out["u3"].values, out["u4"].values, atol=1e-11)
    with pytest.raises(InvalidParameterError):
        convex_combination_states(sys, data, g1, g2, 1.2)


def test_convex_combination_states_live_on_the_system_mesh():
    m = build_unit_square(3)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    out = convex_combination_states(sys, data, -5.0, 2.0, 0.5)
    assert out.keys() == {"u3", "u4"}
    assert all(u.mesh is sys.mesh for u in out.values())


def test_conjecture_report_identity_and_feasibility():
    m = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    rep = check_open_problems(sys, data, trials=50, seed=42)
    assert len(rep.trials) == 50
    assert max(abs(t.identity_residual) for t in rep.trials) <= 1e-9
    # the guaranteed property u4 >= 0 held (no exception);
    # the open inequalities are reported as counts, whatever their outcome
    assert rep.pointwise_violations >= 0
    print(
        f"conjecture evidence: pointwise={rep.pointwise_violations}, "
        f"h_norm={rep.h_norm_violations}, convexity={rep.convexity_violations} "
        f"violations in 50 trials"
    )


def test_conjecture_determinism():
    m = build_unit_square(3)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    r1 = check_open_problems(sys, data, trials=10, seed=7)
    r2 = check_open_problems(sys, data, trials=10, seed=7)
    for a, b in zip(r1.trials, r2.trials):
        assert a == b


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
def test_dense_factors_give_the_superlu_conjecture_trials(family, monkeypatch):
    # at n = 16 nearly every block goes dense; DENSE_MAX = 0 sends each one
    # to SuperLU instead.  One CPU keeps every trial in this process, where
    # the recording below can see it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    m = build_unit_square(16)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    solve = vi_solver.solve_active_set

    def run(dense_max):
        contact = []

        def recorded(p, *args, **kwargs):
            rep = solve(p, *args, **kwargs)
            contact.append(rep.active_set.tobytes())
            return rep

        with monkeypatch.context() as mp:
            mp.setattr(vi_solver, "DENSE_MAX", dense_max)
            mp.setattr(vi_solver, "solve_active_set", recorded)
            rep = check_open_problems(sys, data, trials=20, seed=7, family=family)
        return np.array([astuple(t)[1:] for t in rep.trials]), contact

    dense, dense_sets = run(vi_solver.DENSE_MAX)
    sparse, sparse_sets = run(0)
    assert len(dense_sets) > 60 and dense_sets == sparse_sets
    np.testing.assert_allclose(dense, sparse, rtol=0.0, atol=1e-12)


def _trial_bytes(trials, witnesses):
    return (np.array([astuple(t) for t in trials]).tobytes(),
            [(w["trial"], w["kind"], np.float64(w["mu"]).tobytes(), w["g1"].tobytes(),
              w["g2"].tobytes()) for w in witnesses])


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
@pytest.mark.parametrize("n, alpha, trials, seed", [(2, 1000.0, 40, 1), (4, 2.0, 30, 3),
                                                    (16, 2.0, 20, 7)])
def test_one_product_per_trial_gives_the_reference_bytes(family, n, alpha, trials, seed):
    # contact-v1 data; at n = 2, alpha = 1000 the Robin trials write witnesses
    m = build_unit_square(n)
    data = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0,
                       g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
    sys = assemble(m, data)
    rep = check_open_problems(sys, data, trials=trials, seed=seed, family=family)
    ref = reference_conjecture_trials(sys, data, trials, seed=seed, family=family)
    assert _trial_bytes(rep.trials, rep.witnesses) == _trial_bytes(*ref)
    if (n, family) == (2, ROBIN):
        assert len(rep.witnesses) == 12


@pytest.mark.parametrize("low, high", [(np.nan, 10.0), (-np.inf, 10.0), (-30.0, np.inf),
                                       (5.0, 1.0), (-1e308, 1e308),
                                       (-1e300, 1e300)])  # a finite width, but (g, g)_H overflows
def test_conjecture_rejects_a_bad_control_range(low, high):
    m = build_unit_square(2)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    with pytest.raises(InvalidParameterError):
        check_open_problems(assemble(m, data), data, trials=1, g_low=low, g_high=high)


def test_unknown_method_rejected():
    m = build_unit_square(2)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    sys = assemble(m, data)
    with pytest.raises(InvalidParameterError):
        optimize(sys, data, ROBIN, method="newton")


def test_conjecture_rejects_a_negative_seed():
    # numpy's default_rng would raise a bare ValueError, "expected non-negative integer"
    m = build_unit_square(2)
    data = ProblemData(alpha=1.0, b=1.0, q=0.0, M_cost=1.0, g=0.0)
    with pytest.raises(InvalidParameterError, match=r"^seed must be >= 0, got -1$"):
        check_open_problems(assemble(m, data), data, trials=1, seed=-1)
