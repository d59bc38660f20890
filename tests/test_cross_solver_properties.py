"""Property test: projected SOR and the active-set method each return a
feasible state with complementarity at most tol, and the two agree to
10 tol, over grids, families, stiff Robin coefficients, gamma1 sides,
fluxes and box controls."""

import numpy as np
import pytest

from test_nested_start_properties import GAMMA1, boxes
from vicontrol.assembly import ProblemData, assemble
from vicontrol.mesh import build_unit_square
from vicontrol.vi_solver import (
    DEFAULT_TOL,
    FAMILIES,
    FEASIBILITY_TOL,
    build_vi_problem,
    solve_state,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(2, 12),
    family=st.sampled_from(FAMILIES),
    alpha=st.sampled_from([2.0, 1000.0, 16384.0]),
    gamma1=st.sampled_from(GAMMA1),
    q=st.sampled_from([0.0, 1.0]),  # q = 0 and a weak control leave no contact
    g=boxes(),
)
def test_both_solvers_are_feasible_complementary_and_agree(n, family, alpha, gamma1, q, g):
    m = build_unit_square(n, gamma1)
    data = ProblemData(alpha=alpha, b=1.0, q=q, M_cost=1.0, g=g)
    sys = assemble(m, data)
    p = build_vi_problem(m, sys, data, family)
    free = np.setdiff1d(np.arange(p.size), [] if p.dirichlet_nodes is None else p.dirichlet_nodes)
    states = []
    for solver in ("psor", "active_set"):
        u = solve_state(m, sys, data, family, solver=solver, tol=DEFAULT_TOL).values()
        assert u.min() >= -FEASIBILITY_TOL
        if p.dirichlet_nodes is not None:
            assert (u[p.dirichlet_nodes] == p.dirichlet_values).all()
        res = np.abs(np.minimum(u - p.lower_bound, p.A @ u - p.F)[free]).max()
        assert res <= DEFAULT_TOL
        states.append(u)
    assert np.abs(states[0] - states[1]).max() <= 10.0 * DEFAULT_TOL
