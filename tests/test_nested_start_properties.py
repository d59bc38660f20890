"""Property test: the nested start, with its bordered fine steps, changes
where the active-set method starts, never where it ends."""

import itertools

import numpy as np
import pytest

from vicontrol.assembly import ProblemData, assemble
from vicontrol.mesh import SIDES, build_unit_square
from vicontrol.presets import box_control
from vicontrol.vi_solver import (
    DEFAULT_TOL,
    FAMILIES,
    build_vi_problem,
    solve_active_set,
    solve_state,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GAMMA1 = [",".join(c) for k in range(1, 5) for c in itertools.combinations(SIDES, k)]


@st.composite
def boxes(draw):
    x0, x1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    return box_control(draw(st.floats(-40.0, 5.0)), x0, x1, y0, y1)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.sampled_from([16, 32]),
    family=st.sampled_from(FAMILIES),
    gamma1=st.sampled_from(GAMMA1),
    alpha=st.floats(0.1, 100.0),
    q=st.floats(-2.0, 2.0),
    g=boxes(),
)
def test_a_nested_start_ends_at_the_cold_answer(n, family, gamma1, alpha, q, g):
    m = build_unit_square(n, gamma1)
    data = ProblemData(alpha=alpha, b=1.0, q=q, M_cost=1.0, g=g)
    sys = assemble(m, data)
    cold = solve_active_set(build_vi_problem(m, sys, data, family))
    nested = solve_state(m, sys, data, family)
    assert nested.residual <= DEFAULT_TOL
    np.testing.assert_allclose(nested.values(), cold.values(), rtol=0.0, atol=1e-9)
