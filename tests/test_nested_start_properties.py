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
    _coarse_contact,
    build_vi_problem,
    solve_active_set,
    solve_state,
)

from oracles import reference_nested_contact

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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_the_nested_start_reads_off_the_contact_set_of_a_plain_jacobi_loop(n, family):
    # the smoother is PSOR's projected sweep on one block of every free node,
    # which divides by the diagonal before it multiplies by the damping; the
    # reference multiplies first, as a plain Jacobi loop does (contact-v1)
    m = build_unit_square(n)
    data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                       g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
    p = build_vi_problem(m, assemble(m, data), data, family)
    got = _coarse_contact(p, DEFAULT_TOL)
    assert got.size
    np.testing.assert_array_equal(got, reference_nested_contact(p, DEFAULT_TOL))
