import os

import numpy as np
import pytest

from vicontrol import convergence
from vicontrol.assembly import AssembledSystem, ProblemData
from vicontrol.control import optimize
from vicontrol.convergence import (
    ZERO_NOTE,
    RateTable,
    StudySession,
    alpha_sweep_state,
    diagram,
    fit_order,
    h_sweep_cost,
    h_sweep_state,
    interp_rate_study,
    monotone_nonincreasing,
)
from vicontrol.errors import InsufficientDataError, InvalidParameterError
from vicontrol.mesh import ScalarField
from vicontrol.presets import box_control
from vicontrol.vi_solver import DIRICHLET_LIMIT, ROBIN, solve_state


def contact_data(alpha=2.0):
    return ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0,
                       g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))


def quiet_data(alpha=2.0):
    return ProblemData(alpha=alpha, b=1.0, q=0.0, M_cost=1.0, g=0.0)


def test_fit_order_on_exact_geometric_data():
    assert fit_order([(0.2, 0.4), (0.1, 0.2)]) == pytest.approx(1.0, abs=1e-12)
    assert fit_order([(0.2, 0.3), (0.1, 0.3)]) == pytest.approx(0.0, abs=1e-12)
    rows = [(0.4, 1e-2), (0.2, 2.5e-3), (0.1, 6.25e-4)]
    assert fit_order(rows) == pytest.approx(2.0, abs=1e-12)


def test_fit_order_excludes_zero_errors():
    assert fit_order([(0.4, 0.0), (0.2, 0.4), (0.1, 0.2)]) == pytest.approx(1.0)
    with pytest.raises(InsufficientDataError):
        fit_order([(0.4, 0.0), (0.2, 0.0), (0.1, 0.5)])


def test_rate_table_validation():
    with pytest.raises(InvalidParameterError):
        RateTable("h", ((0.5, 1.0, "V"), (0.5, 0.5, "V")), "ref")
    with pytest.raises(InvalidParameterError):
        RateTable("h", ((0.5, 1.0, "V"), (0.25, -0.5, "V")), "ref")


def test_quiet_data_gives_all_zero_errors():
    table = h_sweep_state(StudySession(quiet_data()), 2.0, [2, 4, 8, 16])
    np.testing.assert_allclose(table.errors(), 0.0, atol=5e-10)
    # solver noise may leave exact zeros or near-zeros; either way no fit
    # above the guard is possible and the note explains it
    assert table.fitted_order is None
    assert table.note != ""


def test_contact_state_errors_decrease_with_refinement():
    table = h_sweep_state(StudySession(contact_data()), 2.0, [2, 4, 8, 16])
    errs = table.errors()
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert table.fitted_order is not None and table.fitted_order >= 0.45
    assert "surrogate_reference" in table.reference


def test_contact_cost_gap_decreases_with_refinement():
    # levels are multiples of 4 so the control box aligns with every mesh
    table = h_sweep_cost(StudySession(contact_data()), 2.0, [4, 8, 16, 32])
    errs = table.errors()
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert table.fitted_order is not None and table.fitted_order >= 0.45


def test_sweeps_require_enough_levels():
    with pytest.raises(InvalidParameterError):
        h_sweep_state(StudySession(contact_data()), 2.0, [2, 4, 8])


def test_alpha_sweep_trace_rate_and_v_monotonicity():
    tables = alpha_sweep_state(StudySession(contact_data()), 8, [2.0**k for k in range(1, 11)])
    assert tables["R"].fitted_order is not None
    assert tables["R"].fitted_order <= -0.45
    assert monotone_nonincreasing(tables["V"].errors())
    assert tables["R"].parameter == "alpha_minus_1"


def test_alpha_sweep_rejects_small_alpha():
    with pytest.raises(InvalidParameterError):
        alpha_sweep_state(StudySession(contact_data()), 4, [0.5, 2.0, 4.0])
    with pytest.raises(InvalidParameterError):
        alpha_sweep_state(StudySession(contact_data()), 4, [])


def test_quiet_alpha_sweep_is_zero():
    tables = alpha_sweep_state(StudySession(quiet_data()), 4, [2.0, 4.0, 8.0, 16.0])
    np.testing.assert_allclose(tables["R"].errors(), 0.0, atol=5e-10)
    np.testing.assert_allclose(tables["V"].errors(), 0.0, atol=5e-10)


def test_sweeps_share_lattice_corner_bitwise():
    # the h-sweep at the largest alpha and the alpha-sweep at its finest
    # mesh visit the same lattice point; a shared session solves it once
    session = StudySession(contact_data())
    levels = [2, 4, 8, 16]
    alphas = [2.0, 4.0, 8.0]
    h_sweep_state(session, alphas[-1], levels)
    before = session.state(levels[-1], alphas[-1]).values
    alpha_sweep_state(session, levels[-1], alphas)
    after = session.state(levels[-1], alphas[-1]).values
    assert before is after  # cached: identical array, hence bitwise equal


def test_a_session_state_is_a_field_on_the_session_mesh():
    session = StudySession(contact_data())
    for alpha in (2.0, None):
        u = session.state(8, alpha)
        assert isinstance(u, ScalarField) and u.mesh is session.grid(8).mesh
        assert session.state(8, alpha) is u


def test_reference_levels():
    session = StudySession(contact_data())
    h_sweep_state(session, 2.0, [2, 4, 8, 16])
    assert 32 in session._grid  # one refinement beyond the finest level
    rep = diagram(StudySession(quiet_data()), [2, 4], [2.0, 4.0])
    assert "n=16" in rep.reference  # two refinements beyond finest (4 -> 16)


def test_diagram_quiet_case_near_degenerate():
    # with no flux and a huge control weight, every corner's optimal state
    # stays (near-)constant b and the optimal costs coincide to O(1/M)
    data = ProblemData(alpha=2.0, b=1.0, q=0.0, M_cost=1e8, g=0.0)
    rep = diagram(StudySession(data), [2, 4, 8], [2.0, 4.0, 8.0], opt_tol=1e-3)
    js = [r.J_opt for r in rep.rows]
    assert max(js) - min(js) <= 1e-6
    assert all(abs(j - 0.5) <= 1e-6 for j in js)
    assert rep.d1_ok and rep.d2_ok and rep.d3_ok


def test_diagram_contact_distances_decrease():
    rep = diagram(StudySession(contact_data()), [2, 4, 8], [2.0, 4.0, 8.0])
    assert len(rep.d1_sequence) == 3
    assert len(rep.d2_sequence) == 3
    assert len(rep.d3_sequence) == 3
    assert rep.d1_ok and rep.d2_ok and rep.d3_ok
    assert rep.ok


def test_interp_orders_for_smooth_function():
    tables = interp_rate_study(lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0),
                               [4, 8, 16, 32])
    assert abs(tables["H"].fitted_order - 2.0) <= 0.1
    assert abs(tables["V"].fitted_order - 1.0) <= 0.1


def test_a_sweep_takes_its_fit_guard_from_the_given_session():
    d = contact_data()
    levels = [2, 4, 8, 16]
    plain = h_sweep_state(StudySession(d), 2.0, levels)
    session = StudySession(d, tol=1e-3)
    given = h_sweep_state(session, 2.0, levels)
    errs, floor = given.errors(), session.fit_floor
    assert floor == 100 * 1e-3 and plain.note == "" and given.note == ZERO_NOTE
    assert np.any(errs < floor) and np.sum(errs >= floor) >= 3
    assert given.fitted_order == fit_order([(h, e) for h, e, _ in given.rows if e >= floor])


def test_the_dirichlet_limit_point_is_alpha_none():
    data = contact_data()
    session = StudySession(data)
    u = session.state(8, None)
    assert session.state(8, None) is u
    sys = session.grid(8)
    direct = solve_state(sys.mesh, sys, data, family=DIRICHLET_LIMIT, tol=session.tol)
    assert u.values.tobytes() == direct.solution.tobytes()


def test_a_session_grid_is_its_cached_assembled_system():
    session = StudySession(contact_data())
    sys = session.grid(8)
    assert isinstance(sys, AssembledSystem) and sys.mesh.division_count == 8
    assert session.grid(8) is sys


def test_a_lattice_point_is_the_grid_data_and_family():
    data = contact_data()
    session = StudySession(data)
    point = session.point(8, None)
    assert point == (session.grid(8), data, DIRICHLET_LIMIT)
    assert point[0] is session.grid(8) and point[1] is data
    sys, robin_data, family = session.point(8, 16.0)
    assert sys is session.grid(8) and robin_data.alpha == 16.0 and family == ROBIN


@pytest.mark.parametrize("sweep", [h_sweep_state, h_sweep_cost])
def test_an_h_sweep_refuses_alpha_none(sweep):
    # an h sweep is a Robin sweep; alpha None must not become a Dirichlet-limit one
    with pytest.raises(InvalidParameterError):
        sweep(StudySession(contact_data()), None, [2, 4, 8, 16])


def test_a_diagram_after_a_sweep_reuses_the_session_grids(monkeypatch):
    # one CPU keeps every solve in this process, where the ids below are comparable
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    session = StudySession(quiet_data())
    h_sweep_state(session, 2.0, [2, 4, 8, 16])
    grids = dict(session._grid)
    seen = []

    def recording_optimize(sys, data, **kw):
        seen.append(sys)
        return optimize(sys, data, **kw)

    monkeypatch.setattr(convergence, "optimize", recording_optimize)
    monkeypatch.setattr(convergence, "build_unit_square", None)  # no new grid may be built
    diagram(session, [2, 8], [2.0, 4.0], opt_tol=1e-3)
    assert session._grid.keys() == grids.keys()
    assert {id(sys) for sys in seen} == {id(grids[n]) for n in (2, 8, 32)}


def test_a_forked_diagram_after_a_sweep_reuses_the_session_grids(monkeypatch):
    # a child that built a grid would call None and ship the TypeError back
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    session = StudySession(quiet_data())
    h_sweep_state(session, 2.0, [2, 4, 8, 16])
    grids = dict(session._grid)
    seen = []

    def recording_optimize(sys, data, **kw):
        seen.append(sys)
        return optimize(sys, data, **kw)

    monkeypatch.setattr(convergence, "optimize", recording_optimize)
    monkeypatch.setattr(convergence, "build_unit_square", None)  # no new grid may be built
    diagram(session, [2, 8], [2.0, 4.0], opt_tol=1e-3)
    assert session._grid.keys() == grids.keys()
    assert seen and {id(sys) for sys in seen} <= {id(grids[n]) for n in (2, 8, 32)}
