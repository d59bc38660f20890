"""The diagram's lattice points, solved in-process or split with one forked child.

Each path is forced by the CPU affinity mask the fork runner reads (see
forking.py): {0} keeps every solve in this process, {0, 1} forks.
"""

import os
import re
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

from vicontrol import convergence
from vicontrol.assembly import ProblemData
from vicontrol.control import optimize
from vicontrol.convergence import StudySession, diagram
from vicontrol.errors import LineSearchError, NonConvergenceError
from vicontrol.presets import box_control
from vicontrol.vi_solver import ROBIN

from forking import CPUS, assert_no_child_left, on_cpus

LEVELS, ALPHAS = [2, 4], [2.0, 4.0]


def contact_session():
    return StudySession(ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                                    g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75)))


def report_bytes(rep):
    """Everything a DiagramReport holds, as bytes and exact values."""
    rows = np.array([astuple(r) for r in rep.rows], dtype=float)
    sequences = [np.array(s, dtype=float).tobytes()
                 for s in (rep.d1_sequence, rep.d2_sequence, rep.d3_sequence)]
    return rows.tobytes(), sequences, (rep.d1_ok, rep.d2_ok, rep.d3_ok, rep.floor, rep.reference)


def lattice_points(monkeypatch, levels, alphas):
    """The diagram's lattice points in serial order, from an in-process run."""
    seen = []

    def recording_optimize(sys_, data, family, **kw):
        seen.append((sys_.mesh.division_count, data.alpha if family == ROBIN else None))
        return optimize(sys_, data, family=family, **kw)

    with monkeypatch.context() as m:
        on_cpus(m, "in_process")
        m.setattr(convergence, "optimize", recording_optimize)
        diagram(contact_session(), levels, alphas, opt_tol=1e-3)
    return seen


def failing_at(points, message):
    """An optimize that raises NonConvergenceError at each of the points."""

    def optimize_or_fail(sys_, data, family, **kw):
        point = (sys_.mesh.division_count, data.alpha if family == ROBIN else None)
        if point in points:
            raise NonConvergenceError(message.format(point), residual=1.0)
        return optimize(sys_, data, family=family, **kw)

    return optimize_or_fail


def test_forked_and_in_process_diagrams_are_bit_identical(monkeypatch, forks):
    reports = {}
    for path in CPUS:
        on_cpus(monkeypatch, path)
        reports[path] = report_bytes(diagram(contact_session(), [2, 4, 8], [2.0, 4.0, 8.0]))
    assert reports["forked"] == reports["in_process"]
    assert len(forks) == 1
    assert_no_child_left()


def test_the_split_cuts_the_points_where_the_two_sides_weigh_least(monkeypatch):
    points = lattice_points(monkeypatch, [2, 4, 8, 16], [2.0, 4.0, 8.0, 16.0])
    assert len(points) == len(set(points)) == 29  # 5 + 4 per level, 1 corner, 4 diagonal
    m = convergence._split(points)
    assert 0 < m < len(points)

    def heavier_side(cut):
        work = [(n + 1) ** 2 + convergence.POINT_COST for n, _ in points]
        return max(sum(work[:cut]), sum(work[cut:]))

    assert heavier_side(m) == min(heavier_side(cut) for cut in range(1, len(points) + 1))


@pytest.mark.parametrize("path", CPUS)
def test_a_failing_point_of_the_childs_share_raises_its_error(monkeypatch, forks, path):
    points = lattice_points(monkeypatch, LEVELS, ALPHAS)
    bad = points[convergence._split(points)]  # the child's first point
    parent, solved_here = os.getpid(), []

    def failing_at_bad(sys_, data, family, **kw):
        if os.getpid() == parent:
            solved_here.append((sys_.mesh.division_count, data.alpha if family == ROBIN else None))
        return failing_at([bad], "no convergence at {}")(sys_, data, family, **kw)

    on_cpus(monkeypatch, path)
    monkeypatch.setattr(convergence, "optimize", failing_at_bad)
    with pytest.raises(NonConvergenceError) as err:
        diagram(contact_session(), LEVELS, ALPHAS, opt_tol=1e-3)
    assert str(err.value) == f"no convergence at {bad}"
    # no point after bad is tried here: in-process, bad is the last point tried;
    # forked, bad is the child's first and this process stops before it
    assert solved_here == points[:points.index(bad) + (path == "in_process")]
    assert len(forks) == (path == "forked")
    assert_no_child_left()


def test_each_point_is_solved_once_in_one_process_or_the_other(monkeypatch, tmp_path, forks):
    log = tmp_path / "solved"

    def logging_optimize(sys_, data, family, **kw):
        point = (sys_.mesh.division_count, data.alpha if family == ROBIN else None)
        with open(log, "a") as f:  # one short appended line, from either process
            f.write(f"{os.getpid()} {point}\n")
        return optimize(sys_, data, family=family, **kw)

    points = lattice_points(monkeypatch, LEVELS, ALPHAS)
    on_cpus(monkeypatch, "forked")
    monkeypatch.setattr(convergence, "optimize", logging_optimize)
    diagram(contact_session(), LEVELS, ALPHAS, opt_tol=1e-3)
    solved = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert sorted(point for _, point in solved) == sorted(str(p) for p in points)
    here = [point for pid, point in solved if int(pid) == os.getpid()]
    assert here == [str(p) for p in points[:convergence._split(points)]]
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("path", CPUS)
def test_the_first_failure_in_serial_order_is_raised(monkeypatch, path):
    # every point from the second on fails, in both shares
    points = lattice_points(monkeypatch, LEVELS, ALPHAS)
    on_cpus(monkeypatch, path)
    monkeypatch.setattr(convergence, "optimize", failing_at(points[1:], "failed at {}"))
    with pytest.raises(NonConvergenceError, match=f"^{re.escape(f'failed at {points[1]}')}$"):
        diagram(contact_session(), LEVELS, ALPHAS, opt_tol=1e-3)
    assert_no_child_left()


def test_the_parent_solves_the_share_of_a_child_that_dies(monkeypatch, forks):
    on_cpus(monkeypatch, "in_process")
    expected = report_bytes(diagram(contact_session(), LEVELS, ALPHAS))
    fork = os.fork

    def dying_fork():
        pid = fork()
        if pid == 0:
            os._exit(1)  # before the child writes anything
        return pid

    on_cpus(monkeypatch, "forked")
    monkeypatch.setattr(os, "fork", dying_fork)
    assert report_bytes(diagram(contact_session(), LEVELS, ALPHAS)) == expected
    assert len(forks) == 1
    assert_no_child_left()


def test_a_parent_that_raises_kills_and_reaps_its_child(monkeypatch, forks):
    parent = os.getpid()

    def interrupted_or_slow(sys_, data, family, **kw):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # the child: killed long before this ends

    on_cpus(monkeypatch, "forked")
    monkeypatch.setattr(convergence, "optimize", interrupted_or_slow)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        diagram(contact_session(), LEVELS, ALPHAS)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child_left()


def test_text_waiting_on_stdout_is_written_once(monkeypatch, capfd, forks):
    on_cpus(monkeypatch, "forked")
    sys.stdout.write("written before the diagram")
    diagram(contact_session(), LEVELS, ALPHAS, opt_tol=1e-3)
    sys.stdout.flush()
    assert capfd.readouterr().out.count("written before the diagram") == 1
    assert len(forks) == 1


def test_a_failing_point_here_does_not_wait_for_the_child(monkeypatch, forks):
    # a child that took 60 s per point would hold the error back by minutes
    points = lattice_points(monkeypatch, LEVELS, ALPHAS)
    bad = points[1]
    parent = os.getpid()

    def failing_here_or_slow(sys_, data, family, **kw):
        if os.getpid() != parent:
            time.sleep(60)
        return failing_at([bad], "failed at {}")(sys_, data, family, **kw)

    on_cpus(monkeypatch, "forked")
    monkeypatch.setattr(convergence, "optimize", failing_here_or_slow)
    start = time.monotonic()
    with pytest.raises(NonConvergenceError, match=f"^{re.escape(f'failed at {bad}')}$"):
        diagram(contact_session(), LEVELS, ALPHAS, opt_tol=1e-3)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("kind", [LineSearchError, NonConvergenceError])
def test_a_failure_in_the_childs_share_arrives_with_its_attributes(monkeypatch, forks, kind):
    # the child pickles its exception, which keeps the exception's __dict__:
    # the best report of a stalled line search, the residual, any attribute set
    points = lattice_points(monkeypatch, LEVELS, ALPHAS)
    bad = points[convergence._split(points)]  # the child's first point

    def failing_at_bad(sys_, data, family, **kw):
        rep = optimize(sys_, data, family=family, **kw)
        if (sys_.mesh.division_count, data.alpha if family == ROBIN else None) != bad:
            return rep
        err = (LineSearchError(f"stalled at {bad}", best=rep) if kind is LineSearchError
               else NonConvergenceError(f"no convergence at {bad}", residual=0.125, best=rep))
        err.pid = os.getpid()
        raise err

    monkeypatch.setattr(convergence, "optimize", failing_at_bad)
    errors = {}
    for path in CPUS:
        on_cpus(monkeypatch, path)
        with pytest.raises(kind) as err:
            diagram(contact_session(), LEVELS, ALPHAS, opt_tol=1e-3)
        errors[path] = err.value
    forked, here = errors["forked"], errors["in_process"]
    assert here.pid == os.getpid() != forked.pid  # the forked one came through the pipe
    assert str(forked) == str(here)
    assert forked.best.J_opt == here.best.J_opt
    assert forked.best.g_opt.values.tobytes() == here.best.g_opt.values.tobytes()
    if kind is NonConvergenceError:
        assert forked.residual == here.residual == 0.125
    assert len(forks) == 1
    assert_no_child_left()
