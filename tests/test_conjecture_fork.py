"""The conjecture's trials, solved in-process or split with one forked child.

``check_open_problems`` cuts its trials at m = trials // 2; a forked child
solves trials m.. when the CPU affinity mask holds two CPUs (see
forking.py).  Each share draws from the seed's generator advanced past the
trials before it and solves on a fresh evaluator, on one CPU too, so the
report does not depend on the path.
"""

import os
import re
import time
from dataclasses import astuple

import numpy as np
import pytest

from vicontrol import control
from vicontrol.assembly import ProblemData, assemble
from vicontrol.control import check_open_problems
from vicontrol.errors import CrossCheckError, NonConvergenceError
from vicontrol.mesh import build_unit_square
from vicontrol.presets import box_control
from vicontrol.vi_solver import DIRICHLET_LIMIT, ROBIN

from forking import CPUS, assert_no_child_left, on_cpus


def contact_report(n=2, alpha=1000.0, trials=8, seed=1, family=ROBIN):
    """check_open_problems on contact-v1's data; at n = 2, alpha = 1000 the
    Robin trials write witnesses."""
    data = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0,
                       g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
    sys_ = assemble(build_unit_square(n), data)
    return check_open_problems(sys_, data, trials=trials, seed=seed, family=family)


def report_bytes(rep):
    """Everything a ConjectureReport holds, witness controls included, as bytes."""
    witnesses = [(w["trial"], w["kind"], np.float64(w["mu"]).tobytes(), w["g1"].tobytes(),
                  w["g2"].tobytes()) for w in rep.witnesses]
    counts = (rep.pointwise_violations, rep.h_norm_violations, rep.convexity_violations)
    return np.array([astuple(t) for t in rep.trials]).tobytes(), witnesses, counts


def drawn_mus(monkeypatch):
    """The mu of each trial of ``contact_report()``, from an in-process run."""
    with monkeypatch.context() as m:
        on_cpus(m, "in_process")
        return [t.mu for t in contact_report().trials]


def logging_trials(monkeypatch, log):
    """Make each process append "pid k" to the file log as it solves trial k."""
    trial = control._trial

    def logged(ev, k, *draws):
        result = trial(ev, k, *draws)
        with open(log, "a") as f:  # one short appended line, from either process
            f.write(f"{os.getpid()} {k}\n")
        return result

    monkeypatch.setattr(control, "_trial", logged)


def solved_here(log):
    """The trials this process solved, in order."""
    lines = [line.split() for line in log.read_text().splitlines()] if log.exists() else []
    return [int(k) for pid, k in lines if int(pid) == os.getpid()]


def failing_at(mus, kind=NonConvergenceError):
    """A _combination_states that raises ``kind`` on the trials drawn with
    the mu values ``mus``, with the pid of the process that raised it."""
    combination = control._combination_states

    def combination_or_fail(ev, g1, g2, mu):
        if mu in mus:
            err = kind("no convergence", residual=0.25, best=mu)
            err.pid = os.getpid()
            raise err
        return combination(ev, g1, g2, mu)

    return combination_or_fail


@pytest.mark.parametrize("family", [ROBIN, DIRICHLET_LIMIT])
@pytest.mark.parametrize("n, alpha, trials, seed", [(2, 1000.0, 40, 1), (8, 2.0, 30, 3)])
def test_forked_and_in_process_reports_are_bit_identical(monkeypatch, forks, family, n, alpha,
                                                         trials, seed):
    reports = {}
    for path in CPUS:
        on_cpus(monkeypatch, path)
        reports[path] = report_bytes(contact_report(n, alpha, trials, seed, family))
    assert reports["forked"] == reports["in_process"]
    if (n, family) == (2, ROBIN):
        assert len(reports["forked"][1]) == 12  # witnesses from both shares
        assert {k for k, *_ in reports["forked"][1]} & set(range(trials // 2, trials))
    assert len(forks) == 1
    assert_no_child_left()


def test_one_trial_forks_nothing_and_two_fork_one_child(monkeypatch, forks):
    on_cpus(monkeypatch, "in_process")
    expected = [report_bytes(contact_report(trials=t)) for t in (1, 2)]
    on_cpus(monkeypatch, "forked")
    assert report_bytes(contact_report(trials=1)) == expected[0]
    assert forks == []
    assert report_bytes(contact_report(trials=2)) == expected[1]
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("path", CPUS)
def test_an_odd_trial_count_leaves_the_larger_half_to_the_second_share(monkeypatch, tmp_path,
                                                                       forks, path):
    log = tmp_path / "solved"
    on_cpus(monkeypatch, "in_process")
    expected = report_bytes(contact_report(trials=7))
    logging_trials(monkeypatch, log)
    on_cpus(monkeypatch, path)
    assert report_bytes(contact_report(trials=7)) == expected
    solved = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(k) for _, k in solved) == list(range(7))
    assert solved_here(log) == ([0, 1, 2] if path == "forked" else list(range(7)))
    assert len(forks) == (path == "forked")
    assert_no_child_left()


@pytest.mark.parametrize("path", CPUS)
@pytest.mark.parametrize("bad", [1, 5], ids=["first_share", "second_share"])
def test_a_trials_solver_failure_names_its_trial(monkeypatch, forks, path, bad):
    # trials 0-3 are the first share, 4-7 the second; the error keeps its
    # type and attributes, in the forked path through the pipe too
    mus = drawn_mus(monkeypatch)
    on_cpus(monkeypatch, path)
    monkeypatch.setattr(control, "_combination_states", failing_at([mus[bad]], CrossCheckError))
    with pytest.raises(CrossCheckError) as err:
        contact_report()
    assert str(err.value) == f"at trial {bad}: no convergence"
    assert err.value.residual == 0.25 and err.value.best == mus[bad]
    in_child = path == "forked" and bad >= 4
    assert (err.value.pid == os.getpid()) != in_child
    assert len(forks) == (path == "forked")
    assert_no_child_left()


def test_a_failure_in_the_childs_share_is_raised_after_the_parents_share(monkeypatch, tmp_path,
                                                                         forks):
    log = tmp_path / "solved"
    mus = drawn_mus(monkeypatch)
    logging_trials(monkeypatch, log)
    on_cpus(monkeypatch, "forked")
    monkeypatch.setattr(control, "_combination_states", failing_at([mus[4]]))
    with pytest.raises(NonConvergenceError, match=r"^at trial 4: no convergence$"):
        contact_report()
    assert solved_here(log) == [0, 1, 2, 3]
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("path", CPUS)
def test_a_failure_in_both_shares_raises_the_first_shares(monkeypatch, forks, path):
    mus = drawn_mus(monkeypatch)
    on_cpus(monkeypatch, path)
    monkeypatch.setattr(control, "_combination_states", failing_at([mus[2], mus[4]]))
    with pytest.raises(NonConvergenceError, match=r"^at trial 2: no convergence$") as err:
        contact_report()
    assert err.value.pid == os.getpid()
    assert len(forks) == (path == "forked")
    assert_no_child_left()


def test_a_failure_in_the_parents_share_does_not_wait_for_the_child(monkeypatch, forks):
    # a child that took 60 s per trial would hold the error back by minutes
    mus = drawn_mus(monkeypatch)
    parent = os.getpid()
    fail = failing_at([mus[1]])

    def failing_here_or_slow(ev, g1, g2, mu):
        if os.getpid() != parent:
            time.sleep(60)
        return fail(ev, g1, g2, mu)

    on_cpus(monkeypatch, "forked")
    monkeypatch.setattr(control, "_combination_states", failing_here_or_slow)
    start = time.monotonic()
    with pytest.raises(NonConvergenceError, match=f"^{re.escape('at trial 1: no convergence')}$"):
        contact_report()
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child_left()
