"""Helpers for the tests of ``control._solve_forked``, the fork runner that
``diagram`` and ``check_open_problems`` share.

Each path is forced by the CPU affinity mask the runner reads: {0} keeps
every solve in this process, {0, 1} forks.  The ``forks`` fixture that
records the children's pids is in conftest.py.
"""

import os

import pytest

CPUS = {"in_process": {0}, "forked": {0, 1}}


def on_cpus(monkeypatch, path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS[path])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
