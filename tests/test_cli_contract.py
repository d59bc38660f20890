"""The CLI's exit-code contract as a property over drawn settings.

A diagram on drawn levels, alphas, data, gamma1 and solver exits 0, 2, 3
or 4 and raises nothing (pyproject turns a RuntimeWarning into an error);
a refusal is one stderr line; diagram.csv holds ``nan`` only in its d1, d2
and d3 cells, and no ``inf``; the distance sequences of summary.txt are
finite; no forked child outlives the command.  A conjecture on drawn n,
trials, seed, control range, data, family and solver exits 0, 2 or 3 and
raises nothing; a refusal is one stderr line; its three files hold no
``nan`` or ``inf``.  A state on drawn n, alpha, tol, data, control, gamma1,
family, solver and cross-check exits 0, 2 or 3 and raises nothing; a
refusal is one stderr line; state.csv and report.txt hold no ``nan`` or
``inf``.
"""

import math
import os
import re

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from vicontrol.cli import main
from vicontrol.mesh import SIDES

HUGE = 1e300
# The diagram solves its states to OPT_STATE_TOL = 1e-12.  On the finest
# grid drawn here (n = 16) the residual's rounding floor passes that tol near
# alpha = 3.6e4 (ROADMAP aim 3, item 3), so alphas stay at most 1e4.  PSOR
# draws keep contact-v1's b = q = M = 1 and alpha >= 0.1: PSOR stops on an
# absolute residual, and away from those data single optimizations ran for
# minutes (b = M = 0.1, n = 16, alpha = 1; see CHANGES.md), which a test
# meant to run in seconds cannot hold.  The active-set method takes every draw.
SCALES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
WIDE = st.one_of(st.sampled_from([0.0, HUGE, -HUGE]), st.floats(-HUGE, HUGE))
# a moderate value, a positive one of any scale, or one from all of ±1e300
FLUX = st.one_of(st.floats(-10.0, 10.0), SCALES, WIDE)
POSITIVE = st.one_of(st.floats(1e-3, 1e3), SCALES, WIDE)


def number(x: float) -> str:
    return repr(float(x))


@st.composite
def diagram_settings(draw):
    solver = draw(st.sampled_from(["active_set", "psor"]))
    psor = solver == "psor"
    levels = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=2, max_size=3, unique=True))
    exponents = st.floats(-1.0 if psor else -3.0, 4.0)
    alphas = draw(st.lists(exponents.map(lambda e: 10.0 ** e), min_size=2, max_size=3,
                           unique=True))
    box = draw(st.tuples(st.floats(-30.0, 30.0), *[st.floats(0.0, 1.0)] * 4))
    g = draw(st.one_of(WIDE.map(number), st.just("box:" + ":".join(map(number, box)))))
    gamma1 = draw(st.lists(st.sampled_from(SIDES), min_size=1, max_size=4, unique=True))
    b, m = (1.0, 1.0) if psor else (draw(POSITIVE), draw(POSITIVE))
    q = 1.0 if psor else draw(FLUX)
    return [
        f"diagram_levels={','.join(map(str, levels))}",
        f"diagram_alphas={','.join(map(number, alphas))}",
        f"b={number(b)}",
        f"q={number(q)}",
        f"M={number(m)}",
        f"g={g}",
        f"gamma1={','.join(gamma1)}",
        f"solver={solver}",
    ]


def csv_cells(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(sets=diagram_settings())
def test_a_diagram_keeps_the_exit_code_contract(tmp_path_factory, capsys, sets):
    out = tmp_path_factory.mktemp("diagram")
    argv = ["diagram"] + [a for s in sets for a in ("--set", s)] + ["--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code in (2, 3):
        assert err.count("\n") == 1, err
        assert err.startswith(("configuration error:", "solver failure:")), err
    else:
        assert err == ""
        rows = csv_cells(out / "diagram.csv")
        for row in rows:
            for key, cell in row.items():
                value = float(cell)
                assert not math.isinf(value), (argv, row)
                assert key in ("d1", "d2", "d3") or not math.isnan(value), (argv, row)
        for line in (out / "summary.txt").read_text().splitlines():
            if line.startswith(("d1 (", "d2 (", "d3 (")):  # the finite distance sequences
                assert all(math.isfinite(float(v)) for v in line.split("): ")[1].split(", ")), line
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# A control-range end: moderate, or for the active-set method anything up to
# +-1e300.  PSOR stops on an absolute residual, which very large controls
# (3e16 in one draw) leave out of reach: such a trial runs all 100 000 sweeps
# (1-1.5 s) and exits 3, so PSOR draws keep moderate ends and contact-v1's data.
MODERATE = st.floats(-50.0, 50.0)
SEEDS = st.one_of(st.integers(-5, 5), st.integers(-(2 ** 70), 2 ** 70))


@st.composite
def conjecture_settings(draw):
    solver = draw(st.sampled_from(["active_set", "psor"]))
    psor = solver == "psor"
    bound = MODERATE if psor else st.one_of(MODERATE, WIDE)
    low = draw(bound)
    low, high = sorted((low, draw(st.one_of(st.just(low), bound))))  # equal ends too
    b, m = (1.0, 1.0) if psor else (draw(POSITIVE), draw(POSITIVE))
    q = 1.0 if psor else draw(FLUX)
    return [
        f"n={draw(st.integers(1, 6))}",
        f"trials={draw(st.integers(1, 5))}",
        f"seed={draw(SEEDS)}",
        f"g_low={number(low)}",
        f"g_high={number(high)}",
        f"b={number(b)}",
        f"q={number(q)}",
        f"M={number(m)}",
        f"family={draw(st.sampled_from(['robin', 'dirichlet_limit']))}",
        f"solver={solver}",
    ]


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(sets=conjecture_settings())
def test_a_conjecture_keeps_the_exit_code_contract(tmp_path_factory, capsys, sets):
    out = tmp_path_factory.mktemp("conjecture")
    argv = (["conjecture", "--preset", "contact-v1"] + [a for s in sets for a in ("--set", s)]
            + ["--out", str(out)])
    code = main(argv)
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, code, err)
    if code in (2, 3):
        assert err.count("\n") == 1, err
        assert err.startswith(("configuration error:", "solver failure:")), err
        return
    assert err == ""
    for name in ("conjecture.csv", "witnesses.csv", "summary.txt"):
        text = (out / name).read_text()
        assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE), (argv, name, text)


# The state slice holds alpha at most 1e4 and tol at least 1e-12, as the
# diagram slice does.  A draw that runs PSOR, as its solver or as the
# cross-check's reference, keeps contact-v1's data and a moderate control: a
# control of 3e16 leaves PSOR's absolute residual at 3.0, as q = -1e300
# does at larger values, so such a solve runs all 100 000 sweeps (about 1 s)
# before it exits 3.  An active-set draw without the cross-check takes the
# full data ranges.
@st.composite
def state_settings(draw):
    solver = draw(st.sampled_from(["active_set", "psor"]))
    cross_check = draw(st.booleans())
    psor = solver == "psor" or cross_check
    box = draw(st.tuples(st.floats(-30.0, 30.0), *[st.floats(0.0, 1.0)] * 4))
    value = MODERATE if psor else WIDE
    g = draw(st.one_of(value.map(number), st.just("box:" + ":".join(map(number, box)))))
    gamma1 = draw(st.lists(st.sampled_from(SIDES), min_size=1, max_size=4, unique=True))
    b, m = (1.0, 1.0) if psor else (draw(POSITIVE), draw(POSITIVE))
    q = 1.0 if psor else draw(FLUX)
    sets = [
        f"n={draw(st.integers(1, 12))}",
        f"alpha={number(10.0 ** draw(st.floats(-1.0 if psor else -3.0, 4.0)))}",
        f"tol={number(10.0 ** draw(st.floats(-12.0, -4.0)))}",
        f"b={number(b)}",
        f"q={number(q)}",
        f"M={number(m)}",
        f"g={g}",
        f"gamma1={','.join(gamma1)}",
        f"family={draw(st.sampled_from(['robin', 'dirichlet_limit']))}",
        f"solver={solver}",
    ]
    return [a for s in sets for a in ("--set", s)] + (["--cross-check"] if cross_check else [])


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(args=state_settings())
def test_a_state_keeps_the_exit_code_contract(tmp_path_factory, capsys, args):
    out = tmp_path_factory.mktemp("state")
    argv = ["state"] + args + ["--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, code, err)  # a state has no acceptance check to fail
    if code in (2, 3):
        assert err.count("\n") == 1, err
        assert err.startswith(("configuration error:", "solver failure:")), err
        return
    assert err == ""
    for name in ("state.csv", "report.txt"):
        text = (out / name).read_text()
        assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE), (argv, name, text)
