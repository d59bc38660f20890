"""The CLI's exit-code contract as a property over drawn settings.

A diagram on drawn levels, alphas, data, gamma1 and solver exits 0, 2, 3
or 4 and raises nothing (pyproject turns a RuntimeWarning into an error);
a refusal is one stderr line; diagram.csv holds ``nan`` only in its d1, d2
and d3 cells, and no ``inf``; the distance sequences of summary.txt are
finite; no forked child outlives the command.
"""

import math
import os

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
