"""Property test: ``format_rows`` prints, byte for byte, what one ``%`` over
the whole block printed, on tables with repeated values, -0.0 beside 0.0,
subnormals and the extremes of float64."""

import numpy as np
import pytest

from vicontrol.mesh import format_rows

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
           float("inf"), float("nan"), 1.0, 0.1]


def one_percent(fmt, *columns):
    """The oracle: one ``%`` formats the whole block from one flat ``tolist``."""
    table = np.column_stack(columns)
    return "\n".join([fmt] * table.shape[0]) % tuple(table.ravel().tolist())


@st.composite
def tables(draw, values):
    """A table of 0-12 rows and 1-3 columns whose cells come from a pool of
    at most 4 values and their negatives, so that columns repeat values and
    a 0.0 comes with a -0.0."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    pool += [-v for v in pool]
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells).reshape(rows, cols)


@st.composite
def formats(draw, cols, specs):
    seps = draw(st.lists(st.sampled_from([",", " ", " %% ", ""]), min_size=cols - 1,
                         max_size=cols - 1))
    fields = draw(st.lists(st.sampled_from(specs), min_size=cols, max_size=cols))
    line = fields[0] + "".join(s + f for s, f in zip(seps, fields[1:]))
    return draw(st.sampled_from(["", "(", "%%"])) + line + draw(st.sampled_from(["", ";"]))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(data=st.data(),
                  table=tables(st.floats(width=64) | st.sampled_from(SPECIAL)))
def test_float_tables_print_as_one_percent_printed(data, table):
    fmt = data.draw(formats(table.shape[1], ["%.17g", "%g", "%.3e", "%r"]))
    assert format_rows(fmt, table) == one_percent(fmt, table)
    columns = [table[:, j] for j in range(table.shape[1])]
    assert format_rows(fmt, *columns) == one_percent(fmt, *columns)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(data=st.data(), table=tables(st.integers(-2**62, 2**62)))
def test_integer_tables_print_as_one_percent_printed(data, table):
    fmt = data.draw(formats(table.shape[1], ["%d"]))
    assert format_rows(fmt, table) == one_percent(fmt, table)

