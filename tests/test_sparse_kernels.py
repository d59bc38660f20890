"""scipy's compiled CSR kernels, called through ``assembly``'s two adapters.

``_matvec`` must give the bytes of ``a @ x`` and ``_scatter`` those of
``coo_matrix(...).tocsr()`` followed by ``eliminate_zeros``, on inputs well
beyond what assembly makes: unsorted and duplicate column indices, explicit
zeros, signed zeros, infinities and NaN, empty rows and empty matrices.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from vicontrol.assembly import _matvec, _scatter

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIAL = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e-308, 5e-324]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _csr(rows, n, data_dtype, index_dtype):
    """CSR matrix of n columns with the given rows of (column, value) entries,
    stored as drawn: unsorted, duplicates kept, zeros kept."""
    indptr = np.cumsum([0, *map(len, rows)])
    cols = [j for row in rows for j, _ in row]
    vals = np.array([v for row in rows for _, v in row], dtype=float)
    if np.issubdtype(data_dtype, np.integer):
        vals = np.nan_to_num(vals, nan=7.0, posinf=11.0, neginf=-13.0).clip(-1e6, 1e6)
    a = sp.csr_matrix((vals.astype(data_dtype), np.array(cols, dtype=np.int32), indptr),
                      shape=(len(rows), n))
    a.indices, a.indptr = a.indices.astype(index_dtype), a.indptr.astype(index_dtype)
    return a


def _assert_product_bytes(a, x):
    got, want = _matvec(a, x), a @ x
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@st.composite
def _matrix_and_vector(draw):
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.tuples(st.integers(0, n - 1), FLOATS) if n else st.nothing()
    rows = [draw(st.lists(entry, max_size=3 * n)) for _ in range(m)]  # some rows empty
    a = _csr(rows, n, draw(st.sampled_from([np.float64, np.int32, np.int64])),
             draw(st.sampled_from([np.int32, np.int64])))
    x = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
    return a, x


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(_matrix_and_vector())
def test_matvec_gives_the_bytes_of_the_operator(case):
    _assert_product_bytes(*case)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("rows, n", [
    ([], 0),  # 0 x 0
    ([[]], 5),  # 1 x n, no entries
    ([[(3, 2.5), (0, -0.0), (3, -1.0), (1, np.nan), (0, 0.0)]], 5),  # 1 x n, unsorted
    ([[], [(2, -0.0), (2, -0.0)], [], [(0, np.inf), (0, -np.inf)]], 3),
])
def test_matvec_on_empty_and_single_row_matrices(rows, n, index_dtype):
    a = _csr(rows, n, np.float64, index_dtype)
    for x in (np.zeros(n), np.full(n, -0.0), np.linspace(2.0, -1.0, 2 * n)[::-2]):  # strided
        _assert_product_bytes(a, x)


def test_matvec_refuses_what_the_kernel_would_misread():
    a = _csr([[(0, 1.0), (1, 2.0)], [(1, 3.0)]], 2, np.float64, np.int32)
    for x in (np.ones((2, 1)), np.ones((2, 2)), np.ones(3), np.ones(1)):
        with pytest.raises(ValueError):
            _matvec(a, x)
    with pytest.raises(ValueError):
        _matvec(a.tocsc(), np.ones(2))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
                  k=st.sampled_from([2, 3]), distinct=st.integers(1, 40))
def test_scatter_gives_the_bytes_of_coo_tocsr(seed, n, k, distinct):
    """Cells repeat 2-6 times in random order, so rows hold far more entries
    than std::sort's insertion-sort cutoff of 16 and each (row, col) pair is
    summed from many terms.  At n = 1 the one row is sorted already, so
    tocsr does not sort it, and a sort would reorder its terms.  One value
    array has wide magnitudes, whose sum depends on the order, the other
    integers that often sum to exactly 0."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, n, (distinct, k))
    cells = rng.permutation(base.repeat(rng.integers(2, 7, distinct), axis=0)).astype(np.int32)
    shape = (len(cells), k, k)
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    wide[rng.random(shape) < 0.1] = -0.0
    ints = rng.integers(-1, 2, shape).astype(float)
    got = _scatter(SimpleNamespace(node_count=n), cells, lambda: wide, lambda: ints)
    rows, cols = np.repeat(cells, k, axis=1).ravel(), np.tile(cells, k).ravel()
    for a, vals in zip(got, (wide, ints)):
        ref = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        ref.eliminate_zeros()
        assert a.has_canonical_format and a.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(ref, name)
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name
