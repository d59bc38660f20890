"""Property tests: the active-set loop gives the bytes of the reference loop
in ``oracles.reference_active_set``: the same values, iteration count,
contact set and residual, or the same error, from the same LU factors; and
the free-node reduction gives the bytes of scipy's fancy indexing."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import free_reduction, reference_active_set
from test_vi_solver import _block_test_problems, _record_factors
from vicontrol import vi_solver
from vicontrol.assembly import ProblemData, _matvec, assemble
from vicontrol.errors import NonConvergenceError
from vicontrol.mesh import build_unit_square
from vicontrol.presets import box_control
from vicontrol.vi_solver import FAMILIES, VIProblem, build_vi_problem, solve_active_set

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _assembled(rng, n, family):
    m = build_unit_square(n)
    x0, x1, y0, y1 = np.sort(rng.uniform(0.0, 1.0, 4)).take([0, 2, 1, 3])
    data = ProblemData(alpha=rng.uniform(0.1, 100.0), b=rng.uniform(0.1, 2.0),
                       q=rng.uniform(-2.0, 2.0), M_cost=1.0,
                       g=box_control(rng.uniform(-40.0, 5.0), x0, x1, y0, y1))
    return build_vi_problem(m, assemble(m, data), data, family)


def _m_matrix(rng, n):
    upper = sp.triu(sp.random(n, n, density=0.15, random_state=rng), k=1)
    off = -(upper + upper.T).tocsr()
    diag = rng.uniform(0.01, 1.0, n) + np.asarray(abs(off).sum(axis=1)).ravel()
    return VIProblem(A=(off + sp.diags(diag)).tocsr(), F=rng.uniform(-1.0, 1.0, n),
                     lower_bound=np.zeros(n))


def _pin(rng, p):
    nodes = np.sort(rng.choice(p.size, size=max(1, p.size // 5), replace=False))
    values = p.lower_bound[nodes] + rng.uniform(0.0, 1.0, nodes.size)
    return replace(p, dirichlet_nodes=nodes, dirichlet_values=values)


def _mixed_bound(rng, p):
    lb = rng.uniform(-0.5, 0.5, p.size)
    if p.dirichlet_nodes is not None:  # keep the trace on or above the obstacle
        lb[p.dirichlet_nodes] = np.minimum(lb[p.dirichlet_nodes], p.dirichlet_values)
    return replace(p, lower_bound=lb)


def _outcome(solve, p):
    """What one solve on a fresh reduction of p returns, with the sizes of
    the blocks it factored."""
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        _record_factors(mp, lambda factor: sizes.append(factor.size))
        try:
            result = solve(replace(p))
        except NonConvergenceError as exc:
            result = (str(exc), repr(exc.residual))
    return result, sizes


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["assembled", "m-matrix"]),
    n=st.integers(2, 8),
    family=st.sampled_from(FAMILIES),
    pinned=st.booleans(),
    bound=st.sampled_from(["zero", "mixed"]),
    start=st.sampled_from(["cold", "warm", "random"]),
    tol=st.sampled_from([1e-16, 1e-12, 1e-10, 1e-6]),  # 1e-16: the loop stops on a stable set
)
def test_the_active_set_loop_gives_the_reference_bytes(
        seed, kind, n, family, pinned, bound, start, tol):
    rng = np.random.default_rng(seed)
    p = _assembled(rng, n, family) if kind == "assembled" else _m_matrix(rng, 5 * n)
    if pinned and p.dirichlet_nodes is None:
        p = _pin(rng, p)
    if bound == "mixed":
        p = _mixed_bound(rng, p)
    initial = None
    if start == "warm":  # where the solve of a nearby load ended
        initial = solve_active_set(replace(p, F=0.9 * p.F), tol=tol).active_set
    elif start == "random":
        initial = np.flatnonzero(rng.random(p.size) < 0.5)

    def library(q):
        rep = solve_active_set(q, tol=tol, initial_active=initial)
        return rep.values().tobytes(), rep.iterations, rep.active_set.tobytes(), rep.residual

    def reference(q):
        values, iterations, active, residual = reference_active_set(
            q, tol=tol, initial_active=initial)
        return values.tobytes(), iterations, active.tobytes(), residual

    assert _outcome(library, p) == _outcome(reference, p)


def _assert_the_cut_is_fancy_indexed(p):
    op = replace(p)._operator
    a_ff, shift = free_reduction(p)
    assert type(op.a_ff) is type(a_ff)
    for got, want in [(op.a_ff.data, a_ff.data), (op.a_ff.indices, a_ff.indices),
                      (op.a_ff.indptr, a_ff.indptr), (op.shift, shift)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_the_free_node_cut_of_a_pinned_trace_is_fancy_indexed():
    _, dirichlet, galerkin, _ = _block_test_problems()
    _assert_the_cut_is_fancy_indexed(dirichlet)
    _assert_the_cut_is_fancy_indexed(galerkin)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["assembled", "m-matrix"]),
    n=st.integers(2, 8),
)
def test_the_free_node_cut_of_random_pinned_nodes_is_fancy_indexed(seed, kind, n):
    rng = np.random.default_rng(seed)
    p = _assembled(rng, n, "robin") if kind == "assembled" else _m_matrix(rng, 5 * n)
    _assert_the_cut_is_fancy_indexed(_pin(rng, p))


@pytest.mark.parametrize("seed", [1, 3, 5])  # each case has contact: active values are -0.0
@pytest.mark.parametrize("kind, family", [("assembled", "robin"),
                                          ("assembled", "dirichlet_limit"),
                                          ("m-matrix", None)])
def test_a_negative_zero_obstacle_skips_the_bound_product_with_the_reference_bytes(
        seed, kind, family, monkeypatch):
    rng = np.random.default_rng(seed)
    p = _assembled(rng, 6, family) if kind == "assembled" else _pin(rng, _m_matrix(rng, 30))
    p = replace(p, lower_bound=np.full(p.size, -0.0))
    op = p._operator
    assert op.zero_bound
    products = []
    with monkeypatch.context() as mp:  # the solver's sparse products all go through _matvec
        mp.setattr(vi_solver, "_matvec", lambda a, x: products.append(a) or _matvec(a, x))
        rep = solve_active_set(p)
    assert len(products) == rep.iterations  # A u - F alone on each step
    assert rep.active_set.size and np.signbit(rep.values()[rep.active_set]).all()
    values, iterations, active, residual = reference_active_set(p)
    assert (rep.values().tobytes(), rep.iterations, rep.active_set.tobytes(), rep.residual) == (
        values.tobytes(), iterations, active.tobytes(), residual)
