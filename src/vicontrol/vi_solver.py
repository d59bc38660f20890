"""Solvers for the discrete obstacle-constrained state systems.

Two systems are covered, selected by ``family``:

* ``"robin"``: find u >= 0 with (K + alpha M_R) u = F complementarily,
  F = (g, .)_H - (q, .)_Q + alpha (b, .)_R;
* ``"dirichlet_limit"``: find u >= 0 with K u = (g, .)_H - (q, .)_Q
  complementarily and the trace u = b pinned on gamma1.

Complementarity is measured nodewise as min(u_i - l_i, (A u - F)_i); its
max-norm is zero exactly at the solution.  Two independent algorithms are
provided (projected SOR and a primal-dual active-set method) plus a
brute-force active-set enumeration oracle for small problems.  Dirichlet
constraints are imposed by row/column elimination with symmetric load
correction, which preserves symmetry for both algorithms.

Each problem reduces itself to its free nodes once, on first use, and
:meth:`VIProblem.with_load` shares the reduction with the same VI under
another load.  The reduction keeps only the last LU factor made by the
active-set and adjoint solves: the solves that share a reduction (line
searches, adjoint lifts) start from the contact set where the previous
one ended, so that is the factor they reuse.

Active-set solves on even-n structured meshes start from the Galerkin
coarse VI (P^T A P, P^T F) on the n/2 grid: its solution is prolonged,
smoothed by a few damped projected-Jacobi sweeps, and the contact set is
read off with the active-set update rule.  The answer is the cold start's,
reached in fewer fine-level iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssembledSystem,
    ProblemData,
    _gamma2_flux_load,
    as_control_field,
    load_vector,
    robin_matrix,
)
from .errors import (
    CrossCheckError,
    InvalidParameterError,
    MatrixError,
    NonConvergenceError,
)
from .mesh import Mesh, ScalarField

ROBIN = "robin"
DIRICHLET_LIMIT = "dirichlet_limit"
FAMILIES = (ROBIN, DIRICHLET_LIMIT)

DEFAULT_TOL = 1e-10
PSOR_MAX_ITER = 100_000
ACTIVE_SET_MAX_ITER = 100
PSOR_OMEGA = 1.5
ENUMERATE_MAX_FREE = 14
NESTED_MIN = 8
SMOOTH_SWEEPS = 20
JACOBI_OMEGA = 2.0 / 3.0
DUAL_TOL = 1e-12
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class VIProblem:
    """Obstacle problem data: matrix, load, lower bound, optional trace.

    Do not change the arrays in place; the free-node reduction is memoized.
    """

    A: sp.csr_matrix
    F: np.ndarray
    lower_bound: np.ndarray
    dirichlet_nodes: Optional[np.ndarray] = None
    dirichlet_values: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.F.shape != (n,) or self.lower_bound.shape != (n,):
            raise InvalidParameterError("VI problem dimensions disagree")
        if self.dirichlet_nodes is not None:
            if np.any(self.dirichlet_values < self.lower_bound[self.dirichlet_nodes]):
                raise InvalidParameterError("Dirichlet values violate the obstacle")

    @property
    def size(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _operator(self) -> _Operator:
        return _Operator(self)

    def with_load(self, F: np.ndarray) -> VIProblem:
        """This VI with load F, sharing its free-node reduction and LU factor.

        ``dataclasses.replace`` shares nothing, so a changed matrix, bound
        or trace is reduced afresh.
        """
        other = replace(self, F=F)
        other.__dict__["_operator"] = self._operator
        return other


@dataclass(frozen=True)
class VIReport:
    """Solution plus solver diagnostics.

    ``solution`` is a ScalarField when the solve was mesh-aware, otherwise a
    bare coefficient vector.  ``active_set`` lists the nodes where the
    obstacle binds.  ``iterations`` counts the solve on p only, not the
    coarse solves of a nested start.
    """

    solution: ScalarField | np.ndarray
    iterations: int
    residual: float
    active_set: np.ndarray

    def values(self) -> np.ndarray:
        if isinstance(self.solution, ScalarField):
            return self.solution.values
        return self.solution


class _Operator:
    """Free-node reduction of a VI, shared by all its loads.

    ``shift`` is the load of the eliminated trace, A[free][:, pinned] @
    dirichlet_values; ``template`` is a full vector holding the pinned
    values; ``lu`` is the LU factor of a_ff on the nodes outside the last
    active mask factored, whose bytes are ``key``.
    """

    def __init__(self, p: VIProblem):
        a = p.A.tocsr()
        self.free, self.a_ff, self.shift = np.arange(p.size), a, 0.0
        self.template = np.zeros(p.size)
        if p.dirichlet_nodes is not None and len(p.dirichlet_nodes):
            self.free = np.setdiff1d(self.free, p.dirichlet_nodes)
            a_free = a[self.free]
            self.a_ff = a_free[:, self.free].tocsr()
            self.shift = a_free[:, p.dirichlet_nodes] @ p.dirichlet_values
            self.template[p.dirichlet_nodes] = p.dirichlet_values
        self.lb_f = p.lower_bound[self.free]
        self.diag = self.a_ff.diagonal()
        self.bad_diagonal = bool(np.any(self.diag <= 0.0))
        self.key = self.lu = None

    @cached_property
    def colour_rows(self) -> list:
        """Each PSOR colour class of a_ff with its rows."""
        return [(c, self.a_ff[c]) for c in _colour_classes(self.a_ff)]

    def factor(self, active: np.ndarray):
        """LU of a_ff on the nodes outside ``active``; only the last is kept.

        The old factor is dropped before the next one is made, so one
        operator never holds two.
        """
        key = active.tobytes()
        if key != self.key:
            self.key = self.lu = None
            idx_i = np.flatnonzero(~active)
            self.lu = spla.splu(self.a_ff[idx_i][:, idx_i].tocsc())
            self.key = key
        return self.lu


def _free_split(p: VIProblem):
    """Free-node reduction with symmetric load correction for pinned rows."""
    op = p._operator
    return op.free, op.a_ff, p.F[op.free] - op.shift, op.lb_f, op.template


def _complementarity(u_f, lb_f, r) -> float:
    """Max-norm of min(u - l, r) over the free nodes, r = A u - F."""
    return float(np.max(np.abs(np.minimum(u_f - lb_f, r)))) if u_f.size else 0.0


def _report(p: VIProblem, mesh, free, full, u_f, iterations, residual):
    full = full.copy()
    full[free] = u_f
    active = free[u_f <= p.lower_bound[free]]  # solvers pin bound nodes exactly
    solution = full if mesh is None else ScalarField(mesh, full)
    return VIReport(
        solution=solution,
        iterations=iterations,
        residual=residual,
        active_set=np.sort(active),
    )


def _colour_classes(a: sp.csr_matrix) -> list[np.ndarray]:
    """Greedy colouring of the graph of a's nonzero off-diagonal entries.

    Rows are coloured in index order, each with the smallest colour none of
    its neighbours holds; the pattern is symmetrized first, so no two rows
    of one class couple in either direction.  Returns the row indices of
    each class, classes in colour order.
    """
    n = a.shape[0]
    graph = (abs(a) + abs(a.T)).tocsr()
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    colour = [-1] * n
    for i in range(n):
        taken = {colour[j] for j in indices[indptr[i]:indptr[i + 1]]}
        c = 0
        while c in taken:
            c += 1
        colour[i] = c
    colour = np.asarray(colour, dtype=np.int64)
    return [np.flatnonzero(colour == c) for c in range(int(colour.max(initial=-1)) + 1)]


def solve_psor(
    p: VIProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = PSOR_MAX_ITER,
    u0: np.ndarray | None = None,
    mesh: Mesh | None = None,
) -> VIReport:
    """Projected SOR.

    Sweeps the colour classes of the free-node matrix graph in order (see
    :func:`_colour_classes`); the rows of one class do not couple, so each
    class takes its Gauss-Seidel update at once.  The update is relaxed by
    PSOR_OMEGA and projected onto the obstacle, so iterates stay feasible.
    Terminates when the complementarity residual drops below tol.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    op = p._operator
    if op.bad_diagonal:
        raise MatrixError("matrix has a non-positive diagonal entry on a free node")
    free, a_ff, f_f, lb_f, full = _free_split(p)
    if u0 is None:
        u_f = np.maximum(lb_f, 0.0)
    else:
        u_f = np.maximum(np.asarray(u0, dtype=float)[free], lb_f)
    blocks = [(c, a_c, f_f[c], op.diag[c], lb_f[c]) for c, a_c in op.colour_rows]
    iters, res = 0, np.inf
    while iters < max_iter and res > tol:
        iters += 1
        for c, a_c, f_c, d_c, lb_c in blocks:
            u_f[c] = np.maximum(lb_c, u_f[c] + PSOR_OMEGA * ((f_c - a_c @ u_f) / d_c))
        res = _complementarity(u_f, lb_f, a_ff @ u_f - f_f)
    if res > tol:
        raise NonConvergenceError(
            f"projected SOR: residual {res:.3e} > tol {tol:.1e} after {iters} sweeps",
            residual=res,
        )
    return _report(p, mesh, free, full, u_f, iters, res)


def solve_active_set(
    p: VIProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = ACTIVE_SET_MAX_ITER,
    initial_active: np.ndarray | None = None,
    mesh: Mesh | None = None,
) -> VIReport:
    """Primal-dual active-set method.

    Guesses the contact set, solves the reduced linear system on the
    inactive nodes, and updates the set from the signs of the primal gap
    u - l and the dual variable A u - F.  Typically terminates finitely.
    The LU factor of the last contact set is kept on the problem's
    free-node reduction, so a solve of a problem made with
    :meth:`VIProblem.with_load` (e.g. during a line search) that starts
    from that set, and :func:`adjoint_lift` on it, reuse it.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    op = p._operator
    if op.bad_diagonal:
        raise MatrixError("matrix has a non-positive diagonal entry on a free node")
    free, a_ff, f_f, lb_f, full = _free_split(p)
    nf = free.size
    active = np.zeros(nf, dtype=bool)
    if initial_active is not None:
        lookup = np.zeros(p.size, dtype=bool)
        lookup[np.asarray(initial_active, dtype=np.int64)] = True
        active = lookup[free]
    seen = set()
    u_f = np.zeros(nf)
    res = np.inf
    for it in range(1, max_iter + 1):
        key = active.tobytes()
        if key in seen:
            raise NonConvergenceError(
                f"active-set method is cycling (residual {res:.3e})", residual=res
            )
        seen.add(key)
        idx_i = np.flatnonzero(~active)
        idx_a = np.flatnonzero(active)
        if idx_i.size:
            rhs = (f_f - a_ff @ np.where(active, lb_f, 0.0))[idx_i]
            u_f[idx_i] = op.factor(active).solve(rhs)
        u_f[idx_a] = lb_f[idx_a]
        lam = a_ff @ u_f - f_f
        res = _complementarity(u_f, lb_f, lam)
        feasible = not idx_i.size or np.min(u_f[idx_i] - lb_f[idx_i]) >= -FEASIBILITY_TOL
        dual_ok = not idx_a.size or np.min(lam[idx_a]) >= -DUAL_TOL
        nxt = lam - (u_f - lb_f) > 0.0
        if res <= tol and feasible:
            return _report(p, mesh, free, full, u_f, it, res)
        if np.array_equal(nxt, active) and feasible and dual_ok:
            # stable set: as converged as the linear algebra allows
            return _report(p, mesh, free, full, u_f, it, res)
        active = nxt
    raise NonConvergenceError(
        f"active-set method: residual {res:.3e} > tol {tol:.1e} after {max_iter} iterations",
        residual=res,
    )


def solve_enumerate(p: VIProblem, mesh: Mesh | None = None) -> VIReport:
    """Brute-force oracle: try every active set, keep the feasible one.

    Enumerates all 2^k candidate contact sets over the k free nodes, solves
    each reduced dense system, and returns the candidate with the best
    primal/dual feasibility margin (the unique VI solution up to rounding).
    Exponential; refuses more than ENUMERATE_MAX_FREE free nodes.
    """
    free, a_ff, f_f, lb_f, full = _free_split(p)
    k = free.size
    if k > ENUMERATE_MAX_FREE:
        raise InvalidParameterError(
            f"{k} free nodes exceeds enumeration limit {ENUMERATE_MAX_FREE}"
        )
    a = a_ff.toarray()
    best_margin = -np.inf
    best_u = None
    bits = np.arange(k)
    for mask in range(1 << k):
        act = ((mask >> bits) & 1).astype(bool)
        ina = ~act
        u = np.empty(k)
        u[act] = lb_f[act]
        if ina.any():
            rhs = f_f[ina] - a[np.ix_(ina, act)] @ lb_f[act]
            u[ina] = np.linalg.solve(a[np.ix_(ina, ina)], rhs)
        lam = a @ u - f_f
        margin = np.inf
        if ina.any():
            margin = min(margin, float(np.min(u[ina] - lb_f[ina])))
        if act.any():
            margin = min(margin, float(np.min(lam[act])))
        if margin > best_margin:
            best_margin = margin
            best_u = u.copy()
    res = _complementarity(best_u, lb_f, a_ff @ best_u - f_f)
    return _report(p, mesh, free, full, best_u, 1 << k, res)


def adjoint_lift(p: VIProblem, active_nodes: np.ndarray, rhs_full: np.ndarray) -> np.ndarray:
    """Solve the reduced adjoint system with the contact set frozen.

    Returns w with w = 0 on active and pinned nodes and A_II w = rhs on the
    remaining (inactive free) nodes.  A is symmetric, so the last
    factorization made by :func:`solve_active_set`, on p or on a problem
    sharing its reduction, is reused when it is of the same contact set.
    """
    op = p._operator
    mask = np.zeros(p.size, dtype=bool)
    mask[np.asarray(active_nodes, dtype=np.int64)] = True
    active = mask[op.free]
    inactive = op.free[~active]
    w = np.zeros(p.size)
    if inactive.size:
        w[inactive] = op.factor(active).solve(rhs_full[inactive])
    return w


def build_vi_problem(
    mesh: Mesh, sys: AssembledSystem, data: ProblemData, family: str
) -> VIProblem:
    """Construct the VI of the requested family on an assembled mesh."""
    if family == ROBIN:
        if data.alpha is None:
            raise InvalidParameterError("robin family requires alpha > 0")
        return VIProblem(
            A=robin_matrix(sys, data.alpha),
            F=load_vector(sys, data),
            lower_bound=np.zeros(mesh.node_count),
        )
    if family == DIRICHLET_LIMIT:
        g = as_control_field(mesh, data.g)
        f = sys.M_H @ g.values - _gamma2_flux_load(mesh, data.q)
        nodes = mesh.gamma1_nodes()
        return VIProblem(
            A=sys.K.tocsr(),
            F=f,
            lower_bound=np.zeros(mesh.node_count),
            dirichlet_nodes=nodes,
            dirichlet_values=np.full(nodes.size, data.b),
        )
    raise InvalidParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _prolongation(nc: int) -> sp.csr_matrix:
    """P1 prolongation from the nc to the 2 nc grid: each fine node is the mean of
    its lower-left coarse node and the other end of the coarse edge it halves."""
    nf, m = 2 * nc, nc + 1
    fy, fx = np.divmod(np.arange((nf + 1) ** 2), nf + 1)
    base = (fy // 2) * m + fx // 2
    cols = np.concatenate([base, base + fx % 2 + (fy % 2) * m])
    rows = np.tile(np.arange(fx.size), 2)
    return sp.csr_matrix((np.full(cols.size, 0.5), (rows, cols)), shape=(fx.size, m * m))


def _coarse_contact(p: VIProblem, n: int | None, tol: float) -> np.ndarray | None:
    """Contact set of p from its Galerkin VI on the n/2 grid, itself seeded
    so: the coarse solution is prolonged, smoothed by SMOOTH_SWEEPS damped
    projected-Jacobi sweeps, and the active-set update rule is read off it.
    None (cold start) if n is None, odd or < 2 NESTED_MIN, if p has a
    non-positive free diagonal entry, or on a coarse NonConvergenceError."""
    if n is None or n % 2 or n // 2 < NESTED_MIN or p._operator.bad_diagonal:
        return None
    nc = n // 2
    P = _prolongation(nc)
    keep = (2 * (n + 1) * np.arange(nc + 1)[:, None] + 2 * np.arange(nc + 1)).ravel()
    nodes = values = None
    if p.dirichlet_nodes is not None:
        on_grid = np.isin(p.dirichlet_nodes, keep)
        nodes = np.searchsorted(keep, p.dirichlet_nodes[on_grid])
        values = p.dirichlet_values[on_grid]
    pc = VIProblem(A=(P.T @ p.A @ P).tocsr(), F=P.T @ p.F, lower_bound=p.lower_bound[keep],
                   dirichlet_nodes=nodes, dirichlet_values=values)
    try:
        u_c = solve_active_set(pc, tol=tol, initial_active=_coarse_contact(pc, nc, tol))
    except NonConvergenceError:
        return None
    free, a_ff, f_f, lb_f, _ = _free_split(p)
    diag = p._operator.diag
    u_f = np.maximum(lb_f, (P @ u_c.values())[free])
    for _ in range(SMOOTH_SWEEPS):
        u_f = np.maximum(lb_f, u_f + JACOBI_OMEGA * (f_f - a_ff @ u_f) / diag)
    return free[a_ff @ u_f - f_f > u_f - lb_f]


def _solve(p, solver, tol, max_iter=None, mesh=None, initial_active=None) -> VIReport:
    """Solve p with the named algorithm; max_iter None takes its default.  An
    active-set solve on a mesh, given no initial_active, starts nested."""
    if solver == "psor":
        return solve_psor(p, tol=tol, max_iter=max_iter or PSOR_MAX_ITER, mesh=mesh)
    if solver == "active_set":
        if initial_active is None and mesh is not None:
            initial_active = _coarse_contact(p, mesh.division_count, tol)
        return solve_active_set(p, tol=tol, max_iter=max_iter or ACTIVE_SET_MAX_ITER,
                                initial_active=initial_active, mesh=mesh)
    raise InvalidParameterError(f"unknown solver {solver!r}")


def solve_state(
    mesh: Mesh,
    sys: AssembledSystem,
    data: ProblemData,
    family: str = ROBIN,
    solver: str = "active_set",
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    cross_check: bool = False,
) -> VIReport:
    """Solve the state system of the requested family.

    With ``cross_check=True`` both algorithms run and must agree to
    10 * tol in the max-norm.  Active-set solves on an even-n structured
    mesh start from the contact set of the smoothed, prolonged coarse
    solution (see :func:`_coarse_contact`).
    """
    p = build_vi_problem(mesh, sys, data, family)
    rep = _solve(p, solver, tol, max_iter, mesh)
    if cross_check:
        # the independent solver serves as a reference, so it runs tighter:
        # a residual at tol does not pin the solution to tol on fine meshes
        other = "active_set" if solver == "psor" else "psor"
        rep2 = _solve(p, other, max(tol * 1e-2, 5e-15), mesh=mesh)
        gap = float(np.max(np.abs(rep.values() - rep2.values())))
        if gap > 10.0 * tol:
            raise CrossCheckError(
                f"solvers disagree: max difference {gap:.3e} > {10.0 * tol:.1e}"
            )
    return rep
