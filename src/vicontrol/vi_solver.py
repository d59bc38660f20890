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
"""

from __future__ import annotations

from dataclasses import dataclass
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
DUAL_TOL = 1e-12
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class VIProblem:
    """Obstacle problem data: matrix, load, lower bound, optional trace."""

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


@dataclass(frozen=True)
class VIReport:
    """Solution plus solver diagnostics.

    ``solution`` is a ScalarField when the solve was mesh-aware, otherwise a
    bare coefficient vector.  ``active_set`` lists the nodes where the
    obstacle binds.
    """

    solution: ScalarField | np.ndarray
    iterations: int
    residual: float
    active_set: np.ndarray

    def values(self) -> np.ndarray:
        if isinstance(self.solution, ScalarField):
            return self.solution.values
        return self.solution


def _free_split(p: VIProblem):
    """Free-node reduction with symmetric load correction for pinned rows."""
    n = p.size
    if p.dirichlet_nodes is None or len(p.dirichlet_nodes) == 0:
        return np.arange(n), p.A.tocsr(), p.F.copy(), p.lower_bound.copy(), np.zeros(n)
    pinned = np.zeros(n, dtype=bool)
    pinned[p.dirichlet_nodes] = True
    free = np.flatnonzero(~pinned)
    full = np.zeros(n)
    full[p.dirichlet_nodes] = p.dirichlet_values
    a_csr = p.A.tocsr()
    a_ff = a_csr[free][:, free]
    f_f = p.F[free] - a_csr[free][:, p.dirichlet_nodes] @ p.dirichlet_values
    return free, a_ff.tocsr(), f_f, p.lower_bound[free].copy(), full


def _complementarity(a_ff, f_f, lb_f, u_f) -> float:
    r = a_ff @ u_f - f_f
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
    omega: float = PSOR_OMEGA,
    u0: np.ndarray | None = None,
    mesh: Mesh | None = None,
) -> VIReport:
    """Projected SOR.

    Sweeps the colour classes of the free-node matrix graph in order (see
    :func:`_colour_classes`); the rows of one class do not couple, so each
    class takes its Gauss-Seidel update at once.  The update is relaxed by
    omega and projected onto the obstacle, so iterates stay feasible.
    Terminates when the complementarity residual drops below tol.
    """
    if not (0.0 < omega < 2.0):
        raise InvalidParameterError(f"omega must be in (0, 2), got {omega}")
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    free, a_ff, f_f, lb_f, full = _free_split(p)
    diag = a_ff.diagonal()
    if np.any(diag <= 0.0):
        raise MatrixError("matrix has a non-positive diagonal entry on a free node")
    if u0 is None:
        u_f = np.maximum(lb_f, 0.0)
    else:
        u_f = np.maximum(np.asarray(u0, dtype=float)[free], lb_f)
    blocks = [(c, a_ff[c], f_f[c], diag[c], lb_f[c]) for c in _colour_classes(a_ff)]
    iters, res = 0, np.inf
    while iters < max_iter and res > tol:
        iters += 1
        for c, a_c, f_c, d_c, lb_c in blocks:
            u_f[c] = np.maximum(lb_c, u_f[c] + omega * ((f_c - a_c @ u_f) / d_c))
        res = _complementarity(a_ff, f_f, lb_f, u_f)
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
    factor_cache: dict | None = None,
    mesh: Mesh | None = None,
) -> VIReport:
    """Primal-dual active-set method.

    Guesses the contact set, solves the reduced linear system on the
    inactive nodes, and updates the set from the signs of the primal gap
    u - l and the dual variable A u - F.  Typically terminates finitely.
    ``factor_cache`` maps active-set masks to LU factors so repeated solves
    with the same matrix (e.g. during line searches) reuse factorizations.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    free, a_ff, f_f, lb_f, full = _free_split(p)
    if np.any(a_ff.diagonal() <= 0.0):
        raise MatrixError("matrix has a non-positive diagonal entry on a free node")
    nf = free.size
    active = np.zeros(nf, dtype=bool)
    if initial_active is not None:
        lookup = np.zeros(p.size, dtype=bool)
        lookup[np.asarray(initial_active, dtype=np.int64)] = True
        active = lookup[free]
    cache = factor_cache if factor_cache is not None else {}
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
            lu = cache.get(key)
            if lu is None:
                lu = spla.splu(a_ff[idx_i][:, idx_i].tocsc())
                cache[key] = lu
            rhs = f_f[idx_i]
            if idx_a.size:
                rhs = rhs - a_ff[idx_i][:, idx_a] @ lb_f[idx_a]
            u_f[idx_i] = lu.solve(rhs)
        u_f[idx_a] = lb_f[idx_a]
        lam = a_ff @ u_f - f_f
        res = _complementarity(a_ff, f_f, lb_f, u_f)
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


def solve_enumerate(
    p: VIProblem,
    mesh: Mesh | None = None,
    max_free: int = 14,
) -> VIReport:
    """Brute-force oracle: try every active set, keep the feasible one.

    Enumerates all 2^k candidate contact sets over the k free nodes, solves
    each reduced dense system, and returns the candidate with the best
    primal/dual feasibility margin (the unique VI solution up to rounding).
    Exponential; refuses more than ``max_free`` free nodes.
    """
    free, a_ff, f_f, lb_f, full = _free_split(p)
    k = free.size
    if k > max_free:
        raise InvalidParameterError(f"{k} free nodes exceeds enumeration limit {max_free}")
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
    res = _complementarity(a_ff, f_f, lb_f, best_u)
    return _report(p, mesh, free, full, best_u, 1 << k, res)


def adjoint_lift(
    p: VIProblem,
    active_nodes: np.ndarray,
    rhs_full: np.ndarray,
    factor_cache: dict | None = None,
) -> np.ndarray:
    """Solve the reduced adjoint system with the contact set frozen.

    Returns w with w = 0 on active and pinned nodes and A_II w = rhs on the
    remaining (inactive free) nodes.  A is symmetric, so the factorization
    cached by :func:`solve_active_set` for the same contact set is reused.
    """
    free, a_ff, _, _, _ = _free_split(p)
    mask = np.zeros(p.size, dtype=bool)
    mask[np.asarray(active_nodes, dtype=np.int64)] = True
    active = mask[free]
    key = active.tobytes()
    idx_i = np.flatnonzero(~active)
    w = np.zeros(p.size)
    if idx_i.size:
        cache = factor_cache if factor_cache is not None else {}
        lu = cache.get(key)
        if lu is None:
            lu = spla.splu(a_ff[idx_i][:, idx_i].tocsc())
            cache[key] = lu
        w[free[idx_i]] = lu.solve(rhs_full[free[idx_i]])
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


def solve_state(
    mesh: Mesh,
    sys: AssembledSystem,
    data: ProblemData,
    family: str = ROBIN,
    solver: str = "active_set",
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    cross_check: bool = False,
    factor_cache: dict | None = None,
    initial_active: np.ndarray | None = None,
) -> VIReport:
    """Solve the state system of the requested family.

    With ``cross_check=True`` both algorithms run and must agree to
    10 * tol in the max-norm.
    """
    p = build_vi_problem(mesh, sys, data, family)
    if solver == "psor":
        rep = solve_psor(p, tol=tol, max_iter=max_iter or PSOR_MAX_ITER, mesh=mesh)
        other = "active_set"
    elif solver == "active_set":
        rep = solve_active_set(
            p,
            tol=tol,
            max_iter=max_iter or ACTIVE_SET_MAX_ITER,
            factor_cache=factor_cache,
            initial_active=initial_active,
            mesh=mesh,
        )
        other = "psor"
    else:
        raise InvalidParameterError(f"unknown solver {solver!r}")
    if cross_check:
        # the independent solver serves as a reference, so it runs tighter:
        # a residual at tol does not pin the solution to tol on fine meshes
        check_tol = max(tol * 1e-2, 5e-15)
        if other == "psor":
            rep2 = solve_psor(p, tol=check_tol, mesh=mesh)
        else:
            rep2 = solve_active_set(p, tol=check_tol, mesh=mesh)
        gap = float(np.max(np.abs(rep.values() - rep2.values())))
        if gap > 10.0 * tol:
            raise CrossCheckError(
                f"solvers disagree: max difference {gap:.3e} > {10.0 * tol:.1e}"
            )
    return rep
