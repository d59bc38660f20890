"""Solvers for the discrete obstacle-constrained state systems.

Two systems are covered, selected by ``family``:

* ``"robin"``: find u >= 0 with (K + alpha M_R) u = F complementarily,
  F = (g, .)_H - (q, .)_Q + alpha (b, .)_R;
* ``"dirichlet_limit"``: find u >= 0 with K u = (g, .)_H - (q, .)_Q
  complementarily and the trace u = b pinned on gamma1.

Complementarity is measured nodewise as min(u_i - l_i, (A u - F)_i); its
max-norm is zero exactly at the solution.  Two independent algorithms are
provided, projected SOR (relaxed by Young's optimal factor for the grid, else
by PSOR_OMEGA) and a primal-dual active-set method, plus a brute-force
enumeration oracle for small problems.  Dirichlet rows and columns are
eliminated with symmetric load correction, keeping A symmetric.  A problem
built on a structured mesh carries its division count, the one grid fact the
solvers read, and every report holds the full nodal vector.

Each problem reduces itself to its free nodes once, on first use, and
:meth:`VIProblem.with_load` shares the reduction with the same VI under
another load.  The reduction keeps only the last factor made by the
active-set and adjoint solves: the solves that share a reduction (line
searches, adjoint lifts) start from the contact set where the previous
one ended, so that is the factor they reuse.  A block of at most DENSE_MAX
unknowns is factored dense by LAPACK's getrf, below SuperLU's fixed cost.
SuperLU orders a larger block by symmetric minimum degree on A + A^T in its
symmetric mode (an SPD block keeps its diagonal pivots, a non-symmetric one
is still pivoted) and factors it in panels of one column.  The last SuperLU
factor stays as a base: a block whose contact set is at most BORDER_MAX
nodes away from the base's is solved by bordering the base factor with
those nodes, exact up to rounding, instead of factoring afresh.

Active-set solves of a problem with an even division count n start from
the Galerkin coarse VI (P^T A P, P^T F) on the n/2 grid: its solution is
prolonged, smoothed by a few damped projected-Jacobi sweeps, and the contact
set is read off with the active-set update rule.  The fine solve then
usually makes one fresh LU and one bordered step, and its answer agrees
with the cold start's to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from .assembly import (
    AssembledSystem,
    ProblemData,
    _gamma2_flux_load,
    _matvec,
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
from .mesh import Mesh, _prolongation, _same_mesh

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
FEASIBILITY_TOL = 1e-12
DENSE_MAX = 128
BORDER_MAX = 16


@dataclass(frozen=True)
class VIProblem:
    """Obstacle problem data: matrix, load, lower bound, optional trace and
    the division count n of its structured grid, if any ((n+1)^2 nodes).

    A lower bound of -inf leaves its node unconstrained.  Do not change
    the arrays in place; the free-node reduction is memoized.
    """

    A: sp.csr_matrix
    F: np.ndarray
    lower_bound: np.ndarray
    dirichlet_nodes: Optional[np.ndarray] = None
    dirichlet_values: Optional[np.ndarray] = None
    division_count: Optional[int] = None

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.F.shape != (n,) or self.lower_bound.shape != (n,):
            raise InvalidParameterError("VI problem dimensions disagree")
        if self.division_count is not None and n != (self.division_count + 1) ** 2:
            raise InvalidParameterError(f"{n} nodes do not match {self.division_count} divisions")
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

    ``solution`` is the full nodal vector, pinned trace included; ``values()``
    returns it.  ``active_set`` lists the nodes where the obstacle binds.
    ``iterations`` counts the solve on p only, not the coarse solves of a
    nested start.  Starts ending on one contact set agree to rounding.
    """

    solution: np.ndarray
    iterations: int
    residual: float
    active_set: np.ndarray

    def values(self) -> np.ndarray:
        return self.solution


class _Operator:
    """Free-node reduction of a VI, shared by all its loads.

    ``shift`` is the load of the eliminated trace, A[free][:, pinned] @
    dirichlet_values; ``template`` is a full vector holding the pinned
    values; ``lu`` is the LU factor of a_ff on the nodes outside the last
    active mask factored, whose bytes are ``key``; ``zero_bound``, that the
    obstacle is 0 on every free node.  Blocks are cut from ``csc``
    or gathered dense from ``ell``, copies of a_ff made on first use, and
    PSOR sweeps ``psor_layout``, a_ff with each colour class contiguous
    (red-black by grid parity when p carries its division count).
    """

    def __init__(self, p: VIProblem):
        a = p.A.tocsr()
        self.free, self.a_ff, self.shift = np.arange(p.size), a, 0.0
        self.template = np.zeros(p.size)
        if p.dirichlet_nodes is not None and len(p.dirichlet_nodes):
            keep = np.ones(p.size, dtype=bool)
            keep[p.dirichlet_nodes] = False
            self.free, self.a_ff = keep.nonzero()[0], _cut(a, keep)
            self.template[p.dirichlet_nodes] = p.dirichlet_values
            self.shift = (a @ self.template)[self.free]
        self.lb_f, self.division_count = p.lower_bound[self.free], p.division_count
        self.zero_bound = not self.lb_f.any()
        self.diag = self.a_ff.diagonal()
        self.bad_diagonal = bool(np.any(self.diag <= 0.0))
        data = (self.a_ff.data, self.template, self.shift)
        self.finite = all(np.isfinite(x).all() for x in data) and (self.lb_f < np.inf).all()
        self.key = self.lu = self.base = self.base_active = None

    @cached_property
    def psor_layout(self) -> tuple:
        """(classes, perm, rows): PSOR's colour classes of a_ff (see
        :func:`solve_psor`); perm, the classes concatenated, so each is a
        contiguous run; and each class's rows of a_ff with column j relabelled
        to j's place in perm, not re-sorted, so rows sum in a_ff's order."""
        n = self.division_count
        classes = None if n is None else _grid_classes(self.a_ff, self.free, n)
        if classes is None:
            classes = _colour_classes(self.a_ff)
        perm = np.concatenate([np.arange(0), *classes])
        place, rows = perm.argsort(), [self.a_ff[c] for c in classes]
        for a_c in rows:
            a_c.indices[:] = place.take(a_c.indices)
        return classes, perm, rows

    @cached_property
    def csc(self) -> sp.csc_matrix:
        """a_ff in CSC form, row indices sorted within each column."""
        return self.a_ff.tocsc()

    def free_mask(self, nodes) -> np.ndarray:
        """Which free nodes lie in the node set ``nodes`` (full indices)."""
        mask = np.zeros(self.template.size, dtype=bool)
        mask[np.asarray(nodes, dtype=np.int64)] = True
        return mask[self.free]

    def block(self, active: np.ndarray) -> sp.csc_matrix:
        """a_ff on the nodes outside ``active``, cut from ``csc``."""
        return _cut(self.csc, ~active)

    @cached_property
    def ell(self) -> tuple:
        """a_ff, duplicates summed, in padded rows: N x w column indices and
        values, w its longest row, padded by zeros at the dummy column N."""
        a = self.a_ff.tocoo().tocsr()
        real = np.arange(np.diff(a.indptr).max(initial=0)) < np.diff(a.indptr)[:, None]
        cols, vals = np.full(real.shape, a.shape[0]), np.zeros(real.shape)
        cols[real], vals[real] = a.indices, a.data
        return cols, vals

    def dense_block(self, active: np.ndarray) -> np.ndarray:
        """:meth:`block` of ``active`` as a Fortran-ordered array, from ``ell``."""
        idx, (cols, vals) = np.flatnonzero(~active), self.ell
        pos = np.full(active.size + 1, idx.size)  # place in the block, else the dummy m
        pos[idx] = np.arange(idx.size)
        out = np.zeros((idx.size + 1, idx.size))  # row j holds column j; row m the dummy
        out[pos.take(cols[idx]), np.arange(idx.size)[:, None]] = vals[idx]
        return out[:-1].T

    def factor(self, active: np.ndarray):
        """LU of the block of ``active``: a :class:`_DenseLU` of :meth:`dense_block`
        up to DENSE_MAX unknowns, a :class:`_Bordered` one on the base (the
        last SuperLU factor) within BORDER_MAX nodes of its mask, else a new
        base, SuperLU's of :meth:`block` ordered by minimum degree on A + A^T
        in panels of one column (the pivots and fill of the default panel of
        10 in about 30 % less time: 2-D P1 blocks have small supernodes).  Old
        factors go first, so an operator never holds two SuperLU factors."""
        key = active.tobytes()
        if key != self.key:
            self.key = self.lu = None
            flips = None if self.base is None else np.count_nonzero(active != self.base_active)
            if active.size - np.count_nonzero(active) <= DENSE_MAX:
                self.base = None
                self.lu = _DenseLU(self.dense_block(active))
            elif flips is not None and flips <= BORDER_MAX:
                self.lu = _Bordered(self, active) if flips else self.base
            else:
                self.base = None
                self.lu = self.base = spla.splu(
                    self.block(active), permc_spec="MMD_AT_PLUS_A", panel_size=1,
                    options=dict(SymmetricMode=True))
                self.base_active = active.copy()
            self.key = key
        return self.lu


class _DenseLU:
    """LAPACK's LU with partial pivoting (getrf) of a square array, which it
    overwrites, solved by getrs; an exactly singular one raises as splu does."""

    def __init__(self, a: np.ndarray):
        self.lu, self.piv, info = dgetrf(a, overwrite_a=True)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return dgetrs(self.lu, self.piv, rhs)[0]


class _Bordered:
    """Solves on the block of ``active`` with op's base factor B, bordered
    (Hager, SIAM Rev. 31, 1989): nodes S that left the base contact set join
    as columns a_ff[I0, S] and rows a_ff[S, I0], I0 the base's inactive
    nodes, and nodes that joined it are pinned by unit columns and rows.
    A solve is one with B plus W z, W = B^-1 C for the k border columns C,
    z from the getrf LU of the k x k Schur complement E - D W."""

    def __init__(self, op: _Operator, active: np.ndarray):
        self.base, inactive0 = op.base, ~op.base_active
        freed, pinned = np.flatnonzero(~active & ~inactive0), np.flatnonzero(active & inactive0)
        idx0 = np.flatnonzero(inactive0)
        m, s, k = idx0.size, freed.size, freed.size + pinned.size
        pos = np.where(inactive0, inactive0.cumsum() - 1, -1)
        pos[freed] = m + np.arange(s)  # place in the bordered system, else -1
        self.src, self.pin = pos[~active], pos[pinned]
        C = np.zeros((m + k, k), order="F")  # [a_ff[I0, S], e_R] over E = [a_ff[S, S], 0]
        C[:m + s, :s] = op.csc[:, freed][np.append(idx0, freed)].toarray()
        C[self.pin, np.arange(s, k)] = 1.0
        self.D, self.W = op.a_ff[freed][:, idx0], self.base.solve(C[:m])
        self.schur = _DenseLU(C[m:] - self._border(self.W))

    def _border(self, y):
        """D y: the border rows a_ff[S, I0], then the pinned entries."""
        return np.concatenate([self.D @ y, y[self.pin]])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        m = self.W.shape[0]
        b = np.zeros(m + self.W.shape[1])
        b[self.src] = rhs
        y = self.base.solve(b[:m])
        z = self.schur.solve(b[m:] - self._border(y))
        return np.concatenate([y - self.W @ z, z])[self.src]


def _cut(a, keep: np.ndarray):
    """The square CSR or CSC matrix a on the rows and columns where ``keep``
    holds, in a's format, with the arrays of ``a[idx][:, idx]``, idx =
    flatnonzero(keep): the kept entries in storage order, renumbered."""
    pos = (keep.take(a.indices) & keep.repeat(np.diff(a.indptr))).nonzero()[0]
    starts = a.indptr[np.append(keep, True)]  # of the kept major lines, then nnz
    indptr = pos.searchsorted(starts).astype(a.indices.dtype)
    new = keep.cumsum(dtype=a.indices.dtype) - 1  # cut index of each node
    m = indptr.size - 1
    return type(a)((a.data.take(pos), new.take(a.indices.take(pos)), indptr), shape=(m, m))


def _checked_operator(p: VIProblem, tol: float) -> _Operator:
    """p's free-node reduction, once tol, the data and the free diagonal pass
    the checks every iterative solve makes."""
    if not 0.0 < tol < np.inf:
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    if p._operator.bad_diagonal:
        raise MatrixError("matrix has a non-positive diagonal entry on a free node")
    if not (p._operator.finite and np.isfinite(p.F[p._operator.free]).all()):
        raise InvalidParameterError("matrix, load, Dirichlet trace and its eliminated load "
                                    "must be finite, and the lower bound below +inf")
    return p._operator


def _free_split(p: VIProblem):
    """Free-node reduction with symmetric load correction for pinned rows."""
    op = p._operator
    return op.free, op.a_ff, p.F[op.free] - op.shift, op.lb_f


def _complementarity(gap, r) -> float:
    """Max-norm of min(u - l, r) over the free nodes, gap = u - l, r = A u - F.
    It is inf or NaN only when the iterate overflows float64 (data too large,
    or a matrix that is not positive definite): that raises."""
    res = float(np.abs(np.minimum(gap, r)).max(initial=0.0))
    if not res < np.inf:
        raise InvalidParameterError(f"residual {res}: the iterate overflows float64")
    return res


def _report(p: VIProblem, u_f, iterations, residual):
    op = p._operator
    full = op.template.copy()
    full[op.free] = u_f
    active = op.free[u_f <= op.lb_f]  # solvers pin bound nodes exactly; free is sorted
    return VIReport(full, iterations, residual, active)


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


def _grid_classes(a: sp.csr_matrix, free: np.ndarray, n: int) -> list[np.ndarray] | None:
    """Red-black classes of the free nodes ``free`` of an n-division grid
    with free-node matrix a, by the parity of i + j at node j (n + 1) + i,
    the first free node red; None if a stores a nonzero coupling two nodes
    of one colour.  On the grids built here :func:`_colour_classes` agrees."""
    j, i = np.divmod(free, n + 1)
    colour = (i + j) % 2
    colour ^= colour[:1]
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    if np.any((colour.take(rows) == colour.take(a.indices)) & (rows != a.indices) & (a.data != 0)):
        return None
    return [c for c in (np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)) if c.size]


def solve_psor(
    p: VIProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = PSOR_MAX_ITER,
    u0: np.ndarray | None = None,
) -> VIReport:
    """Projected SOR.

    Sweeps the colour classes of the free-node matrix graph in order: red
    and black by the parity of i + j when p carries its division count and
    its matrix couples no two nodes of one parity (:func:`_grid_classes`),
    else greedy classes (:func:`_colour_classes`).  The rows of one class do
    not couple, so each class takes its Gauss-Seidel update at once, in
    place on its contiguous run of the permuted iterate (see
    ``_Operator.psor_layout``).  The update is relaxed by
    Young's 2 / (1 + sin(pi / max(n, 2))) when p carries its division count n,
    else by PSOR_OMEGA, and projected onto the obstacle, so iterates stay
    feasible.  Terminates when the complementarity residual and the error
    estimate est = ||du_k|| rho_k / (1 - rho_k), rho_k = ||du_k|| /
    ||du_{k-1}||, both drop to tol (du_k the change sweep k makes, max-norms;
    est is 0 once a sweep leaves u unchanged, else inf before the second
    sweep and while rho_k >= 1): the residual alone lets the error grow like
    1/h.  After max_iter sweeps a residual at tol still returns.
    """
    op = _checked_operator(p, tol)
    n = p.division_count
    omega = PSOR_OMEGA if n is None else 2.0 / (1.0 + np.sin(np.pi / max(n, 2)))
    free, a_ff, f_f, lb_f = _free_split(p)
    classes, perm, rows = op.psor_layout
    u_f = np.maximum(lb_f, 0.0 if u0 is None else np.asarray(u0, dtype=float)[free])
    u_p = u_f[perm]
    runs = np.cumsum([0, *(c.size for c in classes)])
    blocks = [(u_p[s:e], a_c, f_f[c], op.diag[c], lb_f[c])  # u_p[s:e] is a view
              for s, e, c, a_c in zip(runs, runs[1:], classes, rows)]
    iters, res, est, step = 0, np.inf, np.inf, np.nan
    while iters < max_iter and not (res <= tol and est <= tol):
        iters += 1
        u_old = u_p.copy()
        for u_c, a_c, f_c, d_c, lb_c in blocks:  # max(l, u + omega ((f - A u) / d)), in place
            t = _matvec(a_c, u_p)
            np.subtract(f_c, t, out=t)
            t /= d_c
            t *= omega
            t += u_c
            np.maximum(lb_c, t, out=u_c)
        prev, step = step, float(np.abs(u_p - u_old).max(initial=0.0))
        rho = step / prev if step else 0.0
        est = step * rho / (1.0 - rho) if rho < 1.0 else np.inf
        if est <= tol or not step < np.inf or iters == max_iter:  # else res cannot stop it
            u_f[perm] = u_p  # so u_f is current after the last sweep
            res = _complementarity(u_f - lb_f, _matvec(a_ff, u_f) - f_f)
    if not res <= tol:
        raise NonConvergenceError(f"projected SOR: residual {res:.3e} > tol {tol:.1e} after "
                                  f"{iters} sweeps", residual=res)
    return _report(p, u_f, iters, res)


def solve_active_set(
    p: VIProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = ACTIVE_SET_MAX_ITER,
    initial_active: np.ndarray | None = None,
) -> VIReport:
    """Primal-dual active-set method.

    Guesses the contact set, solves the reduced linear system on the
    inactive nodes, and updates the set from the signs of the primal gap
    u - l and the dual variable A u - F.  Typically terminates finitely.
    The LU factor of the last contact set is kept on the problem's
    free-node reduction, so a solve of a problem made with
    :meth:`VIProblem.with_load` (e.g. during a line search) that starts
    from that set, and :func:`adjoint_lift` on it, reuse it.  On a zero
    obstacle a step makes one product with the free-node matrix, not two:
    the bound of the active nodes adds no load A_IA l_A.
    """
    op = _checked_operator(p, tol)
    _, a_ff, f_f, lb_f = _free_split(p)
    active = op.free_mask([] if initial_active is None else initial_active)
    seen, res = set(), np.inf
    for it in range(1, max_iter + 1):
        key = active.tobytes()
        if key in seen:
            raise NonConvergenceError(f"active-set method is cycling (residual {res:.3e})",
                                      residual=res)
        seen.add(key)
        inactive = ~active
        u_f = lb_f.copy()
        if inactive.any():
            # a_ff @ 0 is +0.0 in every row, and f - (+0.0) is f, -0.0 included
            rhs = f_f[inactive] if op.zero_bound else (
                f_f - _matvec(a_ff, np.where(active, lb_f, 0.0)))[inactive]
            u_f[inactive] = op.factor(active).solve(rhs)
        gap = u_f - lb_f  # 0 on active nodes
        lam = _matvec(a_ff, u_f) - f_f
        res = _complementarity(gap, lam)
        feasible = gap.min(initial=0.0) >= -FEASIBILITY_TOL
        if res <= tol and feasible:
            return _report(p, u_f, it, res)
        nxt = lam - gap > 0.0
        if nxt.tobytes() == key and feasible:
            # stable set: as converged as the linear algebra allows
            return _report(p, u_f, it, res)
        active = nxt
    raise NonConvergenceError(f"active-set method: residual {res:.3e} > tol {tol:.1e} after "
                              f"{max_iter} iterations", residual=res)


def solve_enumerate(p: VIProblem) -> VIReport:
    """Brute-force oracle: try every active set, keep the feasible one.

    Enumerates all 2^k candidate contact sets over the k free nodes, solves
    each reduced dense system, and returns the candidate with the best
    primal/dual feasibility margin (the unique VI solution up to rounding).
    Exponential; refuses more than ENUMERATE_MAX_FREE free nodes.
    """
    free, a_ff, f_f, lb_f = _free_split(p)
    k = free.size
    if k > ENUMERATE_MAX_FREE:
        raise InvalidParameterError(f"{k} free nodes exceeds enumeration limit "
                                    f"{ENUMERATE_MAX_FREE}")
    a = a_ff.toarray()
    best_margin, best_u = -np.inf, None
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
            best_margin, best_u = margin, u.copy()
    res = _complementarity(best_u - lb_f, a_ff @ best_u - f_f)
    return _report(p, best_u, 1 << k, res)


def adjoint_lift(p: VIProblem, active_nodes: np.ndarray, rhs_full: np.ndarray) -> np.ndarray:
    """Solve the reduced adjoint system with the contact set frozen.

    Returns w with w = 0 on active and pinned nodes and A_II w = rhs on the
    remaining (inactive free) nodes.  A is symmetric, so the last
    factorization made by :func:`solve_active_set`, on p or on a problem
    sharing its reduction, is reused when it is of the same contact set.
    """
    op = p._operator
    active = op.free_mask(active_nodes)
    inactive = op.free[~active]
    w = np.zeros(p.size)
    if inactive.size:
        w[inactive] = op.factor(active).solve(rhs_full[inactive])
    return w


def build_vi_problem(
    mesh: Mesh, sys: AssembledSystem, data: ProblemData, family: str
) -> VIProblem:
    """Construct the VI of the requested family on an assembled mesh; it
    carries the mesh's division count."""
    if not _same_mesh(sys.mesh, mesh):
        raise InvalidParameterError("the assembled system belongs to a different mesh")
    nodes = values = None
    if family == ROBIN:
        if data.alpha is None:
            raise InvalidParameterError("robin family requires alpha > 0")
        A, F = robin_matrix(sys, data.alpha), load_vector(sys, data)
    elif family == DIRICHLET_LIMIT:
        g = as_control_field(mesh, data.g)
        A, F = sys.K.tocsr(), sys.M_H @ g.values - _gamma2_flux_load(mesh, data.q)
        nodes = mesh.gamma1_nodes()
        values = np.full(nodes.size, data.b)
    else:
        raise InvalidParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return VIProblem(A=A, F=F, lower_bound=np.zeros(mesh.node_count), dirichlet_nodes=nodes,
                     dirichlet_values=values, division_count=mesh.division_count)


def _coarse_contact(p: VIProblem, tol: float) -> np.ndarray | None:
    """Contact set of p, on its grid of n = p.division_count divisions, from
    its Galerkin VI on the n/2 grid, itself seeded so: the coarse solution is
    prolonged, smoothed by SMOOTH_SWEEPS damped projected-Jacobi sweeps, and
    the active-set update rule is read off it.  None (cold start) if n is None,
    odd or < 2 NESTED_MIN, if p has a non-positive free diagonal entry, or
    when the coarse solve raises NonConvergenceError or InvalidParameterError
    (its Galerkin load sums several fine entries, so it can overflow where
    p's does not)."""
    n = p.division_count
    if n is None or n % 2 or n // 2 < NESTED_MIN or p._operator.bad_diagonal:
        return None
    nc = n // 2
    P = _prolongation(nc, 2)
    keep = (2 * (n + 1) * np.arange(nc + 1)[:, None] + 2 * np.arange(nc + 1)).ravel()
    nodes = values = None
    if p.dirichlet_nodes is not None:
        on_grid = np.isin(p.dirichlet_nodes, keep)
        nodes = np.searchsorted(keep, p.dirichlet_nodes[on_grid])
        values = p.dirichlet_values[on_grid]
    pc = VIProblem(A=(P.T @ p.A @ P).tocsr(), F=P.T @ p.F, lower_bound=p.lower_bound[keep],
                   dirichlet_nodes=nodes, dirichlet_values=values, division_count=nc)
    try:
        u_c = _solve(pc, "active_set", tol)
    except (NonConvergenceError, InvalidParameterError):
        return None
    free, a_ff, f_f, lb_f = _free_split(p)
    u_f = np.maximum(lb_f, (P @ u_c.values())[free])
    for _ in range(SMOOTH_SWEEPS):
        u_f = np.maximum(lb_f, u_f + JACOBI_OMEGA * (f_f - _matvec(a_ff, u_f)) / p._operator.diag)
    return free[_matvec(a_ff, u_f) - f_f > u_f - lb_f]


SOLVERS = ("active_set", "psor")


def _solve(p, solver, tol, max_iter=None, initial_active=None) -> VIReport:
    """Solve p with the named algorithm; max_iter None takes its default.  PSOR
    ignores initial_active; an active-set solve without one starts nested."""
    if solver == "psor":
        return solve_psor(p, tol=tol, max_iter=max_iter or PSOR_MAX_ITER)
    if solver == "active_set":
        if initial_active is None:
            initial_active = _coarse_contact(p, tol)
        return solve_active_set(p, tol=tol, max_iter=max_iter or ACTIVE_SET_MAX_ITER,
                                initial_active=initial_active)
    raise InvalidParameterError(f"unknown solver {solver!r}; expected one of {SOLVERS}")


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
    solution (see :func:`_coarse_contact`), but the active-set reference of
    a PSOR solve starts from PSOR's contact set; its answer, the LU solve on
    the set where it stops, agrees to rounding whatever the start.
    """
    p = build_vi_problem(mesh, sys, data, family)
    rep = _solve(p, solver, tol, max_iter)
    if cross_check:
        # the independent solver serves as a reference, so it runs tighter:
        # a residual at tol does not pin the solution to tol on fine meshes
        other = "active_set" if solver == "psor" else "psor"
        rep2 = _solve(p, other, max(tol * 1e-2, 5e-15), initial_active=rep.active_set)
        gap = float(np.max(np.abs(rep.values() - rep2.values())))
        if gap > 10.0 * tol:
            raise CrossCheckError(
                f"solvers disagree: max difference {gap:.3e} > {10.0 * tol:.1e}"
            )
    return rep
