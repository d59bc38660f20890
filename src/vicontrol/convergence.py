"""Limit studies: mesh refinement, large heat transfer, and their diagonal.

Every study runs on one :class:`StudySession`, which holds the problem
data, gamma1, solver and tol and caches the grids and state solves of the
(h, alpha) lattice.  A lattice point is (n, alpha): n divisions of the
unit square and a Robin alpha, or alpha None for the Dirichlet limit.

* ``h_sweep_*``: refine the mesh at fixed alpha and measure state / cost
  errors against a one-refinement-finer surrogate reference;
* ``alpha_sweep_state``: fix the mesh, grow alpha, and measure the distance
  to the Dirichlet-limit state (trace error on gamma1 and full V-norm);
* ``diagram``: optimal controls on an (h, alpha) lattice, with distances to
  the fine-mesh edge, the Dirichlet edge, and the joint-limit corner.

Continuous objects are unattainable; every reference is a much finer
discrete solve and is labeled ``surrogate_reference`` in the outputs.
Error transfer between nested meshes uses exact P1 prolongation, so no
interpolation error enters the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .assembly import ProblemData, as_control_field, assemble, norm_H, norm_R, norm_V
from .control import _cost_terms, _solve_forked, optimize
from .errors import InsufficientDataError, InvalidParameterError
from .mesh import (Mesh, ScalarField, _check_divisions, _element_geometry, _nesting_ratio,
                   _normalize_sides, build_unit_square, interpolate, prolongate)
from .vi_solver import DEFAULT_TOL, DIRICHLET_LIMIT, ROBIN, solve_state

ZERO_NOTE = "zero errors excluded from fit"
FIT_GUARD_FACTOR = 100.0  # only fit levels with error >= factor * solver tol
MONOTONE_FLOOR = 1e-10
POINT_COST = 400  # a lattice point's work beyond its (n + 1)^2 nodes, in nodes

# Degree-5 quadrature on the reference triangle (7 points), used only to
# measure interpolation errors of user-supplied smooth functions.
_QW = np.array(
    [0.225]
    + [0.13239415278850618] * 3
    + [0.12593918054482715] * 3
)
_QA = 0.4701420641051151
_QB = 0.1012865073234563
_QP = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0],
        [1.0 - 2.0 * _QA, _QA],
        [_QA, 1.0 - 2.0 * _QA],
        [_QA, _QA],
        [1.0 - 2.0 * _QB, _QB],
        [_QB, 1.0 - 2.0 * _QB],
        [_QB, _QB],
    ]
)


@dataclass(frozen=True)
class RateTable:
    """(parameter, error, tag) rows that fit their own convergence order.

    Rows whose error is zero or below ``guard`` (the solver-tolerance floor)
    are zero-level and left out of the fit.  ``fitted_order`` is the
    least-squares slope of log error against log parameter over the other
    rows; None when fewer than three are usable.
    """

    parameter: str
    rows: tuple
    reference: str
    guard: float = 0.0

    def __post_init__(self):
        values = [r[0] for r in self.rows]
        diffs = np.diff(values)
        if len(values) >= 2 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise InvalidParameterError("parameter values must be strictly monotone")
        errs = self.errors()
        if errs.size and (not np.all(np.isfinite(errs)) or np.any(errs < 0)):
            raise InvalidParameterError("errors must be finite and nonnegative")

    def errors(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows], dtype=float)

    def _usable(self) -> list:
        return [(v, e) for v, e, _ in self.rows if e > 0.0 and e >= self.guard]

    @cached_property
    def fitted_order(self) -> float | None:
        usable = self._usable()
        return fit_order(usable) if len(usable) >= 3 else None

    @property
    def zero_level(self) -> bool:
        """Every error sits below ``guard``: there is nothing to fit or order."""
        return bool(np.all(self.errors() < self.guard))

    @property
    def note(self) -> str:
        if len(self._usable()) < len(self.rows):
            return ZERO_NOTE
        return "" if self.fitted_order is not None else "fewer than 3 usable rows; no order fitted"


def fit_order(rows) -> float:
    """Least-squares slope of log(error) vs log(parameter).

    Rows with zero error are excluded; fewer than two nonzero rows raise
    InsufficientDataError.
    """
    pts = [(float(r[0]), float(r[1])) for r in rows]
    usable = [(p, e) for p, e in pts if e > 0.0]
    if len(usable) < 2:
        raise InsufficientDataError(
            f"need at least 2 nonzero-error rows to fit, have {len(usable)}"
        )
    logp = np.log([p for p, _ in usable])
    loge = np.log([e for _, e in usable])
    slope = np.polyfit(logp, loge, 1)[0]
    return float(slope)


def monotone_nonincreasing(values) -> bool:
    v = list(values)
    return all(v[i + 1] <= v[i] + MONOTONE_FLOOR for i in range(len(v) - 1))


def strictly_decreasing(values) -> bool:
    v = list(values)
    return all(v[i + 1] < v[i] for i in range(len(v) - 1))


class StudySession:
    """Assembled grids and cached state solves for one data set.

    The session is the one home of a study's data, gamma1, solver and tol;
    an unknown or empty gamma1 raises here, before any grid is built.
    States are cached by their lattice point (n, alpha), so sweeps that
    share a point reuse the identical solution vector bitwise.
    """

    def __init__(self, data: ProblemData, gamma1="bottom", solver="active_set",
                 tol: float = DEFAULT_TOL):
        self.data = data
        self.gamma1 = _normalize_sides(gamma1)
        self.solver = solver
        self.tol = tol
        self._grid = {}
        self._states = {}

    @property
    def fit_floor(self) -> float:
        """Errors below this are solver noise and excluded from rate fits."""
        return FIT_GUARD_FACTOR * self.tol

    def grid(self, n: int):
        """The AssembledSystem of the n-division grid, cached; its mesh is ``.mesh``."""
        if n not in self._grid:
            self._grid[n] = assemble(build_unit_square(n, self.gamma1), self.data)
        return self._grid[n]

    def point(self, n: int, alpha: float | None):
        """(sys, data, family) of the lattice point (n, alpha): Robin at
        alpha, or the Dirichlet limit when alpha is None."""
        if alpha is None:
            return self.grid(n), self.data, DIRICHLET_LIMIT
        return self.grid(n), replace(self.data, alpha=alpha), ROBIN

    def state(self, n: int, alpha: float | None) -> ScalarField:
        key = (n, None if alpha is None else float(alpha))
        if key not in self._states:
            sys, data, family = self.point(n, alpha)
            rep = solve_state(sys.mesh, sys, data, family=family, solver=self.solver,
                              tol=self.tol)
            self._states[key] = ScalarField(sys.mesh, rep.solution)
        return self._states[key]

    def cost_value(self, n: int, alpha: float | None) -> float:
        u = self.state(n, alpha).values
        sys = self.grid(n)
        g = as_control_field(sys.mesh, self.data.g).values
        return sum(_cost_terms(sys.M_H, self.data.M_cost, u, g))


def _check_levels(levels):
    levels = [int(n) for n in levels]
    if len(levels) < 4:
        raise InvalidParameterError(f"need at least 4 mesh levels, got {len(levels)}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidParameterError("mesh levels must be strictly increasing")
    return levels


def _h_sweep(session: StudySession, alpha, levels, tag, reference, error):
    """Rows (h, error(n, n_ref), tag) over the levels at the Robin alpha, each
    level n measured against the reference on the n_ref = 2 * finest grid."""
    levels = _check_levels(levels)
    if alpha is None:
        raise InvalidParameterError("an h sweep needs a Robin alpha, got None")
    n_ref = 2 * levels[-1]
    rows = [(session.grid(n).mesh.h, error(n, n_ref), tag) for n in levels]
    return RateTable("h", tuple(rows), reference.format(n_ref), session.fit_floor)


def h_sweep_state(session: StudySession, alpha: float, levels) -> RateTable:
    """State error in the V-norm under mesh refinement at fixed alpha.

    The reference is the solution on a one-more-refined mesh (twice the
    finest level); coarser solutions are prolonged exactly before taking
    norms on the reference mesh.
    """

    def error(n, n_ref):
        sys_ref, u_ref = session.grid(n_ref), session.state(n_ref, alpha).values
        return norm_V(sys_ref, prolongate(session.state(n, alpha), sys_ref.mesh).values - u_ref)

    return _h_sweep(session, alpha, levels, "V",
                    "surrogate_reference: robin state on n={} grid (one refinement "
                    "beyond the finest measured level)", error)


def h_sweep_cost(session: StudySession, alpha: float, levels) -> RateTable:
    """Cost gap |J_h(g) - J_ref(g)| under mesh refinement at fixed alpha."""

    def error(n, n_ref):
        return abs(session.cost_value(n_ref, alpha) - session.cost_value(n, alpha))

    return _h_sweep(session, alpha, levels, "J", "surrogate_reference: cost at n={} grid", error)


def alpha_sweep_state(session: StudySession, n: int, alphas) -> dict[str, RateTable]:
    """Distance to the Dirichlet-limit state as alpha grows, fixed mesh.

    Returns two tables keyed "R" (trace error on gamma1, fitted against
    alpha - 1) and "V" (full V-norm error, for monotonicity checks).
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise InvalidParameterError("alpha sweep needs at least one alpha")
    if any(a <= 1.0 for a in alphas):
        raise InvalidParameterError("alpha sweep requires alpha > 1")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidParameterError("alpha values must be strictly increasing")
    sys = session.grid(n)
    u_lim = session.state(n, None).values
    rows_r, rows_v = [], []
    for a in alphas:
        diff = session.state(n, a).values - u_lim
        rows_r.append((a - 1.0, norm_R(sys, diff), "R"))
        rows_v.append((a - 1.0, norm_V(sys, diff), "V"))
    ref = f"dirichlet-limit state on the same n={n} grid"
    return {
        "R": RateTable("alpha_minus_1", tuple(rows_r), ref, session.fit_floor),
        "V": RateTable("alpha_minus_1", tuple(rows_v), ref, session.fit_floor),
    }


@dataclass(frozen=True)
class DiagramRow:
    n: int
    h: float
    alpha: float
    J_opt: float
    g_norm: float
    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class DiagramReport:
    """Distances across the (h, alpha) lattice of optimal controls.

    d1(h): distance to the fine-mesh optimizer at the same alpha, measured
    along the largest alpha; d2(alpha): distance to the Dirichlet-edge
    optimizer at the same mesh, measured on the finest measured mesh;
    d3(k): distance of the diagonal points (h_k, 1/h_k) to the joint
    surrogate corner.  All distances are H-norms of control differences on
    the finer of the two meshes involved.
    """

    rows: tuple
    d1_sequence: tuple
    d2_sequence: tuple
    d3_sequence: tuple
    d1_ok: bool
    d2_ok: bool
    d3_ok: bool
    floor: float
    reference: str

    @property
    def ok(self) -> bool:
        return self.d1_ok and self.d2_ok and self.d3_ok


def _split(points) -> int:
    """The index m that cuts the points into the prefix ``points[:m]`` and
    the suffix of most nearly equal estimated work."""
    work = np.cumsum([(n + 1) ** 2 + POINT_COST for n, _ in points])
    return int(np.argmin(np.maximum(work, work[-1] - work))) + 1


def diagram(session: StudySession, levels, alphas, opt_tol: float = 1e-7,
            opt_max_iter: int = 2000) -> DiagramReport:
    """Optimal-control lattice with its three convergence distances.

    The session supplies data, gamma1, solver and grids; the optimizer solves
    its states to ``control.OPT_STATE_TOL``, so ``session.tol`` is not read.
    Levels and alphas are taken in increasing order and may not repeat.
    The surrogate corners live on a mesh four times finer than the finest
    measured level (two extra refinements).  Lattice points are solved
    independently, each once, so shared corners reuse identical results.
    The points are cut where the two sides weigh about the same, and
    :func:`control._solve_forked` solves the later side in a forked child
    when two CPUs are free; outputs and errors do not depend on it (the
    first failing point in serial order raises), and there is no option.
    """
    levels = sorted(int(n) for n in levels)
    alphas = sorted(float(a) for a in alphas)
    if len(levels) < 2 or len(alphas) < 2:
        raise InvalidParameterError("diagram needs at least 2 levels and 2 alphas")
    if any(a == b for v in (levels, alphas) for a, b in zip(v, v[1:])):
        raise InvalidParameterError("diagram levels and alphas must not repeat a value")
    n_ref = 4 * levels[-1]
    for n in (n_ref, *levels):  # as the grids would refuse them, before any is assembled
        _check_divisions(n)
        _nesting_ratio(n, n_ref)
    session.grid(n_ref)  # every grid is assembled here, before any solve or fork
    diagonal = {}  # level n -> its diagonal alpha 1/h
    points = []  # in the serial order of first use
    for n in levels:
        diagonal[n] = 1.0 / session.grid(n).mesh.h
        points += [(n, None)] + [p for a in alphas for p in ((n, a), (n_ref, a))]
    points = list(dict.fromkeys(points + [(n_ref, None)] + list(diagonal.items())))

    def solve(share) -> dict:
        """(J_opt, control values) of each point of the share, solved in
        order; the first point that fails raises."""
        results = {}
        for n, alpha in share:
            sys_n, data, family = session.point(n, alpha)
            rep = optimize(sys_n, data, family=family, tol=opt_tol, max_iter=opt_max_iter,
                           solver=session.solver)
            results[n, alpha] = rep.J_opt, rep.g_opt.values
        return results

    m = _split(points)
    results = _solve_forked(points[:m], points[m:], solve)

    def dist(p, q):
        """H-distance of the controls of points p and q, on q's mesh."""
        (nc, _), (nf, _), g = p, q, results[p][1]
        sys_p, sys_q = session.grid(nc), session.grid(nf)
        g = g if nc == nf else prolongate(ScalarField(sys_p.mesh, g), sys_q.mesh).values
        return norm_H(sys_q, g - results[q][1])

    def row(n, a, d1=math.nan, d2=math.nan, d3=math.nan):
        sys_n, (J, g) = session.grid(n), results[n, a]
        return DiagramRow(n, sys_n.mesh.h, a, J, norm_H(sys_n, g), d1, d2, d3)

    rows = [row(n, a, d1=dist((n, a), (n_ref, a)), d2=dist((n, a), (n, None)))
            for n in levels for a in alphas]
    rows += [row(n, a, d3=dist((n, a), (n_ref, None))) for n, a in diagonal.items()]
    d1_seq = [r.d1 for r in rows if r.alpha == alphas[-1] and not math.isnan(r.d1)]
    d2_seq = [r.d2 for r in rows if r.n == levels[-1] and not math.isnan(r.d2)]
    d3_seq = [r.d3 for r in rows[-len(levels):]]

    return DiagramReport(
        rows=tuple(rows),
        d1_sequence=tuple(d1_seq),
        d2_sequence=tuple(d2_seq),
        d3_sequence=tuple(d3_seq),
        d1_ok=monotone_nonincreasing(d1_seq),
        d2_ok=monotone_nonincreasing(d2_seq),
        d3_ok=strictly_decreasing(d3_seq),
        floor=MONOTONE_FLOOR,
        reference=f"surrogate_reference: optimal controls on n={n_ref} grid "
                  f"(two refinements beyond the finest measured level); "
                  f"Dirichlet edge solved on each measured grid",
    )


def _interp_errors(mesh: Mesh, f, grad_f) -> tuple[float, float]:
    """L2 and H1-seminorm errors of nodal interpolation via fixed quadrature."""
    u = interpolate(mesh, f).values
    p = mesh.nodes[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b, c, area = _element_geometry(mesh)
    un = u[mesh.triangles]
    gx = np.sum(un * b, axis=1) / (2.0 * area)
    gy = np.sum(un * c, axis=1) / (2.0 * area)
    err_l2 = 0.0
    err_h1 = 0.0
    for w, (lam1, lam2) in zip(_QW, _QP):
        lam = np.array([1.0 - lam1 - lam2, lam1, lam2])
        px = x @ lam
        py = y @ lam
        uh = un @ lam
        fv = np.array([f(float(a_), float(b_)) for a_, b_ in zip(px, py)])
        err_l2 += w * float(np.sum(area * (fv - uh) ** 2))
        gf = np.array([grad_f(float(a_), float(b_)) for a_, b_ in zip(px, py)])
        err_h1 += w * float(np.sum(area * ((gf[:, 0] - gx) ** 2 + (gf[:, 1] - gy) ** 2)))
    return math.sqrt(max(err_l2, 0.0)), math.sqrt(max(err_h1, 0.0))


def interp_rate_study(f, grad_f, levels) -> dict[str, RateTable]:
    """Interpolation error orders of a smooth function over mesh levels.

    Returns tables keyed "H" (L2 error, expected order 2 for smooth f) and
    "V" (full H1 error, expected order 1).  The errors do not depend on the
    boundary tags, so the meshes take the default gamma1.
    """
    levels = [int(n) for n in levels]
    if not levels:
        raise InvalidParameterError("interpolation study needs at least one level")
    rows_h, rows_v = [], []
    for n in levels:
        mesh = build_unit_square(n)
        e_l2, e_h1 = _interp_errors(mesh, f, grad_f)
        e_v = math.sqrt(e_l2 * e_l2 + e_h1 * e_h1)
        rows_h.append((mesh.h, e_l2, "H"))
        rows_v.append((mesh.h, e_v, "V"))
    ref = "exact function values at quadrature points (degree-5 rule)"
    return {
        "H": RateTable("h", tuple(rows_h), ref),
        "V": RateTable("h", tuple(rows_v), ref),
    }
