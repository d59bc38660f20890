"""Quadratic-cost distributed control of the obstacle-constrained states.

The cost of a control g is J(g) = 1/2 ||u_g||_H^2 + (M/2) ||g||_H^2 where
u_g solves the selected state system.  Controls are discretized in the same
P1 nodal space as the state, which makes every H inner product exact; this
discretization choice is recorded in all output metadata.

J is smooth wherever the contact set of u_g is locally stable.  The
gradient model freezes the contact set of the current state, solves the
reduced adjoint equation there, and uses M g + w (w the adjoint lift) as
the H-Riesz gradient.  On that frozen set J is a convex quadratic in g, so
the optimizer takes inexact Newton steps, solved by CG in the H inner
product (Dembo, Eisenstat & Steihaug, 1982); on a stable contact set one
step ends the run.  A derivative-free compass search over the nodal basis
serves as the optimizer oracle on small meshes.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys as _sys
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (AssembledSystem, ProblemData, _dot, _form, _matvec, as_control_field,
                       norm_H)
from .errors import InvalidParameterError, LineSearchError, NonConvergenceError
from .mesh import ScalarField
from .vi_solver import DEFAULT_TOL, ROBIN, VIReport, _solve, adjoint_lift, build_vi_problem

ARMIJO_C = 1e-4
BACKTRACK = 0.5
INITIAL_STEP = 1.0
MAX_BACKTRACKS = 60
DEFAULT_OPT_TOL = 1e-8
NONNEG_GUARD = 1e-12
CONJECTURE_TOL = 1e-9
OPT_STATE_TOL = 1e-12
CG_MAX_ITER = 100
CG_FORCING = 0.1


@dataclass(frozen=True)
class CostReport:
    """Cost value and its exact decomposition."""

    value: float
    state_term: float
    control_term: float
    state: VIReport


@dataclass(frozen=True)
class OptimizeReport:
    """Optimal control candidate with solver provenance.

    ``gradient_norm_final`` is the H-norm of the frozen-set gradient for the
    gradient method and the final step size for the compass search;
    ``iterations`` counts Newton steps for the one and cost evaluations for
    the other.
    """

    g_opt: ScalarField
    J_opt: float
    iterations: int
    gradient_norm_final: float
    method: str
    history: tuple


@dataclass(frozen=True)
class ConjectureTrial:
    trial: int
    mu: float
    min_margin_pointwise: float
    h_norm_margin: float
    convexity_gap: float
    identity_residual: float


@dataclass(frozen=True)
class ConjectureReport:
    """Evidence table for the two open ordering questions.

    For random controls g1, g2 and mu in [0, 1], u3 is the convex
    combination of the two states and u4 the state of the combined control.
    min_margin_pointwise = min(u3 - u4) and h_norm_margin =
    ||u3||_H - ||u4||_H; negative values witness counterexamples and are
    reported, never asserted.  Only u4 >= 0 (guaranteed by feasibility) is
    enforced.  identity_residual checks the unconditional algebraic identity
    relating the convexity gap of J to (||u3||^2 - ||u4||^2)/2.
    """

    trials: tuple
    pointwise_violations: int
    h_norm_violations: int
    convexity_violations: int
    witnesses: tuple


def _cost_terms(m_h, m_cost: float, u: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """The terms 1/2 ||u||_H^2 and (M/2) ||g||_H^2 of J, M_H = m_h; inf or
    nan, without a warning, where a form overflows float64."""
    return 0.5 * _form(m_h, u), 0.5 * m_cost * _form(m_h, g)


class _Evaluator:
    """Shared machinery for repeated solves with varying control.

    Every state is a ``with_load`` copy of the zero-control problem, so all
    solves and adjoint lifts share one free-node reduction and its last LU
    factor.
    """

    def __init__(self, sys, data, family, solver="active_set", tol=DEFAULT_TOL):
        self.sys = sys
        self.data = data
        self.solver = solver
        self.tol = tol
        self.base = build_vi_problem(sys.mesh, sys, data=replace(data, g=0.0), family=family)
        self.warm: np.ndarray | None = None

    def state(self, gvals: np.ndarray) -> VIReport:
        problem = self.base.with_load(self.base.F + _matvec(self.sys.M_H, gvals))
        rep = _solve(problem, self.solver, self.tol, initial_active=self.warm)
        self.warm = rep.active_set
        return rep

    def cost(self, gvals: np.ndarray) -> CostReport:
        rep = self.state(gvals)
        state_term, control_term = _cost_terms(
            self.sys.M_H, self.data.M_cost, rep.values(), gvals
        )
        return CostReport(
            value=state_term + control_term,
            state_term=state_term,
            control_term=control_term,
            state=rep,
        )

    def gradient(self, gvals: np.ndarray, rep: VIReport) -> np.ndarray:
        """Frozen-contact-set H-Riesz gradient M g + adjoint lift of u."""
        w = adjoint_lift(self.base, rep.active_set, _matvec(self.sys.M_H, rep.values()))
        return self.data.M_cost * gvals + w


def cost(sys: AssembledSystem, data: ProblemData, family: str = ROBIN) -> CostReport:
    """Evaluate the cost of data.g from one active-set state solve to DEFAULT_TOL."""
    return _Evaluator(sys, data, family).cost(as_control_field(sys.mesh, data.g).values)


def optimize(
    sys: AssembledSystem,
    data: ProblemData,
    family: str = ROBIN,
    method: str = "proj_grad_adjoint",
    tol: float = DEFAULT_OPT_TOL,
    max_iter: int = 500,
    solver: str = "active_set",
) -> OptimizeReport:
    """Minimize the cost over the nodal control space.

    Starts from the zero control and solves each state to OPT_STATE_TOL.
    ``proj_grad_adjoint`` takes Newton-CG steps on the frozen contact set
    (see :func:`_newton_step`) with Armijo backtracking on the model slope;
    it terminates when the H-norm of the frozen-set adjoint gradient drops
    to tol.  ``coord_search`` is a derivative-free compass
    search over the nodal basis (first improvement, lexicographic node
    order) that stops once its step falls below tol; intended as an oracle
    on small meshes.  A zero control whose cost overflows float64 raises
    InvalidParameterError before any step.
    """
    steps = {"proj_grad_adjoint": _proj_grad, "coord_search": _coord_search}
    if method not in steps:
        raise InvalidParameterError(f"unknown method {method!r}")
    ev = _Evaluator(sys, data, family, solver=solver, tol=OPT_STATE_TOL)
    g = np.zeros(sys.mesh.node_count)
    report = ev.cost(g)
    if not np.isfinite(report.value):
        raise InvalidParameterError(f"the cost of the zero control, {report.value}, overflows "
                                    f"float64; scale down the data")
    return steps[method](ev, g, report, tol, max_iter)


def _proj_grad(ev: _Evaluator, g: np.ndarray, report: CostReport, tol: float,
               max_iter: int) -> OptimizeReport:
    history = [report.value]
    gnorm = np.inf
    for it in range(1, max_iter + 1):
        grad = ev.gradient(g, report.state)
        gnorm = norm_H(ev.sys, grad)
        if gnorm <= tol:
            return _opt_report(ev, g, report, it - 1, gnorm, "proj_grad_adjoint", history)
        d = _newton_step(ev, report.state, grad, CG_FORCING * tol)
        slope = _dot(grad, _matvec(ev.sys.M_H, d))  # < 0: a CG iterate from zero descends
        step = INITIAL_STEP
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            trial = g + step * d
            if np.array_equal(trial, g):
                break  # the step rounds away, and so would every shorter one
            trial_report = ev.cost(trial)
            # Armijo, and a strict decrease: below J's rounding the Armijo term rounds away
            value = trial_report.value
            if value <= report.value + ARMIJO_C * step * slope and value < report.value:
                accepted = (trial, trial_report)
                break
            step *= BACKTRACK
        if accepted is None:
            best = _opt_report(ev, g, report, it - 1, gnorm, "proj_grad_adjoint", history)
            raise LineSearchError(
                f"line search stalled at gradient norm {gnorm:.3e} (tol {tol:.1e})",
                residual=gnorm,
                best=best,
            )
        g, report = accepted
        history.append(report.value)
    best = _opt_report(ev, g, report, max_iter, gnorm, "proj_grad_adjoint", history)
    raise NonConvergenceError(
        f"Newton-CG method: ||grad||_H = {gnorm:.3e} > tol {tol:.1e} after {max_iter} steps",
        residual=gnorm,
        best=best,
    )


def _newton_step(ev: _Evaluator, state: VIReport, grad: np.ndarray, atol: float) -> np.ndarray:
    """CG in the H inner product on Hess d = -grad, from d = 0, until
    ||grad + Hess d||_H <= atol or after CG_MAX_ITER steps.  Hess d =
    M d + S M_H S M_H d is the H-Riesz Hessian of J on the contact set of
    ``state``, S the adjoint lift on that set; each lift reuses the LU the
    state solve left."""
    m_h, active = ev.sys.M_H, state.active_set

    def hess(v):
        w = adjoint_lift(ev.base, active, _matvec(m_h, v))
        return ev.data.M_cost * v + adjoint_lift(ev.base, active, _matvec(m_h, w))

    d, r = np.zeros_like(grad), -grad
    p, rr = r, _form(m_h, r)
    for _ in range(CG_MAX_ITER):
        if not np.sqrt(rr) > atol:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            hp = hess(p)
            curvature = _dot(p, _matvec(m_h, hp))
        if not np.isfinite(curvature):
            raise InvalidParameterError("a Newton-CG step overflows float64; scale down the data")
        step = rr / curvature
        d = d + step * p
        r = r - step * hp
        rr, rr_old = _form(m_h, r), rr
        p = r + (rr / rr_old) * p
    return d


def _coord_search(ev: _Evaluator, g: np.ndarray, report: CostReport, tol: float,
                  max_iter: int) -> OptimizeReport:
    history = [report.value]
    step = INITIAL_STEP
    evaluations = 0
    for _ in range(max_iter):
        improved = False
        for i in range(g.size):  # lexicographic node order
            for sign in (1.0, -1.0):
                trial = g.copy()
                trial[i] += sign * step
                trial_report = ev.cost(trial)
                evaluations += 1
                if trial_report.value < report.value:
                    g, report = trial, trial_report
                    history.append(report.value)
                    improved = True
                    break  # first improvement
        if not improved:
            step *= 0.5
            if step < tol:
                return _opt_report(ev, g, report, evaluations, step, "coord_search", history)
    raise NonConvergenceError(
        f"compass search: step {step:.3e} > tol {tol:.1e} after {max_iter} sweeps",
        residual=step,
        best=_opt_report(ev, g, report, evaluations, step, "coord_search", history),
    )


def _opt_report(ev, g, cost_report, iterations, measure, method, history) -> OptimizeReport:
    return OptimizeReport(
        g_opt=ScalarField(ev.sys.mesh, g.copy()),
        J_opt=cost_report.value,
        iterations=iterations,
        gradient_norm_final=float(measure),
        method=method,
        history=tuple(history),
    )


def convex_combination_states(
    sys: AssembledSystem,
    data: ProblemData,
    g1,
    g2,
    mu: float,
    family: str = ROBIN,
) -> dict[str, ScalarField]:
    """States attached to a convex combination of two controls.

    Returns u3 = mu u_{g1} + (1 - mu) u_{g2} (combination of states) and
    u4 = the state of mu g1 + (1 - mu) g2 (active-set solves to DEFAULT_TOL).
    """
    if not (0.0 <= mu <= 1.0):
        raise InvalidParameterError(f"mu must lie in [0, 1], got {mu}")
    ev = _Evaluator(sys, data, family)
    v1, v2 = (as_control_field(sys.mesh, g).values for g in (g1, g2))
    _, u1, u2, u3, u4 = _combination_states(ev, v1, v2, mu)
    return {"u3": ScalarField(sys.mesh, u3), "u4": ScalarField(sys.mesh, u4)}


def _combination_states(ev: _Evaluator, g1, g2, mu: float):
    """g3 = mu g1 + (1 - mu) g2, the states u1, u2 of g1, g2, their
    combination u3 = mu u1 + (1 - mu) u2, and the state u4 of g3."""
    g3 = mu * g1 + (1.0 - mu) * g2
    u1, u2, u4 = (ev.state(g).values() for g in (g1, g2, g3))
    return g3, u1, u2, mu * u1 + (1.0 - mu) * u2, u4


def _check_draws(trials: int, seed: int, g_low: float, g_high: float):
    """Refuse no trial, a negative seed, and a reversed, non-finite or too wide g range."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    if not (-np.inf < g_low <= g_high < np.inf and float(g_high) - float(g_low) < np.inf):
        raise InvalidParameterError(f"need finite g_low <= g_high, g_high - g_low finite, "
                                    f"got {g_low} and {g_high}")


def check_open_problems(
    sys: AssembledSystem,
    data: ProblemData,
    trials: int,
    seed: int = 0,
    family: str = ROBIN,
    g_low: float = -30.0,
    g_high: float = 10.0,
    solver: str = "active_set",
) -> ConjectureReport:
    """Randomized evidence for the two open ordering questions.

    Per trial, draws nodal controls g1, g2 uniform in [g_low, g_high] and
    mu uniform in [0, 1], then records the pointwise margin min(u3 - u4),
    the H-norm margin ||u3||_H - ||u4||_H, and the convexity gap
    mu J(g1) + (1-mu) J(g2) - J(g3).  States are solved with ``solver`` to
    DEFAULT_TOL.  Negative margins are findings, not failures; witnesses carry
    the inputs.  Asserts only the guaranteed feasibility u4 >= 0.  A trial
    takes its nine forms (v, M_H v)_2 from one product of M_H with the
    stacked vectors, and raises InvalidParameterError if a form or margin
    overflows float64.

    The trials are cut at m = trials // 2 into two shares, each solved on a
    fresh evaluator and each drawing from the seed's generator advanced past
    the trials before it; :func:`_solve_forked` solves the second share in a
    forked child when two CPUs are free.  The draws and the evaluator
    restart do not depend on the CPU count, so neither does the report.  A
    state solve's NonConvergenceError is raised with ``at trial k: `` before
    its message, and the first failing trial in serial order raises.
    """
    _check_draws(trials, seed, g_low, g_high)
    nodes = sys.mesh.node_count

    def draw(rng):
        g1 = rng.uniform(g_low, g_high, nodes)
        g2 = rng.uniform(g_low, g_high, nodes)
        return g1, g2, float(rng.uniform(0.0, 1.0))

    def solve(share: range) -> dict:
        """Trial k -> (its ConjectureTrial, its witnesses), for each k of
        the share in order."""
        if not share:
            return {}
        rng = np.random.default_rng(seed)
        for _ in range(share.start):  # the earlier trials' draws, thrown away
            draw(rng)
        ev = _Evaluator(sys, data, family, solver=solver)
        return {k: _trial(ev, k, *draw(rng)) for k in share}

    m = trials // 2
    results = _solve_forked(range(m), range(m, trials), solve)
    witnesses = [w for k in range(trials) for w in results[k][1]]
    kinds = [w["kind"] for w in witnesses]
    return ConjectureReport(
        trials=tuple(results[k][0] for k in range(trials)),
        pointwise_violations=kinds.count("pointwise"),
        h_norm_violations=kinds.count("h_norm"),
        convexity_violations=kinds.count("convexity"),
        witnesses=tuple(witnesses),
    )


def _trial(ev: _Evaluator, k: int, g1: np.ndarray, g2: np.ndarray, mu: float):
    """The ConjectureTrial of trial k and the list of its witnesses."""
    try:
        g3, u1, u2, u3, u4 = _combination_states(ev, g1, g2, mu)
    except NonConvergenceError as exc:  # the same object: type, residual and best stay
        exc.args = (f"at trial {k}: {exc}",)
        raise
    if float(np.min(u4)) < -NONNEG_GUARD:
        raise NonConvergenceError(
            f"state of the combined control dips below the obstacle at trial {k}",
            residual=float(np.min(u4)),
        )
    m_h, mcost = ev.sys.M_H, ev.data.M_cost
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.array([u1, g1, u2, g2, u4, g3, g2 - g1, u2 - u1, u3])
        # dots of contiguous rows: a strided dot sums in another order
        forms = [_dot(v, w) for v, w in zip(x, (m_h @ x.T).T.copy())]
        su1, sg1, su2, sg2, su4, sg3, sdg, sdu, su3 = forms
        j1, j2, j3 = (0.5 * su + 0.5 * mcost * sg
                      for su, sg in ((su1, sg1), (su2, sg2), (su4, sg3)))
        gap = mu * j1 + (1.0 - mu) * j2 - j3
        quad = 0.5 * mcost * mu * (1.0 - mu) * sdg
        state_quad = 0.5 * mu * (1.0 - mu) * sdu
        identity_residual = gap - quad - state_quad - 0.5 * (su3 - su4)
        min_margin = float(np.min(u3 - u4))
        h_margin = float(np.sqrt(max(su3, 0.0)) - np.sqrt(max(su4, 0.0)))
    if not np.isfinite([*forms, gap, identity_residual, min_margin, h_margin]).all():
        raise InvalidParameterError(f"trial {k}: the H-norm forms or margins overflow "
                                    f"float64; narrow g_low..g_high")
    witnesses = [{"trial": k, "kind": kind, "mu": mu, "g1": g1, "g2": g2}
                 for kind, violated in (("pointwise", min_margin < -CONJECTURE_TOL),
                                        ("h_norm", h_margin < -CONJECTURE_TOL),
                                        ("convexity", gap < quad - CONJECTURE_TOL))
                 if violated]
    return ConjectureTrial(k, mu, min_margin, h_margin, gap, identity_residual), witnesses


def _solve_forked(here, there, solve) -> dict:
    """``solve(here)`` merged with ``solve(there)``, ``solve`` mapping a share
    to a dict.  When the CPU affinity mask holds two CPUs or more, os.fork
    exists and neither share is empty, a forked child solves ``there``;
    otherwise this process solves both, in that order.  The child pickles one
    object into a pipe: its dict, or the exception that stopped it.  A
    failure here is raised at once, and the child is stopped; the child's is
    raised after all of ``here`` is solved.  So with ``here`` first in serial
    order, no failure waits for work that serial order would not do before
    it.  If the child's object does not arrive whole, ``there`` is solved here."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2 or not hasattr(os, "fork") or not here or not there:
        return {**solve(here), **solve(there)}
    _sys.stdout.flush()
    _sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child leaves by os._exit on every path, 0 once all is written
        try:
            os.close(r)
            try:
                shipped = solve(there)
            except Exception as exc:  # raised by the parent, after its own share
                shipped = exc
            payload = pickle.dumps(shipped)
            with open(w, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            results = solve(here)
            payload = pipe.read()
    finally:  # the child has written all it will, or its work is not needed
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    try:
        shipped = pickle.loads(payload)
    except Exception:  # killed, out of memory or unpicklable: no whole result
        return {**results, **solve(there)}
    if isinstance(shipped, Exception):
        raise shipped
    return {**results, **shipped}
