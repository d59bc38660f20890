"""Independent oracles for the test suite.

Everything here recomputes quantities from scratch with different machinery
than the library: Gauss-Legendre quadrature (Duffy-mapped on triangles)
instead of closed-form element integration, dense linear algebra instead of
sparse factorizations, and active-set enumeration instead of iterative
solvers.  Slow and exact; small meshes only.
"""

import numpy as np

# Gauss-Legendre nodes on [0, 1]
_GL_N = 5
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_N)
_gl_x = 0.5 * (_gl_x + 1.0)
_gl_w = 0.5 * _gl_w


def triangle_rule():
    """Duffy-mapped tensor Gauss rule on the reference triangle.

    Exact for polynomials up to total degree 2 * _GL_N - 2 >= 8.
    Returns points (xi, eta) and weights summing to 1/2.
    """
    pts, wts = [], []
    for xu, wu in zip(_gl_x, _gl_w):
        for xv, wv in zip(_gl_x, _gl_w):
            pts.append((xu, xv * (1.0 - xu)))
            wts.append(wu * wv * (1.0 - xu))
    return np.array(pts), np.array(wts)


_TRI_PTS, _TRI_WTS = triangle_rule()


def _tri_coeffs(p0, p1, p2):
    """Coefficients a_i + b_i x + c_i y of the three barycentric functions."""
    mat = np.array([[1.0, p0[0], p0[1]], [1.0, p1[0], p1[1]], [1.0, p2[0], p2[1]]])
    return np.linalg.inv(mat).T  # row i: coefficients of basis i


def quad_assemble(mesh):
    """Dense K, M_H, M_R and unit boundary loads via numerical quadrature."""
    n = mesh.node_count
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeff = _tri_coeffs(*p)
        jac = np.array([p[1] - p[0], p[2] - p[0]]).T
        detj = abs(np.linalg.det(jac))
        grads = coeff[:, 1:]  # constant gradients
        for (xi, eta), w in zip(_TRI_PTS, _TRI_WTS):
            x, y = p[0] + jac @ np.array([xi, eta])
            lam = coeff @ np.array([1.0, x, y])
            M[np.ix_(tri, tri)] += w * detj * np.outer(lam, lam)
            K[np.ix_(tri, tri)] += w * detj * (grads @ grads.T)
    MR = np.zeros((n, n))
    r_unit = np.zeros(n)
    for a, b in mesh.gamma1_edges:
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        ell = np.linalg.norm(pb - pa)
        for t, w in zip(_gl_x, _gl_w):
            phi = np.array([1.0 - t, t])
            MR[np.ix_((a, b), (a, b))] += w * ell * np.outer(phi, phi)
            r_unit[[a, b]] += w * ell * phi
    q_unit = np.zeros(n)
    for a, b in mesh.gamma2_edges:
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        ell = np.linalg.norm(pb - pa)
        for t, w in zip(_gl_x, _gl_w):
            q_unit[[a, b]] += w * ell * np.array([1.0 - t, t])
    return K, M, MR, q_unit, r_unit


def quad_load(mesh, g_values, q_const, b_const, alpha):
    """Robin-family load via quadrature: (g,.)_H - (q,.)_Q + alpha (b,.)_R."""
    _, M, _, q_unit, r_unit = quad_assemble(mesh)
    return M @ g_values - q_const * q_unit + alpha * b_const * r_unit


def l2_error(mesh, values, f):
    """||f - u_h||_{L2} by quadrature for a nodal field u_h."""
    total = 0.0
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeff = _tri_coeffs(*p)
        jac = np.array([p[1] - p[0], p[2] - p[0]]).T
        detj = abs(np.linalg.det(jac))
        for (xi, eta), w in zip(_TRI_PTS, _TRI_WTS):
            x, y = p[0] + jac @ np.array([xi, eta])
            lam = coeff @ np.array([1.0, x, y])
            uh = float(values[tri] @ lam)
            total += w * detj * (f(x, y) - uh) ** 2
    return np.sqrt(total)


def h1_seminorm_error(mesh, values, grad_f):
    """|f - u_h|_{H1} by quadrature; grad_f returns (fx, fy)."""
    total = 0.0
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeff = _tri_coeffs(*p)
        jac = np.array([p[1] - p[0], p[2] - p[0]]).T
        detj = abs(np.linalg.det(jac))
        gh = values[tri] @ coeff[:, 1:]
        for (xi, eta), w in zip(_TRI_PTS, _TRI_WTS):
            x, y = p[0] + jac @ np.array([xi, eta])
            fx, fy = grad_f(x, y)
            total += w * detj * ((fx - gh[0]) ** 2 + (fy - gh[1]) ** 2)
    return np.sqrt(total)


def enumerate_vi_dense(A, F, lb, dirichlet_nodes=None, dirichlet_values=None,
                       candidates=None, margin_tol=1e-9):
    """Dense active-set enumeration with a global optimality certificate.

    Tries every subset of ``candidates`` (default: all free nodes) as the
    contact set, solves the reduced system, and returns the candidate whose
    primal gap and dual variable are both nonnegative within margin_tol.
    The certificate is checked over all nodes, so restricting candidates
    cannot silently yield a wrong answer; it can only fail to find one, in
    which case a RuntimeError is raised.
    """
    n = A.shape[0]
    pinned = np.zeros(n, dtype=bool)
    u_fixed = np.zeros(n)
    if dirichlet_nodes is not None and len(dirichlet_nodes):
        pinned[np.asarray(dirichlet_nodes)] = True
        u_fixed[np.asarray(dirichlet_nodes)] = dirichlet_values
    free = np.flatnonzero(~pinned)
    Aff = A[np.ix_(free, free)]
    Ff = F[free] - A[np.ix_(free, np.flatnonzero(pinned))] @ u_fixed[pinned]
    lbf = lb[free]
    if candidates is None:
        cand = np.arange(free.size)
    else:
        pos = {int(node): k for k, node in enumerate(free)}
        cand = np.array(sorted(pos[int(c)] for c in candidates), dtype=int)
    if cand.size > 16:
        raise RuntimeError(f"{cand.size} candidate nodes is too many to enumerate")
    best = None
    best_margin = -np.inf
    for mask in range(1 << cand.size):
        act = np.zeros(free.size, dtype=bool)
        act[cand[[(mask >> j) & 1 == 1 for j in range(cand.size)]]] = True
        ina = ~act
        u = np.empty(free.size)
        u[act] = lbf[act]
        if ina.any():
            rhs = Ff[ina] - Aff[np.ix_(ina, act)] @ lbf[act]
            u[ina] = np.linalg.solve(Aff[np.ix_(ina, ina)], rhs)
        lam = Aff @ u - Ff
        margin = np.inf
        if ina.any():
            margin = min(margin, float(np.min(u[ina] - lbf[ina])))
        if act.any():
            margin = min(margin, float(np.min(lam[act])))
        if margin > best_margin:
            best_margin = margin
            best = u.copy()
    if best is None or best_margin < -margin_tol:
        raise RuntimeError(
            f"no certified active set among candidates (best margin {best_margin:.3e})"
        )
    out = u_fixed.copy()
    out[free] = best
    return out


def contact_candidates(A, F, lb, dirichlet_nodes=None, dirichlet_values=None,
                       iters=20000, slack_factor=1e-3):
    """Plausibly-active free nodes, located by damped projected Jacobi.

    Only a pre-filter for the enumeration: a wrong candidate set cannot
    produce a wrong answer because enumerate_vi_dense certifies its result
    globally; it can only fail loudly.
    """
    n = A.shape[0]
    pinned = np.zeros(n, dtype=bool)
    u_fixed = np.zeros(n)
    if dirichlet_nodes is not None and len(dirichlet_nodes):
        pinned[np.asarray(dirichlet_nodes)] = True
        u_fixed[np.asarray(dirichlet_nodes)] = dirichlet_values
    free = np.flatnonzero(~pinned)
    Aff = A[np.ix_(free, free)]
    Ff = F[free] - A[np.ix_(free, np.flatnonzero(pinned))] @ u_fixed[pinned]
    lbf = lb[free]
    u = np.maximum(lbf, 0.0)
    d = np.diag(Aff)
    for _ in range(iters):
        u = np.maximum(lbf, u + 0.5 * (Ff - Aff @ u) / d)
    gap = u - lbf
    slack = slack_factor * max(float(np.max(gap)), 1e-30)
    return free[gap <= slack]


def cost_oracle(mesh, g_values, q_const, b_const, alpha, m_cost,
                family="robin"):
    """End-to-end cost via quadrature assembly + dense enumeration."""
    K, M, MR, q_unit, r_unit = quad_assemble(mesh)
    lb = np.zeros(mesh.node_count)
    if family == "robin":
        A = K + alpha * MR
        F = M @ g_values - q_const * q_unit + alpha * b_const * r_unit
        dn, dv = None, None
    else:
        A = K
        F = M @ g_values - q_const * q_unit
        dn = np.unique(mesh.gamma1_edges)
        dv = np.full(dn.size, b_const)
    cand = contact_candidates(A, F, lb, dn, dv)
    u = enumerate_vi_dense(A, F, lb, dn, dv, candidates=cand)
    return 0.5 * float(u @ M @ u) + 0.5 * m_cost * float(g_values @ M @ g_values), u


def prolongate_barycentric(u, nc, fine_nodes):
    """P1 prolongation by the per-triangle barycentric formula.

    Each fine node is located in its coarse cell at (s, t), the last cell
    of a row or column taking the nodes on the top and right sides, and
    evaluates u00 (1 - s) + u10 (s - t) + u11 t on the lower triangle
    (s >= t) or u00 (1 - t) + u11 s + u01 (t - s) on the upper one.
    """
    sx = fine_nodes[:, 0] * nc
    sy = fine_nodes[:, 1] * nc
    ix = np.minimum(np.floor(sx).astype(np.int64), nc - 1)
    iy = np.minimum(np.floor(sy).astype(np.int64), nc - 1)
    s = sx - ix
    t = sy - iy
    m = nc + 1
    u00 = u[iy * m + ix]
    u10 = u[iy * m + ix + 1]
    u01 = u[(iy + 1) * m + ix]
    u11 = u[(iy + 1) * m + ix + 1]
    lower = u00 * (1.0 - s) + u10 * (s - t) + u11 * t
    upper = u00 * (1.0 - t) + u11 * s + u01 * (t - s)
    return np.where(s >= t, lower, upper)


def inactive_block(a_ff, active):
    """The block of a_ff on the nodes outside the boolean mask ``active``,
    cut out by scipy's fancy indexing, in CSC form."""
    idx = np.flatnonzero(~active)
    return a_ff[idx][:, idx].tocsc()


def free_reduction(p):
    """The free-node matrix of p and the load of its eliminated trace,
    A[free][:, free] and A[free][:, pinned] @ dirichlet_values, cut out by
    scipy's fancy indexing."""
    free = np.setdiff1d(np.arange(p.size), p.dirichlet_nodes)
    a_free = p.A.tocsr()[free]
    return a_free[:, free].tocsr(), a_free[:, p.dirichlet_nodes] @ p.dirichlet_values


DUAL_TOL = 1e-12  # the reference loop's own dual-sign test on the active nodes


def reference_active_set(p, tol=1e-10, max_iter=100, initial_active=None):
    """The primal-dual active-set loop written out plainly: index arrays
    from ``flatnonzero``, the bound's matvec made on every step, the primal
    and dual tests evaluated on every step, and the report built from a
    copied full vector with a sorted active set.

    Shares only the free-node reduction and its LU factor with
    ``vi_solver.solve_active_set``, so a test can require that solver to
    give the same bytes.  Returns ``(values, iterations, active_set,
    residual)``.
    """
    from vicontrol.errors import NonConvergenceError
    from vicontrol.vi_solver import FEASIBILITY_TOL

    op = p._operator
    free, a_ff, lb_f = op.free, op.a_ff, op.lb_f
    f_f = p.F[free] - op.shift

    def complementarity(u_f, r):
        return float(np.max(np.abs(np.minimum(u_f - lb_f, r)))) if u_f.size else 0.0

    def report(u_f, iterations, residual):
        full = op.template.copy()
        full[free] = u_f
        active = free[u_f <= p.lower_bound[free]]
        return full, iterations, np.sort(active), residual

    active = op.free_mask([] if initial_active is None else initial_active)
    seen = set()
    u_f = np.zeros(free.size)
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
        res = complementarity(u_f, lam)
        feasible = not idx_i.size or np.min(u_f[idx_i] - lb_f[idx_i]) >= -FEASIBILITY_TOL
        dual_ok = not idx_a.size or np.min(lam[idx_a]) >= -DUAL_TOL
        nxt = lam - (u_f - lb_f) > 0.0
        if res <= tol and feasible:
            return report(u_f, it, res)
        if np.array_equal(nxt, active) and feasible and dual_ok:
            return report(u_f, it, res)
        active = nxt
    raise NonConvergenceError(
        f"active-set method: residual {res:.3e} > tol {tol:.1e} after {max_iter} iterations",
        residual=res,
    )


def reference_psor(p, tol=1e-10, max_iter=100_000):
    """Projected SOR written with scipy's fancy indexing: greedy colour
    classes of the free-node matrix, each class gathered, updated and
    scattered back, with the residual and error-estimate stop of
    ``vi_solver.solve_psor``.  Shares only the free-node reduction with it,
    so a test can require that solver to make the same sweeps and give the
    same bytes.  Returns ``(values, iterations, residual)``.
    """
    from vicontrol.vi_solver import PSOR_OMEGA, _colour_classes

    op = p._operator
    free, a_ff, lb_f = op.free, op.a_ff, op.lb_f
    f_f = p.F[free] - op.shift
    n = p.division_count
    omega = PSOR_OMEGA if n is None else 2.0 / (1.0 + np.sin(np.pi / max(n, 2)))
    u_f = np.maximum(lb_f, 0.0)
    blocks = [(c, a_ff[c], f_f[c], op.diag[c], lb_f[c]) for c in _colour_classes(a_ff)]
    iters, res, est, step = 0, np.inf, np.inf, np.nan
    while iters < max_iter and not (res <= tol and est <= tol):
        iters += 1
        u_old = u_f.copy()
        for c, a_c, f_c, d_c, lb_c in blocks:
            u_f[c] = np.maximum(lb_c, u_f[c] + omega * ((f_c - a_c @ u_f) / d_c))
        prev, step = step, float(np.abs(u_f - u_old).max(initial=0.0))
        rho = step / prev if step else 0.0
        est = step * rho / (1.0 - rho) if rho < 1.0 else np.inf
        if est <= tol or iters == max_iter:
            res = float(np.abs(np.minimum(u_f - lb_f, a_ff @ u_f - f_f)).max(initial=0.0))
    full = op.template.copy()
    full[free] = u_f
    return full, iters, res


def reference_nested_contact(p, tol=1e-10):
    """The nested start's contact set of p (n = p.division_count even, n / 2
    >= NESTED_MIN), read off as the solver did before its smoother became a
    one-block projected sweep: the Galerkin VI (P^T A P, P^T F) on the n / 2
    grid, cut on the fine grid's even nodes, solved by the active-set method
    from its own reference nested start, prolonged, then SMOOTH_SWEEPS damped
    projected-Jacobi sweeps that multiply by JACOBI_OMEGA before they divide
    by the diagonal, and the active-set rule.  Shares the free-node
    reduction and the prolongation with the solver."""
    from vicontrol.vi_solver import (JACOBI_OMEGA, NESTED_MIN, SMOOTH_SWEEPS, VIProblem,
                                     _prolongation, solve_active_set)

    n = p.division_count
    nc = n // 2
    P = _prolongation(nc, 2)
    keep = np.flatnonzero((np.arange(n + 1)[:, None] % 2 == 0) & (np.arange(n + 1) % 2 == 0))
    nodes = values = None
    if p.dirichlet_nodes is not None:
        on_grid = np.isin(p.dirichlet_nodes, keep)
        nodes = np.searchsorted(keep, p.dirichlet_nodes[on_grid])
        values = p.dirichlet_values[on_grid]
    pc = VIProblem(A=(P.T @ p.A @ P).tocsr(), F=P.T @ p.F, lower_bound=p.lower_bound[keep],
                   dirichlet_nodes=nodes, dirichlet_values=values, division_count=nc)
    start = reference_nested_contact(pc, tol) if nc % 2 == 0 and nc // 2 >= NESTED_MIN else None
    u_c = solve_active_set(pc, tol, initial_active=start).values()
    op = p._operator
    a_ff, lb_f = op.a_ff, op.lb_f
    f_f = p.F[op.free] - op.shift
    u_f = np.maximum(lb_f, (P @ u_c)[op.free])
    for _ in range(SMOOTH_SWEEPS):
        u_f = np.maximum(lb_f, u_f + JACOBI_OMEGA * (f_f - a_ff @ u_f) / op.diag)
    return op.free[a_ff @ u_f - f_f > u_f - lb_f]


def reference_conjecture_trials(sys, data, trials, seed=0, family="robin",
                                g_low=-30.0, g_high=10.0, solver="active_set"):
    """The trials of ``control.check_open_problems`` with each H-form taken
    by its own product: ``_cost_terms`` for J at (u1, g1), (u2, g2) and
    (u4, g3), and ``sq`` for the six other forms, repeats included.

    Draws the same controls and solves the same states, so a test can
    require that function to give the same bytes.  Returns ``(trials,
    witnesses)`` as its report holds them.
    """
    from vicontrol.control import (
        CONJECTURE_TOL,
        ConjectureTrial,
        _combination_states,
        _cost_terms,
        _Evaluator,
    )

    rng = np.random.default_rng(seed)
    ev = _Evaluator(sys, data, family, solver=solver)
    m_h, mcost = sys.M_H, data.M_cost
    rows, witnesses = [], []
    for k in range(trials):
        g1 = rng.uniform(g_low, g_high, sys.mesh.node_count)
        g2 = rng.uniform(g_low, g_high, sys.mesh.node_count)
        mu = float(rng.uniform(0.0, 1.0))
        g3, u1, u2, u3, u4 = _combination_states(ev, g1, g2, mu)

        def sq(v):
            return float(v @ (m_h @ v))

        j1 = sum(_cost_terms(m_h, mcost, u1, g1))
        j2 = sum(_cost_terms(m_h, mcost, u2, g2))
        j3 = sum(_cost_terms(m_h, mcost, u4, g3))
        gap = mu * j1 + (1.0 - mu) * j2 - j3
        quad = 0.5 * mcost * mu * (1.0 - mu) * sq(g2 - g1)
        state_quad = 0.5 * mu * (1.0 - mu) * sq(u2 - u1)
        identity_residual = gap - quad - state_quad - 0.5 * (sq(u3) - sq(u4))
        min_margin = float(np.min(u3 - u4))
        h_margin = float(np.sqrt(max(sq(u3), 0.0)) - np.sqrt(max(sq(u4), 0.0)))
        rows.append(ConjectureTrial(k, mu, min_margin, h_margin, gap, identity_residual))
        for kind, violated in (("pointwise", min_margin < -CONJECTURE_TOL),
                               ("h_norm", h_margin < -CONJECTURE_TOL),
                               ("convexity", gap < quad - CONJECTURE_TOL)):
            if violated:
                witnesses.append({"trial": k, "kind": kind, "mu": mu, "g1": g1, "g2": g2})
    return tuple(rows), tuple(witnesses)
