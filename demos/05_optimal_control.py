#!/usr/bin/env python3
"""Find the distributed control minimizing the quadratic cost.

The cost weighs the temperature against the control effort,
J(g) = ||u_g||_H^2 / 2 + M ||g||_H^2 / 2.  The gradient method freezes the
contact set of the state, solves the adjoint system there and takes a
Newton step by CG on that set; on a tiny mesh a derivative-free compass
search doubles as an oracle.
"""

import numpy as np

from vicontrol import ProblemData, assemble, build_unit_square, norm_H, optimize, solve_state

mesh = build_unit_square(8)
data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
system = assemble(mesh, data)

report = optimize(system, data, family="robin", tol=1e-9)
u0 = solve_state(mesh, system, data, family="robin").values()

print(f"iterations: {report.iterations}, final gradient H-norm: "
      f"{report.gradient_norm_final:.2e}")
print(f"J(0)   = {report.history[0]:.8f}")
print(f"J(opt) = {report.J_opt:.8f}")
bound = norm_H(system, u0) / np.sqrt(data.M_cost)
print(f"||g_opt||_H = {norm_H(system, report.g_opt):.6f} "
      f"<= ||u_0||_H / sqrt(M) = {bound:.6f}")

tiny = build_unit_square(2)
tiny_sys = assemble(tiny, data)
grad = optimize(tiny_sys, data, family="robin", tol=1e-9)
compass = optimize(tiny_sys, data, family="robin", method="coord_search",
                   tol=1e-6, max_iter=20000)
print(f"\nn=2 cross-check: gradient J = {grad.J_opt:.10f}, "
      f"compass J = {compass.J_opt:.10f} "
      f"(gap {abs(grad.J_opt - compass.J_opt):.1e})")
