#!/usr/bin/env python3
"""Drive the heat transfer coefficient to infinity on a fixed mesh.

As alpha grows, the Robin exchange condition on the bottom edge stiffens
into the Dirichlet condition u = b.  The trace error on that edge decays
like a power of (alpha - 1); the V-norm error follows it down to the
solver floor.
"""

from vicontrol import ProblemData, StudySession, alpha_sweep_state
from vicontrol.presets import box_control

data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                   g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
alphas = [2.0 ** k for k in range(1, 15)]
tables = alpha_sweep_state(StudySession(data), n=16, alphas=alphas)

print("alpha      trace error (gamma1)    V-norm error")
for (am1, err_r, _), (_, err_v, _) in zip(tables["R"].rows, tables["V"].rows):
    print(f"{am1 + 1:8.0f}   {err_r:.6e}         {err_v:.6e}")
print(f"\ntrace-error slope vs (alpha - 1): {tables['R'].fitted_order:.3f}")
