#!/usr/bin/env python3
"""Refine the mesh and watch state and cost converge.

Errors are measured against a surrogate reference: the same solve on a
grid one refinement finer than the finest measured level, with coarse
solutions transferred by exact nested prolongation.
"""

from vicontrol import ProblemData, StudySession, h_sweep_cost, h_sweep_state
from vicontrol.presets import box_control

data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                   g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
levels = (4, 8, 16, 32)
session = StudySession(data)  # shares state solves between the two sweeps

state = h_sweep_state(session, 2.0, levels)
cost = h_sweep_cost(session, 2.0, levels)

print(state.reference)
print("state V-norm errors:")
for h, err, _ in state.rows:
    print(f"  h = {h:.5f}   error = {err:.6e}")
print(f"  fitted order {state.fitted_order:.3f}\n")

print("cost gaps |J_h - J_ref|:")
for h, err, _ in cost.rows:
    print(f"  h = {h:.5f}   gap = {err:.6e}")
print(f"  fitted order {cost.fitted_order:.3f}")
