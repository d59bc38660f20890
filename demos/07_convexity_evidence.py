#!/usr/bin/env python3
"""Gather evidence on two open ordering questions for combined controls.

For controls g1, g2 and mu in [0, 1], compare the convex combination of
the two states (u3) with the state of the combined control (u4).  Whether
u4 <= u3 pointwise, or at least in the H-norm, is open; each trial records
the margins, and any negative margin would be a counterexample worth
keeping.  The related convexity-gap identity is unconditional and is
checked exactly.
"""

from vicontrol import ProblemData, assemble, build_unit_square, check_open_problems

mesh = build_unit_square(4)
data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
system = assemble(mesh, data)

report = check_open_problems(system, data, trials=200, seed=42)

worst_pw = min(t.min_margin_pointwise for t in report.trials)
worst_h = min(t.h_norm_margin for t in report.trials)
worst_id = max(abs(t.identity_residual) for t in report.trials)

print(f"trials: {len(report.trials)}")
print(f"pointwise ordering violations: {report.pointwise_violations}")
print(f"H-norm ordering violations:    {report.h_norm_violations}")
print(f"strict-convexity violations:   {report.convexity_violations}")
print(f"smallest pointwise margin: {worst_pw:.3e}")
print(f"smallest H-norm margin:    {worst_h:.3e}")
print(f"largest identity residual: {worst_id:.3e} (must be rounding-level)")
if report.witnesses:
    print(f"{len(report.witnesses)} witness control pairs recorded")
else:
    print("no counterexample found; the ordering held in every trial")
