#!/usr/bin/env python3
"""The two-parameter limit picture for the optimal controls.

Optimal controls are computed on an (h, alpha) lattice.  Three distance
sequences then trace the three routes to the limit problem: refine the
mesh at fixed alpha (d1), stiffen the boundary at fixed mesh (d2), and do
both at once along the diagonal alpha = 1/h (d3).  All three decrease,
which is the numerical face of the commuting limit diagram.
"""

from vicontrol import ProblemData, StudySession, diagram
from vicontrol.presets import box_control

data = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                   g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))
report = diagram(StudySession(data), levels=(2, 4, 8, 16), alphas=(2.0, 4.0, 8.0, 16.0))

print(report.reference)
print("\n   h        alpha      J_opt        d1          d2          d3")
for row in report.rows:
    d = lambda v: "    .      " if v != v else f"{v:.4e}"
    print(f"{row.h:.5f}  {row.alpha:8.3f}  {row.J_opt:.6f}  "
          f"{d(row.d1)}  {d(row.d2)}  {d(row.d3)}")

for name, seq, ok in (("d1 (h -> 0)", report.d1_sequence, report.d1_ok),
                      ("d2 (alpha -> inf)", report.d2_sequence, report.d2_ok),
                      ("d3 (diagonal)", report.d3_sequence, report.d3_ok)):
    arrow = " > ".join(f"{v:.3e}" for v in seq)
    print(f"\n{name}: {arrow}   decreasing: {ok}")
