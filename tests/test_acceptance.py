"""Acceptance suite: one check per shipped guarantee, at desk scale.

Each test prints one PASS/FAIL line.  Run with ``pytest -v -s`` (or just
``pytest``; the asserts are authoritative, the prints are the summary).
"""

import numpy as np

from vicontrol.assembly import (
    ProblemData,
    assemble,
    coercivity_constant,
    norm_H,
    norm_V,
)
from vicontrol.cli import main
from vicontrol.control import check_open_problems, optimize
from vicontrol.convergence import (
    StudySession,
    alpha_sweep_state,
    diagram,
    h_sweep_cost,
    h_sweep_state,
    monotone_nonincreasing,
)
from vicontrol.mesh import ScalarField, build_unit_square
from vicontrol.presets import box_control
from vicontrol.vi_solver import (
    DIRICHLET_LIMIT,
    ROBIN,
    build_vi_problem,
    solve_active_set,
    solve_enumerate,
    solve_psor,
    solve_state,
)

CONTACT = dict(b=1.0, q=1.0, M_cost=1.0, g=box_control(-20.0, 0.25, 0.75, 0.25, 0.75))


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{label}]: {status}{extra}")
    assert ok, f"acceptance criterion {num} failed: {label}{extra}"


def _random_instance(rng, mesh, family):
    g = ScalarField(mesh, rng.uniform(-30.0, 10.0, mesh.node_count))
    data = ProblemData(
        alpha=float(rng.uniform(0.5, 8.0)),
        b=float(rng.uniform(0.5, 2.0)),
        q=float(rng.uniform(-1.0, 2.0)),
        M_cost=1.0,
        g=g,
    )
    return data


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = [(build_unit_square(2), ROBIN, 12), (build_unit_square(3), DIRICHLET_LIMIT, 8)]
    for mesh, family, count in cases:
        for _ in range(count):
            data = _random_instance(rng, mesh, family)
            sys = assemble(mesh, data)
            p = build_vi_problem(mesh, sys, data, family)
            reference = solve_enumerate(p).values()
            for rep in (solve_psor(p, tol=1e-12), solve_active_set(p, tol=1e-12)):
                worst = max(worst, float(np.max(np.abs(rep.values() - reference))))
    _verdict(1, "oracle equivalence on <= 12 free nodes", worst <= 1e-10,
             f"worst max-norm gap {worst:.2e} over 20 instances x 2 solvers")


def test_criterion_02_uniqueness_across_starts():
    rng = np.random.default_rng(102)
    worst = 0.0
    for family in (ROBIN, DIRICHLET_LIMIT):
        mesh = build_unit_square(8)
        data = ProblemData(alpha=2.0, **CONTACT)
        sys = assemble(mesh, data)
        p = build_vi_problem(mesh, sys, data, family)
        solutions = []
        for k in range(5):
            u0 = np.maximum(rng.uniform(-1.0, 3.0, mesh.node_count), 0.0)
            solutions.append(solve_psor(p, tol=1e-12, u0=u0).values())
            start = rng.choice(mesh.node_count, size=3 * k + 1, replace=False)
            solutions.append(solve_active_set(p, tol=1e-12, initial_active=start).values())
        base = solutions[0]
        for u in solutions[1:]:
            worst = max(worst, norm_V(sys, u - base))
    _verdict(2, "uniqueness from 5 distinct initial iterates", worst <= 1e-8,
             f"worst V-norm spread {worst:.2e}")


def test_criterion_03_lipschitz_dependence():
    rng = np.random.default_rng(103)
    mesh = build_unit_square(8)
    base = ProblemData(alpha=1.0, **CONTACT)
    sys = assemble(mesh, base)
    worst_slack = -np.inf
    for alpha in (0.5, 1.0, 4.0):
        lam = coercivity_constant(sys, alpha)
        for _ in range(50):
            v1 = rng.uniform(-15.0, 15.0, mesh.node_count)
            v2 = rng.uniform(-15.0, 15.0, mesh.node_count)
            d1 = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0, g=ScalarField(mesh, v1))
            d2 = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=1.0, g=ScalarField(mesh, v2))
            u1 = solve_state(mesh, sys, d1, ROBIN, tol=1e-11).values()
            u2 = solve_state(mesh, sys, d2, ROBIN, tol=1e-11).values()
            lhs = norm_V(sys, u2 - u1)
            rhs = norm_H(sys, v2 - v1) / lam + 1e-8
            worst_slack = max(worst_slack, lhs - rhs)
    _verdict(3, "Lipschitz control-to-state bound", worst_slack <= 0.0,
             f"worst bound excess {worst_slack:.2e} over 150 pairs")


def test_criterion_04_state_rate_in_h():
    data = ProblemData(alpha=2.0, **CONTACT)
    table = h_sweep_state(StudySession(data), 2.0, [4, 8, 16, 32])
    errs = table.errors()
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    ok = ok and table.fitted_order is not None and table.fitted_order >= 0.45
    _verdict(4, "state V-error rate under refinement", ok,
             f"fitted order {table.fitted_order:.3f}, errors "
             + " > ".join(f"{e:.3e}" for e in errs))


def test_criterion_05_cost_gap_rate_in_h():
    data = ProblemData(alpha=2.0, **CONTACT)
    table = h_sweep_cost(StudySession(data), 2.0, [4, 8, 16, 32])
    errs = table.errors()
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    ok = ok and table.fitted_order is not None and table.fitted_order >= 0.45
    _verdict(5, "cost gap rate under refinement", ok,
             f"fitted order {table.fitted_order:.3f}")


def test_criterion_06_alpha_rate_to_dirichlet_limit():
    data = ProblemData(alpha=2.0, **CONTACT)
    tables = alpha_sweep_state(StudySession(data, tol=1e-10), 16,
                               [2.0**k for k in range(1, 15)])
    slope = tables["R"].fitted_order
    guard = 100 * 1e-10
    v_errs = tables["V"].errors()
    v_ok = monotone_nonincreasing(v_errs[v_errs >= guard])
    ok = slope is not None and slope <= -0.45 and v_ok
    _verdict(6, "trace rate and V-monotonicity as alpha grows", ok,
             f"trace slope {slope:.3f} vs (alpha-1); V monotone: {v_ok}")


def test_criterion_07_cost_coercivity():
    mesh = build_unit_square(8)
    data = ProblemData(alpha=2.0, **CONTACT)
    sys = assemble(mesh, data)
    quiet = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    u0 = solve_state(mesh, sys, quiet, ROBIN).values()
    c_hat = 10.0 * norm_H(sys, u0)
    rng = np.random.default_rng(107)
    direction = rng.standard_normal(mesh.node_count)
    direction /= norm_H(sys, direction)
    ok = True
    previous = None
    for size in (1.0, 10.0, 100.0, 1000.0):
        d = ProblemData(alpha=2.0, b=1.0, q=1.0, M_cost=1.0,
                        g=ScalarField(mesh, size * direction))
        rep = solve_state(mesh, sys, d, ROBIN)
        u = rep.values()
        j = 0.5 * float(u @ (sys.M_H @ u)) + 0.5 * size * size
        ok = ok and j >= 0.5 * size * size - c_hat * size
        if previous is not None:
            ok = ok and j > previous
        previous = j
    _verdict(7, "cost growth and coercivity lower bound", ok,
             f"C-hat surrogate {c_hat:.3e}")


def test_criterion_08_optimizer_bound_and_oracle():
    checks = []
    for n, alpha, m_cost, family, tol in (
        (2, 1.0, 1.0, ROBIN, 1e-9),
        (4, 2.0, 1.0, ROBIN, 1e-8),
        (4, 1.0, 1e6, ROBIN, 1e-5),
        (8, 2.0, 1.0, DIRICHLET_LIMIT, 1e-8),
    ):
        mesh = build_unit_square(n)
        data = ProblemData(alpha=alpha, b=1.0, q=1.0, M_cost=m_cost, g=0.0)
        sys = assemble(mesh, data)
        rep = optimize(sys, data, family, tol=tol)
        u0 = solve_state(mesh, sys, data, family).values()
        bound = norm_H(sys, u0) / np.sqrt(m_cost) + 1e-8
        checks.append(norm_H(sys, rep.g_opt) <= bound)
    mesh = build_unit_square(2)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(mesh, data)
    grad = optimize(sys, data, ROBIN, tol=1e-9)
    compass = optimize(sys, data, ROBIN, method="coord_search",
                       tol=1e-6, max_iter=20000)
    gap = abs(grad.J_opt - compass.J_opt)
    checks.append(gap <= 1e-6)
    _verdict(8, "optimizer norm bound and compass-oracle agreement",
             all(checks), f"cross-method J gap {gap:.2e}")


def test_criterion_09_commutative_diagram():
    data = ProblemData(alpha=2.0, **CONTACT)
    rep = diagram(StudySession(data), [2, 4, 8, 16], [2.0, 4.0, 8.0, 16.0])
    detail = (
        "d1 " + ">".join(f"{d:.2e}" for d in rep.d1_sequence)
        + "; d2 " + ">".join(f"{d:.2e}" for d in rep.d2_sequence)
        + "; d3 " + ">".join(f"{d:.2e}" for d in rep.d3_sequence)
    )
    _verdict(9, "diagram distances decrease on the 4x4 lattice",
             rep.d1_ok and rep.d2_ok and rep.d3_ok, detail)


def test_criterion_09b_diagram_command_exits_zero(tmp_path):
    code = main(["diagram", "--preset", "contact-v1", "--out", str(tmp_path / "d")])
    _verdict(9, "diagram command exit code", code == 0, f"exit {code}")


def test_criterion_10_convexity_identity_and_conjecture_report(tmp_path):
    mesh = build_unit_square(4)
    data = ProblemData(alpha=1.0, b=1.0, q=1.0, M_cost=1.0, g=0.0)
    sys = assemble(mesh, data)
    rep = check_open_problems(sys, data, trials=200, seed=42)
    worst_identity = max(abs(t.identity_residual) for t in rep.trials)
    ok = worst_identity <= 1e-9 and len(rep.trials) == 200
    code = main(["conjecture", "--preset", "contact-v1", "--set", "n=4",
                 "--set", "alpha=1", "--seed", "42",
                 "--out", str(tmp_path / "conj")])
    ok = ok and code == 0 and (tmp_path / "conj" / "conjecture.csv").exists()
    _verdict(10, "convexity-gap identity and conjecture report", ok,
             f"max identity residual {worst_identity:.2e}; findings "
             f"pw={rep.pointwise_violations} h={rep.h_norm_violations} "
             f"cx={rep.convexity_violations} (reported, never asserted)")


def test_criterion_11_deterministic_outputs(tmp_path):
    pairs = []
    for tag, args in (
        ("conjecture", ["conjecture", "--preset", "contact-v1", "--set", "n=3",
                        "--set", "trials=25", "--seed", "5"]),
        ("state", ["state", "--preset", "contact-v1", "--set", "n=8"]),
        ("sweep-h", ["sweep-h", "--preset", "constant-v1",
                     "--set", "levels=2,4,8,16"]),
    ):
        a = tmp_path / f"{tag}_a"
        b = tmp_path / f"{tag}_b"
        assert main(args + ["--out", str(a)]) in (0, 4)
        assert main(args + ["--out", str(b)]) in (0, 4)
        for csv in sorted(a.glob("*.csv")):
            pairs.append(csv.read_bytes() == (b / csv.name).read_bytes())
    _verdict(11, "byte-identical reruns with fixed seed", all(pairs),
             f"{len(pairs)} files compared")
