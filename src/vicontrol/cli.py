"""Command-line entry point.

Subcommands: state, optimize, sweep-h, sweep-alpha, diagram, conjecture,
interp-check.  Configuration is a flat ``key = value`` file plus ``--set``
overrides; unknown keys are rejected.  Exit codes: 0 ok, 2 configuration
error, 3 solver non-convergence, 4 acceptance-check failure in a sweep.
Outputs are CSV files with a comment header carrying the configuration
hash and preset name; identical configuration and seed reproduce outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import convergence
from .assembly import ProblemData, assemble, norm_H
from .control import check_open_problems, optimize
from .convergence import StudySession
from .errors import (
    ConfigError,
    CrossCheckError,
    InsufficientDataError,
    InvalidParameterError,
    LineSearchError,
    NonConvergenceError,
)
from .mesh import ScalarField, build_unit_square, format_rows, write_mesh
from .presets import PRESETS, box_control
from .vi_solver import solve_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK_FAILED = 4

ORDER_FLOOR = 0.45
ALPHA_SLOPE_CEILING = -0.45
INTERP_TOL = 0.1

_DEFAULT_ALPHAS = ",".join(str(2 ** k) for k in range(1, 15))


@dataclass
class RunConfig:
    command: str = ""
    preset: str = ""
    n: int = 8
    gamma1: str = "bottom"
    alpha: float = 2.0
    b: float = 1.0
    q: str = "0"
    M: float = 1.0
    g: str = "0"
    family: str = "robin"
    solver: str = "active_set"
    tol: float = 1e-10
    max_iter: int = 0
    opt_method: str = "proj_grad_adjoint"
    opt_tol: float = 1e-8
    opt_max_iter: int = 500
    levels: str = "4,8,16,32"
    alphas: str = _DEFAULT_ALPHAS
    diagram_levels: str = "2,4,8,16"
    diagram_alphas: str = "2,4,8,16"
    interp_levels: str = "4,8,16,32"
    trials: int = 200
    g_low: float = -30.0
    g_high: float = 10.0
    seed: int = 0
    out: str = "out"
    cross_check: bool = False
    dump_mesh: bool = False


# settable keys and the type each value is coerced to, from the defaults
_SETTABLE = {
    f.name: type(f.default) for f in fields(RunConfig) if f.name not in ("command", "preset")
}


def _coerce(key: str, raw: str):
    kind = _SETTABLE[key]
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None


def _apply(cfg: RunConfig, key: str, raw: str):
    if key not in _SETTABLE:
        raise ConfigError(f"unknown configuration key {key!r}")
    setattr(cfg, key, _coerce(key, raw.strip()))


def _read_config_file(cfg: RunConfig, path: str):
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = text.split("=", 1)
        _apply(cfg, key.strip(), raw)


def load_config(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        cfg.preset = args.preset
        for key, raw in PRESETS[args.preset].items():
            _apply(cfg, key, raw)
    if args.config:
        _read_config_file(cfg, args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply(cfg, key.strip(), raw)
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.cross_check = cfg.cross_check or args.cross_check
    cfg.dump_mesh = cfg.dump_mesh or args.dump_mesh
    _validate(cfg)
    return cfg


def _parse_g(spec: str):
    spec = spec.strip()
    if spec.startswith("box:"):
        parts = spec.split(":")[1:]
        if len(parts) != 5:
            raise ConfigError(f"box control needs value:x0:x1:y0:y1, got {spec!r}")
        try:
            value, x0, x1, y0, y1 = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bad box control {spec!r}") from None
        return box_control(value, x0, x1, y0, y1)
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            vals = np.loadtxt(path, dtype=float, ndmin=1)
        except OSError:
            raise ConfigError(f"cannot read control file {path!r}") from None
        return ("file", vals)
    try:
        return float(spec)
    except ValueError:
        raise ConfigError(f"bad control specification {spec!r}") from None


def _parse_q(spec: str):
    spec = spec.strip()
    if "=" in spec:
        out = {}
        for part in spec.split(","):
            side, _, raw = part.partition("=")
            side = side.strip()
            if side not in ("bottom", "right", "top", "left"):
                raise ConfigError(f"unknown side {side!r} in flux spec {spec!r}")
            try:
                out[side] = float(raw)
            except ValueError:
                raise ConfigError(f"bad flux value {raw!r}") from None
        return out
    try:
        return float(spec)
    except ValueError:
        raise ConfigError(f"bad flux specification {spec!r}") from None


def _validate(cfg: RunConfig):
    if cfg.n < 1:
        raise ConfigError(f"n must be >= 1, got {cfg.n}")
    if cfg.family not in ("robin", "dirichlet_limit"):
        raise ConfigError(f"unknown family {cfg.family!r}")
    if cfg.solver not in ("active_set", "psor"):
        raise ConfigError(f"unknown solver {cfg.solver!r}")
    if cfg.tol <= 0 or cfg.opt_tol <= 0:
        raise ConfigError("tolerances must be positive")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    _parse_g(cfg.g)
    _parse_q(cfg.q)
    try:  # numeric data validated by the same rules the solves use
        ProblemData(alpha=cfg.alpha, b=cfg.b, q=0.0, M_cost=cfg.M, g=0.0)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from None


def _number_list(spec: str, key: str, kind=float):
    try:
        return [kind(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"bad {kind.__name__} list for {key}: {spec!r}") from None


def _problem_data(cfg: RunConfig, mesh=None) -> ProblemData:
    g = _parse_g(cfg.g)
    if isinstance(g, tuple):  # nodal values from file need the mesh
        if mesh is None:
            raise ConfigError("file controls require a mesh-bound command")
        if g[1].shape != (mesh.node_count,):
            raise ConfigError(
                f"control file has {g[1].shape[0]} values, mesh has {mesh.node_count} nodes"
            )
        g = ScalarField(mesh, g[1])
    return ProblemData(alpha=cfg.alpha, b=cfg.b, q=_parse_q(cfg.q), M_cost=cfg.M, g=g)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _config_hash(cfg: RunConfig) -> str:
    # output location and debug dumps do not affect the computed results
    skip = {"out", "dump_mesh"}
    text = "\n".join(
        f"{f.name} = {getattr(cfg, f.name)}"
        for f in fields(RunConfig)
        if f.name not in skip
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _header(cfg: RunConfig, extra: list[str] | None = None) -> list[str]:
    lines = [
        f"# vicontrol {cfg.command}",
        f"# config-hash: {_config_hash(cfg)}",
        f"# preset: {cfg.preset or 'none'}",
        "# control-space: P1 nodal coefficients on the state mesh (control discretized)",
    ]
    for line in extra or []:
        lines.append(f"# {line}")
    return lines


def _write(path: Path, header: list[str], body: list[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(header + body) + "\n")


def _write_rate_csv(path: Path, cfg: RunConfig, table: convergence.RateTable):
    header = _header(cfg, [f"reference: {table.reference}"] + ([table.note] if table.note else []))
    body = ["param,value,error,norm"]
    for value, error, tag in table.rows:
        body.append(f"{table.parameter},{_fmt(value)},{_fmt(error)},{tag}")
    _write(path, header, body)


def _mesh_setup(cfg: RunConfig):
    """Mesh, problem data and assembled system of a mesh-bound command;
    writes the mesh when ``dump_mesh`` is set."""
    mesh = build_unit_square(cfg.n, cfg.gamma1)
    data = _problem_data(cfg, mesh)
    sys_ = assemble(mesh, data)
    if cfg.dump_mesh:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        write_mesh(mesh, Path(cfg.out) / "mesh.txt")
    return mesh, data, sys_


def cmd_state(cfg: RunConfig) -> int:
    mesh, data, sys_ = _mesh_setup(cfg)
    rep = solve_state(
        mesh, sys_, data, family=cfg.family, solver=cfg.solver, tol=cfg.tol,
        max_iter=cfg.max_iter or None, cross_check=cfg.cross_check,
    )
    out = Path(cfg.out)
    body = ["x,y,u", *format_rows("%.17g,%.17g,%.17g", mesh.nodes, rep.values())]
    _write(out / "state.csv", _header(cfg), body)
    report = [
        f"family: {cfg.family}",
        f"solver: {cfg.solver}",
        f"iterations: {rep.iterations}",
        f"residual: {_fmt(rep.residual)}",
        f"active_set_size: {rep.active_set.size}",
    ]
    _write(out / "report.txt", _header(cfg), report)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    mesh, data, sys_ = _mesh_setup(cfg)
    rep = optimize(
        mesh, sys_, data, family=cfg.family, method=cfg.opt_method,
        tol=cfg.opt_tol, max_iter=cfg.opt_max_iter, solver=cfg.solver,
    )
    out = Path(cfg.out)
    body = ["x,y,g", *format_rows("%.17g,%.17g,%.17g", mesh.nodes, rep.g_opt.values)]
    _write(out / "g_opt.csv", _header(cfg), body)
    hist = ["iter,J"]
    for k, j in enumerate(rep.history):
        hist.append(f"{k},{_fmt(j)}")
    _write(out / "history.csv", _header(cfg), hist)
    report = [
        f"method: {rep.method}",
        f"J_opt: {_fmt(rep.J_opt)}",
        f"iterations: {rep.iterations}",
        f"gradient_norm_final: {_fmt(rep.gradient_norm_final)}",
        f"g_norm_H: {_fmt(norm_H(sys_, rep.g_opt))}",
    ]
    _write(out / "report.txt", _header(cfg), report)
    return EXIT_OK


def _sweep_summary(path: Path, cfg: RunConfig, lines: list[str], checks: list[tuple[str, bool]]):
    body = list(lines)
    for name, ok in checks:
        body.append(f"{name}: {'PASS' if ok else 'FAIL'}")
    _write(path, _header(cfg), body)


def _order_check(table: convergence.RateTable, floor: float, guard: float):
    """Pass when the fitted order clears the floor.

    Tables whose errors all sit at or below the solver-tolerance guard are
    zero-level (nothing to fit) and pass.
    """
    errs = table.errors()
    if bool(np.all((errs == 0.0) | (errs < guard))):
        return True, "all errors at the solver-tolerance floor"
    if table.fitted_order is None:
        return False, table.note
    return table.fitted_order >= floor, f"fitted order {table.fitted_order:.3f}"


def cmd_sweep_h(cfg: RunConfig) -> int:
    data = _problem_data(cfg)
    levels = _number_list(cfg.levels, "levels", int)
    session = StudySession(data, cfg.gamma1, cfg.solver, cfg.tol)
    state_tab = convergence.h_sweep_state(data, cfg.alpha, levels, session=session)
    cost_tab = convergence.h_sweep_cost(data, cfg.alpha, levels, session=session)
    out = Path(cfg.out)
    _write_rate_csv(out / "rate_h_state.csv", cfg, state_tab)
    _write_rate_csv(out / "rate_h_cost.csv", cfg, cost_tab)

    guard = convergence.FIT_GUARD_FACTOR * cfg.tol
    checks = []
    lines = []
    for name, tab in (("state", state_tab), ("cost", cost_tab)):
        ok_order, detail = _order_check(tab, ORDER_FLOOR, guard)
        errs = tab.errors()
        decreasing = bool(np.all(errs < guard)) or convergence.strictly_decreasing(errs)
        lines.append(f"{name} errors: {', '.join(_fmt(e) for e in errs)}")
        lines.append(f"{name} fit: {detail}")
        if tab.note:
            lines.append(f"{name} note: {tab.note}")
        checks.append((f"{name} order >= {ORDER_FLOOR}", ok_order))
        checks.append((f"{name} errors strictly decreasing", decreasing))
    _sweep_summary(out / "summary.txt", cfg, lines, checks)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_CHECK_FAILED


def cmd_sweep_alpha(cfg: RunConfig) -> int:
    data = _problem_data(cfg)
    alphas = _number_list(cfg.alphas, "alphas")
    tables = convergence.alpha_sweep_state(
        data, cfg.n, alphas, cfg.gamma1, cfg.solver, cfg.tol
    )
    out = Path(cfg.out)
    _write_rate_csv(out / "rate_alpha_trace.csv", cfg, tables["R"])
    _write_rate_csv(out / "rate_alpha_v.csv", cfg, tables["V"])

    r_tab, v_tab = tables["R"], tables["V"]
    r_errs, v_errs = r_tab.errors(), v_tab.errors()
    guard = convergence.FIT_GUARD_FACTOR * cfg.tol
    zero = bool(np.all(r_errs < guard) and np.all(v_errs < guard))
    if zero:
        checks = [("trace slope (zero-level errors)", True), ("V errors monotone", True)]
        lines = ["all errors at the solver-tolerance floor; "
                 "zero errors excluded from fit"]
    else:
        slope_ok = r_tab.fitted_order is not None and r_tab.fitted_order <= ALPHA_SLOPE_CEILING
        v_ok = convergence.monotone_nonincreasing(v_errs[v_errs >= guard])
        lines = [
            f"trace slope vs (alpha-1): "
            f"{'n/a' if r_tab.fitted_order is None else f'{r_tab.fitted_order:.3f}'}",
            f"V errors: {', '.join(_fmt(e) for e in v_errs)}",
        ]
        checks = [
            (f"trace slope <= {ALPHA_SLOPE_CEILING}", slope_ok),
            ("V errors monotone non-increasing above tolerance floor", v_ok),
        ]
    _sweep_summary(out / "summary.txt", cfg, lines, checks)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_CHECK_FAILED


def cmd_diagram(cfg: RunConfig) -> int:
    data = _problem_data(cfg)
    rep = convergence.diagram(
        data,
        _number_list(cfg.diagram_levels, "diagram_levels", int),
        _number_list(cfg.diagram_alphas, "diagram_alphas"),
        cfg.gamma1,
        opt_tol=cfg.opt_tol,
        opt_max_iter=cfg.opt_max_iter,
        solver=cfg.solver,
    )
    out = Path(cfg.out)
    body = ["h,alpha,J_opt,g_norm,d1,d2,d3"]
    for row in rep.rows:
        body.append(
            f"{_fmt(row.h)},{_fmt(row.alpha)},{_fmt(row.J_opt)},{_fmt(row.g_norm)},"
            f"{_fmt(row.d1)},{_fmt(row.d2)},{_fmt(row.d3)}"
        )
    _write(out / "diagram.csv", _header(cfg, [rep.reference]), body)
    lines = [
        f"d1 (h -> 0 at largest alpha): {', '.join(_fmt(d) for d in rep.d1_sequence)}",
        f"d2 (alpha -> inf at finest mesh): {', '.join(_fmt(d) for d in rep.d2_sequence)}",
        f"d3 (diagonal): {', '.join(_fmt(d) for d in rep.d3_sequence)}",
        f"floor: {_fmt(rep.floor)}",
    ]
    checks = [
        ("d1 monotone decreasing", rep.d1_ok),
        ("d2 monotone decreasing", rep.d2_ok),
        ("d3 strictly decreasing", rep.d3_ok),
    ]
    _sweep_summary(out / "summary.txt", cfg, lines, checks)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def cmd_conjecture(cfg: RunConfig) -> int:
    mesh, data, sys_ = _mesh_setup(cfg)
    rep = check_open_problems(
        mesh, sys_, data, trials=cfg.trials, seed=cfg.seed, family=cfg.family,
        g_low=cfg.g_low, g_high=cfg.g_high, solver=cfg.solver,
    )
    out = Path(cfg.out)
    body = ["trial,mu,min_margin_pointwise,h_norm_margin,convexity_gap"]
    for t in rep.trials:
        body.append(
            f"{t.trial},{_fmt(t.mu)},{_fmt(t.min_margin_pointwise)},"
            f"{_fmt(t.h_norm_margin)},{_fmt(t.convexity_gap)}"
        )
    _write(out / "conjecture.csv", _header(cfg), body)

    wit = ["trial,kind,mu,node,g1,g2"]
    for w in rep.witnesses:
        for i, (a, b) in enumerate(zip(w["g1"], w["g2"])):
            wit.append(f"{w['trial']},{w['kind']},{_fmt(w['mu'])},{i},{_fmt(a)},{_fmt(b)}")
    _write(out / "witnesses.csv", _header(cfg), wit)

    lines = [
        f"trials: {cfg.trials}",
        f"pointwise_violations: {rep.pointwise_violations}",
        f"h_norm_violations: {rep.h_norm_violations}",
        f"convexity_violations: {rep.convexity_violations}",
        "violations of the open inequalities are findings, not failures",
    ]
    _write(out / "summary.txt", _header(cfg), lines)
    return EXIT_OK


def cmd_interp_check(cfg: RunConfig) -> int:
    levels = _number_list(cfg.interp_levels, "interp_levels", int)
    tables = convergence.interp_rate_study(
        lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0), levels, cfg.gamma1
    )
    out = Path(cfg.out)
    _write_rate_csv(out / "interp_l2.csv", cfg, tables["H"])
    _write_rate_csv(out / "interp_v.csv", cfg, tables["V"])
    o_h, o_v = tables["H"].fitted_order, tables["V"].fitted_order
    checks = [
        (f"L2 order within {INTERP_TOL} of 2", o_h is not None and abs(o_h - 2.0) <= INTERP_TOL),
        (f"H1 order within {INTERP_TOL} of 1", o_v is not None and abs(o_v - 1.0) <= INTERP_TOL),
    ]
    lines = [
        f"L2 order: {'n/a' if o_h is None else f'{o_h:.3f}'}",
        f"H1 order: {'n/a' if o_v is None else f'{o_v:.3f}'}",
    ]
    _sweep_summary(out / "summary.txt", cfg, lines, checks)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_CHECK_FAILED


_COMMANDS = {
    "state": cmd_state,
    "optimize": cmd_optimize,
    "sweep-h": cmd_sweep_h,
    "sweep-alpha": cmd_sweep_alpha,
    "diagram": cmd_diagram,
    "conjecture": cmd_conjecture,
    "interp-check": cmd_interp_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vicontrol",
        description="Obstacle-constrained state solves, control optimization, "
                    "and convergence studies on the unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="FILE", default=None)
        p.add_argument("--set", metavar="k=v", action="append", default=[])
        p.add_argument("--out", metavar="DIR", default=None)
        p.add_argument("--preset", metavar="NAME", default="")
        p.add_argument("--dump-mesh", action="store_true", dest="dump_mesh")
        p.add_argument("--seed", metavar="N", type=int, default=None)
        p.add_argument("--cross-check", action="store_true", dest="cross_check")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, InvalidParameterError, InsufficientDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, LineSearchError, CrossCheckError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
