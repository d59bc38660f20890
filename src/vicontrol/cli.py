"""Command-line entry point.

Subcommands: state, optimize, sweep-h, sweep-alpha, diagram, conjecture,
interp-check.  Configuration is a flat ``key = value`` file plus ``--set``
overrides; unknown keys are rejected.  Exit codes: 0 ok, 2 configuration
error (any ``InvalidParameterError``, or an ``OSError`` such as an ``--out``
that cannot be made), 3 solver failure (any ``NonConvergenceError``, or out
of memory), 4 acceptance-check failure in a sweep.  Outputs are CSV files
with a comment header carrying the configuration hash and preset name;
identical configuration and seed reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import convergence
from .assembly import ProblemData, as_control_field, norm_H
from .control import _check_draws, check_open_problems, optimize
from .convergence import StudySession
from .errors import ConfigError, InvalidParameterError, NonConvergenceError
from .mesh import SIDES, format_rows, write_mesh
from .presets import PRESETS, box_control
from .vi_solver import DEFAULT_TOL, FAMILIES, SOLVERS, solve_state

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
    tol: float = DEFAULT_TOL
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


def load_config(args) -> tuple[RunConfig, StudySession]:
    """The run's configuration and the one StudySession its command runs on."""
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
    return cfg, _session(cfg)


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
            return np.loadtxt(path, dtype=float, ndmin=1)  # nodal values, bound per grid
        except OSError:
            raise ConfigError(f"cannot read control file {path!r}") from None
        except ValueError:
            raise ConfigError(f"control file {path!r} holds non-numeric values") from None
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
            if side not in SIDES:
                raise ConfigError(f"unknown side {side!r} in flux spec {spec!r}")
            out[side] = _finite_flux(raw, f"bad flux value {raw!r}")
        return out
    return _finite_flux(spec, f"bad flux specification {spec!r}")


def _finite_flux(raw: str, message: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(message) from None
    if not np.isfinite(value):
        raise ConfigError(f"flux must be finite, got {raw.strip()!r}")
    return value


def _validate(cfg: RunConfig):
    if cfg.n < 1:
        raise ConfigError(f"n must be >= 1, got {cfg.n}")
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown family {cfg.family!r}")
    if cfg.solver not in SOLVERS:
        raise ConfigError(f"unknown solver {cfg.solver!r}")
    if not (0.0 < cfg.tol < np.inf and 0.0 < cfg.opt_tol < np.inf):
        raise ConfigError("tolerances must be positive and finite")
    _check_draws(cfg.trials, cfg.seed, cfg.g_low, cfg.g_high)
    if cfg.max_iter < 0:
        raise ConfigError(f"max_iter must be >= 0 (0: solver default), got {cfg.max_iter}")
    if cfg.opt_max_iter < 1:
        raise ConfigError(f"opt_max_iter must be >= 1, got {cfg.opt_max_iter}")


def _number_list(spec: str, key: str, kind=float):
    try:
        return [kind(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"bad {kind.__name__} list for {key}: {spec!r}") from None


def _session(cfg: RunConfig) -> StudySession:
    """The StudySession of the run: its data, gamma1, solver and tol.  A
    file control is nodal values, which the lattice studies cannot bind."""
    g = _parse_g(cfg.g)
    data = ProblemData(alpha=cfg.alpha, b=cfg.b, q=_parse_q(cfg.q), M_cost=cfg.M, g=g)
    if isinstance(g, np.ndarray) and cfg.command in ("sweep-h", "sweep-alpha", "diagram"):
        raise ConfigError("file controls require a mesh-bound command")
    return StudySession(data, cfg.gamma1, cfg.solver, cfg.tol)


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


def _write(cfg: RunConfig, name: str, body: list[str], extra: list[str] | None = None):
    """Write the output file ``name`` of the run: its header, then body."""
    path = Path(cfg.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(_header(cfg, extra) + body) + "\n")


def _write_rate_csv(cfg: RunConfig, name: str, table: convergence.RateTable):
    body = ["param,value,error,norm"]
    for value, error, tag in table.rows:
        body.append(f"{table.parameter},{_fmt(value)},{_fmt(error)},{tag}")
    notes = [table.note] if table.note else []
    _write(cfg, name, body, [f"reference: {table.reference}", *notes])


def _grid(cfg: RunConfig, session: StudySession):
    """Data and system of a mesh-bound command: the session's n-division
    grid, with the control bound to its nodes; its mesh is ``sys_.mesh``,
    written out when ``dump_mesh`` is set."""
    sys_ = session.grid(cfg.n)
    data = replace(session.data, g=as_control_field(sys_.mesh, session.data.g))
    if cfg.dump_mesh:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        write_mesh(sys_.mesh, Path(cfg.out) / "mesh.txt")
    return data, sys_


def cmd_state(cfg: RunConfig, session: StudySession) -> int:
    data, sys_ = _grid(cfg, session)
    rep = solve_state(
        sys_.mesh, sys_, data, family=cfg.family, solver=cfg.solver, tol=cfg.tol,
        max_iter=cfg.max_iter or None, cross_check=cfg.cross_check,
    )
    body = ["x,y,u", format_rows("%.17g,%.17g,%.17g", sys_.mesh.nodes, rep.values())]
    _write(cfg, "state.csv", body)
    report = [
        f"family: {cfg.family}",
        f"solver: {cfg.solver}",
        f"iterations: {rep.iterations}",
        f"residual: {_fmt(rep.residual)}",
        f"active_set_size: {rep.active_set.size}",
    ]
    _write(cfg, "report.txt", report)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, session: StudySession) -> int:
    data, sys_ = _grid(cfg, session)
    rep = optimize(
        sys_, data, family=cfg.family, method=cfg.opt_method,
        tol=cfg.opt_tol, max_iter=cfg.opt_max_iter, solver=cfg.solver,
    )
    body = ["x,y,g", format_rows("%.17g,%.17g,%.17g", sys_.mesh.nodes, rep.g_opt.values)]
    _write(cfg, "g_opt.csv", body)
    hist = format_rows("%d,%.17g", np.arange(len(rep.history)), np.array(rep.history))
    _write(cfg, "history.csv", ["iter,J", hist])
    report = [
        f"method: {rep.method}",
        f"J_opt: {_fmt(rep.J_opt)}",
        f"iterations: {rep.iterations}",
        f"gradient_norm_final: {_fmt(rep.gradient_norm_final)}",
        f"g_norm_H: {_fmt(norm_H(sys_, rep.g_opt))}",
    ]
    _write(cfg, "report.txt", report)
    return EXIT_OK


def _sweep_summary(cfg: RunConfig, lines: list[str], checks: list[tuple[str, bool]]) -> int:
    """Write summary.txt, lines and a PASS/FAIL line per check; 4 if any fails."""
    body = list(lines)
    for name, ok in checks:
        body.append(f"{name}: {'PASS' if ok else 'FAIL'}")
    _write(cfg, "summary.txt", body)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_CHECK_FAILED


def _order_check(table: convergence.RateTable, floor: float):
    """Pass when the fitted order clears the floor.  Zero-level tables, whose
    errors all sit below the solver-tolerance guard, have nothing to fit and
    pass."""
    if table.zero_level:
        return True, "all errors at the solver-tolerance floor"
    if table.fitted_order is None:
        return False, table.note
    return table.fitted_order >= floor, f"fitted order {table.fitted_order:.3f}"


def cmd_sweep_h(cfg: RunConfig, session: StudySession) -> int:
    levels = _number_list(cfg.levels, "levels", int)
    state_tab = convergence.h_sweep_state(session, cfg.alpha, levels)
    cost_tab = convergence.h_sweep_cost(session, cfg.alpha, levels)
    _write_rate_csv(cfg, "rate_h_state.csv", state_tab)
    _write_rate_csv(cfg, "rate_h_cost.csv", cost_tab)

    checks = []
    lines = []
    for name, tab in (("state", state_tab), ("cost", cost_tab)):
        errs = tab.errors()
        ok_order, detail = _order_check(tab, ORDER_FLOOR)
        decreasing = tab.zero_level or convergence.strictly_decreasing(errs)
        lines.append(f"{name} errors: {', '.join(_fmt(e) for e in errs)}")
        lines.append(f"{name} fit: {detail}")
        if tab.note:
            lines.append(f"{name} note: {tab.note}")
        checks.append((f"{name} order >= {ORDER_FLOOR}", ok_order))
        checks.append((f"{name} errors strictly decreasing", decreasing))
    return _sweep_summary(cfg, lines, checks)


def cmd_sweep_alpha(cfg: RunConfig, session: StudySession) -> int:
    alphas = _number_list(cfg.alphas, "alphas")
    tables = convergence.alpha_sweep_state(session, cfg.n, alphas)
    _write_rate_csv(cfg, "rate_alpha_trace.csv", tables["R"])
    _write_rate_csv(cfg, "rate_alpha_v.csv", tables["V"])

    r_tab, v_tab = tables["R"], tables["V"]
    v_errs = v_tab.errors()
    if r_tab.zero_level and v_tab.zero_level:
        checks = [("trace slope (zero-level errors)", True), ("V errors monotone", True)]
        lines = ["all errors at the solver-tolerance floor; "
                 "zero errors excluded from fit"]
    else:
        slope_ok = r_tab.fitted_order is not None and r_tab.fitted_order <= ALPHA_SLOPE_CEILING
        v_ok = convergence.monotone_nonincreasing(v_errs[v_errs >= v_tab.guard])
        lines = [
            f"trace slope vs (alpha-1): "
            f"{'n/a' if r_tab.fitted_order is None else f'{r_tab.fitted_order:.3f}'}",
            f"V errors: {', '.join(_fmt(e) for e in v_errs)}",
        ]
        checks = [
            (f"trace slope <= {ALPHA_SLOPE_CEILING}", slope_ok),
            ("V errors monotone non-increasing above tolerance floor", v_ok),
        ]
    return _sweep_summary(cfg, lines, checks)


def cmd_diagram(cfg: RunConfig, session: StudySession) -> int:
    rep = convergence.diagram(
        session,
        _number_list(cfg.diagram_levels, "diagram_levels", int),
        _number_list(cfg.diagram_alphas, "diagram_alphas"),
        opt_tol=cfg.opt_tol,
        opt_max_iter=cfg.opt_max_iter,
    )
    table = np.array([(r.h, r.alpha, r.J_opt, r.g_norm, r.d1, r.d2, r.d3) for r in rep.rows])
    body = ["h,alpha,J_opt,g_norm,d1,d2,d3", format_rows(",".join(["%.17g"] * 7), table)]
    _write(cfg, "diagram.csv", body, [rep.reference])
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
    return _sweep_summary(cfg, lines, checks)


def cmd_conjecture(cfg: RunConfig, session: StudySession) -> int:
    data, sys_ = _grid(cfg, session)
    rep = check_open_problems(
        sys_, data, trials=cfg.trials, seed=cfg.seed, family=cfg.family,
        g_low=cfg.g_low, g_high=cfg.g_high, solver=cfg.solver,
    )
    table = np.array([(t.trial, t.mu, t.min_margin_pointwise, t.h_norm_margin, t.convexity_gap)
                      for t in rep.trials])
    body = ["trial,mu,min_margin_pointwise,h_norm_margin,convexity_gap",
            format_rows("%d,%.17g,%.17g,%.17g,%.17g", table)]
    _write(cfg, "conjecture.csv", body)

    wit = ["trial,kind,mu,node,g1,g2"]
    for w in rep.witnesses:
        for i, (a, b) in enumerate(zip(w["g1"], w["g2"])):
            wit.append(f"{w['trial']},{w['kind']},{_fmt(w['mu'])},{i},{_fmt(a)},{_fmt(b)}")
    _write(cfg, "witnesses.csv", wit)

    lines = [
        f"trials: {cfg.trials}",
        f"pointwise_violations: {rep.pointwise_violations}",
        f"h_norm_violations: {rep.h_norm_violations}",
        f"convexity_violations: {rep.convexity_violations}",
        "violations of the open inequalities are findings, not failures",
    ]
    _write(cfg, "summary.txt", lines)
    return EXIT_OK


def cmd_interp_check(cfg: RunConfig, session: StudySession) -> int:
    levels = _number_list(cfg.interp_levels, "interp_levels", int)
    tables = convergence.interp_rate_study(
        lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0), levels, cfg.gamma1
    )
    _write_rate_csv(cfg, "interp_l2.csv", tables["H"])
    _write_rate_csv(cfg, "interp_v.csv", tables["V"])
    o_h, o_v = tables["H"].fitted_order, tables["V"].fitted_order
    checks = [
        (f"L2 order within {INTERP_TOL} of 2", o_h is not None and abs(o_h - 2.0) <= INTERP_TOL),
        (f"H1 order within {INTERP_TOL} of 1", o_v is not None and abs(o_v - 1.0) <= INTERP_TOL),
    ]
    lines = [
        f"L2 order: {'n/a' if o_h is None else f'{o_h:.3f}'}",
        f"H1 order: {'n/a' if o_v is None else f'{o_v:.3f}'}",
    ]
    return _sweep_summary(cfg, lines, checks)


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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", metavar="FILE", default=None)
    parser.add_argument("--set", metavar="k=v", action="append", default=[])
    parser.add_argument("--out", metavar="DIR", default=None)
    parser.add_argument("--preset", metavar="NAME", default="")
    parser.add_argument("--dump-mesh", action="store_true", dest="dump_mesh")
    parser.add_argument("--seed", metavar="N", type=int, default=None)
    parser.add_argument("--cross-check", action="store_true", dest="cross_check")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, session = load_config(args)
        return _COMMANDS[cfg.command](cfg, session)
    except (InvalidParameterError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except MemoryError:
        print("solver failure: out of memory", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
