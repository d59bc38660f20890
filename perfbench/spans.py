"""Span tracing of vicontrol from outside the package.

``Tracer.active()`` replaces every public function of the layer modules,
at every module binding that holds it, with a wrapper that records a span
(name, start, end, parent, run id, info).  It also replaces the
``scipy.sparse.linalg`` seen from ``vicontrol.vi_solver`` with a proxy whose
``splu`` records ``vi_solver.lu_factor`` and whose factors record
``vi_solver.lu_solve``.  Leaving the context restores every binding, so
untraced passes run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("mesh", "assembly", "vi_solver", "control", "convergence", "cli")

# span records: [name, start, end, parent index, run id, info]
NAME, START, END, PARENT, RUN, INFO = range(6)

# Per-layer metrics whose values are counts that must repeat exactly.
EXACT_COUNTS = (
    "vi_solver.lu_factor_count",
    "vi_solver.lu_factor_nnz",
    "vi_solver.active_set_iters",
    "vi_solver.psor_sweeps",
    "vi_solver.psor_node_updates",
)


class _Factor:
    """A SuperLU factor whose ``solve`` calls are traced."""

    def __init__(self, tracer, lu):
        self._lu = lu
        self.solve = tracer.wrap("vi_solver.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgProxy:
    """``scipy.sparse.linalg`` with a traced ``splu``."""

    def __init__(self, tracer, spla):
        self._spla = spla
        splu = tracer.wrap("vi_solver.lu_factor", spla.splu, info=lambda args, lu: lu.nnz)
        self.splu = lambda *a, **kw: _Factor(tracer, splu(*a, **kw))

    def __getattr__(self, name):
        return getattr(self._spla, name)


def _report_info(args, rep):
    return rep.iterations


def _psor_info(args, rep):
    p = args[0]
    pinned = 0 if p.dirichlet_nodes is None else len(p.dirichlet_nodes)
    return (rep.iterations, p.size - pinned)


_INFO = {
    "vi_solver.solve_active_set": _report_info,
    "vi_solver.solve_psor": _psor_info,
    "control.optimize": _report_info,
}


class Tracer:
    """Span records of every traced call, in call order, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def active(self):
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "vicontrol" or k.startswith("vicontrol."))]
        names = {}
        for layer in LAYERS:
            mod = sys.modules[f"vicontrol.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[obj] = f"{layer}.{attr}"
        wrappers = {fn: self.wrap(nm, fn, _INFO.get(nm)) for fn, nm in names.items()}
        saved = []
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        vi = sys.modules["vicontrol.vi_solver"]
        saved.append((vi, "spla", vi.spla))
        vi.spla = _LinalgProxy(self, vi.spla)
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(saved):
                setattr(mod, attr, obj)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _group(name: str) -> str:
    """The metric group a span name feeds (several functions may share one)."""
    return {
        "mesh.refine_uniform": "mesh.build_unit_square",
        "assembly.norm_V": "assembly.norm_H",
        "assembly.norm_R": "assembly.norm_H",
        "assembly.norms": "assembly.norm_H",
    }.get(name, name)


def layer_metrics(spans: list[list], lo: int, hi: int) -> tuple[dict, dict]:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one pass).

    Time sums count only the outermost span of a group, so a function that
    calls another of its group is not counted twice.  Returns the metrics
    and, per span name, the summed time of each child name.
    """
    dur = defaultdict(float)  # outermost time per group
    calls = defaultdict(int)
    self_by_layer = defaultdict(float)
    children = defaultdict(lambda: defaultdict(float))
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        rec = spans[i]
        p = rec[PARENT]
        if p >= lo:
            child_time[p - lo] += rec[END] - rec[START]
            children[spans[p][NAME]][rec[NAME]] += rec[END] - rec[START]
    iters = sweeps = node_updates = nnz = errors = 0
    opt_iters = state_solves_in_opt = opt_calls = 0
    for i in range(lo, hi):
        rec = spans[i]
        name, d = rec[NAME], rec[END] - rec[START]
        layer = name.split(".", 1)[0]
        self_by_layer[layer] += d - child_time[i - lo]
        g = _group(name)
        p = rec[PARENT]
        parent = spans[p] if p >= 0 else None
        if parent is None or _group(parent[NAME]) != g:
            dur[g] += d
            calls[g] += 1
        info = rec[INFO]
        if isinstance(info, dict):
            if layer == "vi_solver" and (parent is None or not parent[NAME].startswith("vi_solver.")):
                errors += 1
            continue
        if name == "vi_solver.solve_active_set":
            iters += info
        elif name == "vi_solver.solve_psor":
            sweeps += info[0]
            node_updates += info[0] * info[1]
        elif name == "vi_solver.lu_factor":
            nnz += info
        elif name == "control.optimize":
            opt_iters += info
            opt_calls += 1
        if name in ("vi_solver.solve_active_set", "vi_solver.solve_psor"):
            q = p
            while q >= 0 and spans[q][NAME] != "control.optimize":
                q = spans[q][PARENT]
            if q >= 0:
                state_solves_in_opt += 1

    factors, solves = calls["vi_solver.lu_factor"], calls["vi_solver.lu_solve"]
    m = {
        "mesh.build_s": dur["mesh.build_unit_square"],
        "mesh.interpolate_s": dur["mesh.interpolate"],
        "mesh.interpolate_calls": calls["mesh.interpolate"],
        "mesh.prolongate_s": dur["mesh.prolongate"],
        "mesh.prolongate_calls": calls["mesh.prolongate"],
        "assembly.assemble_s": dur["assembly.assemble"],
        "assembly.assemble_calls": calls["assembly.assemble"],
        "assembly.norm_s": dur["assembly.norm_H"],
        "assembly.norm_calls": calls["assembly.norm_H"],
        "vi_solver.build_problem_s": dur["vi_solver.build_vi_problem"],
        "vi_solver.build_problem_calls": calls["vi_solver.build_vi_problem"],
        "vi_solver.active_set_s": dur["vi_solver.solve_active_set"],
        "vi_solver.active_set_calls": calls["vi_solver.solve_active_set"],
        "vi_solver.active_set_iters": iters,
        "vi_solver.active_set_self_s": sum(
            spans[i][END] - spans[i][START] - child_time[i - lo]
            for i in range(lo, hi) if spans[i][NAME] == "vi_solver.solve_active_set"),
        "vi_solver.lu_factor_s": dur["vi_solver.lu_factor"],
        "vi_solver.lu_factor_count": factors,
        "vi_solver.lu_factor_nnz": nnz,
        "vi_solver.lu_solve_s": dur["vi_solver.lu_solve"],
        "vi_solver.lu_solve_count": solves,
        "vi_solver.factor_reuse_ratio": 1.0 - factors / solves if solves else 0.0,
        "vi_solver.adjoint_s": dur["vi_solver.adjoint_lift"],
        "vi_solver.adjoint_calls": calls["vi_solver.adjoint_lift"],
        "vi_solver.psor_s": dur["vi_solver.solve_psor"],
        "vi_solver.psor_sweeps": sweeps,
        "vi_solver.psor_node_updates": node_updates,
        "vi_solver.errors": errors,
        "control.optimize_s": dur["control.optimize"],
        "control.optimize_iters": opt_iters,
        "control.backtracks": state_solves_in_opt - opt_calls - opt_iters,
        "control.conjecture_s": dur["control.check_open_problems"],
        "control.self_s": self_by_layer["control"],
        "convergence.diagram_s": dur["convergence.diagram"],
        "convergence.self_s": self_by_layer["convergence"],
        "cli.command_s": dur["cli.main"],
        "cli.self_s": self_by_layer["cli"],
    }
    return m, {k: dict(v) for k, v in children.items()}
