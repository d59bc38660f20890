"""Benchmark of the vicontrol CLI: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The process caps BLAS/OpenMP threads at the CPU count, imports
vicontrol, runs one warm-up and a self-test of the failure accounting, then
calls ``vicontrol.cli.main(argv)`` in-process for each command of the
workload, one pass per seeded input set, round robin, until ``--seconds``
have passed and every input set has run its minimum number of passes.
Every command is checked: it must exit 0 and its output files must pass
the workload's output check (repeats of an input must write
byte-identical files).

Timings are affected by the speed of the machine, which on a shared
virtual machine can change by a factor of two for minutes at a time.  So
before the first timed pass and after every one the process times a fixed
reference task (``Clock``: SuperLU solves that use no vicontrol code), and
pass times are reported in *reference seconds*: measured seconds times
``REF_NOMINAL_S`` over the mean of the two reference samples around the
pass.  On a machine where a sample takes ``REF_NOMINAL_S`` they equal wall
seconds.  Set-up times are scaled the same way against child processes
that import numpy and scipy (``setup_samples``).  The raw seconds and the
reference samples are in the detail line.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh child processes of the time from process
  start to the end of the warm-up;
* ``wall_s``: time of one pass, median over the timed passes of an input
  set (each input set gets at least ``MIN_PASSES``), mean over the input
  sets.  The timed passes follow one untimed pass of the first input set;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after that untimed pass,
  so it covers a fixed amount of the program's own work.

``--trace 1``, after the untimed pass, runs one untraced pass of the first
input set, then at least two traced passes of every input set, and
reports the per-layer metrics (``spans.layer_metrics``) aggregated the
same way as ``wall_s``; the exact counts must repeat between the traced
passes of an input set.
Spans are written to ``perfbench/out/``.

The last line of standard output is the JSON result; the line before it,
starting with ``# detail``, carries the sample counts, the failure fraction
(``fail_frac``), the failures, the machine record and the inputs.  The
exit code is non-zero, with no result, when the source tree is missing or
the self-test fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
IMPORTS = "numpy, scipy.linalg, scipy.sparse.linalg"  # what vicontrol imports from outside
# Nominal reference times, measured on an unloaded 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4, scipy 1.17): a Clock sample, and importing IMPORTS in a fresh process.
REF_NOMINAL_S, IMPORT_NOMINAL_S = 0.013, 0.45
MIN_PASSES = 2  # timed passes per input set; two traced passes let counts be compared
TYPED_EXITS = (2, 3, 4)  # documented CLI error codes: a refusal, not a wrong answer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _prepare_process():
    """Cap native threads and make ``src/`` importable; both before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    if not (SRC / "vicontrol" / "cli.py").is_file():
        sys.exit(f"perfbench: no vicontrol source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    return nproc


class Clock:
    """Reference times taken before the first timed pass and after every one.

    The reference task factorizes and solves a 2-D Laplacian with SuperLU
    (``splu``, as vicontrol does) but uses no vicontrol code, so a change
    to the program cannot change it.  One sample is the median of five
    such solves, which drops the short bursts of a shared machine; a pass
    is scaled by the mean of the samples on either side of it.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60))
        self._a = (sp.kron(sp.eye(60), t) + sp.kron(t, sp.eye(60))).tocsc()
        self._b = np.ones(3600)
        self._solve_s()  # the first call also pays for first-use set-up
        self.refs = [self._sample()]

    def _solve_s(self) -> float:
        from scipy.sparse.linalg import splu

        t0 = time.perf_counter()
        splu(self._a).solve(self._b)
        return time.perf_counter() - t0

    def _sample(self) -> float:
        return statistics.median(self._solve_s() for _ in range(5))

    def scaled(self, raw: float) -> float:
        """``raw`` seconds of the pass that ended now, in reference seconds."""
        self.refs.append(self._sample())
        return raw * REF_NOMINAL_S * 2.0 / (self.refs[-2] + self.refs[-1])


def _machine(nproc: int) -> dict:
    import importlib.util

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


class Outcome(NamedTuple):
    code: int | None  # None when the command raised instead of returning
    message: str


def run_command(argv: list[str], out_dir: Path) -> Outcome:
    """One CLI command in-process; stderr is captured for the failure record."""
    from vicontrol import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--out", str(out_dir)])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # a crash is recorded as a failed command
            return Outcome(None, f"{type(exc).__name__}: {exc}")
    return Outcome(code, err.getvalue().strip())


class Tally:
    """Attempted and failed commands, and whether any answer was wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def record(self, argv, outcome: Outcome, check_error: str | None):
        self.attempted += 1
        if outcome.code == 0 and check_error is None:
            return
        self.failed += 1
        if outcome.code == 0 or outcome.code not in TYPED_EXITS:
            self.correct = False  # a wrong answer or a crash, not a typed refusal
        reason = check_error if outcome.code == 0 else f"exit {outcome.code}: {outcome.message}"
        if len(self.failures) < 20:
            self.failures.append(f"{' '.join(argv)} -> {reason}")


def warm_up(work: Path):
    from workloads import WARM_UP

    if run_command(list(WARM_UP), work / "warm-up").code != 0:
        sys.exit("perfbench: warm-up command failed")


def self_test(work: Path):
    """The accounting must count an invalid invocation (exit 2) as failed."""
    from workloads import SELF_TEST

    tally = Tally()
    argv = list(SELF_TEST)
    outcome = run_command(argv, work / "self-test")
    tally.record(argv, outcome, None)
    if outcome.code != 2 or tally.failed != 1 or tally.attempted != 1:
        sys.exit(f"perfbench: self-test not counted as a failure (exit {outcome.code})")
    return {"argv": argv, "exit": outcome.code, "fail_frac": tally.failed / tally.attempted}


def _child_s(argv: list[str], expect: str) -> float:
    """Seconds from starting a child process to its first line of output."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != expect:
        sys.exit(f"perfbench: child process {argv[1:]} failed")
    return elapsed


def setup_samples(n: int) -> tuple[list[float], list[float], list[float]]:
    """Set-up times in fresh child processes: (scaled, raw, reference), n of each.

    Set-up is mostly importing numpy and scipy, and its time follows the
    machine's speed for that kind of work, not the ``Clock`` reference.
    So each set-up child is paired with a reference child that imports
    what vicontrol imports from outside, and each set-up time is scaled
    by ``IMPORT_NOMINAL_S`` over its pair's reference time.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    ref = [sys.executable, "-c", f"import {IMPORTS}; print('ready')"]
    raw, refs = [], []
    for _ in range(n):
        raw.append(_child_s(probe, "ready"))
        refs.append(_child_s(ref, "ready"))
    return [s * IMPORT_NOMINAL_S / r for s, r in zip(raw, refs)], raw, refs


def _input_mean(samples: list[tuple[int, float]]) -> float:
    """Median over the passes of each input set, then the mean over input sets."""
    by_input: dict[int, list[float]] = {}
    for k, v in samples:
        by_input.setdefault(k, []).append(v)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def _schedule(n_inputs: int, seconds: float, trace: bool, start: float, raw_walls: list):
    """Input index and traced flag of each pass, round robin over the input sets.

    Every input set gets its minimum number of passes; after that passes go
    on while the next one is expected to end within ``seconds``.  A traced
    run begins with one untraced pass of input 0, for ``trace.overhead_s``.
    """
    if trace:
        yield 0, False
    minimum = n_inputs * MIN_PASSES
    p = 0
    while p < minimum or time.perf_counter() - start + raw_walls[-1] < seconds:
        yield p % n_inputs, trace
        p += 1


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from spans import EXACT_COUNTS, Tracer, layer_metrics
    from workloads import OutputChecker, output_digest, render, seeded_inputs

    inputs = seeded_inputs(workload, seed)
    commands = [[render(t, inp) for t in workload.commands] for inp in inputs]
    checker, tally, tracer = OutputChecker(), Tally(), Tracer()
    digests: dict = {}

    def run_pass(name: str, k: int, traced: bool) -> tuple[float, float, int]:
        """Every command of input set k, checked: (seconds, CPU seconds, bytes written)."""
        pass_dir = work / name
        ctx = tracer.active() if traced else contextlib.nullcontext()
        outcomes = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with ctx:
            for j, argv in enumerate(commands[k]):
                tracer.run_id = f"{k}.{j}.{name}"
                outcomes.append(run_command(argv, pass_dir / str(j)))
        raw = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        written = 0
        for j, (argv, outcome) in enumerate(zip(commands[k], outcomes)):
            error = None
            if outcome.code == 0:
                out_dir = pass_dir / str(j)
                written += sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
                digest = output_digest(out_dir)
                if (k, j) not in digests:  # first output of this input: full check
                    digests[k, j] = digest
                    error = checker.check(argv, out_dir)
                elif digests[k, j] != digest:
                    error = "output differs from an earlier run of the same input"
            tally.record(argv, outcome, error)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return raw, cpu, written

    # An untimed first pass of input set 0, before the reference task
    # allocates anything: it warms up the workload's own code paths, and
    # peak_rss_mb read after it covers a fixed amount of the program's work.
    run_pass("first", 0, False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    clock = Clock()
    walls, raw_walls, layers, children = [], [], [], {}
    untraced_first = None
    start = time.perf_counter()
    for p, (k, traced) in enumerate(_schedule(len(inputs), seconds, trace, start, raw_walls)):
        lo = len(tracer.spans)
        raw, cpu, written = run_pass(f"pass{p}", k, traced)
        wall = clock.scaled(raw)
        if trace and not traced:
            untraced_first = wall
            continue
        walls.append((k, wall))
        raw_walls.append(raw)
        if traced:
            m, ch = layer_metrics(tracer.spans, lo, len(tracer.spans))
            m["cli.bytes_written"] = written
            m["process.cpu_s"] = cpu
            scale = wall / raw  # layer times in the pass's reference seconds
            layers.append((k, {n: v * scale if UNITS[n] == "s" else v for n, v in m.items()}))
            for parent, kids in ch.items():
                for kid, t in kids.items():
                    children.setdefault(parent, {}).setdefault(kid, []).append(t * scale)
    result = {"tally": tally, "passes": len(walls), "inputs": commands,
              "pass_inputs": [k for k, _ in walls], "raw_walls": [round(w, 4) for w in raw_walls],
              "reference_s": clock.refs, "wall_s": _input_mean(walls),
              "peak_rss_mb": peak_rss_mb}
    if trace:
        metrics = {name: _input_mean([(k, m[name]) for k, m in layers]) for name in layers[0][1]}
        metrics["trace.overhead_s"] = statistics.median(
            w for k, w in walls if k == 0) - untraced_first
        result["layers"] = metrics
        result["exact_counts"] = _exact_counts(layers, EXACT_COUNTS, tally)
        result["children"] = {p: {c: sum(v) / len(layers) for c, v in kids.items()}
                              for p, kids in children.items()}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


def _exact_counts(layers, keys, tally) -> dict:
    """Counts per input set, which must agree between its traced passes."""
    per_input: dict[int, dict] = {}
    repeats = {}
    for k, m in layers:
        row = {c: m[c] for c in keys}
        if k in per_input:
            repeats[k] = repeats.get(k, 0) + 1
            if per_input[k] != row:
                tally.correct = False
                tally.failures.append(f"counts of input {k} differ between passes: "
                                      f"{per_input[k]} != {row}")
        else:
            per_input[k] = row
    if set(repeats) != set(per_input):
        tally.correct = False
        tally.failures.append("an input set has no repeated traced pass to compare counts")
    return {str(k): v for k, v in sorted(per_input.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    nproc = _prepare_process()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        import vicontrol  # noqa: F401  (timed as part of set-up)

        warm_up(work)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        selftest = self_test(work)
        setups, raw_setups, import_refs = setup_samples(SETUP_SAMPLES)
        res = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = res["tally"]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"setup_s": len(setups), "wall_s": res["passes"], "peak_rss_mb": 1,
                    "fail_frac": tally.attempted},
        "setup_samples": [round(s, 4) for s in setups],
        "raw_setup_s": [round(s, 4) for s in raw_setups],
        "import_reference_s": [round(s, 4) for s in import_refs],
        "raw_pass_s": res["raw_walls"],
        "pass_inputs": res["pass_inputs"],
        "reference_s": [round(r, 5) for r in res["reference_s"]],
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "self_test": selftest,
        "machine": _machine(nproc),
        "commands": res["inputs"],
    }
    if args.trace:
        values, names = res["layers"], SPEC["per_layer"]
        detail.update(exact_counts=res["exact_counts"], children=res["children"],
                      spans_file=res["spans_file"],
                      wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"])
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        names = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print("# detail " + json.dumps(detail))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
