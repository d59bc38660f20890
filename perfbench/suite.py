"""Run every workload, each in a fresh process, and print one summary.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace]

Without ``--trace`` it prints, per workload, the end-to-end metrics
setup_s, wall_s, peak_rss_mb and fail_frac with unit and sample count, plus
the self-test of the failure accounting.  Workloads, run length and units
come from ``BENCHMARK.json``.  With ``--trace`` it also runs the
traced pass of each workload, prints every per-layer metric side by side,
and checks where the layers' work lands:

* vi_solver.psor_s is non-zero only on psor-coarse;
* vi_solver.lu_factor is the largest child of vi_solver.solve_active_set on
  state-fine;
* vi_solver.factor_reuse_ratio is higher on control-lattice than on
  random-controls.

The exit code is 1 when a run fails, reports a wrong answer, or a
placement check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
    detail = json.loads(next(ln for ln in lines if ln.startswith("# detail "))[9:])
    return json.loads(lines[-1]), detail


def placement(traced: dict) -> list[tuple[str, bool]]:
    def metric(w, name):
        return traced[w][0]["metrics"][name]["value"]

    kids = traced["state-fine"][1]["children"].get("vi_solver.solve_active_set", {})
    return [
        ("vi_solver.psor_s non-zero only on psor-coarse",
         all((metric(w, "vi_solver.psor_s") > 0) == (w == "psor-coarse") for w in traced)),
        ("vi_solver.lu_factor is the largest child of solve_active_set on state-fine",
         bool(kids) and max(kids, key=kids.get) == "vi_solver.lu_factor"),
        ("factor_reuse_ratio higher on control-lattice than on random-controls",
         metric("control-lattice", "vi_solver.factor_reuse_ratio")
         > metric("random-controls", "vi_solver.factor_reuse_ratio")),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    ok = True

    print(f"{'workload':16} {'metric':12} {'value':>12} {'unit':6} samples")
    self_test = None
    for w in WORKLOADS:
        res, detail = run(w, args.seed, args.seconds, 0)
        self_test = detail["self_test"]
        rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        rows.append(("fail_frac", detail["fail_frac"], "ratio"))
        for name, value, unit in rows:
            print(f"{w:16} {name:12} {value:12.4f} {unit:6} {detail['samples'][name]}")
        print(f"{w:16} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for f in detail["failures"][:3]:
            print(f"{'':16}   {f}")
        ok = ok and res["correct"]
    print(f"self-test: {' '.join(self_test['argv'])} -> exit {self_test['exit']}, "
          f"fail_frac {self_test['fail_frac']}")
    print("machine:", json.dumps(detail["machine"]))
    print("times are in reference seconds (see run.py); raw seconds are in each run's detail")

    if args.trace:
        traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}
        names = list(traced[WORKLOADS[0]][0]["metrics"])
        print(f"\n{'per-layer metric':32} {'unit':6}" + "".join(f"{w:>17}" for w in WORKLOADS))
        for name in names:
            unit = traced[WORKLOADS[0]][0]["metrics"][name]["unit"]
            vals = "".join(f"{traced[w][0]['metrics'][name]['value']:17.6g}" for w in WORKLOADS)
            print(f"{name:32} {unit:6}{vals}")
        print("\nexact counts repeat between the traced passes of each input set; "
              "lu_factor_nnz is a computed size (SuperLU.nnz), not measured bytes")
        for name, holds in placement(traced):
            print(f"{'PASS' if holds else 'FAIL'}: {name}")
            ok = ok and holds
        ok = ok and all(res["correct"] for res, _ in traced.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
