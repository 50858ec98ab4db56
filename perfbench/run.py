"""Benchmark for exact index computation with gsvindex (standard library only).

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (gsvindex is imported from src/).
Each workload is a closed loop with one client: a pass solves every input
of the workload once, one at a time, in a fresh interpreter (worker.py), so
nothing one pass computes can help the next. Passes repeat until the next
one would end after --seconds (at least MIN_PASSES when time allows).
Every answer is checked against oracle.py, which shares no code with
gsvindex. Without --workload all workloads run in turn.

--trace 0 reports the end-to-end metrics (medians over passes; times in
reference seconds, see refclock.py):
  setup_s      import gsvindex + build or write the inputs (median over
               the passes and SETUP_SAMPLES extra set-up-only starts)
  pass_s       wall time to solve every input once
  top_solve_s  solve time of the input with the largest dim B0
  peak_rss_mb  peak resident memory of the pass's process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.METRICS (medians over the traced passes) plus
trace.overhead_pct, traced against untraced pass_s.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics. An operation fails when it raises or exits with an
error; it is wrong, which also makes correct false, when it returns an
answer the checks reject.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 5
RUN_CAP_S = 150  # stop adding passes past this, whatever MIN_PASSES says
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("top_solve_s", "s"),
              ("peak_rss_mb", "MB"))


def commit_of(root):
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(root, workdir, ops, *, setup_only=False, trace=False):
    job = {"src": str(root / "src"), "workdir": str(workdir), "ops": ops,
           "setup_only": setup_only, "trace": trace}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=root, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(checker, passes):
    """(attempted, failed, correct, notes) over every op of every pass.

    An op that raised or exited with an error is failed; one whose answer
    the checks reject is failed and makes correct false.
    """
    attempted = failed = 0
    correct = True
    notes = set()
    for p in passes:
        for r in p["ops"]:
            attempted += 1
            status, detail = checker.verdict(r["name"], r["answer"])
            if status != workloads.OK:
                failed += 1
                correct = correct and status != workloads.WRONG
                notes.add(f"{status}: {r['name']}: {detail}")
    return attempted, failed, correct, sorted(notes)


def run_workload(root, name, seed, seconds, trace):
    ops, expect = workloads.build(name, seed)
    top = next(op["name"] for op in ops if op["top"])
    checker = workloads.Checker(expect)
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run_child(root, workdir, ops, setup_only=True)  # fills the bytecode cache
        setups = [run_child(root, workdir, ops, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        plain, traced = [], []
        began = perf_counter()
        while True:
            t0 = perf_counter()
            plain.append(run_child(root, workdir, ops))
            if trace:
                traced.append(run_child(root, workdir, ops, trace=True))
            elapsed, last = perf_counter() - began, perf_counter() - t0
            short = len(plain) < (1 if trace else MIN_PASSES) \
                and elapsed + last <= RUN_CAP_S
            if not short and elapsed + last > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed, correct, notes = tally(checker, plain + traced)
    med = statistics.median
    e2e = {
        "setup_s": med(setups + [p["setup_s"] for p in plain]),
        "pass_s": med(p["pass_s"] for p in plain),
        "top_solve_s": med(next(r["seconds"] for r in p["ops"] if r["name"] == top)
                           for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }
    result = {"workload": name, "passes": len(plain), "top": top, "e2e": e2e,
              "wall_pass_s": med(p["wall_pass_s"] for p in plain),
              "attempted": attempted, "failed": failed, "correct": correct,
              "notes": notes}
    if trace:
        result["layers"] = {m: med(p["layers"][m] for p in traced)
                            for m in traced[0]["layers"]}
        result["top_layers"] = {m: med(p["top_layers"][m] for p in traced)
                                for m in traced[0]["top_layers"]}
        traced_pass = med(p["pass_s"] for p in traced)
        result["layers"]["trace.overhead_pct"] = 100 * (traced_pass / e2e["pass_s"] - 1)
        result["traced_pass_s"] = traced_pass
        result["absent"] = traced[0]["absent"]
    return result


def report(result, trace, stamp):
    """Print the human-readable lines, then the JSON result line."""
    name = result["workload"]
    print(f"== {name}  passes={result['passes']}  top={result['top']}  "
          f"stamp={json.dumps(stamp, sort_keys=True)}")
    for note in result["notes"]:
        print(f"  {note}")
    if trace:
        units = {m: unit for m, _, unit, _ in tracer.METRICS}
        units["trace.overhead_pct"] = "%"
        print(f"  {'layer metric':32} {'pass':>12} {'top input':>12}")
        for m, value in result["layers"].items():
            top = result["top_layers"].get(m, "")
            top = f"{top:12.4f}" if isinstance(top, float) else f"{top!s:>12}"
            print(f"  {m:32} {value:12.4f} {top} {units[m]}")
        print(f"  untraced pass_s {result['e2e']['pass_s']:.4f} s, traced "
              f"{result['traced_pass_s']:.4f} s")
        if result["absent"]:
            print(f"  absent (reported as 0): {', '.join(result['absent'])}")
        metrics = {m: {"value": v, "unit": units[m]} for m, v in result["layers"].items()}
    else:
        for m, unit in END_TO_END:
            print(f"  {m:12} {result['e2e'][m]:.6f} {unit}")
        print(f"  (pass_s is in reference seconds; median wall time of a pass "
              f"{result['wall_pass_s']:.4f} s)")
        metrics = {m: {"value": result["e2e"][m], "unit": unit} for m, unit in END_TO_END}
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gsvindex" / "__init__.py").is_file():
        print(f"error: no src/gsvindex under {root}; run from the root of a "
              "gsvindex checkout", file=sys.stderr)
        return 2
    stamp = {"commit": commit_of(root), "python": platform.python_version(),
             "cpu_count": os.cpu_count(), "seed": args.seed}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        report(run_workload(root, name, args.seed, args.seconds, bool(args.trace)),
               bool(args.trace), stamp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
