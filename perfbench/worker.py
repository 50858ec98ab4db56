"""One pass of a workload in a fresh interpreter: set up, then solve each input once.

Reads a JSON job on stdin: {"src", "workdir", "ops", "setup_only", "trace"}.
Prints one JSON object: setup_s, pass_s, peak_rss_mb and, per op, its
solve time and answer (or the error it raised). With trace, also the
per-layer metrics of the pass and of its top op. Times are reference
seconds (refclock.py); wall_pass_s is the unscaled wall time of the pass.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

import refclock


def peak_rss_mb():
    """High-water resident size of this process.

    VmHWM belongs to this process's own address space; ru_maxrss would also
    carry the parent's high-water mark across fork and exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    job = json.load(sys.stdin)
    clock = refclock.RefClock()
    clock.start()
    start = perf_counter()
    sys.path.insert(0, job["src"])
    import gsvindex
    import gsvindex.cli

    inputs = []
    for op in job["ops"]:
        if op["kind"] == "tangent":
            v = tuple(op["vars"])
            parse = lambda s: gsvindex.parse_poly(s, v)
            rows = [[parse(c) for c in row] for row in op["C"]]
            C = gsvindex.PolyMatrix(len(rows), len(rows[0]), [c for r in rows for c in r])
            inputs.append(gsvindex.Problem(
                vars=v, f=tuple(map(parse, op["f"])), X=tuple(map(parse, op["X"])),
                C=C, field=op["field"]))
        elif op["kind"] == "map":
            v = tuple(op["vars"])
            inputs.append([gsvindex.parse_poly(s, v) for s in op["g"]])
        else:
            path = f"{job['workdir']}/{op['file']}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op["text"])
            inputs.append(["compute", path, *op["args"]])
    setup_end = perf_counter()
    if job["setup_only"]:
        clock.stop()
        print(json.dumps({"setup_s": clock.span(start, setup_end)}))
        return

    tracer = None
    if job["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    results, times = [], []
    top_root = None
    loop_start = perf_counter()
    for op, inp in zip(job["ops"], inputs):
        span = tracer.span(op["name"]) if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        with span:
            try:
                answer = solve(gsvindex, op["kind"], inp, op.get("fseed"))
            except Exception as exc:  # a failed operation, counted by the caller
                answer = {"error": f"{type(exc).__name__}: {exc}"}
        times.append((t0, perf_counter()))
        if op["top"] and tracer:
            top_root = span.index
        results.append({"name": op["name"], "answer": answer})
    loop_end = perf_counter()
    clock.stop()

    for r, (t0, t1) in zip(results, times):
        r["seconds"] = clock.span(t0, t1)
    out = {"setup_s": clock.span(start, setup_end),
           "pass_s": clock.span(loop_start, loop_end),
           "wall_pass_s": loop_end - loop_start,
           "peak_rss_mb": peak_rss_mb(), "ops": results}
    if tracer:
        for rec in tracer.spans:  # span times in reference seconds too
            rec[2], rec[3] = clock.at(rec[2]), clock.at(rec[3])
        out["layers"] = tracer.metrics()
        out["top_layers"] = tracer.metrics(root=top_root)
        out["absent"] = tracer.absent_metrics()
        out["absent_targets"] = tracer.absent
    print(json.dumps(out))


def solve(gsvindex, kind, inp, fseed):
    """Run one op through the public API and return its answer as plain data."""
    if kind == "tangent":
        rep = gsvindex.real_gsv_index(inp, seed=fseed)
        s = rep.signature
        return {"dim_B0": rep.dim_B0, "dim_B0_mod_DF": rep.dim_B0_mod_DF,
                "dim_C0": rep.dim_C0, "index": rep.index,
                "sig": [s.p_plus, s.p_minus, s.rank]}
    if kind == "map":
        dim = gsvindex.poincare_hopf_complex(inp)
        index, s = gsvindex.eisenbud_levine_index(inp)
        return {"dim": dim, "index": index, "sig": [s.p_plus, s.p_minus, s.rank]}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gsvindex.cli.main(inp)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    main()
