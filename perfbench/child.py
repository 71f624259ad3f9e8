"""One fresh benchmark process: set up a workload, then time or trace it.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS WORK_DIR

MODE is ``setup`` (set up only), ``measure`` (an untimed warm-up iteration,
then untraced iterations until SECONDS have passed, at least MIN_ITERATIONS,
with the reference computation timed around every op) or ``trace`` (one
untraced and one traced iteration).  The last line of stdout is one JSON
object.  The set-up clock starts before numpy or hybridcert is imported, so
set-up time covers the import and the study or scenario construction.
"""

import json
import os
import sys
import time

T0 = time.perf_counter()

import gc  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

MIN_ITERATIONS = 3
# size of the reference computation, and its time on the 2-CPU x86-64 VM
# the benchmark was built on when that host was in its fast state
REF_RK4_STEPS = 1600
REF_INT_LOOP = 120000
REF_NOMINAL_S = 0.025

# span name -> reported fields; every name is reported on every workload
SPAN_FIELDS = (
    ("geometry.contains", ("calls", "self_s")),
    ("geometry.dist_to_set", ("calls", "self_s")),
    ("hybrid.flow", ("calls", "self_s")),
    ("hybrid.jump_candidates", ("calls", "self_s")),
    ("hybrid.arc_to_csv", ("total_s",)),
    ("expressions.eval", ("calls", "self_s")),
    ("simulate.solve", ("calls", "self_s", "total_s")),
    ("simulate.closeness", ("total_s",)),
    ("simulate.construct_perturbed", ("total_s",)),
    ("controller.qp_policy", ("calls", "self_s")),
    ("controller.solve_qp", ("calls", "self_s")),
    ("controller.admissible_constraints", ("calls", "self_s")),
    ("certificates.check_pair_VB", ("self_s", "total_s")),
    ("certificates.field", ("calls", "self_s")),
    ("certificates.gradient", ("calls", "self_s")),
    ("monitor.check_ras", ("self_s", "total_s")),
    ("monitor.estimate_invariant_core", ("self_s", "total_s")),
    ("cli.parse_scenario", ("total_s",)),
    ("cli.write_csv_rows", ("total_s",)),
    ("cli.write_json", ("total_s",)),
    ("examples.mg_closed_loop", ("total_s",)),
)
COUNTERS = (
    ("simulate.samples", "count"),
    ("simulate.jumps", "count"),
    ("certificates.grid_points", "count"),
)
OPS = ("mg_example", "ras_check", "invariant_core", "pair_check", "closeness")
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for span, fields in SPAN_FIELDS:
        for f in fields:
            units["%s.%s" % (span, f)] = FIELD_UNITS[f]
    for name, unit in COUNTERS:
        units[name] = unit
    units["simulate.flow_evals_per_sample"] = "ratio"
    units["controller.qp_per_decision"] = "ratio"
    units["monitor.solves_per_point"] = "ratio"
    units["cli.bytes_written"] = "bytes"
    units["trace.overhead_s"] = "s"
    for op in OPS:
        units["op.%s_s" % op] = "s"
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def reference():
    """A fixed computation that uses no hybridcert code: RK4 steps of a
    small numpy vector in a Python loop, then a Python integer loop, the
    two kinds of work the program's inner loops do.  Its time tracks the
    host's speed, which alternates between a fast and a slow state."""
    import numpy as np

    def f(x):
        return np.array([x[1], -x[0] - 0.1 * x[1], x[0] * x[1]])

    x, h = np.array([0.3, -0.2, 0.1]), 1e-3
    for _ in range(REF_RK4_STEPS):
        k1 = f(x)
        k2 = f(x + h / 2 * k1)
        k3 = f(x + h / 2 * k2)
        k4 = f(x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    s = 0
    for i in range(REF_INT_LOOP):
        s += i * i % 7
    return x, s


def time_reference():
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def run_iteration(wl, state, work_dir, tracer=None, with_ref=False):
    """Time every op of the workload once, then check each output.

    With ``with_ref`` the reference computation is timed before the first
    op and after every op, and each op's record gets ``ref_s``, the mean of
    the two reference times around it.  With a tracer the ops run patched
    and per-op tracer deltas are kept; checks always run unpatched and
    untimed.
    """
    gc.collect()
    pending = []
    ref = time_reference() if with_ref else None
    for op in wl.ops:
        out_dir = tempfile.mkdtemp(dir=work_dir)
        before = tracer.snapshot() if tracer else {}
        if tracer:
            tracer.install()
        t = time.perf_counter()
        try:
            result, error = op.call(state, out_dir), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t
        if tracer:
            tracer.restore()
        delta = {}
        if tracer:
            after = tracer.snapshot()
            delta = {k: v - before.get(k, 0) for k, v in after.items()}
        ref_s = None
        if with_ref:
            ref_before, ref = ref, time_reference()
            ref_s = (ref_before + ref) / 2.0
        pending.append((op, out_dir, result, error, elapsed, delta, ref_s))

    records = {}
    for op, out_dir, result, error, elapsed, delta, ref_s in pending:
        counts, digests, problems = {}, {}, []
        if error is not None:
            problems.append(error)
        else:
            try:
                outcome = op.check(state, out_dir, result)
                counts, digests = outcome.counts, outcome.digests
                problems = list(outcome.problems)
            except Exception:
                problems.append(traceback.format_exc(limit=3))
        if tracer:
            for count, key in op.trace_keys.items():
                if counts.get(count) != delta.get(key, 0):
                    problems.append(
                        "traced %s=%r but output gives %s=%r"
                        % (key, delta.get(key, 0), count, counts.get(count))
                    )
        shutil.rmtree(out_dir)
        records[op.name] = {
            "seeded": op.seeded,
            "seconds": elapsed,
            "ref_s": ref_s,
            "counts": counts,
            "digests": digests,
            "problems": problems,
            "traced": delta,
        }
    return records


def layer_metrics(tracer, untraced, traced):
    spans, counters = tracer.spans, tracer.counters
    out = {}
    for span, fields in SPAN_FIELDS:
        calls, total, self_s = spans.get(span, (0, 0.0, 0.0))
        values = {"calls": calls, "self_s": self_s, "total_s": total}
        for f in fields:
            out["%s.%s" % (span, f)] = values[f]
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)

    def calls(span):
        return spans.get(span, (0,))[0]

    out["simulate.flow_evals_per_sample"] = _ratio(
        counters.get("simulate.flow_in_solve", 0),
        counters.get("simulate.samples", 0),
    )
    out["controller.qp_per_decision"] = _ratio(
        calls("controller.solve_qp"), calls("controller.qp_policy")
    )
    ras = traced.get("ras_check")
    out["monitor.solves_per_point"] = _ratio(
        ras["traced"].get("simulate.solve", 0) if ras else 0,
        ras["counts"].get("points", 0) if ras else 0,
    )
    out["cli.bytes_written"] = sum(
        r["counts"].get("bytes_written", 0) for r in traced.values()
    )
    out["trace.overhead_s"] = sum(r["seconds"] for r in traced.values()) - sum(
        r["seconds"] for r in untraced.values()
    )
    for op in OPS:
        out["op.%s_s" % op] = untraced[op]["seconds"] if op in untraced else 0.0
    units = per_layer_units()
    return {name: {"value": out[name], "unit": units[name]} for name in units}


def _drift(first, later):
    """Problems for counts or digests that changed between iterations."""
    out = []
    for key in ("counts", "digests"):
        if later[key] != first[key]:
            out.append("%s changed between iterations: %r -> %r"
                       % (key, first[key], later[key]))
    return out


def versions():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv):
    mode, name, seed, seconds, work_dir = argv
    seed, seconds = int(seed), float(seconds)

    import workloads

    wl = workloads.WORKLOADS[name]()
    state = wl.setup(seed, work_dir)
    setup_s = time.perf_counter() - T0
    setup_ref_s = statistics.median(time_reference() for _ in range(3))
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        # set-up seconds at the host speed on which the reference takes
        # REF_NOMINAL_S
        "setup_scaled_s": setup_s * REF_NOMINAL_S / setup_ref_s,
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    iterations = []
    if mode == "measure":
        # one untimed warm-up pass, then passes until SECONDS have gone by
        iterations.append(run_iteration(wl, state, work_dir))
        start = time.perf_counter()
        while True:
            iterations.append(
                run_iteration(wl, state, work_dir, with_ref=True)
            )
            walls = [sum(r["seconds"] for r in it.values())
                     for it in iterations[1:]]
            elapsed = time.perf_counter() - start
            if (len(walls) >= MIN_ITERATIONS
                    and elapsed + statistics.median(walls) > seconds):
                break
        timed = [it[op.name] for it in iterations[1:] for op in wl.ops]
        result["walls"] = walls
        result["ref_s"] = statistics.median(r["ref_s"] for r in timed)
        result["per_ref"] = {
            op.name: statistics.median(
                it[op.name]["seconds"] / it[op.name]["ref_s"]
                for it in iterations[1:]
            )
            for op in wl.ops
        }
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        untraced = run_iteration(wl, state, work_dir)
        traced = run_iteration(wl, state, work_dir, tracer)
        iterations = [untraced, traced]
        result["per_layer"] = layer_metrics(tracer, untraced, traced)
    else:
        raise SystemExit("unknown mode %r" % mode)

    for later in iterations[1:]:
        for op, rec in later.items():
            rec["problems"] += _drift(iterations[0][op], rec)
    result.update(
        ops={op.name: [it[op.name] for it in iterations] for op in wl.ops},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=versions(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
