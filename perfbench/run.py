"""hybridcert benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload mg-loop --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh single-threaded child processes one at a
time: SETUP_SAMPLES - 1 that only set up (for the median set-up time), then
one that times the workload (``--trace 0``) or traces it (``--trace 1``).
The second-to-last stdout line is a JSON record of the run (versions, load,
per-op times, counts, digests, problems); the last line is the result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mg-loop", "ball-sweep", "ball-certify")
SETUP_SAMPLES = 5
CHILD_GRACE_S = 120.0
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def run_child(mode, workload, seed, seconds, work_dir):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
           str(seed), repr(float(seconds)), work_dir]
    env = dict(os.environ, **SINGLE_THREAD)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=seconds + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s child timed out" % mode) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s child exited %d" % (mode, proc.returncode))
    return json.loads(lines[-1])


def host():
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def summarize(ops):
    """attempted, failed and the per-op record kept in the run record."""
    attempted = failed = 0
    record = {}
    for name, recs in ops.items():
        attempted += len(recs)
        failed += sum(1 for r in recs if r["problems"])
        record[name] = {
            "seeded": recs[0]["seeded"],
            "seconds": [r["seconds"] for r in recs],
            "ref_s": [r["ref_s"] for r in recs],
            "counts": recs[0]["counts"],
            "digests": recs[0]["digests"],
            "traced": recs[-1]["traced"],
            "problems": [p for r in recs for p in r["problems"]],
        }
    return attempted, failed, record


def bench(workload, seed, seconds, trace, work_dir):
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host_before": host()}
    if trace:
        child = run_child("trace", workload, seed, seconds, work_dir)
        metrics = child["per_layer"]
    else:
        children = [
            run_child("setup", workload, seed, seconds, work_dir)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        child = run_child("measure", workload, seed, seconds, work_dir)
        children.append(child)
        detail["setup_samples"] = [c["setup_s"] for c in children]
        detail["setup_ref_samples"] = [c["setup_ref_s"] for c in children]
        # the reference is timed right after each set-up, see child.py
        setups = [c["setup_scaled_s"] for c in children]
        detail["walls"] = child["walls"]
        detail["ref_s"] = child["ref_s"]
        detail["per_ref"] = child["per_ref"]
        # one pass in units of the reference computation timed around each
        # op: the host's speed changes for minutes at a time and moves both
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_per_ref": {
                "value": sum(child["per_ref"].values()), "unit": "ratio"
            },
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed, detail["ops"] = summarize(child["ops"])
    if not trace:
        metrics["pass_ratio"] = {
            "value": (attempted - failed) / attempted, "unit": "ratio"
        }
    detail["versions"] = child["versions"]
    detail["host_after"] = host()
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "hybridcert", "__init__.py")):
        print("perfbench: no src/hybridcert under %s" % ROOT, file=sys.stderr)
        return 2
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        detail, result = bench(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
