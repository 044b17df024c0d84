"""wavekam benchmark: time to a verified reduction, sweep and CLI workloads.

    python3 perfbench/run.py --workload cli-configs --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``worker.py``) with BLAS and OpenMP threads pinned to 1.
``--trace 0`` prints the end-to-end metrics (``setup_s``, ``solve_s``,
``peak_rss_mb``); ``--trace 1`` runs the workload once untraced and once
traced, each for half of ``--seconds``, and prints the per-layer metrics,
the tracing overhead among them, after checking that tracing changed no
output.  The last line of standard
output is one JSON object; the full record goes to ``perfbench/out/``.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import OVERHEAD_METRIC, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIME_LIMIT = 170.0          # seconds for the whole run, all workers included
WORKLOADS = ("measure-sweep", "cli-configs")
# fresh processes whose set-up time is sampled; setup_s is their median
SETUP_SAMPLES = {"measure-sweep": 3, "cli-configs": 7}
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NOTES = [
    "kam-desk (run_pipeline + kam_run at OMEGA_REF, n0 = 12) is not a "
    "workload: one operation takes 60-65 s, more than a run's share of the "
    "benchmark's time budget; it would also be seed-independent, because "
    "the acceptance suite fixed OMEGA_REF as strongly non-resonant.",
    "kam-omegas (run_pipeline + kam_run at n0 = 4 on five seeded omega) is "
    "not a workload: over ten seeds its solve_s spread (interquartile range "
    "over median) was 0.27 on a 2-core shared box whose speed drifts by about "
    "20% over minutes, above the largest bound allowed, 0.25. Its layers run "
    "in cli-configs, and the desk pipeline in measure-sweep's set-up.",
]


class WorkerError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, setup_only=False, trace=0, seconds=None):
    """Start one worker, wait for it, return (result, setup_s)."""
    tag = f"{args.workload}-seed{args.seed}-trace{trace}-{os.getpid()}"
    result = OUT / f"worker-{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--trace", str(trace), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker passed the {TIME_LIMIT:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or not result.is_file():
        raise WorkerError(f"worker exited with code {rc}")
    data = json.loads(result.read_text())
    result.unlink()
    return data, data["setup_done"] - start


def source_digest():
    """sha256 over src/ and perfbench/ sources, for checkouts without git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".yaml") and OUT not in path.parents:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def environment(load):
    import numpy
    import scipy

    sha = ""
    if (ROOT / ".git").exists():  # not a parent directory's repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, capture_output=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "git_sha": sha or None, "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "loadavg_at_start": load,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_threads": {k: "1" for k in PINNED_THREADS},
    }


def timing_summary(ops):
    """Median of the passing operations, plus the highest percentile with at
    least ten samples beyond it, when there are enough samples."""
    times = sorted(op["seconds"] for op in ops if op["ok"])
    out = {"n": len(times), "median": statistics.median(times) if times else None}
    for q in (99.9, 99, 90):
        if len(times) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = times[int(len(times) * q / 100)]
            break
    return out


def failures(worker):
    items = worker["ops"] + worker["post"]
    return len(items), sum(not it["ok"] for it in items)


def end_to_end(args, deadline):
    setups = []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        _, s = run_worker(args, deadline, setup_only=True)
        setups.append(s)
    result, s = run_worker(args, deadline)
    setups.append(s)
    attempted, failed = failures(result)
    timing = timing_summary(result["ops"])
    solve = timing["median"]
    if solve is None:  # nothing passed: report what was measured
        solve = statistics.median(op["seconds"] or 0.0 for op in result["ops"])
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "solve_s": {"value": solve, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    record = {"setup_samples_s": setups, "solve": timing,
              "failed_frac": failed / attempted, "worker": result}
    return attempted, failed, metrics, record


def traced(args, deadline):
    # the untraced and the traced worker share the run's --seconds
    half = args.seconds / 2
    plain, _ = run_worker(args, deadline, seconds=half)
    traced_run, _ = run_worker(args, deadline, trace=1, seconds=half)
    # tracing must change no output: same operation, same digest
    for p, t in zip(plain["ops"], traced_run["ops"]):
        if p["digest"] != t["digest"]:
            t["ok"] = False
            t["errors"].append("outputs differ from the untraced run")
    attempted, failed = (sum(x) for x in zip(failures(plain),
                                             failures(traced_run)))
    t_plain = timing_summary(plain["ops"])["median"]
    t_traced = timing_summary(traced_run["ops"])["median"]
    values = dict(traced_run["trace"]["metrics"])
    values[OVERHEAD_METRIC] = (t_traced - t_plain
                               if None not in (t_plain, t_traced) else None)
    metrics, missing = {}, {}
    for name, unit in metric_units().items():
        metrics[name] = {"value": values.get(name), "unit": unit}
        if metrics[name]["value"] is None:
            reason = traced_run["trace"]["info"]["missing"].get(
                name, "no passing operation to compare")
            metrics[name]["missing"] = missing[name] = reason
    record = {"untraced": plain, "traced": traced_run, "missing": missing}
    return attempted, failed, metrics, record


def main(argv=None):
    load = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wavekam" / "__init__.py").is_file():
        print(f"no wavekam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = environment(load)
    try:
        run = traced if args.trace else end_to_end
        attempted, failed, metrics, record = run(args, deadline)
    except WorkerError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "environment": env,
            "notes": NOTES, "attempted": attempted, "failed": failed,
            "metrics": metrics, **record}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}"
              + (f" (missing: {m['missing']})" if "missing" in m else ""))
    if not args.trace:
        solve = record["solve"]
        tail = ", ".join(f"{k} {v:.4f} s" for k, v in solve.items()
                         if k.startswith("p"))
        print(f"{args.workload} solve_s: median of {solve['n']} passing "
              f"operations{'; ' + tail if tail else ''}; failed_frac "
              f"{record['failed_frac']:.3f} ({failed}/{attempted})")
    print(f"record: {path.relative_to(ROOT)}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
