"""chainmmse benchmark: timed, checked `chainmmse run` calls, one fresh process each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The
workload's config is generated from the seed (bench/workloads.py) and run
through `chainmmse.cli.main(["run", ...])` in fresh worker processes, one
after another, until S seconds have passed. Every results table is checked
(bench/check.py); failing rows are counted in `failed`.

--trace 0 reports the end-to-end metrics, medians over the workers.
trials_per_s is the rate of the `run` call scaled to a reference host speed:
each worker times a fixed calibration kernel (bench/calibrate.py) just before
and after its `run` call, and its rate is multiplied by the mean of the two
kernel times over calibrate.REF_S. The raw rate is printed beside it and kept
in the result file.

--trace 1 alternates untraced and traced workers and reports the per-layer
metrics: self time and calls of every wrapped public function, per-algorithm
build time, metered traffic beside its closed form, and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Worker outputs, spans
and a result file with the run manifest go to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check
from tracing import SPAN_NAMES
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_WORKERS = 3          # per kind, so set-up time is a median of several
RUN_LIMIT_S = 170        # a run must end within 180 s, even if a worker hangs

END_TO_END = [  # name, unit, better, bound
    ("trials_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def metric_name(tok: str) -> str:
    return tok.replace(":", "-")


def all_algorithms() -> list[str]:
    seen = []
    for w in WORKLOADS.values():
        seen += [a for a in w.body["algorithms"] if a not in seen]
    return seen


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better); the same on every workload."""
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    spec += [("daisy.diag_loads", "count", "lower"),
             ("detect.symbols_per_s", "1/s", "higher")]
    algs = all_algorithms()
    spec += [(f"harness.build_ms.{metric_name(a)}", "ms", "lower") for a in algs]
    for a in (a for a in algs if check.chain_depth(a) is not None):
        spec += [(f"interconnect.entries_per_link.{metric_name(a)}", "count", "lower"),
                 (f"interconnect.closed_form_per_link.{metric_name(a)}", "count", "lower")]
    spec += [("link_entries_per_trial", "count", "lower"),
             ("objective_gap_rel", "ratio", "lower"),
             ("failed_frac", "ratio", "lower"),
             ("trace.overhead_frac", "ratio", "lower")]
    return spec


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package source, which identifies a checkout without git."""
    pkg = os.path.join(ROOT, "src", "chainmmse")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def worker_env(blas_threads: int | None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_ENV:
        if blas_threads is None:
            env.pop(var, None)
        else:
            env[var] = str(blas_threads)
    return env


def run_worker(index: int, traced: bool, run_dir: str, config_path: str, env: dict,
               timeout: float):
    """One worker process; returns (result dict or None, its out dir, error text)."""
    out = os.path.join(run_dir, f"worker-{index:03d}")
    os.makedirs(out)
    result_path = os.path.join(out, "worker.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--config", config_path,
           "--out", out, "--result", result_path] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, out, f"worker {index} timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, out, f"worker {index} exited {proc.returncode}: {proc.stderr[-2000:]}"
    with open(result_path) as fh:
        return json.load(fh), out, None


def check_worker(result, out, config, reference) -> tuple[int, dict, list[dict]]:
    """Check a worker's results table, and in a traced run its per-link meter."""
    rows = check.read_rows(os.path.join(out, "results.csv"))
    attempted, failures = check.check_rows(rows, config, reference)
    trace = result["trace"]
    if trace is not None and rows:
        K, N = rows[0]["K"], rows[0]["N"]
        for tok, hist in trace["meter"].items():
            want = check.closed_form_per_link(tok, K, N)
            bad = sorted(int(n) for n in hist if int(n) != want)
            if bad:
                for i, r in enumerate(rows):
                    if check.token(r) == tok:
                        failures.setdefault(i, []).append(
                            f"metered per-link entries {bad} != closed form {want}")
    return attempted, failures, rows


def trace_metrics(traced: list[dict], untraced: list[dict], rows, config,
                  failed_frac: float) -> dict:
    med = statistics.median
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = med(r["trace"]["self"].get(name, [0.0, 0])[0] for r in traced)
        m[f"{name}.calls"] = med(r["trace"]["self"].get(name, [0.0, 0])[1] for r in traced)
    m["daisy.diag_loads"] = med(r["trace"]["diag_loads"] for r in traced)
    summary = check.summary(rows, config)

    def detect_rate(r):
        busy = sum(r["trace"]["self"].get(f"detect.{f}", [0.0, 0])[0]
                   for f in ("make_frame", "evaluate_equalizer"))
        return summary["symbols"] / busy if busy > 0 else 0.0

    m["detect.symbols_per_s"] = med(detect_rate(r) for r in traced)
    algs = all_algorithms()
    for a in algs:
        m[f"harness.build_ms.{metric_name(a)}"] = med(
            r["trace"]["build_ms"].get(a, 0.0) for r in traced)
    K, N = rows[0]["K"], rows[0]["N"]
    for a in (a for a in algs if check.chain_depth(a) is not None):
        def metered(r):
            hist = r["trace"]["meter"].get(a, {})
            calls = sum(hist.values())
            return sum(int(n) * c for n, c in hist.items()) / calls if calls else 0
        m[f"interconnect.entries_per_link.{metric_name(a)}"] = med(metered(r) for r in traced)
        m[f"interconnect.closed_form_per_link.{metric_name(a)}"] = (
            check.closed_form_per_link(a, K, N) if a in config["algorithms"] else 0)
    m["link_entries_per_trial"] = summary["link_entries_per_trial"]
    m["objective_gap_rel"] = summary["objective_gap_rel"]
    m["failed_frac"] = failed_frac
    m["trace.overhead_frac"] = (med(r["run_s"] for r in traced)
                                / med(r["run_s"] for r in untraced) - 1.0)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, exit through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "chainmmse", "cli.py")):
        print(f"error: no chainmmse package under {os.path.join(ROOT, 'src')}; "
              "run from a chainmmse checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    try:
        reference = check.load_reference(workload.name, config, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".bench_out",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.yaml")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)  # JSON is YAML
    env = worker_env(workload.blas_threads)

    started = time.perf_counter()
    done = {False: [], True: []}   # traced? -> worker results
    attempted = failed = 0
    first_rows, errors, crashes = None, [], 0
    kinds = (False, True) if args.trace else (False,)
    worker_s = []   # wall time of each worker, process start to exit
    index = 0
    while True:
        # start no worker that would likely end past the deadline, so a run
        # lasts about --seconds whatever one worker takes
        expect = statistics.median(worker_s) if worker_s else 0.0
        if (time.perf_counter() - started + expect > args.seconds
                and all(len(done[k]) >= MIN_WORKERS for k in kinds)):
            break
        traced = bool(args.trace) and len(done[True]) < len(done[False])
        t = time.perf_counter()
        result, out, error = run_worker(index, traced, run_dir, config_path, env,
                                        timeout=max(1.0, RUN_LIMIT_S - (t - started)))
        worker_s.append(time.perf_counter() - t)
        index += 1
        if result is None:
            n = len(check.grid_points(config)) * len(config["algorithms"])
            attempted, failed = attempted + n, failed + n
            errors.append(error)
            crashes += 1
            if crashes >= MIN_WORKERS:
                break
            continue
        a, failures, rows = check_worker(result, out, config, reference)
        attempted, failed = attempted + a, failed + len(failures)
        errors += [f"worker {index - 1} row {i}: {'; '.join(why)}"
                   for i, why in sorted(failures.items())]
        first_rows = rows if first_rows is None else first_rows
        done[traced].append(result)

    for e in errors[:20]:
        print(f"check: {e}")
    untraced, traced = done[False], done[True]
    if not untraced or (args.trace and not traced):
        print("error: no worker completed; no metrics", file=sys.stderr)
        return 1

    med = statistics.median
    env_info = untraced[0]["env"]
    manifest = {
        "workload": workload.name, "seed": args.seed, "trace": bool(args.trace),
        "blas_threads_setting": workload.blas_threads or "library default",
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        **env_info, "git_commit": git_commit(), "source_sha256": source_sha256(),
        "reference_checked": reference is not None,
        "workers": {"untraced": len(untraced), "traced": len(traced)},
        "trials_per_call": workload.trials_per_call,
        "calibration": {"ref_s": untraced[0]["calib_ref_s"],
                        "median_s": med(r["calib_s"] for r in untraced)},
        "wall_s": time.perf_counter() - started,
    }
    print("manifest: " + json.dumps(manifest))
    failed_frac = failed / attempted
    summary = check.summary(first_rows, config)
    if args.trace:
        spec = per_layer_spec()
        values = trace_metrics(traced, untraced, first_rows, config, failed_frac)
    else:
        spec = [(n, u, b) for n, u, b, _ in END_TO_END]
        raw = [workload.trials_per_call / r["run_s"] for r in untraced]
        values = {
            "trials_per_s": med(x * r["calib_s"] / r["calib_ref_s"]
                                for x, r in zip(raw, untraced)),
            "setup_s": med(r["setup_s"] for r in untraced),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
        print(f"  {'trials_per_s_raw':<48s} {med(raw):.6g} 1/s")
        print(f"  {'failed_frac':<48s} {failed_frac:.6g} ratio")
        print(f"  {'link_entries_per_trial':<48s} {summary['link_entries_per_trial']:.6g} "
              f"count (closed form {summary['closed_form_per_trial']})")
        print(f"  {'objective_gap_rel':<48s} {summary['objective_gap_rel']:.6g} ratio")
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in spec}
    for n, u, _ in spec:
        print(f"  {n:<48s} {values[n]:.6g} {u}")

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({**line, "manifest": manifest, "errors": errors,
                   "workers": untraced + traced}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
