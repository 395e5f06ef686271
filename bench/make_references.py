"""Record the reference results the benchmark compares every run against.

    python3 bench/make_references.py [--workload NAME ...] [--seeds 1,2,3]

Runs each workload's config once per seed in a fresh worker, checks the
invariants, and writes bench/references/<workload>.json. Record references
only from a commit whose results are trusted: later commits must reproduce
BER, SER, symbols and traffic exactly and the objective to 1e-12 relative.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import check
import run
from workloads import WORKLOADS

COLUMNS = ["algorithm", "L", "es_n0_db", "iot_db", "M", "C", "K", "N",
           "ber", "ser", "symbols", "traffic_entries", "objective"]
DEFAULT_SEEDS = list(range(1, 11))


def record(workload, seeds, scratch) -> dict:
    env = run.worker_env(workload.blas_threads)
    by_seed = {}
    for seed in seeds:
        config = workload.config(seed)
        seed_dir = os.path.join(scratch, f"{workload.name}-seed{seed}")
        os.makedirs(seed_dir)
        config_path = os.path.join(seed_dir, "config.yaml")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        result, out, error = run.run_worker(0, False, seed_dir, config_path, env,
                                            timeout=run.RUN_LIMIT_S)
        if result is None:
            raise RuntimeError(error)
        rows = check.read_rows(os.path.join(out, "results.csv"))
        _, failures = check.check_rows(rows, config)
        if failures:
            raise RuntimeError(f"{workload.name} seed {seed} fails its invariants: {failures}")
        by_seed[str(seed)] = [[r[c] for c in COLUMNS] for r in rows]
    return by_seed


def write(path, workload, by_seed) -> None:
    """One row per line, so a changed reference reads as a small diff."""
    lines = ["{", f' "config": {json.dumps(workload.body)},',
             f' "columns": {json.dumps(COLUMNS)},', ' "seeds": {']
    for k, (seed, rows) in enumerate(by_seed.items()):
        body = ",\n".join(f"   {json.dumps(r)}" for r in rows)
        lines.append(f'  "{seed}": [\n{body}\n  ]' + ("," if k < len(by_seed) - 1 else ""))
    lines += [" }", "}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)))
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    scratch = os.path.join(run.ROOT, ".bench_out", "references")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        path = os.path.join(check.REFERENCE_DIR, f"{name}.json")
        write(path, workload, record(workload, seeds, scratch))
        print(f"wrote {path}: seeds {seeds}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
