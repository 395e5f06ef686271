"""Command-line entry points: run, trace."""
from __future__ import annotations

import argparse
import dataclasses
import math
import os

from . import harness
from .interconnect import predicted_traffic

# the config of run and trace without --config; its flags are put over it
DEFAULT_CONFIG = {"profile": "desk"}


def _add_run(sub):
    p = sub.add_parser("run", help="Monte Carlo BER sweep; writes results.csv")
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--profile", choices=sorted(harness.PROFILES),
                   help="scenario profile used when no config scenario is given")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--algorithms", help="comma list, e.g. zf,mmse_sampleR,bdac,bcd:4")
    p.add_argument("--sweeps", type=int, help="replace bcd sweep counts with this L")
    p.add_argument("--trials", type=int)
    p.add_argument("--symbols", type=int)
    return p


def _add_trace(sub):
    p = sub.add_parser("trace", help="per-block convergence trace; writes trace.csv")
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--profile", choices=sorted(harness.PROFILES),
                   help="scenario profile (default desk); replaces the config's")
    p.add_argument("--sweeps", type=int, default=50)
    p.add_argument("--seed", type=int, help="default: the config's seed, else 1")
    p.add_argument("--out", default=".")
    return p


def _resolve_config(args) -> harness.ExperimentConfig:
    flags = {key: getattr(args, attr, None) for key, attr in [
        ("profile", "profile"), ("seed", "seed"), ("trials", "trials"),
        ("symbols_per_trial", "symbols"), ("out_dir", "out")]}
    if getattr(args, "algorithms", None):
        flags["algorithms"] = args.algorithms.split(",")
    flags = {key: val for key, val in flags.items() if val is not None}
    if args.config:
        config = harness.load_config(args.config, **flags)
    else:
        config = harness.make_config({**DEFAULT_CONFIG, **flags})
    sc = config.scenario
    if args.command == "trace" and sc.N < sc.M:
        # the trace's reference W* is the sample-MMSE solve, singular below M samples
        raise ValueError(f"trace needs N >= M for its sample-MMSE reference, got "
                         f"N={sc.N} and M={sc.M}")
    if args.command == "trace" and config.es_n0_db[0] == math.inf:
        raise ValueError(f"trace needs noise for its chain 'bcd:{args.sweeps}', but the "
                         f"grid point Es/N0 inf dB, IoT {config.iot_db[0]} dB is noise-free")
    if args.command == "run" and args.sweeps is not None:
        bcd = [harness.parse_algorithm(a)[0] == "bcd" for a in config.algorithms]
        if not any(bcd):
            raise ValueError(f"--sweeps {args.sweeps}: needs a bcd token in the "
                             f"algorithms, got {', '.join(config.algorithms)}")
        # every bcd token becomes the one bcd:L token, in the first one's place
        algs = tuple(dict.fromkeys(f"bcd:{args.sweeps}" if is_bcd else a
                                   for a, is_bcd in zip(config.algorithms, bcd)))
        config = dataclasses.replace(config, algorithms=algs)
    return config


def cmd_run(args, config: harness.ExperimentConfig) -> int:
    rows = harness.run_experiment(config)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "results.csv")
    harness.emit_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    for r in rows:
        iot = "none" if r.iot_db is None else f"{r.iot_db:4.1f} dB"
        print(f"  {r.algorithm:>12s} L={r.L} Es/N0={r.es_n0_db:5.1f} dB "
              f"IoT={iot}  BER={r.ber:.3e}  SER={r.ser:.3e}")
    return 0


def cmd_trace(args, config: harness.ExperimentConfig) -> int:
    es, iot = config.es_n0_db[0], config.iot_db[0]  # trial 0 of grid point 0, the run's first
    sc = config.scenario.with_ratios(es, iot)
    rows, ledger = harness.convergence_trace(sc, L=args.sweeps, seed=config.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trace.csv")
    harness.emit_convergence_trace(rows, path)
    ledger_path = os.path.join(args.out, "traffic.csv")
    ledger.write_csv(ledger_path)
    last = rows[-1]
    print(f"traced trial 0 at Es/N0 {es} dB, IoT {iot} dB: wrote {len(rows)} block "
          f"updates to {path} and their traffic to {ledger_path}; final objective "
          f"{last.objective:.6e}, ||W - W*||_F/||W*||_F = {last.w_error:.3e}")
    if ledger.topology.links:  # a loop of one cluster has no link
        print(f"predicted per-link entries (loop chain): "
              f"{predicted_traffic(sc.K, sc.N, args.sweeps)}")
    for link in ledger.topology.links:
        print(f"  link {link[0]}-{link[1]}: metered {ledger.per_link(link)} "
              f"(preprocessing {ledger.per_link(link, 'preprocess')}, "
              f"sweeps {ledger.per_link(link, 'sweep')})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainmmse",
        description="Decentralized chain MMSE equalization simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {"run": _add_run(sub), "trace": _add_trace(sub)}
    args = parser.parse_args(argv)
    if args.command == "trace" and args.sweeps < 1:
        parser.error(f"argument --sweeps: must be >= 1, got {args.sweeps}")
    # a bad input value or config file is a usage error; errors raised while
    # the command runs, such as SingularMatrixError, propagate
    try:
        config = _resolve_config(args)
    except (OSError, ValueError) as exc:
        sub_parser = parsers[args.command]
        sub_parser.exit(2, f"{sub_parser.prog}: error: {exc}\n")
    return {"run": cmd_run, "trace": cmd_trace}[args.command](args, config)


if __name__ == "__main__":
    raise SystemExit(main())
