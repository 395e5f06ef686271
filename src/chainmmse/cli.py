"""Command-line entry points: run, trace."""
from __future__ import annotations

import argparse
import dataclasses
import os

from . import central, harness
from .interconnect import BYTES_PER_ENTRY, Topology, chain_traffic

# the config of run and trace without --config; its flags are put over it
DEFAULT_CONFIG = {"profile": "desk"}


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The chainmmse parser and its run and trace parsers; the flags both
    commands take are declared once."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML experiment config")
    common.add_argument("--profile", choices=sorted(harness.PROFILES),
                        help="replaces the config's profile; its scenario keys go over it")
    common.add_argument("--seed", type=int, help="replaces the config's seed")
    common.add_argument("--out", help="output directory; replaces the config's out_dir")
    parser = argparse.ArgumentParser(
        prog="chainmmse", description="Decentralized chain MMSE equalization simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[common],
                         help="Monte Carlo BER sweep; writes results.csv")
    run.add_argument("--algorithms", type=lambda text: text.split(","),
                     help="comma list, e.g. zf,mmse_sampleR,bdac,bcd:4")
    run.add_argument("--trials", type=int)
    run.add_argument("--symbols", type=int)
    trace = sub.add_parser("trace", parents=[common],
                           help="per-block convergence trace; writes trace.csv and traffic.csv")
    trace.add_argument("--sweeps", type=int, default=50,
                       help="chain sweeps L >= 1: the trace is the run's bcd:L row")
    return parser, {"run": run, "trace": trace}


def _resolve_config(args) -> harness.ExperimentConfig:
    flags = {key: val for key, attr in [
        ("profile", "profile"), ("seed", "seed"), ("trials", "trials"),
        ("symbols_per_trial", "symbols"), ("out_dir", "out"), ("algorithms", "algorithms")]
        if (val := getattr(args, attr, None)) is not None}
    if args.config:
        config = harness.load_config(args.config, **flags)
    else:
        config = harness.make_config({**DEFAULT_CONFIG, **flags})
    if args.command == "trace":
        # the traced instance, trial 0 of the run's first grid point: its chain
        # and its reference W*, the sample-MMSE solve, under the config's rules
        config = dataclasses.replace(
            config, es_n0_db=config.es_n0_db[:1], iot_db=config.iot_db[:1],
            algorithms=("mmse_sampleR", f"bcd:{args.sweeps}"))
    return config


def cmd_run(args, config: harness.ExperimentConfig) -> int:
    rows = harness.run_experiment(config)
    path = os.path.join(config.out_dir, "results.csv")
    harness.emit_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    for r in rows:
        iot = "none" if r.iot_db is None else f"{r.iot_db:4.1f} dB"
        print(f"  {r.algorithm:>12s} L={r.L} Es/N0={r.es_n0_db:5.1f} dB "
              f"IoT={iot}  BER={r.ber:.3e}  SER={r.ser:.3e}")
    return 0


def cmd_trace(args, config: harness.ExperimentConfig) -> int:
    [es], [iot] = config.es_n0_db, config.iot_db
    sc = config.scenario.with_ratios(es, iot)
    try:
        rows = harness.convergence_trace(sc, L=args.sweeps, seed=config.seed)
    except central.SingularMatrixError as exc:  # named as the run names it
        raise central.SingularMatrixError(
            f"trace of trial 0 at Es/N0 {es} dB, IoT {iot} dB: {exc}") from exc
    path = os.path.join(config.out_dir, "trace.csv")
    harness.emit_convergence_trace(rows, path)
    table = chain_traffic(sc.K, sc.N, args.sweeps)  # the closed form, on every loop link
    links = sorted(Topology("uni_loop", sc.C).links)  # as tuples: 2-3 before 10-11
    traffic_path = os.path.join(config.out_dir, "traffic.csv")
    harness.write_table(traffic_path, ("phase", "link", "entries", "bytes"), [
        (phase, f"{a}-{b}", n, n * BYTES_PER_ENTRY)
        for phase, n in sorted(table.items()) for a, b in links])
    last = rows[-1]
    print(f"traced trial 0 at Es/N0 {es} dB, IoT {iot} dB: wrote {len(rows)} block "
          f"updates to {path} and their traffic to {traffic_path}; final objective "
          f"{last.objective:.6e}, ||W - W*||_F/||W*||_F = {last.w_error:.3e}")
    if links:  # a loop of one cluster has no link
        print(f"predicted per-link entries (loop chain): {sum(table.values())}")
    return 0


def main(argv=None) -> int:
    parser, parsers = _parsers()
    args = parser.parse_args(argv)
    if args.command == "trace" and args.sweeps < 1:
        parser.error(f"argument --sweeps: must be >= 1, got {args.sweeps}")
    # a bad input value, config file or output directory is a usage error;
    # errors raised while the command runs, such as SingularMatrixError, propagate
    try:
        config = _resolve_config(args)
        os.makedirs(config.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        sub_parser = parsers[args.command]
        sub_parser.exit(2, f"{sub_parser.prog}: error: {exc}\n")
    return {"run": cmd_run, "trace": cmd_trace}[args.command](args, config)


if __name__ == "__main__":
    raise SystemExit(main())
