#!/usr/bin/env python3
"""Per-block convergence trace of the chain BCD solver.

Runs one random instance, records the sample objective and the relative
Frobenius distance to the centralized MMSE solution after every block
update, and writes trace.csv. Use --es-n0-db to control the contraction
rate: lower SNR converges in fewer sweeps.
"""
import argparse
import os

from chainmmse import harness, model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--M", type=int, default=16)
    parser.add_argument("--C", type=int, default=4)
    parser.add_argument("--K", type=int, default=4)
    parser.add_argument("--N", type=int, default=64)
    parser.add_argument("--es-n0-db", type=float, default=0.0)
    parser.add_argument("--iot-db", type=float, default=10.0)
    parser.add_argument("--sweeps", type=int, default=400)
    parser.add_argument("--variant", default="gauss_seidel_loop",
                        choices=["gauss_seidel_loop", "symmetric_gauss_seidel"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="out/trace")
    args = parser.parse_args()

    scenario = model.Scenario.uniform(
        args.M, args.C, K=args.K, K_int=args.K, N=args.N,
        es_n0_db=args.es_n0_db, iot_db=args.iot_db, seed=args.seed)
    rows = harness.convergence_trace(scenario, L=args.sweeps,
                                     variant=args.variant, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trace.csv")
    harness.emit_convergence_trace(rows, path)
    stride = max(1, len(rows) // 20)
    for r in rows[::stride]:
        print(f"sweep {r.sweep:4d} block {r.block}  f={r.objective:.6e}  "
              f"rel W error={r.w_error:.3e}")
    print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
