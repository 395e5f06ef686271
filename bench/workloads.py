"""Benchmark workloads: each one builds a `chainmmse run` config from a seed.

The program only ever sees the generated YAML config; the seed goes into its
`seed` field. Every workload runs the uni-directional loop schedule.
"""
from __future__ import annotations

from dataclasses import dataclass

SIX_ALGORITHMS = ["zf", "mmse_exactR", "mmse_sampleR", "bdac", "bcd:1", "bcd:4"]
DESK_GRID = [0.0, 4.0, 8.0, 12.0, 16.0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    body: dict                 # the config without its seed
    blas_threads: int | None   # None: the BLAS library's own default

    def config(self, seed: int) -> dict:
        return {**self.body, "seed": seed}

    @property
    def trials_per_call(self) -> int:
        """Monte Carlo trials (grid points x trials) in one `run` call."""
        b = self.body
        return len(b["es_n0_db"]) * len(b["iot_db"]) * b["trials"]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="desk",
        why="configs/desk.yaml as written, BLAS 1 thread: many small-matrix calls, "
            "per-call overhead dominates; time splits ~48% daisy, 36% detect, 9% central",
        body=dict(profile="desk", es_n0_db=DESK_GRID, iot_db=[10.0],
                  algorithms=SIX_ALGORITHMS, trials=50, symbols_per_trial=500,
                  schedule_variant="gauss_seidel_loop"),
        blas_threads=1),
    Workload(
        name="paper",
        why="paper profile M=128 at the default BLAS threads a user gets: large "
            "matrices (~43% central, 32% daisy); shows what small-matrix batching "
            "costs and BLAS oversubscription",
        body=dict(profile="paper", es_n0_db=[0.0, 8.0, 16.0], iot_db=[10.0],
                  algorithms=SIX_ALGORITHMS, trials=4, symbols_per_trial=500,
                  schedule_variant="gauss_seidel_loop"),
        blas_threads=None),
    Workload(
        name="chain_deep",
        why="desk scenario, mmse_sampleR vs bcd:50, BLAS 1 thread: ~96% daisy "
            "block updates; exercises the chain core and its objective gap "
            "guards solver accuracy",
        body=dict(profile="desk", es_n0_db=DESK_GRID, iot_db=[10.0],
                  algorithms=["mmse_sampleR", "bcd:50"], trials=20,
                  symbols_per_trial=64, schedule_variant="gauss_seidel_loop"),
        blas_threads=1),
    Workload(
        name="detect_long",
        why="desk scenario, 64-QAM, zf and mmse_sampleR on ~20k-symbol frames, BLAS "
            "1 thread: ~97% detect, daisy never runs, so chain changes predict no "
            "change here",
        body=dict(profile="desk", scenario={"constellation": 64},
                  es_n0_db=[20.0, 24.0, 28.0], iot_db=[10.0],
                  algorithms=["zf", "mmse_sampleR"], trials=8,
                  symbols_per_trial=20000, schedule_variant="gauss_seidel_loop"),
        blas_threads=1),
]}
