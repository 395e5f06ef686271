"""Chain topologies and exact per-link traffic metering.

Traffic is counted in complex-valued entries (16 bytes each). The closed-form
per-link prediction for the uni-directional loop is (3K^2 + 2NK) + L*K*(N+K):
preprocessing plus L sweeps, independent of the antenna count M.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

BYTES_PER_ENTRY = 16  # complex128: interleaved re/im float64

PHASE_GRAM = "preprocess:gram"
PHASE_ACCUMULATE = "preprocess:accumulate"
PHASE_DISTRIBUTE = "preprocess:distribute"
PHASE_SWEEP = "sweep"


@dataclass(frozen=True)
class Topology:
    """Cluster interconnection graph: the uni-directional loop, in which
    cluster c sends to cluster c+1 and the last cluster back to cluster 0."""
    variant: str
    C: int

    def __post_init__(self):
        if self.variant != "uni_loop":
            raise ValueError(f"unknown topology variant {self.variant!r}")
        if self.C < 1:
            raise ValueError("C must be >= 1")

    @cached_property
    def links(self) -> tuple[tuple[int, int], ...]:
        if self.C == 1:
            return ()
        return tuple((c, (c + 1) % self.C) for c in range(self.C))


class TrafficLedger:
    """Exact integer complex-entry counts per (phase, link)."""
    CSV_COLUMNS = ("phase", "link", "entries", "bytes")  # of csv_rows

    def __init__(self, topology: Topology):
        self.topology = topology
        self.counts: dict[tuple[str, tuple[int, int]], int] = {}

    def add(self, phase: str, link: tuple[int, int], entries: int) -> None:
        key = (phase, link)
        self.counts[key] = self.counts.get(key, 0) + int(entries)

    def per_link(self, link: tuple[int, int], phase_prefix: str = "") -> int:
        return sum(n for (p, l), n in self.counts.items()
                   if l == link and p.startswith(phase_prefix))

    def csv_rows(self) -> list[tuple[str, str, int, int]]:
        rows = []
        for (phase, link), n in sorted(self.counts.items()):
            rows.append((phase, f"{link[0]}-{link[1]}", n, n * BYTES_PER_ENTRY))
        return rows


def predicted_traffic(K: int, N: int, L: int) -> int:
    """Per-link complex entries for the loop chain: (3K^2 + 2NK) + L*K*(N+K)."""
    if min(K, N, L) < 0:
        raise ValueError("K, N, L must be >= 0")
    return 3 * K * K + 2 * N * K + L * K * (N + K)
