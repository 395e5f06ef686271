"""Chain topologies and the closed-form per-link traffic that ledgers book.

Traffic is counted in complex-valued entries (16 bytes each). chain_traffic is
the one table of the uni-directional loop's per-link traffic, by phase, which
sums to (3K^2 + 2NK) + L*K*(N+K), independent of the antenna count M; a run's
rows and the trace's traffic.csv read it.
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

    def __init__(self, topology: Topology):
        self.topology = topology
        self.counts: dict[tuple[str, tuple[int, int]], int] = {}

    def book(self, phases: dict[str, int]) -> None:
        """Add each phase's entries on every link of the topology."""
        for link in self.topology.links:
            for phase, entries in phases.items():
                self.counts[phase, link] = self.counts.get((phase, link), 0) + entries

    def per_link(self, link: tuple[int, int]) -> int:
        return sum(n for (_, l), n in self.counts.items() if l == link)


def chain_traffic(K: int, N: int, L: int | None) -> dict[str, int]:
    """Entries one chain instance sends over each loop link, by phase: the K x K
    Gram accumulation, alone for L = None (BDAC); for L >= 0 sweeps also the
    accumulation and distribution of the K x (K+N) message, and L sends of it."""
    if min(K, N, L or 0) < 0:
        raise ValueError("K, N, L must be >= 0")
    phases = {PHASE_GRAM: K * K}
    if L is not None:
        message = K * (K + N)
        phases |= {PHASE_ACCUMULATE: message, PHASE_DISTRIBUTE: message}
        if L > 0:
            phases[PHASE_SWEEP] = L * message
    return phases


def predicted_traffic(K: int, N: int, L: int | None) -> int:
    """Per-link complex entries of one chain instance, the sum of chain_traffic:
    (3K^2 + 2NK) + L*K*(N+K) for L sweeps, K^2 for L = None (BDAC alone)."""
    return sum(chain_traffic(K, N, L).values())
