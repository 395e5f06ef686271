"""Decentralized equalization over a daisy chain of antenna clusters.

Cluster c owns the rows H_c of the channel, the rows n_c of the noise
samples, its local sample covariance block R_cc, and the columns W_c of the
equalizer. The block-diagonal initializer discards the off-diagonal
covariance blocks; the coordinate-descent sweeps then recover them implicitly
by passing only the K x K running fit matrix A = sum_j W_j H_j and the K x N
running noise projections b = sum_j W_j n_j from cluster to cluster, so the
payload never depends on the antenna count.

A Chain holds T trials stacked along a leading axis, and every step runs on
all of them at once as stacked matmuls and solves; a traffic ledger meters
one chain instance.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .central import herm, herm_solve
from .model import ChannelSet, NoisePool, cluster_slices
from .interconnect import (PHASE_ACCUMULATE, PHASE_DISTRIBUTE, PHASE_GRAM,
                           PHASE_SWEEP, Topology, TrafficLedger)

RCOND_LOAD = 1e-12
DIAG_LOAD = 1e-10


@dataclass
class Chain:
    """T chain instances stacked along a leading trial axis. Cluster c holds
    rows slices[c] of H and noise, entry c of R and gram_inv, column c of
    loaded, and columns slices[c] of W."""
    H: np.ndarray            # T x M x K channels
    noise: np.ndarray        # T x M x N noise samples as columns
    slices: list[slice]
    E_s: float
    R: list[np.ndarray]      # T x M_c x M_c local sample covariance blocks R_cc
    gram_inv: list[np.ndarray]  # inverses of the Gram matrices E_s H_c H_c^H + R_cc
    loaded: np.ndarray       # T x C: diagonal loading applied to that Gram matrix
    W: np.ndarray            # T x K x M equalizers


def make_chain(channels: ChannelSet, pool: NoisePool, E_s: float) -> Chain:
    """Build the chains of a stack of trials (see model.stack_trials), with
    W = 0; a single trial builds a stack of one."""
    H, noise = channels.H, pool.samples
    if H.ndim == 2:
        H, noise = H[None], noise[None]
    T, M, K = H.shape
    slices = cluster_slices(channels.cluster_sizes)
    R, gram_inv = [], []
    loaded = np.zeros((T, len(slices)), dtype=bool)
    for c, s in enumerate(slices):
        R_cc = noise[:, s] @ herm(noise[:, s]) / pool.N
        G = E_s * (H[:, s] @ herm(H[:, s])) + R_cc
        w = np.linalg.eigvalsh(G)
        lo, hi = w[:, 0], w[:, -1]
        rcond = np.divide(lo, hi, out=np.zeros_like(lo), where=hi > 0.0)
        loaded[:, c] = (lo <= 0.0) | (rcond < RCOND_LOAD)
        for t in np.flatnonzero(loaded[:, c]):
            # keep long Monte Carlo runs alive on near-singular local blocks
            delta = DIAG_LOAD * np.trace(G[t]).real / G.shape[-1]
            G[t] += delta * np.eye(G.shape[-1])
            warnings.warn(f"cluster {c}, trial {t}: ill-conditioned update matrix, "
                          f"diagonal loading {delta:.3e} applied")
        R.append(R_cc)
        gram_inv.append(np.linalg.inv(G))
    return Chain(H=H, noise=noise, slices=slices, E_s=E_s, R=R, gram_inv=gram_inv,
                 loaded=loaded, W=np.zeros((T, K, M), dtype=complex))


@dataclass(frozen=True)
class Schedule:
    """Sweep plan: update order variant and sweep count L."""
    variant: str = "gauss_seidel_loop"
    L: int = 4

    def __post_init__(self):
        if self.variant not in ("gauss_seidel_loop", "symmetric_gauss_seidel"):
            raise ValueError(f"unknown schedule variant {self.variant!r}")
        if self.L < 0:
            raise ValueError("L must be >= 0")

    @property
    def topology_variant(self) -> str:
        return "uni_loop" if self.variant == "gauss_seidel_loop" else "bi_chain"

    def order(self, C: int) -> list[int]:
        """Clusters in the update order of one sweep."""
        if self.variant == "gauss_seidel_loop":
            return list(range(C))
        return list(range(C)) + list(range(C - 2, -1, -1))


def bdac_init(chain: Chain, ledger: TrafficLedger | None = None) -> np.ndarray:
    """Block-diagonal-covariance initializer.

    W0 = (sum_c H_c^H R_cc^-1 H_c + I/E_s)^-1 [H_1^H R_11^-1, ..., H_C^H R_CC^-1],
    realized as one K x K Gram accumulation circuit followed by local solves.
    Sets chain.W and returns a copy of it; the ledger meters one chain instance.
    """
    K = chain.H.shape[-1]
    S = np.eye(K, dtype=complex) / chain.E_s
    X = []  # per-cluster R_cc^-1 H_c
    for c, s in enumerate(chain.slices):
        H_c = chain.H[:, s]
        X_c = herm_solve(chain.R[c], H_c,
                         what=f"cluster {c}: local covariance block R_cc")
        X.append(X_c)
        S = S + herm(H_c) @ X_c
    if ledger is not None:
        for link in ledger.topology.links:
            ledger.add(PHASE_GRAM, link, K * K)
    chain.W = herm_solve(S, herm(np.concatenate(X, axis=1)), what="BDAC Gram sum")
    return chain.W.copy()


def bcd_block_update(chain: Chain, c: int, A: np.ndarray, b: np.ndarray):
    """One coordinate-descent block solve at cluster c, in every trial.

    Given the incoming running sums A = sum_j W_j H_j and b = sum_j W_j n_j
    (current blocks, Gauss-Seidel order; T x K x K and T x K x N), writes the
    new W_c into chain.W and returns the outgoing sums updated by the
    subtract-then-add recursions.
    """
    s = chain.slices[c]
    H_c, n_c, W_old = chain.H[:, s], chain.noise[:, s], chain.W[:, :, s]
    K, N = H_c.shape[-1], n_c.shape[-1]
    WH_old, Wn_old = W_old @ H_c, W_old @ n_c

    fit = chain.E_s * ((np.eye(K) - A + WH_old) @ herm(H_c))
    noise_corr = (b - Wn_old) @ herm(n_c) / N
    # right solve W_new G = fit - noise_corr with the cached inverse of G
    W_new = (fit - noise_corr) @ chain.gram_inv[c]

    A_out = A - WH_old + W_new @ H_c
    b_out = b - Wn_old + W_new @ n_c
    chain.W[:, :, s] = W_new
    return A_out, b_out


def running_sums(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """A = sum_c W_c H_c and b = sum_c W_c n_c, accumulated in cluster order."""
    T, K, N = chain.W.shape[0], chain.H.shape[-1], chain.noise.shape[-1]
    A = np.zeros((T, K, K), dtype=complex)
    b = np.zeros((T, K, N), dtype=complex)
    for s in chain.slices:
        A = A + chain.W[:, :, s] @ chain.H[:, s]
        b = b + chain.W[:, :, s] @ chain.noise[:, s]
    return A, b


@dataclass(frozen=True)
class AuditReport:
    max_dev_A: float
    max_dev_b: float

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_A, self.max_dev_b)


def consistency_audit(chain: Chain, A: np.ndarray, b: np.ndarray) -> AuditReport:
    """Recompute the running sums from scratch and report the carried-message drift."""
    A_ref, b_ref = running_sums(chain)
    return AuditReport(max_dev_A=float(np.max(np.abs(A - A_ref))),
                       max_dev_b=float(np.max(np.abs(b - b_ref))))


@dataclass
class BcdResult:
    W: np.ndarray            # T x K x M final equalizers
    ledger: TrafficLedger
    iterates: list[np.ndarray] | None = None  # T x K x M W after every block update


def run_bcd(chain: Chain, schedule: Schedule, keep_iterates: bool = False) -> BcdResult:
    """Full chain run: block-diagonal init, A/b preprocessing circuits, L sweeps.

    Returns the final equalizers and the per-link traffic ledger of one chain
    instance; with keep_iterates, also a copy of W after every block update.
    """
    C = len(chain.slices)
    K, N = chain.H.shape[-1], chain.noise.shape[-1]
    entries = K * K + N * K  # one (A, b) message
    topology = Topology(schedule.topology_variant, C)
    ledger = TrafficLedger(topology)

    bdac_init(chain, ledger=ledger)

    # A0/b0 accumulation circuit (sequential around the chain), then the
    # distribution circuit handing the completed sums to the other clusters.
    A, b = running_sums(chain)
    for link in topology.links:
        ledger.add(PHASE_ACCUMULATE, link, entries)
    for link in topology.links:
        ledger.add(PHASE_DISTRIBUTE, link, entries)

    order = schedule.order(C)
    # the message crosses one link per consecutive pair of the order, then
    # returns to the start: over the loop link, or from cluster 0 to cluster 1
    # to restart the forward pass of the bi-directional chain
    hops = list(zip(order, order[1:]))
    hops.append((C - 1, 0) if schedule.variant == "gauss_seidel_loop" else (0, 1))
    iterates: list[np.ndarray] | None = [] if keep_iterates else None
    for _ in range(schedule.L):
        for c in order:
            A, b = bcd_block_update(chain, c, A, b)
            if iterates is not None:
                iterates.append(chain.W.copy())
        if C > 1:
            for link in hops:
                ledger.add(PHASE_SWEEP, link, entries)

    return BcdResult(W=chain.W.copy(), ledger=ledger, iterates=iterates)
