"""Decentralized equalization over a daisy chain of antenna clusters.

Cluster c owns the rows H_c of the channel, the rows n_c of the noise
samples, its local sample covariance block R_cc, and the columns W_c of the
equalizer. The block-diagonal initializer discards the off-diagonal
covariance blocks; the coordinate-descent sweeps then recover them implicitly
by passing one K x (K+N) residual message m = [W H - I | W n] from cluster to
cluster, so the payload never depends on the antenna count.

Each cluster caches Phi_c = [E_s H_c^H ; n_c^H / N] G_c^-1, with G_c the
Gram matrix E_s H_c H_c^H + R_cc of its block. The exact block minimizer is
then W_c + D with D = -m Phi_c, and the message leaves the cluster as
m + D [H_c | n_c]. The centralized sample-MMSE solution is the fixed point,
where m Phi_c = 0 for every cluster.

A Chain holds T trials stacked along a leading axis, and every step runs on
all of them at once as stacked matmuls and solves; a traffic ledger meters
one chain instance.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .central import RCOND_FLOOR, herm, herm_solve, rcond
from .model import ChannelSet, cluster_slices
from .interconnect import (PHASE_ACCUMULATE, PHASE_DISTRIBUTE, PHASE_GRAM,
                           PHASE_SWEEP, Topology, TrafficLedger)

DIAG_LOAD = 1e-10


@dataclass
class Chain:
    """T chain instances stacked along a leading trial axis. Cluster c holds
    rows slices[c] of Hn, entry c of R and phi, column c of loaded, and
    columns slices[c] of W."""
    Hn: np.ndarray           # T x M x (K+N): channels and noise samples side by side
    H: np.ndarray            # T x M x K view of Hn
    slices: list[slice]
    E_s: float
    R: list[np.ndarray]      # T x M_c x M_c local sample covariance blocks R_cc
    phi: list[np.ndarray]    # T x (K+N) x M_c: [E_s H_c^H ; n_c^H / N] G_c^-1
    loaded: np.ndarray       # T x C: diagonal loading applied to that Gram matrix
    W: np.ndarray            # T x K x M equalizers


def make_chain(channels: ChannelSet, pool: np.ndarray, E_s: float) -> Chain:
    """Build the chains of a stack of trials (see model.stack_trials), with
    W = 0; a single trial builds a stack of one."""
    Hn = np.concatenate([channels.H, pool], axis=-1)
    if Hn.ndim == 2:
        Hn = Hn[None]
    T, M = Hn.shape[:2]
    K, N = channels.H.shape[-1], pool.shape[-1]
    H, noise = Hn[..., :K], Hn[..., K:]
    # column scaling of [H_c | n_c] to [E_s H_c | n_c / N]
    scale = np.concatenate([np.full(K, E_s), np.full(N, 1.0 / N)])
    slices = cluster_slices(channels.cluster_sizes)
    R, phi = [], []
    loaded = np.zeros((T, len(slices)), dtype=bool)
    for c, s in enumerate(slices):
        R_cc = noise[:, s] @ herm(noise[:, s]) / N
        G = E_s * (H[:, s] @ herm(H[:, s])) + R_cc
        loaded[:, c] = rcond(G) < RCOND_FLOOR
        for t in np.flatnonzero(loaded[:, c]):
            # keep long Monte Carlo runs alive on near-singular local blocks
            delta = DIAG_LOAD * np.trace(G[t]).real / G.shape[-1]
            G[t] += delta * np.eye(G.shape[-1])
            warnings.warn(f"cluster {c}, trial {t}: ill-conditioned update matrix, "
                          f"diagonal loading {delta:.3e} applied")
        R.append(R_cc)
        phi.append(herm(Hn[:, s] * scale) @ np.linalg.inv(G))
    return Chain(Hn=Hn, H=H, slices=slices, E_s=E_s, R=R, phi=phi,
                 loaded=loaded, W=np.zeros((T, K, M), dtype=complex))


@dataclass(frozen=True)
class Schedule:
    """Sweep plan: L sweeps around the loop, clusters 0..C-1 in order."""
    L: int = 4

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be >= 0")


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


def bcd_block_update(chain: Chain, c: int, m: np.ndarray) -> np.ndarray:
    """One coordinate-descent block solve at cluster c, in every trial.

    Given the incoming message m = [W H - I | W n] of the current W
    (T x K x (K+N)), moves W_c to the block minimizer and returns the
    outgoing message.
    """
    s = chain.slices[c]
    D = -(m @ chain.phi[c])
    chain.W[:, :, s] += D
    return m + D @ chain.Hn[:, s]


def residual(chain: Chain) -> np.ndarray:
    """The message [W H - I | W n], computed afresh from the current W;
    its distance to a carried message is the carried-message drift."""
    m = chain.W @ chain.Hn
    K = m.shape[-2]
    m[..., :K] -= np.eye(K)
    return m


@dataclass
class BcdResult:
    W: np.ndarray            # T x K x M final equalizers
    ledger: TrafficLedger
    depths: dict[int, np.ndarray]  # depth -> T x K x M W, for the depths asked for
    traffic: list[int]       # ledger.total() after the BDAC start and each sweep
    iterates: list[np.ndarray] | None = None  # T x K x M W after every block update


def run_bcd(chain: Chain, schedule: Schedule, keep_iterates: bool = False,
            depths: tuple[int, ...] = ()) -> BcdResult:
    """Full chain run: block-diagonal init, message preprocessing circuits,
    L sweeps.

    Returns the final equalizers, the per-link traffic ledger of one chain
    instance, the traffic so far at every depth 0..L (0 is the BDAC start,
    d the end of sweep d), and a copy of W at each of the given depths; with
    keep_iterates, also a copy of W after every block update.
    """
    C = len(chain.slices)
    entries = chain.H.shape[-1] * chain.Hn.shape[-1]  # one K x (K+N) message
    topology = Topology("uni_loop", C)
    ledger = TrafficLedger(topology)

    bdac_init(chain, ledger=ledger)

    # accumulation circuit of the initial message (sequential around the
    # chain), then the distribution circuit handing it to the other clusters
    m = residual(chain)
    for link in topology.links:
        ledger.add(PHASE_ACCUMULATE, link, entries)
    for link in topology.links:
        ledger.add(PHASE_DISTRIBUTE, link, entries)

    iterates: list[np.ndarray] | None = [] if keep_iterates else None
    kept = {0: chain.W.copy()} if 0 in depths else {}
    start = ledger.total()
    for d in range(1, schedule.L + 1):
        for c in range(C):
            m = bcd_block_update(chain, c, m)
            if iterates is not None:
                iterates.append(chain.W.copy())
        if d in depths:
            kept[d] = chain.W.copy()
    # each sweep's message crosses every loop link once: (c, c+1), then (C-1, 0)
    if schedule.L > 0:
        for link in topology.links:
            ledger.add(PHASE_SWEEP, link, schedule.L * entries)
    # every sweep sends the same counts, none when C = 1
    per_sweep = len(topology.links) * entries
    traffic = [start + d * per_sweep for d in range(schedule.L + 1)]

    return BcdResult(chain.W, ledger, kept, traffic, iterates)
