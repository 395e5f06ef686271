"""Decentralized equalization over a daisy chain of antenna clusters.

Cluster c owns the rows H_c of the channel, the rows n_c of the noise
samples, its local sample covariance block R_cc, and the columns W_c of the
equalizer. The block-diagonal initializer discards the off-diagonal
covariance blocks; the coordinate-descent sweeps then recover them implicitly
by passing one K x (K+N) residual message m = [W H - I | W n] from cluster to
cluster, so the payload never depends on the antenna count.

The sweeps are block Gauss-Seidel on the normal equations W Gamma = E_s H^H
of the sample objective, with Gamma = E_s H H^H + R_hat. Cluster c's exact
block minimizer is W_c + F_c - W Q_c, with G_c = E_s H_c H_c^H + R_cc the Gram
matrix of its block, F_c = E_s H_c^H G_c^-1 and Q_c = Gamma[:, s_c] G_c^-1;
all three come from H and R_hat. On the chain, cluster c reads W Q_c - F_c
off the message as m Phi_c, with Phi_c = [E_s H_c^H ; n_c^H / N] G_c^-1,
since [H | n] Phi_c = Gamma[:, s_c] G_c^-1. This module computes the
protocol's iterates but does not form the messages, so nothing is metered:
a run's ledger books interconnect.chain_traffic for one chain instance. The
centralized sample-MMSE solution is the fixed point, where W Q_c = F_c for
every cluster.

A Chain holds T trials stacked along a leading axis, and every step runs on
all of them at once as stacked matmuls and solves.
"""
from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass

import numpy as np

from . import model
from .central import RCOND_FLOOR, herm, herm_solve, mmse_from, rcond
from .interconnect import Topology, TrafficLedger, chain_traffic

DIAG_LOAD = 1e-10


@dataclass
class Chain:
    """T chain instances stacked along a leading trial axis. Rows slices[c] of
    H, block R_hat[:, s_c, s_c], entry c of Q and F, column c of loaded and
    columns slices[c] of W belong to cluster c; Q_c spans all M antennas, so it
    stands for what cluster c reads off the message, not for data it holds."""
    H: np.ndarray            # T x M x K channels
    N: int                   # noise samples in the pool: a message is K x (K+N)
    slices: list[slice]
    E_s: float
    R_hat: np.ndarray        # T x M x M sample covariances of the pools
    Q: list[np.ndarray]      # T x M x M_c: Gamma[:, s_c] G_c^-1
    F: list[np.ndarray]      # T x K x M_c: E_s H_c^H G_c^-1
    loaded: np.ndarray       # T x C: diagonal loading applied to that Gram matrix
    W: np.ndarray            # T x K x M equalizers

    def __post_init__(self):
        # bcd_block_update's own: per cluster a T x K x M_c buffer for W Q_c,
        # and the column blocks of W, views of the array they were made from
        self._WQ = [np.empty_like(F) for F in self.F]
        self._blocks = None, []


def make_chain(channels: model.ChannelSet, pool: np.ndarray, E_s: float) -> Chain:
    """Build the chains of a stack of trials (see model.stack_trials), with
    W = 0, from H and the pool's sample covariance R_hat; a single trial
    builds a stack of one. It loads a near-singular Gram matrix and flags it
    in loaded; the caller, which knows the trial and grid point, warns."""
    H = channels.H if channels.H.ndim == 3 else channels.H[None]
    R_hat = model.sample_covariance(pool if pool.ndim == 3 else pool[None])
    T, M, K = H.shape
    slices = model.cluster_slices(channels.cluster_sizes)
    Q, F = [], []
    loaded = np.zeros((T, len(slices)), dtype=bool)
    for c, s in enumerate(slices):
        G = E_s * (H[:, s] @ herm(H[:, s])) + R_hat[:, s, s]
        loaded[:, c] = rcond(G) < RCOND_FLOOR
        for t in np.flatnonzero(loaded[:, c]):
            # keep long Monte Carlo runs alive on near-singular local blocks
            delta = DIAG_LOAD * np.trace(G[t]).real / G.shape[-1]
            G[t] += delta * np.eye(G.shape[-1])
        G_inv = np.linalg.inv(G)
        F.append(E_s * herm(H[:, s]) @ G_inv)
        # Gamma[:, s_c] G_c^-1 in parts: one product, or a solve for G_c^-1,
        # rounds worse on a loaded block, where the sweeps then read as ascent
        Q.append(H @ F[c] + R_hat[:, :, s] @ G_inv)
    return Chain(H=H, N=pool.shape[-1], slices=slices, E_s=E_s, R_hat=R_hat, Q=Q, F=F,
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
    the MMSE equalizer for the block-diagonal covariance diag(R_11, ..., R_CC):
    local solves, then one K x K Gram accumulation circuit.
    Sets chain.W and returns a copy of it; a ledger books one instance's Gram phase.
    """
    X = np.concatenate([herm_solve(chain.R_hat[:, s, s], chain.H[:, s],
                                   what=f"cluster {c}: local covariance block R_cc")
                        for c, s in enumerate(chain.slices)], axis=1)  # R_cc^-1 H_c
    if ledger is not None:
        ledger.book(chain_traffic(chain.H.shape[-1], chain.N, None))
    chain.W = mmse_from(chain.H, X, chain.E_s)
    return chain.W.copy()


def bcd_block_update(chain: Chain, c: int) -> None:
    """One coordinate-descent block solve at cluster c, in every trial:
    W_c += F_c - W Q_c moves W_c to the block minimizer. W Q_c, then
    F_c - W Q_c, is written into the cluster's buffer, reused across the
    sweeps, and added into a view of W's column block, kept while chain.W
    is the same array."""
    if chain._blocks[0] is not chain.W:
        chain._blocks = chain.W, [chain.W[:, :, s] for s in chain.slices]
    step = np.matmul(chain.W, chain.Q[c], out=chain._WQ[c])
    np.subtract(chain.F[c], step, out=step)
    block = chain._blocks[1][c]
    block += step


@dataclass
class BcdResult:
    W: np.ndarray            # T x K x M final equalizers
    ledger: TrafficLedger
    kept: dict[int, np.ndarray]  # block-update count u -> T x K x M W after u updates


def powered(d: int, K: int, M: int) -> bool:
    """Whether run_bcd advances a gap of d whole sweeps by powers of the sweep
    map at K users and M antennas. Building the map and each squaring cost
    about (M+K)/K sweeps of arithmetic, in far fewer calls, so powers pay
    only on deep gaps: past 2.5 M/K sweeps, the measured break-even of a
    desk (M/K = 8) and a paper (M/K = 16) chunk."""
    return 2 * d * K > 5 * M


def _sweep_map(chain: Chain) -> np.ndarray:
    """The sweep map of every trial as one T x (M+K) x M stack [S; b]: one
    sweep takes W to W S + b. S = prod_c (I - Q_c E_c^T) is the C block
    updates without F_c applied to the identity, b one sweep from W = 0; the
    rows of [I; 0] take both at once, as Y_c += [0; F_c] - Y Q_c."""
    T, M, K = chain.H.shape
    Y = np.zeros((T, M + K, M), dtype=complex)
    Y[:, range(M), range(M)] = 1.0
    for c, s in enumerate(chain.slices):
        step = Y @ chain.Q[c]
        step[:, M:] -= chain.F[c]
        Y[:, :, s] -= step
    return Y


def _advance(W: np.ndarray, Y: np.ndarray, d: int) -> np.ndarray:
    """W after d sweeps of the map Y = [S; b], by binary powers: W S_p + b_p
    for each set bit p of d, squaring (S, b) -> (S^2, b S + b) in between."""
    M = Y.shape[-1]
    while True:
        if d & 1:
            W = W @ Y[:, :M] + Y[:, M:]
        d >>= 1
        if not d:
            return W
        square = Y @ Y[:, :M]
        square[:, M:] += Y[:, M:]
        Y = square


def run_bcd(chain: Chain, schedule: Schedule, keep: Collection[int] = (),
            on_keep: Callable[[int, np.ndarray], None] | None = None) -> BcdResult:
    """Full chain run: block-diagonal init, message preprocessing circuits,
    L sweeps of C block updates.

    Returns the final equalizers, the ledger of one chain instance's traffic
    (chain_traffic on every loop link), and a copy of W after each block-update
    count u in keep: u = 0 is the BDAC start, u = d C the end of sweep d. With
    on_keep, no copy is kept: on_keep(u, W) gets the chain's own W, which the
    next block update changes in place.
    Between consecutive counts of keep (and the end), a gap of d whole sweeps
    that powered() calls deep is advanced by powers of the sweep map, built
    once per run; every other gap runs bcd_block_update one block at a time.
    """
    C = len(chain.slices)
    M, K = chain.H.shape[-2:]
    ledger = TrafficLedger(Topology("uni_loop", C))
    ledger.book(chain_traffic(K, chain.N, schedule.L))
    bdac_init(chain)
    end, u, sweep_map, kept = schedule.L * C, 0, None, {}
    for stop in sorted({v for v in keep if 0 <= v < end} | {end}):
        if u % C == 0 and stop % C == 0 and powered((stop - u) // C, K, M):
            if sweep_map is None:
                sweep_map = _sweep_map(chain)
            chain.W = _advance(chain.W, sweep_map, (stop - u) // C)
        else:
            for v in range(u + 1, stop + 1):
                bcd_block_update(chain, (v - 1) % C)
        u = stop
        if u in keep and on_keep is None:
            kept[u] = chain.W.copy()
        elif u in keep:
            on_keep(u, chain.W)
    return BcdResult(chain.W, ledger, kept)
