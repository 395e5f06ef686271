"""Centralized equalizers: linear MMSE (exact or sample covariance), ZF, and helpers.

Every function takes a single matrix or a stack of trials along leading axes
(H of shape (T, M, K), W of shape (T, K, M)); a stack runs as one batched
call, and each trial's result is the same as when it is passed alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoisePool, cluster_slices

RCOND_FLOOR = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """Hermitian solve rejected: matrix not positive definite enough."""


def herm(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return A.conj().swapaxes(-1, -2)


def herm_solve(A: np.ndarray, B: np.ndarray, *, rcond_floor: float = RCOND_FLOOR,
               what: str = "matrix") -> np.ndarray:
    """Solve A X = B for Hermitian positive definite A, or a stack of them.

    The eigenvalues are the positive-definiteness check: raises
    SingularMatrixError, naming the first failing trial of a stack, when the
    reciprocal condition number (ratio of extreme eigenvalues) falls below
    rcond_floor. The solve itself is LU-based (np.linalg.solve).
    """
    w = np.linalg.eigvalsh(A)
    lo, hi = w[..., 0], w[..., -1]
    rcond = np.divide(lo, hi, out=np.zeros_like(lo), where=hi > 0.0)
    bad = (lo <= 0.0) | (rcond < rcond_floor)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        where = f" in trial {t}" if bad.ndim else ""
        raise SingularMatrixError(f"{what}{where} is numerically singular "
                                  f"(rcond ~ {rcond.flat[t]:.2e})")
    return np.linalg.solve(A, B)


@dataclass(frozen=True)
class EqualizerMatrix:
    """K x M equalizer W (or a (T, K, M) stack) with per-cluster column
    blocks W_c (K x M_c)."""
    W: np.ndarray
    cluster_sizes: tuple[int, ...]
    label: str = ""

    def block(self, c: int) -> np.ndarray:
        return self.W[..., cluster_slices(self.cluster_sizes)[c]]

    @property
    def blocks(self) -> list[np.ndarray]:
        return [self.W[..., s] for s in cluster_slices(self.cluster_sizes)]


def _as_array(W) -> np.ndarray:
    return W.W if isinstance(W, EqualizerMatrix) else np.asarray(W)


def mmse_centralized(H: np.ndarray, R, E_s: float,
                     cluster_sizes: tuple[int, ...] | None = None,
                     label: str = "mmse") -> EqualizerMatrix:
    """Linear MMSE equalizer (H^H R^-1 H + I/E_s)^-1 H^H R^-1.

    R may be a Covariance or a plain (M, M) array. Computed through two
    Hermitian solves; R is never explicitly inverted.
    """
    Rfull = R.full if hasattr(R, "full") else np.asarray(R)
    M, K = H.shape[-2:]
    X = herm_solve(Rfull, H, what="noise covariance")        # R^-1 H
    G = herm(H) @ X + np.eye(K) / E_s
    W = herm_solve(G, herm(X), what="MMSE normal matrix")
    return EqualizerMatrix(W=W, cluster_sizes=cluster_sizes or (M,), label=label)


def zf_centralized(H: np.ndarray,
                   cluster_sizes: tuple[int, ...] | None = None) -> EqualizerMatrix:
    """Zero-forcing pseudoinverse (H^H H)^-1 H^H."""
    M = H.shape[-2]
    G = herm(H) @ H
    try:
        W = herm_solve(G, herm(H), what="ZF Gram matrix")
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"channel is rank deficient: {exc}") from exc
    return EqualizerMatrix(W=W, cluster_sizes=cluster_sizes or (M,), label="zf")


def apply_equalizer(W, y: np.ndarray) -> np.ndarray:
    """Soft symbol estimates s_hat = W y."""
    return _as_array(W) @ y


def sample_objective(W, H: np.ndarray, pool: NoisePool, E_s: float):
    """Sample-average MMSE cost E_s ||W H - I||_F^2 + (1/N) sum_i ||W n_i||^2.

    This is the quadratic the decentralized sweeps descend on; its unique
    minimizer is mmse_centralized(H, sample_covariance(pool), E_s). Returns
    one value per trial of a stack, a scalar for a single matrix.
    """
    Wm = _as_array(W)
    K = H.shape[-1]
    fit = Wm @ H - np.eye(K)
    noise = Wm @ pool.samples
    return (E_s * np.linalg.norm(fit, "fro", axis=(-2, -1)) ** 2
            + np.linalg.norm(noise, "fro", axis=(-2, -1)) ** 2 / pool.N)
