"""Centralized equalizers: linear MMSE (exact or sample covariance), ZF, and helpers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import NoisePool, cluster_slices

RCOND_FLOOR = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """Hermitian solve rejected: matrix not positive definite enough."""


def herm_solve(A: np.ndarray, B: np.ndarray, *, rcond_floor: float = RCOND_FLOOR,
               what: str = "matrix") -> np.ndarray:
    """Solve A X = B for Hermitian positive definite A via Cholesky.

    Raises SingularMatrixError when the reciprocal condition number (ratio of
    extreme eigenvalues) falls below rcond_floor.
    """
    w = np.linalg.eigvalsh(A)
    rcond = w[0] / w[-1] if w[-1] > 0.0 else 0.0
    if w[0] <= 0.0 or rcond < rcond_floor:
        raise SingularMatrixError(f"{what} is numerically singular (rcond ~ {rcond:.2e})")
    cho = scipy.linalg.cho_factor(A, check_finite=False)
    return scipy.linalg.cho_solve(cho, B, check_finite=False)


@dataclass(frozen=True)
class EqualizerMatrix:
    """K x M equalizer W with per-cluster column blocks W_c (K x M_c)."""
    W: np.ndarray
    cluster_sizes: tuple[int, ...]
    label: str = ""

    def block(self, c: int) -> np.ndarray:
        return self.W[:, cluster_slices(self.cluster_sizes)[c]]

    @property
    def blocks(self) -> list[np.ndarray]:
        return [self.W[:, s] for s in cluster_slices(self.cluster_sizes)]


def _as_array(W) -> np.ndarray:
    return W.W if isinstance(W, EqualizerMatrix) else np.asarray(W)


def mmse_centralized(H: np.ndarray, R, E_s: float,
                     cluster_sizes: tuple[int, ...] | None = None,
                     label: str = "mmse") -> EqualizerMatrix:
    """Linear MMSE equalizer (H^H R^-1 H + I/E_s)^-1 H^H R^-1.

    R may be a Covariance or a plain (M, M) array. Computed through two
    Hermitian factorizations; R is never explicitly inverted.
    """
    Rfull = R.full if hasattr(R, "full") else np.asarray(R)
    M, K = H.shape
    X = herm_solve(Rfull, H, what="noise covariance")        # R^-1 H
    G = H.conj().T @ X + np.eye(K) / E_s
    W = herm_solve(G, X.conj().T, what="MMSE normal matrix")
    return EqualizerMatrix(W=W, cluster_sizes=cluster_sizes or (M,), label=label)


def zf_centralized(H: np.ndarray,
                   cluster_sizes: tuple[int, ...] | None = None) -> EqualizerMatrix:
    """Zero-forcing pseudoinverse (H^H H)^-1 H^H."""
    M, K = H.shape
    G = H.conj().T @ H
    try:
        W = herm_solve(G, H.conj().T, what="ZF Gram matrix")
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"channel is rank deficient: {exc}") from exc
    return EqualizerMatrix(W=W, cluster_sizes=cluster_sizes or (M,), label="zf")


def apply_equalizer(W, y: np.ndarray) -> np.ndarray:
    """Soft symbol estimates s_hat = W y."""
    return _as_array(W) @ y


def sample_objective(W, H: np.ndarray, pool: NoisePool, E_s: float) -> float:
    """Sample-average MMSE cost E_s ||W H - I||_F^2 + (1/N) sum_i ||W n_i||^2.

    This is the quadratic the decentralized sweeps descend on; its unique
    minimizer is mmse_centralized(H, sample_covariance(pool), E_s).
    """
    Wm = _as_array(W)
    K = H.shape[1]
    fit = Wm @ H - np.eye(K)
    noise = Wm @ pool.samples
    return float(E_s * np.linalg.norm(fit, "fro") ** 2
                 + np.linalg.norm(noise, "fro") ** 2 / pool.N)
