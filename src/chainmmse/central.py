"""Centralized equalizers: linear MMSE (exact or sample covariance), ZF, and helpers.

Every function takes a single matrix or a stack of trials along leading axes
(H of shape (T, M, K), W of shape (T, K, M)); a stack runs as one batched
call, and each trial's result is the same as when it is passed alone.
"""
from __future__ import annotations

import numpy as np

RCOND_FLOOR = 1e-12
# rcond estimates below this are confirmed by the eigenvalue ratio
RCOND_MARGIN = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    """Hermitian solve rejected: matrix not positive definite enough."""


def herm(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return A.conj().swapaxes(-1, -2)


def rcond(A: np.ndarray) -> np.ndarray:
    """Estimated reciprocal condition number of a Hermitian matrix or of each
    one in a stack: min_i L_ii^2 / max_i A_ii for the Cholesky factor L of A,
    and 0 when A is not numerically positive definite (the factorization
    fails).

    lambda_min <= L_ii^2 and A_ii <= lambda_max, so the estimate is never
    below the eigenvalue ratio lambda_min / lambda_max, and never above 1.
    Dividing by A's diagonal rather than L's keeps it at the rounding level
    for a singular matrix whose diagonal entries differ widely, where the
    last pivot is rounding noise of the largest one. A matrix one rank short
    can still read up to about 1.5e-11 when its leading block is ill
    conditioned (a few in 10^4 random 32 x 32 Gram matrices of 31 vectors),
    so an estimate below RCOND_MARGIN is replaced by the eigenvalue ratio
    itself, from eigvalsh. No matrix of the simulator's workloads reads below
    1.7e-4, so they never take that path.

    The whole stack is factored in one call; only when some matrix fails to
    factor is it refactored one matrix at a time.
    """
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if A.ndim == 2:
            return np.zeros(())
        return np.array([rcond(a) for a in A])
    pivots = np.diagonal(L, axis1=-2, axis2=-1).real ** 2
    ratio = pivots.min(axis=-1) / np.diagonal(A, axis1=-2, axis2=-1).real.max(axis=-1)
    r = np.array(np.minimum(ratio, 1.0))   # a pivot squared may round above A_ii
    low = r < RCOND_MARGIN
    if low.any():
        w = np.linalg.eigvalsh(A[low])
        r[low] = np.maximum(w[:, 0], 0.0) / w[:, -1]
    return r


def herm_solve(A: np.ndarray, B: np.ndarray, *, what: str = "matrix") -> np.ndarray:
    """Solve A X = B for Hermitian positive definite A, or a stack of them.

    rcond(A), a Cholesky factorization, is the positive-definiteness check:
    raises SingularMatrixError, naming the first failing trial of a stack,
    when it falls below RCOND_FLOOR. The solve itself is LU-based
    (np.linalg.solve); the factor only guards it.
    """
    r = rcond(A)
    bad = r < RCOND_FLOOR
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        where = f" in trial {t}" if bad.ndim else ""
        raise SingularMatrixError(f"{what}{where} is numerically singular "
                                  f"(rcond ~ {r.flat[t]:.2e})")
    return np.linalg.solve(A, B)


def mmse_centralized(H: np.ndarray, R: np.ndarray, E_s: float) -> np.ndarray:
    """Linear MMSE equalizer (H^H R^-1 H + I/E_s)^-1 H^H R^-1, shape (..., K, M).

    Computed through two Hermitian solves; R is never explicitly inverted.
    """
    return mmse_from(H, herm_solve(R, H, what="noise covariance"), E_s)


def mmse_exact(H: np.ndarray, H_int: np.ndarray, sigma2: float, p_int: float,
               E_s: float) -> np.ndarray:
    """mmse_centralized(H, R, E_s) for the exact noise covariance
    R = sigma2 I + p_int H_int H_int^H, forming R only when it is no larger
    than the interference Gram matrix.

    With fewer interferers than antennas (K_int < M), the matrix inversion
    lemma (Hager, SIAM Review 1989) gives
    R^-1 H = (H - H_int S^-1 H_int^H H) / sigma2 with the K_int x K_int
    interference Gram matrix S = H_int^H H_int + (sigma2 / p_int) I, so the
    cost is one K_int x K_int solve instead of two M x M factorizations.
    When H_int spans all M antennas (K_int >= M), the lemma cancels H in
    full and loses accuracy as the IoT grows, so R itself is solved, an
    M x M system no larger than S. Without interference (K_int = 0 or
    p_int = 0), R^-1 H = H / sigma2. R is singular when sigma2 = 0
    (noise-free), which raises.
    """
    if sigma2 == 0.0:
        where = " in trial 0" if H.ndim > 2 else ""
        raise SingularMatrixError(f"noise covariance{where} is numerically singular "
                                  "(thermal noise power 0)")
    M, K_int = H_int.shape[-2:]
    if K_int == 0 or p_int == 0.0:
        return mmse_from(H, H / sigma2, E_s)
    if K_int >= M:
        return mmse_centralized(H, sigma2 * np.eye(M) + p_int * (H_int @ herm(H_int)), E_s)
    S = herm(H_int) @ H_int + (sigma2 / p_int) * np.eye(K_int)
    B = herm_solve(S, herm(H_int) @ H, what="interference Gram matrix")
    return mmse_from(H, (H - H_int @ B) / sigma2, E_s)


def mmse_from(H: np.ndarray, X: np.ndarray, E_s: float) -> np.ndarray:
    """The MMSE equalizer (H^H X + I/E_s)^-1 X^H from X = R^-1 H."""
    G = herm(H) @ X + np.eye(H.shape[-1]) / E_s
    return herm_solve(G, herm(X), what="MMSE normal matrix")


def zf_centralized(H: np.ndarray) -> np.ndarray:
    """Zero-forcing pseudoinverse (H^H H)^-1 H^H, shape (..., K, M)."""
    G = herm(H) @ H
    try:
        return herm_solve(G, herm(H), what="ZF Gram matrix")
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"channel is rank deficient: {exc}") from exc


def sample_objective(W: np.ndarray, H: np.ndarray, pool: np.ndarray, E_s: float):
    """Sample-average MMSE cost E_s ||W H - I||_F^2 + (1/N) sum_i ||W n_i||^2
    over the N columns n_i of the noise pool.

    This is the quadratic the decentralized sweeps descend on; its unique
    minimizer is mmse_centralized(H, sample_covariance(pool), E_s). Returns
    one value per matrix of a stack, a scalar for a single matrix. W may carry
    leading axes beyond H's, such as a run's algorithms: it is scored one
    index of them at a time, so only that index's W n products are held.
    """
    eye = np.eye(H.shape[-1])
    value = np.empty(W.shape[:-2])
    for i in np.ndindex(W.shape[:W.ndim - H.ndim]):
        value[i] = (E_s * np.linalg.norm(W[i] @ H - eye, "fro", axis=(-2, -1)) ** 2
                    + np.linalg.norm(W[i] @ pool, "fro", axis=(-2, -1)) ** 2 / pool.shape[-1])
    return value[()]
