import numpy as np
import pytest

from chainmmse.central import (SingularMatrixError, mmse_centralized,
                               sample_objective, zf_centralized)

from conftest import make_instance


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_pd(rng, n):
    A = _rand_complex(rng, n, n)
    return A @ A.conj().T + 0.1 * np.eye(n)


def test_mmse_identity_channel_scalar_form():
    sigma2 = 0.3
    M = 3
    W = mmse_centralized(np.eye(M, dtype=complex), sigma2 * np.eye(M), E_s=1.0)
    np.testing.assert_allclose(W, np.eye(M) / (1.0 + sigma2), atol=1e-14)


def test_mmse_white_noise_reduction():
    rng = np.random.default_rng(0)
    H = _rand_complex(rng, 6, 3)
    E_s = 2.0
    W = mmse_centralized(H, np.eye(6), E_s)
    ref = np.linalg.solve(H.conj().T @ H + np.eye(3) / E_s, H.conj().T)
    np.testing.assert_allclose(W, ref, atol=1e-12)


def test_mmse_matrix_inversion_lemma_oracle():
    rng = np.random.default_rng(1)
    H = _rand_complex(rng, 4, 2)
    R = _rand_pd(rng, 4)
    E_s = 1.0
    W = mmse_centralized(H, R, E_s)
    alt = E_s * H.conj().T @ np.linalg.inv(E_s * (H @ H.conj().T) + R)
    assert np.linalg.norm(W - alt) / np.linalg.norm(alt) < 1e-10


def test_mmse_inversion_lemma_property_100_instances():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 9))
        K = int(rng.integers(1, M + 1))
        H = _rand_complex(rng, M, K)
        R = _rand_pd(rng, M)
        E_s = float(rng.uniform(0.1, 10.0))
        W = mmse_centralized(H, R, E_s)
        alt = E_s * H.conj().T @ np.linalg.inv(E_s * (H @ H.conj().T) + R)
        assert np.linalg.norm(W - alt) <= 1e-9 * np.linalg.norm(alt)


def test_mmse_rejects_singular_covariance():
    H = np.eye(2, dtype=complex)
    R = np.zeros((2, 2), dtype=complex)
    with pytest.raises(SingularMatrixError):
        mmse_centralized(H, R, 1.0)


def test_zf_identities():
    np.testing.assert_allclose(zf_centralized(np.eye(3, dtype=complex)), np.eye(3))
    np.testing.assert_allclose(zf_centralized(2.0 * np.eye(3, dtype=complex)),
                               0.5 * np.eye(3))


def test_zf_pseudoinverse_oracle():
    rng = np.random.default_rng(2)
    H = _rand_complex(rng, 8, 4)
    W = zf_centralized(H)
    assert np.max(np.abs(W @ H - np.eye(4))) < 1e-10


def test_zf_rank_deficient_fails():
    H = np.ones((4, 2), dtype=complex)  # identical columns
    with pytest.raises(SingularMatrixError):
        zf_centralized(H)


def test_sample_objective_trivials_and_trace_oracle(instance):
    sc, ch, pool, Rhat = instance
    K = sc.K
    zero = np.zeros((K, sc.M))
    assert sample_objective(zero, ch.H, pool, sc.E_s) == pytest.approx(sc.E_s * K)

    # perfect equalization, zero noise
    silent = np.zeros((sc.M, 4), complex)
    W_left_inv = np.linalg.pinv(ch.H)
    assert sample_objective(W_left_inv, ch.H, silent, sc.E_s) < 1e-20

    rng = np.random.default_rng(7)
    W = rng.standard_normal((K, sc.M)) + 1j * rng.standard_normal((K, sc.M))
    got = sample_objective(W, ch.H, pool, sc.E_s)
    ref = (sc.E_s * np.linalg.norm(W @ ch.H - np.eye(K), "fro") ** 2
           + np.trace(W @ Rhat @ W.conj().T).real)
    assert abs(got - ref) <= 1e-12 * ref


def test_mmse_minimizes_sample_objective(instance):
    sc, ch, pool, Rhat = instance
    W_star = mmse_centralized(ch.H, Rhat, sc.E_s)
    f_star = sample_objective(W_star, ch.H, pool, sc.E_s)
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = rng.standard_normal(W_star.shape) + 1j * rng.standard_normal(W_star.shape)
        d *= 1e-3 / np.linalg.norm(d, "fro")
        assert sample_objective(W_star + d, ch.H, pool, sc.E_s) >= f_star


def test_zf_is_high_energy_white_noise_mmse_limit():
    rng = np.random.default_rng(4)
    H = _rand_complex(rng, 8, 3)
    W_zf = zf_centralized(H)
    W_mmse = mmse_centralized(H, np.eye(8), E_s=1e8)
    assert np.linalg.norm(W_mmse - W_zf) / np.linalg.norm(W_zf) < 1e-3

