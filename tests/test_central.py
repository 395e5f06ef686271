import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainmmse import model
from chainmmse.central import (RCOND_FLOOR, SingularMatrixError, herm, herm_solve,
                               mmse_centralized, mmse_exact, rcond, sample_objective,
                               zf_centralized)

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


def test_objective_scores_each_algorithm_as_the_stacked_product_does():
    # one algorithm's W n at a time, bit for bit the value of the whole
    # A x T x K x N product
    rng = np.random.default_rng(12)
    A, T, K, M, N = 3, 4, 2, 6, 9
    W = model.crandn(rng, A, T, K, M)
    H, pool = model.crandn(rng, T, M, K), model.crandn(rng, T, M, N)
    stacked = (2.0 * np.linalg.norm(W @ H - np.eye(K), "fro", axis=(-2, -1)) ** 2
               + np.linalg.norm(W @ pool, "fro", axis=(-2, -1)) ** 2 / N)
    got = sample_objective(W, H, pool, 2.0)
    assert got.shape == (A, T) and (got == stacked).all()
    assert (sample_objective(W[0], H, pool, 2.0) == stacked[0]).all()
    one = sample_objective(W[1, 2], H[2], pool[2], 2.0)
    assert type(one) is np.float64 and one == stacked[1, 2]


def _exact_instance(seed, M, K, K_int, T, es_n0_db, iot_db):
    """A stack of T trials of one scenario with C = 1, and its noise powers."""
    sc = model.Scenario(M=M, K=K, C=1, N=M, K_int=K_int, es_n0_db=es_n0_db,
                        iot_db=iot_db, gain_range_db=(-6.0, 0.0))
    rng = np.random.default_rng(seed)
    channels = model.stack_channels([model.build_channel(sc, rng) for _ in range(T)])
    return sc, channels, model.powers_from_ratios(sc)[:2]


@st.composite
def _exact_cases(draw):
    """(seed, M, K, K_int, T, es_n0_db, iot_db) of a mmse_exact instance; with
    K_int >= M the interference spans every antenna, and the IoT reaches 200 dB."""
    M = draw(st.integers(1, 12), label="M")
    K = draw(st.integers(1, M), label="K")
    K_int = draw(st.integers(0, M + 2), label="K_int")
    no_power = st.sampled_from([None, -np.inf])
    iot = st.floats(-20.0, 200.0 if K_int >= M else 40.0)
    return (draw(st.integers(0, 2**32 - 1), label="seed"), M, K, K_int,
            draw(st.integers(1, 3), label="T"), draw(st.floats(-10.0, 30.0), label="es_n0_db"),
            draw(no_power if K_int == 0 else no_power | iot, label="iot_db"))


@given(case=_exact_cases())
@example(case=(0, 8, 2, 16, 2, 10.0, 120.0))  # more interferers than antennas
@example(case=(0, 8, 2, 8, 2, 10.0, 200.0))   # as many: the lemma cancels H in full
@settings(max_examples=80, deadline=None)
def test_mmse_exact_equals_the_solve_against_the_full_covariance(case):
    seed, M, K, K_int, T, es_n0_db, iot_db = case
    sc, ch, (sigma2, p_int) = _exact_instance(seed, M, K, K_int, T, es_n0_db, iot_db)
    W = mmse_exact(ch.H, ch.H_int, sigma2, p_int, sc.E_s)
    ref = mmse_centralized(ch.H, model.exact_covariance(ch, sc), sc.E_s)
    assert W.shape == ref.shape == (T, K, M)
    for t in range(T):
        assert np.linalg.norm(W[t] - ref[t]) <= 1e-10 * np.linalg.norm(ref[t])


@pytest.mark.parametrize("T, where", [(None, ""), (2, " in trial 0")])
@pytest.mark.parametrize("K_int, iot_db", [(0, None), (3, 10.0)])
def test_mmse_exact_rejects_a_noise_free_covariance(T, where, K_int, iot_db):
    sc, ch, (sigma2, p_int) = _exact_instance(5, 6, 2, K_int, T or 1, np.inf, iot_db)
    H, H_int = (ch.H, ch.H_int) if T else (ch.H[0], ch.H_int[0])
    with pytest.raises(SingularMatrixError,
                       match=f"^noise covariance{where} is numerically singular"):
        mmse_exact(H, H_int, sigma2, p_int, sc.E_s)


def test_mmse_exact_solves_where_the_full_covariance_reads_singular():
    # at IoT 120 dB, R = sigma2 I + p_int H_int H_int^H is sigma2 I on the
    # M - K_int directions outside the interference: its rcond is below the
    # floor, while the interference Gram matrix stays well conditioned
    sc, ch, (sigma2, p_int) = _exact_instance(1, 32, 4, 4, 2, 8.0, 120.0)
    with pytest.raises(SingularMatrixError, match="noise covariance"):
        mmse_centralized(ch.H, model.exact_covariance(ch, sc), sc.E_s)
    W = mmse_exact(ch.H, ch.H_int, sigma2, p_int, sc.E_s)
    # W nulls the interference and passes the users
    assert np.abs(W @ ch.H_int).max() < 1e-4 * np.abs(W @ ch.H).max()


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



def _guarded_stack(rng, kind, n, T, samples):
    """T Hermitian n x n matrices of a kind the simulator guards, each built
    from `samples` random vectors: the sample covariance of a noise pool, a
    chain Gram block E_s H H^H + R_cc (H with two users), or the ZF Gram
    matrix H^H H of `samples` antennas. Users get log-uniform gains, as in
    model.build_channel."""
    def users(rows, count):
        gains = 10.0 ** (rng.uniform(-6.0, 0.0, count) / 10.0)
        return model.crandn(rng, T, rows, count) * np.sqrt(gains)

    if kind == "zf_gram":
        H = users(samples, n)
        return herm(H) @ H
    R = model.sample_covariance(model.crandn(rng, T, n, samples))
    if kind == "sample_covariance":
        return R
    H = users(n, 2)
    return 10.0 ** rng.uniform(-2.0, 3.0) * (H @ herm(H)) + R


KINDS = ["sample_covariance", "chain_gram", "zf_gram"]


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
       n=st.integers(1, 32), T=st.integers(1, 8), extra=st.integers(0, 64))
@settings(max_examples=60, deadline=None)
def test_rcond_is_at_least_the_eigenvalue_ratio(seed, kind, n, T, extra):
    A = _guarded_stack(np.random.default_rng(seed), kind, n, T, n + extra)
    r = rcond(A)
    w = np.linalg.eigvalsh(A)
    ratio = w[:, 0] / w[:, -1]
    assert r.shape == (T,) and np.all((r >= 0.0) & (r <= 1.0))
    sure = ratio >= 1e-8
    assert np.all(r[sure] > 0.0)
    assert np.all(r[sure] >= ratio[sure] * (1.0 - 1e-9))
    for t in range(T):  # one stacked factorization reads each matrix as alone
        assert rcond(A[t]).shape == () and rcond(A[t]) == r[t]


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["sample_covariance", "zf_gram"]),
       n=st.integers(3, 32), T=st.integers(1, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_rank_deficient_and_indefinite_matrices_fall_below_both_thresholds(
        seed, kind, n, T, data):
    # at least two vectors short of full rank; see the rcond docstring for
    # matrices one short
    samples = data.draw(st.integers(1, n - 2), label="samples")
    A = _guarded_stack(np.random.default_rng(seed), kind, n, T, samples)
    assert np.all(rcond(A) < RCOND_FLOOR)
    # shifting a positive definite matrix by its mean diagonal entry makes
    # its smallest eigenvalue negative
    pd = _guarded_stack(np.random.default_rng(seed), kind, n, T, n + 4)
    shift = np.diagonal(pd, axis1=-2, axis2=-1).real.mean(axis=-1)
    indefinite = pd - shift[:, None, None] * np.eye(n)
    assert np.all(rcond(indefinite) < RCOND_FLOOR)


@pytest.mark.parametrize("n", [1, 4, 32])
def test_zero_and_collinear_gram_matrices_fall_below_both_thresholds(n):
    assert rcond(np.zeros((n, n), dtype=complex)) < RCOND_FLOOR
    # Gram matrices of n + 1 users, two of them with collinear channels 60 dB
    # apart, the weak one first: the strong one's pivot is rounding noise of
    # its large diagonal entry, and about half of them factor
    rng = np.random.default_rng(n)
    for _ in range(20):
        h = _rand_complex(rng, n + 1, 1)
        H = np.hstack([_rand_complex(rng, n + 1, n - 1), h, 1e3 * h])
        assert rcond(H.conj().T @ H) < RCOND_FLOOR


@pytest.mark.parametrize("seed", [696, 3143, 4499, 8072, 13475])
def test_gram_matrix_one_rank_short_is_rejected(seed):
    # V V^H of 31 vectors in 32 dimensions: the Cholesky estimate of these
    # reads 1.2e-12 to 1.5e-11, above the floor, and the eigenvalue ratio ~1e-16
    rng = np.random.default_rng(seed)
    V = (rng.standard_normal((32, 31)) + 1j * rng.standard_normal((32, 31))) / np.sqrt(2)
    A = V @ herm(V)
    with pytest.raises(SingularMatrixError, match="is numerically singular"):
        herm_solve(A, np.ones((32, 1), dtype=complex))
    stack = np.stack([_rand_pd(rng, 32), A])
    with pytest.raises(SingularMatrixError, match="in trial 1 is numerically singular"):
        herm_solve(stack, np.ones((2, 32, 1), dtype=complex))


def test_failed_factorization_in_a_stack_names_its_trial():
    rng = np.random.default_rng(7)
    pd = _rand_pd(rng, 4)
    A = np.stack([pd, np.zeros((4, 4), dtype=complex), pd])
    r = rcond(A)
    assert r[1] == 0.0 and r[0] == r[2] == rcond(pd) > 0.0
    with pytest.raises(SingularMatrixError, match="trial 1 is numerically singular"):
        herm_solve(A, np.ones((3, 4, 1), dtype=complex), what="Gram matrix")
