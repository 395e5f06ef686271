import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmmse import model

from conftest import colored_noise_reference, crandn_reference, make_instance


def test_scenario_invariants_enforced():
    with pytest.raises(ValueError):
        model.Scenario(M=8, K=4, C=2, cluster_sizes=(4, 3), N=16)
    with pytest.raises(ValueError):
        model.Scenario(M=4, K=8, C=1, cluster_sizes=(4,), N=16)
    with pytest.raises(ValueError):
        model.Scenario(M=8, K=4, C=2, cluster_sizes=(4, 4), N=2)  # N < max M_c
    # E_s is the constant 1.0, not a field
    assert model.Scenario(M=8, K=4, C=2, N=16).E_s == 1.0
    with pytest.raises(TypeError):
        model.Scenario(M=8, K=4, C=2, cluster_sizes=(4, 4), N=16, E_s=2.0)
    # without cluster_sizes, M is split into C equal clusters
    assert model.Scenario(M=8, K=4, C=2, N=16).cluster_sizes == (4, 4)
    with pytest.raises(ValueError, match="^M=8 not divisible by C=3$"):
        model.Scenario(M=8, K=4, C=3, N=16)
    with pytest.raises(ValueError, match="^M=8 not divisible by C=0$"):
        model.Scenario(M=8, K=4, C=0, N=16)
    with pytest.raises(TypeError):  # the fields are keyword-only
        model.Scenario(8, 4, 2, (4, 4), 16)


def test_channel_unit_variance_statistics():
    # gains forced to 1: entries should have unit mean power; one big draw
    # gives 1e5 entries for the statistical check
    sc = model.Scenario(M=50_000, K=2, C=1, cluster_sizes=(50_000,), N=50_000,
                        gain_range_db=(0.0, 0.0))
    ch = model.build_channel(sc, np.random.default_rng(7))
    power = np.mean(np.abs(ch.H) ** 2)
    assert abs(power - 1.0) < 0.02


def test_channel_deterministic_under_seed():
    sc = model.Scenario(M=16, C=4, K=4, K_int=3, N=32, gain_range_db=(-6.0, 0.0))
    a = model.build_channel(sc, np.random.default_rng(42))
    b = model.build_channel(sc, np.random.default_rng(42))
    assert np.array_equal(a.H, b.H) and np.array_equal(a.H_int, b.H_int)


def test_no_interference_gives_empty_channel_and_white_noise():
    sc = model.Scenario(M=8, C=2, K=2, K_int=0, N=16, iot_db=None)
    ch = model.build_channel(sc, np.random.default_rng(1))
    assert ch.H_int.shape == (8, 0)
    R = model.exact_covariance(ch, sc)
    sigma2, p_int, _ = model.powers_from_ratios(sc)
    assert p_int == 0.0
    np.testing.assert_allclose(R, sigma2 * np.eye(8), atol=0)


def test_exact_covariance_white_reduction():
    sc = model.Scenario(M=4, C=2, K=2, K_int=0, N=8, iot_db=None,
                        es_n0_db=0.0)
    ch = model.build_channel(sc, np.random.default_rng(0))
    R = model.exact_covariance(ch, sc)
    np.testing.assert_allclose(R, np.eye(4))


def test_exact_covariance_rank_one_outer_product():
    sc = model.Scenario(M=4, C=2, K=2, K_int=1, N=8, es_n0_db=10.0, iot_db=10.0)
    ch = model.build_channel(sc, np.random.default_rng(0))
    e1 = np.zeros((4, 1), dtype=complex)
    e1[0, 0] = 1.0
    ch = dataclasses.replace(ch, H_int=e1)
    sigma2, p_int, _ = model.powers_from_ratios(sc)
    # rebuild with sigma2=0, p_int=1 directly through the covariance formula
    R = p_int * (e1 @ e1.conj().T)
    full = model.exact_covariance(ch, sc) - sigma2 * np.eye(4)
    np.testing.assert_allclose(full, R, atol=1e-15)
    assert np.linalg.matrix_rank(full) == 1


def test_exact_covariance_monte_carlo_oracle():
    # empirical covariance of 1e6 independent colored draws, chunked
    sc = model.Scenario(M=4, C=2, K=2, K_int=3, N=8, es_n0_db=6.0,
                        iot_db=8.0)
    ch = model.build_channel(sc, np.random.default_rng(5))
    R = model.exact_covariance(ch, sc)
    rng = np.random.default_rng(99)
    acc = np.zeros((4, 4), dtype=complex)
    total = 1_000_000
    chunk = 100_000
    for _ in range(total // chunk):
        n = model.draw_noise_pool(ch, dataclasses.replace(sc, N=chunk), rng)
        acc += n @ n.conj().T
    emp = acc / total
    assert np.linalg.norm(emp - R) / np.linalg.norm(R) < 0.01


@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(), (1,), (1, 1), (3, 0), (4, 7), (2, 3, 5), (32, 20000)]))
@settings(max_examples=60, deadline=None)
def test_crandn_is_the_reference_formula_byte_for_byte(seed, shape):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = model.crandn(rng, *shape), crandn_reference(ref, *shape)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert got.tobytes() == want.tobytes()
    assert rng.random() == ref.random()  # both streams advanced alike


class _FixedNormals:
    """Generator stand-in whose standard_normal writes the given values."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, out):
        out[...] = self.values


def test_fill_crandn_scales_each_draw_and_keeps_the_sign_of_zero():
    draws = np.array([[0.0, -0.0, 1.5, -2.25, 0.0, -0.0, 0.3],
                      [-0.0, 0.0, 0.0, -0.0, 0.7, -3.1, -0.0]])
    z = model.crandn(_FixedNormals(draws), draws.shape[1])
    scaled = draws * (1 / np.sqrt(2.0))
    assert z.real.tobytes() == scaled[0].tobytes()
    assert z.imag.tobytes() == scaled[1].tobytes()
    assert (np.signbit(z.real) == np.signbit(draws[0])).all()
    assert (np.signbit(z.imag) == np.signbit(draws[1])).all()
    # the complex formula gives the same values, and the same bits for every
    # nonzero draw; only the sign of a zero may differ
    ref = (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
    assert (z == ref).all()
    for got, want, d in ((z.real, ref.real, draws[0]), (z.imag, ref.imag, draws[1])):
        assert got[d != 0].tobytes() == want[d != 0].tobytes()


@pytest.mark.parametrize("K_int, iot_db", [(3, 10.0), (0, None)])
def test_colored_noise_is_the_reference_formula_byte_for_byte(K_int, iot_db):
    sc = model.Scenario(M=6, C=2, K=2, K_int=K_int, N=40, iot_db=iot_db,
                        es_n0_db=3.0)
    ch = model.build_channel(sc, np.random.default_rng(5))
    sigma2, p_int, _ = model.powers_from_ratios(sc)
    for seed in range(5):
        want = colored_noise_reference(ch, sigma2, p_int, 40, np.random.default_rng(seed))
        got = model.draw_noise_pool(ch, sc, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def test_noise_pool_count_and_partition():
    rng = np.random.default_rng(0)
    sc = model.Scenario(M=3, C=3, K=2, K_int=2, N=1)
    pool = model.draw_noise_pool(model.build_channel(sc, rng), sc, rng)
    assert pool.shape == (3, 1)
    sc2 = model.Scenario(M=6, C=3, K=2, K_int=2, N=10)
    pool2 = model.draw_noise_pool(model.build_channel(sc2, rng), sc2, rng)
    stacked = np.vstack([pool2[s] for s in model.cluster_slices(sc2.cluster_sizes)])
    np.testing.assert_array_equal(stacked, pool2)


def test_noise_pool_zero_sources():
    rng = np.random.default_rng(0)
    sc = model.Scenario(M=4, C=2, K=2, K_int=0, N=8, iot_db=None)
    sc = dataclasses.replace(sc, es_n0_db=np.inf)  # sigma2 = 0
    pool = model.draw_noise_pool(model.build_channel(sc, rng), sc, rng)
    assert np.all(pool == 0)


def test_sample_covariance_shrinks_like_sqrt_n():
    sc0 = model.Scenario(M=8, C=2, K=2, K_int=4, N=8, es_n0_db=10.0,
                         iot_db=10.0)
    ch = model.build_channel(sc0, np.random.default_rng(11))
    R = model.exact_covariance(ch, sc0)
    errs = []
    for N in (1_000, 10_000, 100_000):
        sc = dataclasses.replace(sc0, N=N)
        per_pool = [
            np.linalg.norm(model.sample_covariance(
                model.draw_noise_pool(ch, sc, np.random.default_rng([N, t]))) - R)
            for t in range(6)]
        errs.append(np.mean(per_pool))
    slope = np.polyfit(np.log10([1e3, 1e4, 1e5]), np.log10(errs), 1)[0]
    assert -0.6 < slope < -0.4


def test_sample_covariance_single_and_zero_samples():
    rng = np.random.default_rng(2)
    sc = model.Scenario(M=2, C=2, K=1, K_int=1, N=1)
    pool = model.draw_noise_pool(model.build_channel(sc, rng), sc, rng)
    n = pool[:, 0]
    np.testing.assert_allclose(model.sample_covariance(pool),
                               np.outer(n, n.conj()))
    zero = np.zeros((4, 3), complex)
    assert np.all(model.sample_covariance(zero) == 0)
    empty = np.zeros((4, 0), complex)
    with pytest.raises(ValueError):
        model.sample_covariance(empty)


def test_sample_covariance_two_loop_oracle():
    sc, ch, pool, Rhat = make_instance(seed=8, M=8, C=2, K=2, K_int=2, N=64)
    acc = np.zeros((8, 8), dtype=complex)
    for i in range(sc.N):
        n = pool[:, i]
        for a in range(8):
            for b in range(8):
                acc[a, b] += n[a] * np.conj(n[b])
    acc /= sc.N
    assert np.max(np.abs(acc - Rhat)) < 1e-14


def test_sample_covariance_of_a_stack_is_the_stacked_product_bit_for_bit():
    # formed one trial at a time, without a copy of the whole pool's conjugate
    pool = model.crandn(np.random.default_rng(9), 2, 3, 8, 20)
    want = pool @ pool.conj().swapaxes(-1, -2) / 20
    got = model.sample_covariance(pool)
    assert got.shape == (2, 3, 8, 8) and (got == want).all()
    assert (model.sample_covariance(pool[1, 2]) == want[1, 2]).all()


def test_powers_from_ratios_values():
    sc = model.Scenario(M=4, C=2, K=2, K_int=0, N=8, iot_db=None,
                        es_n0_db=0.0)
    sigma2, p_int, scale = model.powers_from_ratios(sc)
    assert sigma2 == 1.0 and p_int == 0.0 and scale == 1.0
    sc = model.Scenario(M=4, C=2, K=2, K_int=1, N=8, iot_db=10.0,
                        es_n0_db=0.0)
    sigma2, p_int, _ = model.powers_from_ratios(sc)
    assert sigma2 == pytest.approx(1.0) and p_int == pytest.approx(10.0)
    # iot 10 dB, 8 interferers, sigma2 = 0.5: p_int = 0.5 * 10 / 8
    sc = model.Scenario(M=16, C=2, K=2, K_int=8, N=16, iot_db=10.0,
                        es_n0_db=10.0 * np.log10(2.0))
    sigma2, p_int, _ = model.powers_from_ratios(sc)
    assert sigma2 == pytest.approx(0.5)
    assert p_int == pytest.approx(0.625)


def test_powers_inconsistent_interference_config():
    sc = model.Scenario(M=4, C=2, K=2, K_int=0, N=8, iot_db=10.0)
    with pytest.raises(ValueError):
        model.powers_from_ratios(sc)


@given(seed=st.integers(0, 10_000), C=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_partition_round_trip(seed, C):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(1, 5, size=C))
    M = sum(sizes)
    sc = model.Scenario(M=M, K=1, C=C, cluster_sizes=sizes, N=max(sizes) + 2,
                        K_int=1)
    ch = model.build_channel(sc, rng)
    pool = model.draw_noise_pool(ch, sc, rng)
    R = model.sample_covariance(pool)
    slices = model.cluster_slices(sizes)
    assert [s.stop - s.start for s in slices] == list(sizes)
    assert slices[0].start == 0 and slices[-1].stop == M
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    np.testing.assert_array_equal(np.vstack([ch.H[s] for s in slices]), ch.H)
    np.testing.assert_array_equal(np.vstack([pool[s] for s in slices]), pool)
    rebuilt = np.block([[R[m, n] for n in slices] for m in slices])
    np.testing.assert_array_equal(rebuilt, R)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sample_covariance_hermitian_psd(seed):
    _, _, _, Rhat = make_instance(seed=seed, M=8, C=2, K=2, K_int=2, N=16)
    full = Rhat
    herm_err = np.max(np.abs(full - full.conj().T))
    assert herm_err <= 1e-12 * max(np.max(np.abs(full)), 1e-300)
    eigs = np.linalg.eigvalsh(full)
    assert eigs.min() >= -1e-10 * np.trace(full).real
    assert np.all(np.diag(full).real >= 0)
    slices = model.cluster_slices((4, 4))
    for m in slices:
        for n in slices:
            np.testing.assert_array_equal(Rhat[m, n], Rhat[n, m].conj().T)
