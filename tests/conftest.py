import dataclasses

import numpy as np
import pytest

from chainmmse import detect, harness, model


def make_instance(seed=0, M=16, C=4, K=4, K_int=4, N=64, es_n0_db=10.0,
                  iot_db=10.0, **kw):
    """One random scenario with channels, noise pool, and sample covariance."""
    sc = model.Scenario(M=M, C=C, K=K, K_int=K_int, N=N,
                        es_n0_db=es_n0_db, iot_db=iot_db, **kw)
    rng = np.random.default_rng(seed)
    channels = model.build_channel(sc, rng)
    pool = model.draw_noise_pool(channels, sc, rng)
    return sc, channels, pool, model.sample_covariance(pool)


def crandn_reference(rng, *shape):
    """The reference formula of model.crandn: two normal blocks, combined."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def colored_noise_reference(channels, sigma2, p_int, n, rng):
    """The reference formula of model.draw_noise_pool, with n samples."""
    M, K_int = channels.H_int.shape
    noise = np.sqrt(sigma2) * crandn_reference(rng, M, n)
    if K_int > 0 and p_int > 0.0:
        noise = noise + np.sqrt(p_int) * (channels.H_int @ crandn_reference(rng, K_int, n))
    return noise


def draw_point(sc, seed, point_index, trials):
    """harness.draw_trials of trials at a grid point, as a run draws them, and
    each trial's data stream, a generator of its own."""
    states = harness.stream_states(seed, point_index, trials)
    channels, pool = harness.draw_trials(sc, states, harness.generator())
    return channels, pool, [harness.set_stream(harness.generator(), s) for s in states[:, 2]]


def unreplayable(frame):
    """The frame with a noise_state that a detection lane refuses when it
    replays the frame's normals (an MT19937 state, not a PCG64 one): a job
    that fails inside a lane, after evaluate_equalizer's checks."""
    return dataclasses.replace(frame, noise_state=np.random.MT19937(0).state)


def paper_traffic(K, N, L):
    """The paper's per-link entries of one chain instance, written out apart
    from interconnect: 3K^2 + 2NK + L*K*(N+K) for bcd:L, K^2 for bdac (L None)."""
    if L is None:
        return K * K
    return 3 * K * K + 2 * N * K + L * K * (N + K)


@pytest.fixture
def instance():
    return make_instance(seed=3)


@pytest.fixture(scope="module")
def lanes():
    """The detection lanes a module's tests share, closed after them."""
    with detect.Lanes() as shared:
        yield shared
