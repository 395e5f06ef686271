import numpy as np
import pytest

from chainmmse import model


def make_instance(seed=0, M=16, C=4, K=4, K_int=4, N=64, es_n0_db=10.0,
                  iot_db=10.0, **kw):
    """One random scenario with channels, noise pool, and sample covariance."""
    sc = model.Scenario.uniform(M, C, K=K, K_int=K_int, N=N,
                                es_n0_db=es_n0_db, iot_db=iot_db, **kw)
    rng = np.random.default_rng(seed)
    channels = model.build_channel(sc, rng)
    pool = model.draw_noise_pool(channels, sc, rng)
    return sc, channels, pool, model.sample_covariance(pool)


@pytest.fixture
def instance():
    return make_instance(seed=3)
