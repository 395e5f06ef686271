"""Trial stacks: every trial of a stacked build equals the same trial built alone."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainmmse import central, daisy, model


def _build(channels, pool, sc, L):
    """Every stacked build of the library on one stack of trials."""
    chain_W = daisy.run_bcd(daisy.make_chain(channels, pool, sc.E_s),
                            daisy.Schedule(L=L)).W
    return {
        "bdac": daisy.bdac_init(daisy.make_chain(channels, pool, sc.E_s)),
        f"bcd:{L}": chain_W,
        "mmse": central.mmse_centralized(channels.H, model.exact_covariance(channels, sc),
                                         sc.E_s),
        "mmse_exact": central.mmse_exact(channels.H, channels.H_int,
                                         *model.powers_from_ratios(sc)[:2], sc.E_s),
        "zf": central.zf_centralized(channels.H),
        "sample_objective": central.sample_objective(chain_W, channels.H, pool, sc.E_s),
    }


@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       K=st.integers(1, 20), extra_N=st.integers(0, 8), T=st.integers(2, 4),
       L=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(sizes=[3], K=2, extra_N=4, T=3, L=2, seed=1)        # C = 1
@example(sizes=[2, 5, 1], K=8, extra_N=0, T=3, L=2, seed=2)  # K = M, N = max M_c
@settings(max_examples=40, deadline=None)
def test_stacked_build_equals_each_trial_alone(sizes, K, extra_N, T, L, seed):
    M = sum(sizes)
    sc = model.Scenario(M=M, K=min(K, M), C=len(sizes), cluster_sizes=tuple(sizes),
                        N=max(sizes) + extra_N, K_int=2, gain_range_db=(-6.0, 0.0))
    rngs = [np.random.default_rng([seed, t]) for t in range(T)]
    channel_sets = [model.build_channel(sc, rng) for rng in rngs]
    pools = [model.draw_noise_pool(ch, sc, rng) for ch, rng in zip(channel_sets, rngs)]
    stacked = _build(model.stack_channels(channel_sets), np.stack(pools), sc, L)
    for t, (ch, pool) in enumerate(zip(channel_sets, pools)):
        alone = _build(model.stack_channels([ch]), pool[None], sc, L)
        for name, value in stacked.items():
            np.testing.assert_array_equal(value[t], alone[name][0], err_msg=f"{name}, trial {t}")
