"""Properties of the chain on random instances: uneven partitions, one cluster,
as many users as antennas, and pools of N >= M samples, where the sample-MMSE
optimum exists. Stack exactness is tests/test_stacks.py's."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainmmse import central, daisy, harness, model
from chainmmse.interconnect import (PHASE_ACCUMULATE, PHASE_DISTRIBUTE, PHASE_GRAM,
                                    PHASE_SWEEP, Topology, TrafficLedger)

from conftest import paper_traffic


def _instance(sizes, K, extra_N, seed):
    """One trial with N = M + extra_N pool samples; K is capped at M."""
    M = sum(sizes)
    sc = model.Scenario(M=M, K=min(K, M), C=len(sizes), cluster_sizes=tuple(sizes),
                        N=M + extra_N, K_int=2, gain_range_db=(-6.0, 0.0))
    rng = np.random.default_rng(seed)
    channels = model.build_channel(sc, rng)
    return sc, channels, model.draw_noise_pool(channels, sc, rng)


def chain_property(test):
    """Run test over random instances and the named cases, with a depth L."""
    test = example(sizes=[3], K=2, extra_N=0, seed=1, L=2)(test)         # C = 1
    test = example(sizes=[2, 5, 1], K=8, extra_N=0, seed=2, L=2)(test)   # K = M = N
    test = example(sizes=[1, 4, 2, 3], K=3, extra_N=5, seed=3, L=3)(test)
    return given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
                 K=st.integers(1, 20), extra_N=st.integers(0, 8),
                 seed=st.integers(0, 2**32 - 1), L=st.integers(1, 3))(
        settings(max_examples=40, deadline=None)(test))


@chain_property
def test_centralized_solution_is_a_fixed_point_of_one_sweep(sizes, K, extra_N, seed, L):
    sc, channels, pool = _instance(sizes, K, extra_N, seed)
    W_star = central.mmse_centralized(channels.H, model.sample_covariance(pool), sc.E_s)
    chain = daisy.make_chain(channels, pool, sc.E_s)
    chain.W = W_star[None].copy()
    for c in range(sc.C):
        daisy.bcd_block_update(chain, c)
    assert np.linalg.norm(chain.W[0] - W_star) / np.linalg.norm(W_star) < 1e-10


@chain_property
def test_no_block_update_raises_the_sample_objective(sizes, K, extra_N, seed, L):
    sc, channels, pool = _instance(sizes, K, extra_N, seed)
    chain = daisy.make_chain(channels, pool, sc.E_s)
    values = [central.sample_objective(daisy.bdac_init(chain), channels.H, pool, sc.E_s)]
    for _ in range(L):
        for c in range(sc.C):
            daisy.bcd_block_update(chain, c)
            values.append(central.sample_objective(chain.W, channels.H, pool, sc.E_s))
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev * (1.0 + 1e-12)


@chain_property
def test_metered_traffic_is_the_closed_form(sizes, K, extra_N, seed, L):
    sc, channels, pool = _instance(sizes, K, extra_N, seed)
    links = sc.C if sc.C > 1 else 0  # a loop of one cluster has no link
    message = sc.K * (sc.K + sc.N)  # one K x (K+N) message
    for depth in (0, L):
        ledger = daisy.run_bcd(daisy.make_chain(channels, pool, sc.E_s),
                               daisy.Schedule(L=depth)).ledger
        assert len(ledger.topology.links) == links
        phases = {PHASE_GRAM: sc.K ** 2, PHASE_ACCUMULATE: message,
                  PHASE_DISTRIBUTE: message}
        if depth > 0:  # no sweep row at L = 0
            phases[PHASE_SWEEP] = depth * message
        assert sum(phases.values()) == paper_traffic(sc.K, sc.N, depth)
        # no row at all at C = 1
        assert ledger.counts == {(phase, link): n for link in ledger.topology.links
                                 for phase, n in phases.items()}
        for link in ledger.topology.links:
            assert ledger.per_link(link) == paper_traffic(sc.K, sc.N, depth)
    ledger = TrafficLedger(Topology("uni_loop", sc.C))
    daisy.bdac_init(daisy.make_chain(channels, pool, sc.E_s), ledger=ledger)
    assert ledger.counts == {(PHASE_GRAM, link): paper_traffic(sc.K, sc.N, None)
                             for link in ledger.topology.links}
    config = harness.ExperimentConfig(scenario=sc, es_n0_db=(10.0,), iot_db=(10.0,),
                                      algorithms=("bdac", "bcd:0", f"bcd:{L}"),
                                      trials=2, symbols_per_trial=1, seed=seed)
    for row, depth in zip(harness.run_experiment(config), (None, 0, L)):
        assert row.traffic_entries == config.trials * links * paper_traffic(sc.K, sc.N, depth)
