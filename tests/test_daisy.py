import dataclasses
import warnings

import numpy as np
import pytest

from chainmmse import central, daisy, harness, model
from chainmmse.central import herm, mmse_centralized, sample_objective
from chainmmse.daisy import (DIAG_LOAD, Schedule, bcd_block_update, bdac_init,
                             make_chain, run_bcd)
from chainmmse.interconnect import PHASE_SWEEP

from conftest import draw_point, make_instance

def _disjoint_pool(sc, rng, zero_cluster=None):
    """Noise pool in which each cluster has its own sample columns, so the
    sample covariance is exactly block diagonal; zero_cluster gets none."""
    samples = np.zeros((sc.M, sc.N), dtype=complex)
    columns = np.array_split(np.arange(sc.N), sc.C)
    slices = model.cluster_slices(sc.cluster_sizes)
    for c, (rows, cols) in enumerate(zip(slices, columns)):
        if c != zero_cluster:
            samples[rows, cols] = model.crandn(rng, sc.cluster_sizes[c], cols.size)
    return samples


class TestBdacInit:
    def test_single_cluster_equals_centralized(self):
        sc, ch, pool, Rhat = make_instance(seed=1, M=8, C=1, K=3, K_int=2, N=32)
        W0 = bdac_init(make_chain(ch, pool, sc.E_s))[0]
        W_ref = mmse_centralized(ch.H, Rhat, sc.E_s)
        assert np.linalg.norm(W0 - W_ref) / np.linalg.norm(W_ref) < 1e-12

    def test_exact_block_diagonal_covariance_is_exact(self):
        # when R itself is block diagonal, the approximation discards nothing
        sc, ch, _, _ = make_instance(seed=2, M=8, C=2, K=3, K_int=0, N=32,
                                     iot_db=None)
        pool = _disjoint_pool(sc, np.random.default_rng(5))
        R = model.sample_covariance(pool)
        s0, s1 = model.cluster_slices(sc.cluster_sizes)
        assert not R[s0, s1].any()
        W0 = bdac_init(make_chain(ch, pool, sc.E_s))[0]
        W_ref = mmse_centralized(ch.H, R, sc.E_s)
        assert np.linalg.norm(W0 - W_ref) / np.linalg.norm(W_ref) < 1e-12

    def test_monolithic_formula_oracle(self):
        sc, ch, pool, Rhat = make_instance(seed=3, M=8, C=2, K=2, K_int=2, N=32)
        W0 = bdac_init(make_chain(ch, pool, sc.E_s))[0]
        # assemble the closed form centrally from the diagonal blocks
        S = np.eye(sc.K, dtype=complex) / sc.E_s
        rhs = []
        for s in model.cluster_slices(sc.cluster_sizes):
            Hc = ch.H[s]
            Rcc = Rhat[s, s]
            X = np.linalg.solve(Rcc, Hc)
            S = S + Hc.conj().T @ X
            rhs.append(X.conj().T)
        W_ref = np.linalg.solve(S, np.hstack(rhs))
        assert np.linalg.norm(W0 - W_ref) / np.linalg.norm(W_ref) < 1e-12

    def test_singular_local_block_names_cluster(self):
        sc, ch, _, _ = make_instance(seed=4, M=4, C=2, K=2, K_int=2, N=16)
        pool = _disjoint_pool(sc, np.random.default_rng(4), zero_cluster=1)
        chain = make_chain(ch, pool, sc.E_s)
        with pytest.raises(central.SingularMatrixError, match="cluster 1"):
            bdac_init(chain)

    def test_singular_block_in_one_trial_names_cluster_and_trial(self):
        sc, ch, pool, _ = make_instance(seed=4, M=4, C=2, K=2, K_int=2, N=16)
        singular = _disjoint_pool(sc, np.random.default_rng(4), zero_cluster=1)
        chain = make_chain(*model.stack_trials([ch] * 3, [pool, pool, singular]), sc.E_s)
        with pytest.raises(central.SingularMatrixError,
                           match="cluster 1: .* in trial 2 is numerically singular"):
            bdac_init(chain)


class TestBlockUpdate:
    def test_single_cluster_one_shot(self):
        sc, ch, pool, Rhat = make_instance(seed=5, M=8, C=1, K=3, K_int=2, N=32)
        chain = make_chain(ch, pool, sc.E_s)  # W starts at zero
        bcd_block_update(chain, 0)
        W_ref = mmse_centralized(ch.H, Rhat, sc.E_s)
        assert np.linalg.norm(chain.W[0] - W_ref) / np.linalg.norm(W_ref) < 1e-10

    def test_centralized_solution_is_fixed_point(self):
        sc, ch, pool, Rhat = make_instance(seed=6)
        W_star = mmse_centralized(ch.H, Rhat, sc.E_s)
        chain = make_chain(ch, pool, sc.E_s)
        chain.W = W_star[None].copy()
        for c, s in enumerate(chain.slices):
            bcd_block_update(chain, c)
            rel = np.linalg.norm(chain.W[0][:, s] - W_star[:, s]) / np.linalg.norm(W_star[:, s])
            assert rel < 1e-10

    def test_monolithic_block_solution_oracle(self):
        sc, ch, pool, Rhat = make_instance(seed=7, M=16, C=4, K=4, K_int=4, N=64)
        chain = make_chain(ch, pool, sc.E_s)
        rng = np.random.default_rng(17)
        chain.W = 0.1 * (rng.standard_normal((1, sc.K, sc.M))
                         + 1j * rng.standard_normal((1, sc.K, sc.M)))
        H, n, W = ch.H, pool, chain.W[0]
        for c, s in enumerate(chain.slices):
            others = [chain.slices[j] for j in range(sc.C) if j != c]
            sum_WH = sum(W[:, o] @ H[o] for o in others)
            sum_WR = sum(W[:, o] @ (n[o] @ n[s].conj().T) / sc.N for o in others)
            G = sc.E_s * H[s] @ H[s].conj().T + Rhat[s, s]
            W_ref = (sc.E_s * (np.eye(sc.K) - sum_WH) @ H[s].conj().T
                     - sum_WR) @ np.linalg.inv(G)
            bcd_block_update(chain, c)
            assert np.linalg.norm(W[:, s] - W_ref) / np.linalg.norm(W_ref) < 1e-11

    def test_updates_are_the_formula_bit_for_bit_on_whichever_w_the_chain_holds(self):
        # two sweeps of a stack of three trials, from BDAC and then from a W
        # put in its place: each update is W_c += F_c - W Q_c on that array
        sc = harness.profile_scenario("desk").with_ratios(8.0, 10.0)
        channels, pool, _ = draw_point(sc, 3, 0, range(3))
        chain = make_chain(channels, pool, sc.E_s)
        for start in (bdac_init(chain), 0.5 * chain.W):
            chain.W = W = start.copy()
            for c in [*range(sc.C)] * 2:
                want = W.copy()
                want[:, :, chain.slices[c]] += chain.F[c] - want @ chain.Q[c]
                bcd_block_update(chain, c)
                assert chain.W is W and (W == want).all()


class TestRunBcd:
    def test_zero_sweeps_returns_initializer(self):
        sc, ch, pool, _ = make_instance(seed=8)
        res = run_bcd(make_chain(ch, pool, sc.E_s), Schedule(L=0), keep=range(5))
        W0 = bdac_init(make_chain(ch, pool, sc.E_s))
        np.testing.assert_array_equal(res.W, W0)
        assert list(res.kept) == [0]
        np.testing.assert_array_equal(res.kept[0], W0)

    def test_converges_to_global_minimum(self):
        # geometric convergence; sweep budget sized from the measured per-sweep
        # contraction of these instances (see "Convergence budget" in the
        # README: L=50 is far too few at this tolerance)
        sc, ch, pool, Rhat = make_instance(seed=9)
        W_star = mmse_centralized(ch.H, Rhat, sc.E_s)
        res = run_bcd(make_chain(ch, pool, sc.E_s), Schedule(L=2000))
        rel = np.linalg.norm(res.W[0] - W_star) / np.linalg.norm(W_star)
        assert rel < 1e-8

    def test_convergence_is_eventually_geometric(self):
        sc, ch, pool, Rhat = make_instance(seed=10)
        W_star = mmse_centralized(ch.H, Rhat, sc.E_s)
        sweep_ends = range(sc.C, 120 * sc.C + 1, sc.C)
        res = run_bcd(make_chain(ch, pool, sc.E_s), Schedule(L=120), keep=sweep_ends)
        errs = np.array([np.linalg.norm(res.kept[u][0] - W_star) for u in sweep_ends])
        logs = np.log(errs[20:])
        slope = np.polyfit(np.arange(logs.size), logs, 1)[0]
        assert slope < -1e-3  # linear decay of log error
        # fit quality: residuals small compared to total decay
        fit = np.polyval(np.polyfit(np.arange(logs.size), logs, 1), np.arange(logs.size))
        assert np.max(np.abs(logs - fit)) < 0.25 * (logs[0] - logs[-1])

    def test_monotone_descent_per_block_update(self):
        sc, ch, pool, _ = make_instance(seed=11)
        W0 = bdac_init(make_chain(ch, pool, sc.E_s))
        res = run_bcd(make_chain(ch, pool, sc.E_s), Schedule(L=30),
                      keep=range(30 * sc.C + 1))
        assert list(res.kept) == list(range(30 * sc.C + 1))
        np.testing.assert_array_equal(res.kept[0], W0)
        values = [sample_objective(W[0], ch.H, pool, sc.E_s) for W in res.kept.values()]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev * (1.0 + 1e-12)

    def test_partition_permutation_same_limit(self):
        # same antennas, two different cluster assignments: after undoing the
        # permutation both runs land on the same equalizer
        sc, ch, pool, Rhat = make_instance(seed=12, M=12, C=3, K=3, K_int=3, N=48)
        perm = np.random.default_rng(0).permutation(sc.M)
        ch_p = dataclasses.replace(ch, H=ch.H[perm], H_int=ch.H_int[perm])
        pool_p = pool[perm]

        sched = Schedule(L=4000)
        res_a = run_bcd(make_chain(ch, pool, sc.E_s), sched)
        res_b = run_bcd(make_chain(ch_p, pool_p, sc.E_s), sched)
        W_b_unpermuted = np.empty_like(res_b.W)
        W_b_unpermuted[..., perm] = res_b.W
        rel = (np.linalg.norm(res_a.W - W_b_unpermuted)
               / np.linalg.norm(res_a.W))
        assert rel < 1e-8

    def test_each_depth_equals_a_run_of_that_depth(self):
        # one L=4 run serves bdac and every bcd:L with L <= 4 in the harness
        instances = [make_instance(seed=s)[1:3] for s in (17, 18, 19)]
        sc = make_instance(seed=17)[0]
        stack = model.stack_trials(*zip(*instances))
        # W is kept only after the block-update counts asked for, one of them
        # inside a sweep; the final W always
        keep = {0, sc.C, sc.C + 1, 3 * sc.C}
        deep = run_bcd(make_chain(*stack, sc.E_s), Schedule(L=4), keep=keep)
        assert sorted(deep.kept) == sorted(keep)
        # the reference sweeps: the same block updates, applied by hand
        chain = make_chain(*stack, sc.E_s)
        bdac_init(chain)
        np.testing.assert_array_equal(deep.kept[0], chain.W)
        for d in range(1, 5):
            for c in range(sc.C):
                bcd_block_update(chain, c)
                u = (d - 1) * sc.C + c + 1
                if u in keep:
                    np.testing.assert_array_equal(deep.kept[u], chain.W)
            alone = run_bcd(make_chain(*stack, sc.E_s), Schedule(L=d))
            assert alone.kept == {}
            np.testing.assert_array_equal(alone.W, chain.W)
        np.testing.assert_array_equal(deep.W, chain.W)

    def test_single_cluster_sends_nothing(self):
        # one cluster has no links: no traffic at any depth
        sc, ch, pool, _ = make_instance(seed=13, M=8, C=1, K=3, K_int=2, N=32)
        for L in range(4):
            res = run_bcd(make_chain(ch, pool, sc.E_s), Schedule(L=L))
            assert res.ledger.counts == {}

    def test_message_size_independent_of_m(self):
        # one sweep sends one K x (K+N) message over each link
        for M in (16, 32, 64):
            sc, ch, pool, _ = make_instance(seed=14, M=M, C=4, K=4, K_int=4, N=64)
            ledger = run_bcd(make_chain(ch, pool, sc.E_s), Schedule(L=1)).ledger
            for link in ledger.topology.links:
                assert ledger.counts[PHASE_SWEEP, link] == sc.K ** 2 + sc.N * sc.K


def _ill_conditioned_trial(sc, ch, pool):
    """Tiny channel and a noise pool with one nonzero entry: cluster 0's Gram
    matrix is near singular."""
    samples = np.zeros_like(pool)
    samples[0, 0] = 1.0
    return dataclasses.replace(ch, H=ch.H * 1e-12), samples


def test_ill_conditioned_local_block_gets_loaded():
    sc, ch, pool, _ = make_instance(seed=19, M=4, C=2, K=2, K_int=0, N=16,
                                    iot_db=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the caller warns, naming the run's trial
        chain = make_chain(*_ill_conditioned_trial(sc, ch, pool), sc.E_s)
    assert chain.loaded.any()


def test_near_singular_trial_in_stack_loads_only_that_trial():
    sc, ch, pool, _ = make_instance(seed=19, M=4, C=2, K=2, K_int=0, N=16,
                                    iot_db=None)
    ill_ch, ill_pool = _ill_conditioned_trial(sc, ch, pool)
    chain = make_chain(*model.stack_trials([ch, ill_ch, ch], [pool, ill_pool, pool]),
                       sc.E_s)
    assert not chain.loaded[[0, 2]].any() and chain.loaded[1, 0]
    # a stack of trials 5, 6 and 7 of the run: the warning names trial 6
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        harness.warn_loaded(chain.loaded, sc, first=5)
    messages = [str(w.message) for w in caught]
    assert len(messages) == chain.loaded.sum()
    assert all(", trial 6 at Es/N0 10.0 dB, IoT None dB: " in m and "diagonal loading" in m
               for m in messages)
    alone = make_chain(ch, pool, sc.E_s)
    for t in (0, 2):
        for c in range(sc.C):
            np.testing.assert_array_equal(chain.Q[c][t], alone.Q[c][0])
            np.testing.assert_array_equal(chain.F[c][t], alone.F[c][0])


def test_sweeps_descend_on_a_loaded_trial():
    # the loaded block step uses (G_c + delta I)^-1, which moves W_c no
    # further than the exact minimizer along a descent direction
    sc, ch, pool, _ = make_instance(seed=19, M=4, C=2, K=2, K_int=0, N=16,
                                    iot_db=None)
    ill_ch, ill_pool = _ill_conditioned_trial(sc, ch, pool)
    channels, pools = model.stack_trials([ch, ill_ch, ch], [pool, ill_pool, pool])
    chain = make_chain(channels, pools, sc.E_s)
    assert chain.loaded[1, 0]
    values = [sample_objective(chain.W, channels.H, pools, sc.E_s)]
    for sweep in range(10):
        for c in range(sc.C):
            bcd_block_update(chain, c)
            values.append(sample_objective(chain.W, channels.H, pools, sc.E_s))
    for prev, cur in zip(values, values[1:]):
        assert np.all(cur <= prev * (1.0 + 1e-12))
    assert values[1][1] < values[0][1]  # the loaded step itself descends


def _message_form_step(channels, pool, E_s, loaded, W, m, c):
    """The message-form chain step, as an oracle: one block update of cluster
    c from W (T x K x M) and its message m = [W H - I | W n], both updated in
    place. Cluster c caches Phi_c = [E_s H_c^H ; n_c^H / N] G_c^-1, with G_c
    loaded where `loaded` (T x C) says; the step is D = -m Phi_c, W_c += D,
    and the message leaves the cluster as m + D [H_c | n_c]."""
    K, N = channels.H.shape[-1], pool.shape[-1]
    Hn = np.concatenate([channels.H, pool], axis=-1)
    scale = np.concatenate([np.full(K, E_s), np.full(N, 1.0 / N)])
    s = model.cluster_slices(channels.cluster_sizes)[c]
    G = E_s * Hn[..., s, :K] @ herm(Hn[..., s, :K]) + Hn[..., s, K:] @ herm(Hn[..., s, K:]) / N
    for t in np.flatnonzero(loaded[:, c]):
        G[t] += DIAG_LOAD * np.trace(G[t]).real / G.shape[-1] * np.eye(G.shape[-1])
    D = -(m @ herm(Hn[..., s, :] * scale) @ np.linalg.inv(G))
    W[:, :, s] += D
    m += D @ Hn[..., s, :]


def _message_form_sweep(channels, pool, E_s, loaded, W, m):
    """One sweep of the message-form step over every cluster in chain order."""
    for c in range(len(channels.cluster_sizes)):
        _message_form_step(channels, pool, E_s, loaded, W, m, c)


def _message(W, channels, pool):
    """[W H - I | W n], the message the protocol carries from W."""
    K = channels.H.shape[-1]
    return np.concatenate([W @ channels.H - np.eye(K), W @ pool], axis=-1)


class TestConsistencyAudit:
    # the chain carries no message; these check that what it steps on stays
    # the message-form step computed afresh from its own W
    def test_zero_after_preprocessing(self):
        # from the BDAC start, each cluster's step F_c - W0 Q_c is the
        # message-form step -m0 Phi_c on the start message m0
        sc, ch, pool, _ = make_instance(seed=15)
        chain = make_chain(ch, pool, sc.E_s)
        W0 = bdac_init(chain)
        np.testing.assert_array_equal(chain.W, W0)
        m0 = _message(W0, ch, pool)
        for c, s in enumerate(chain.slices):
            W, m = W0.copy(), m0.copy()
            _message_form_step(ch, pool, sc.E_s, chain.loaded, W, m, c)
            step = chain.F[c] - W0 @ chain.Q[c]
            assert np.max(np.abs(step - (W - W0)[:, :, s])) < 1e-13

    def test_small_after_many_updates(self):
        # each block update equals the message-form update from the message
        # computed afresh from the chain's W, over many updates
        sc, ch, pool, _ = make_instance(seed=16)
        chain = make_chain(ch, pool, sc.E_s)
        bdac_init(chain)
        for sweep in range(4):
            for c in range(sc.C):
                W = chain.W.copy()
                _message_form_step(ch, pool, sc.E_s, chain.loaded, W,
                                   _message(W, ch, pool), c)
                bcd_block_update(chain, c)
                assert np.max(np.abs(chain.W - W)) < 1e-10


def _oracle_case(case):
    if case == "desk":
        sc, ch, pool, _ = make_instance(seed=16, M=32, C=4, K=4, K_int=4, N=96)
        return sc, *model.stack_trials([ch], [pool])
    if case == "uneven":
        sc, ch, pool, _ = make_instance(seed=16, M=12, C=3, cluster_sizes=(2, 7, 3),
                                        K=3, K_int=2, N=24)
        return sc, *model.stack_trials([ch], [pool])
    sc, ch, pool, _ = make_instance(seed=19, M=4, C=2, K=2, K_int=0, N=16, iot_db=None)
    ill_ch, ill_pool = _ill_conditioned_trial(sc, ch, pool)
    return sc, *model.stack_trials([ch, ill_ch, ch], [pool, ill_pool, pool])


@pytest.mark.parametrize("case", ["desk", "uneven", "loaded_stack"])
def test_iterates_equal_the_message_form(case):
    # the chain steps W through Q_c and F_c and forms no message; the
    # message-form step it stands for gives the same iterates
    sc, channels, pool = _oracle_case(case)
    chain = make_chain(channels, pool, sc.E_s)
    assert chain.loaded.any() == (case == "loaded_stack")
    # the run's BDAC start; the loaded trial's R_cc is singular, so that stack
    # starts at W = 0
    W = chain.W.copy() if chain.loaded.any() else bdac_init(chain)
    m = _message(W, channels, pool)
    for sweep in range(4):
        _message_form_sweep(channels, pool, sc.E_s, chain.loaded, W, m)
        for c in range(sc.C):
            bcd_block_update(chain, c)
        rel = (np.linalg.norm(chain.W - W, axis=(-2, -1))
               / np.linalg.norm(W, axis=(-2, -1)))
        assert rel.max() < 1e-12, f"sweep {sweep}: {rel}"


def _powers_case(case):
    """A stack of trials for the sweep-map tests, with W = 0."""
    if case == "desk_stack":
        sc = harness.profile_scenario("desk").with_ratios(8.0, 10.0)
        return sc, *draw_point(sc, 3, 0, range(3))[:2]
    if case == "loaded_stack":
        # at Es/N0 150 dB the local Gram matrices are loaded, yet BDAC solves
        sc = harness.profile_scenario("desk").with_ratios(150.0, 10.0)
        return sc, *draw_point(sc, 1, 0, range(2))[:2]
    shape = (dict(M=12, C=3, cluster_sizes=(2, 7, 3), K=3, K_int=2, N=24) if case == "uneven"
             else dict(M=8, C=1, K=2, K_int=2, N=32))  # one_cluster
    instances = [make_instance(seed=s, **shape) for s in (16, 17, 18)]
    return instances[0][0], *model.stack_trials(*zip(*[i[1:3] for i in instances]))


def _stepped(channels, pool, sc, L):
    """W after BDAC and L sweeps of bcd_block_update, one block at a time."""
    chain = make_chain(channels, pool, sc.E_s)
    bdac_init(chain)
    for _ in range(L):
        for c in range(sc.C):
            bcd_block_update(chain, c)
    return chain.W


class TestSweepPowers:
    @pytest.mark.parametrize("case", ["desk_stack", "loaded_stack", "uneven", "one_cluster"])
    def test_powers_equal_the_block_updates(self, case):
        # deep gaps advance by powers of the sweep map; on both sides of the
        # threshold and at 200 sweeps, W and the objective are the stepped ones
        sc, channels, pool = _powers_case(case)
        assert make_chain(channels, pool, sc.E_s).loaded.all() == (case == "loaded_stack")
        depth = next(d for d in range(1, 200) if daisy.powered(d, sc.K, sc.M))
        for L in (depth - 1, depth, depth + 1, 200):
            assert daisy.powered(L, sc.K, sc.M) == (L >= depth)
            run = run_bcd(make_chain(channels, pool, sc.E_s), Schedule(L=L), keep={0, L * sc.C})
            want = _stepped(channels, pool, sc, L)
            rel = (np.linalg.norm(run.W - want, axis=(-2, -1))
                   / np.linalg.norm(want, axis=(-2, -1)))
            assert rel.max() < 1e-12, f"L={L}: {rel}"
            assert run.kept[L * sc.C] is not run.W and (run.kept[L * sc.C] == run.W).all()
            f_run = sample_objective(run.W, channels.H, pool, sc.E_s)
            f_want = sample_objective(want, channels.H, pool, sc.E_s)
            assert np.abs(f_run / f_want - 1.0).max() < 1e-12, f"L={L}"

    def test_the_map_is_one_sweep_and_its_powers_are_the_sweeps(self):
        # [S; b] takes W to one sweep of it, and d sweeps by powers is d sweeps
        sc, channels, pool = _powers_case("uneven")
        chain = make_chain(channels, pool, sc.E_s)
        W = bdac_init(chain)
        Y = daisy._sweep_map(chain)
        assert Y.shape == (3, sc.M + sc.K, sc.M)
        for d in (1, 2, 3, 6, 13):
            want = _stepped(channels, pool, sc, d)
            got = daisy._advance(W, Y, d)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13, d
        np.testing.assert_array_equal(W, chain.W)  # neither call writes W

    @pytest.mark.parametrize("case", ["desk_stack", "loaded_stack", "uneven", "one_cluster"])
    def test_a_stacked_powered_run_equals_each_trial_alone(self, case):
        sc, channels, pool = _powers_case(case)
        assert daisy.powered(60, sc.K, sc.M)
        keep = {0, 60 * sc.C}
        stacked = run_bcd(make_chain(channels, pool, sc.E_s), Schedule(L=60), keep=keep)
        for t in range(pool.shape[0]):
            ch_t = dataclasses.replace(channels, H=channels.H[t:t + 1],
                                       H_int=channels.H_int[t:t + 1])
            alone = run_bcd(make_chain(ch_t, pool[t:t + 1], sc.E_s), Schedule(L=60), keep=keep)
            np.testing.assert_array_equal(stacked.W[t], alone.W[0], err_msg=f"trial {t}")
            for u in keep:
                np.testing.assert_array_equal(stacked.kept[u][t], alone.kept[u][0])

    def test_only_deep_gaps_between_sweep_ends_take_powers(self, monkeypatch):
        # the gaps are the kept counts in order; a gap runs block updates
        # unless it starts and ends on a sweep and is deep
        sc, channels, pool = _powers_case("desk_stack")
        depth = next(d for d in range(1, 200) if daisy.powered(d, sc.K, sc.M))
        calls = {"updates": 0, "maps": 0}
        update, sweep_map = daisy.bcd_block_update, daisy._sweep_map

        def counted_update(chain, c):
            calls["updates"] += 1
            update(chain, c)

        def counted_map(chain):
            calls["maps"] += 1
            return sweep_map(chain)

        monkeypatch.setattr(daisy, "bcd_block_update", counted_update)
        monkeypatch.setattr(daisy, "_sweep_map", counted_map)
        C, deep = sc.C, depth + 3
        cases = [
            ({0, deep * C}, deep, 0, 1),                         # one deep gap
            ({deep * C, 3 * deep * C}, 3 * deep, 0, 1),          # two, one map
            ({C, 4 * C}, 4, 4 * C, 0),                           # shallow gaps
            ({1, deep * C}, deep, deep * C, 0),                  # a mid-sweep keep
            ({C, (deep + 1) * C}, deep + 1, C, 1),               # shallow, then deep
            ({2 * C + 1}, deep + 3, (deep + 3) * C, 0),          # deep, from mid-sweep
            (range(deep * C + 1), deep, deep * C, 0),            # the trace: every update
            ((), deep, 0, 1),                                    # the end alone
        ]
        for keep, L, updates, maps in cases:
            calls.update(updates=0, maps=0)
            run_bcd(make_chain(channels, pool, sc.E_s), Schedule(L=L), keep=keep)
            assert calls == {"updates": updates, "maps": maps}, (sorted(keep)[:4], L)
