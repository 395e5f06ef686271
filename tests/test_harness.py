import csv
import dataclasses
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from chainmmse import central, cli, daisy, detect, harness, model
from chainmmse.interconnect import (PHASE_ACCUMULATE, PHASE_DISTRIBUTE, PHASE_GRAM,
                                    PHASE_SWEEP, predicted_traffic)
from chainmmse.harness import (ExperimentConfig, ResultRow, emit_csv,
                               emit_convergence_trace, load_config, parse_algorithm,
                               profile_scenario, run_experiment)


def read_results_csv(path) -> list[ResultRow]:
    """Parse results.csv back into rows; wall_time_s is not a column."""
    types = {"algorithm": str, "L": int, "M": int, "C": int, "K": int, "N": int,
             "symbols": int, "traffic_entries": int}
    with open(path, newline="") as fh:
        return [ResultRow(**{k: types.get(k, float)(v) for k, v in rec.items()},
                          wall_time_s=0.0)
                for rec in csv.DictReader(fh)]


def _small_config(**overrides):
    params = dict(
        scenario=model.Scenario(M=8, C=2, K=2, K_int=2, N=16, constellation=4),
        es_n0_db=(8.0,),
        iot_db=(10.0,),
        algorithms=("zf", "mmse_sampleR", "bdac", "bcd:2"),
        trials=2,
        symbols_per_trial=50,
        seed=5,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestConfig:
    def test_parse_algorithm_tokens(self):
        assert parse_algorithm("zf") == ("zf", None)
        assert parse_algorithm("bcd:4") == ("bcd", 4)
        with pytest.raises(ValueError):
            parse_algorithm("bcd")
        with pytest.raises(ValueError):
            parse_algorithm("zf:3")
        with pytest.raises(ValueError):
            parse_algorithm("genie")

    def test_validation_names_fields(self, tmp_path):
        with pytest.raises(ValueError, match="trials"):
            _small_config(trials=0)
        with pytest.raises(ValueError, match="es_n0_db"):
            _small_config(es_n0_db=())
        with pytest.raises(ValueError, match="algorithms"):
            _small_config(algorithms=("warp",))
        with pytest.raises(ValueError, match=r"es_n0_db: must be a number, got nan$"):
            _small_config(es_n0_db=(float("nan"),))
        with pytest.raises(ValueError, match="out_dir: must be a string, got 5$"):
            _small_config(out_dir=5)
        path = tmp_path / "exp.yaml"
        for text, key in [("profile: desk\nscenario: {cluster_sizes: 4}", "cluster_sizes"),
                          ("scenario: {M: '8', C: 2, K: 2, N: 16}", "M"),
                          ("scenario:", "M"),
                          ("scenario: {M: 8, C: 2, K: 2.5, N: 16}", "K"),
                          ("profile: desk\nscenario: {constellation: 16.0}",
                           "constellation"),
                          ("profile: desk\nscenario: {E_s: one}", "E_s"),
                          ("profile: desk\nscenario: {es_n0_db: .nan}", "es_n0_db"),
                          ("profile: desk\nscenario: {gain_range_db: 3}", "gain_range_db")]:
            path.write_text(text + "\n")
            with pytest.raises(ValueError, match=rf"scenario\.{key}\b"):
                load_config(path)
        path.write_text("profile: desk\nscenario:\n")
        assert load_config(path).scenario == profile_scenario("desk")

    def test_sample_mmse_needs_as_many_pool_samples_as_antennas(self):
        # N < M pool samples give a sample covariance of rank N: singular
        raw = {"profile": "desk", "algorithms": ["zf", "mmse_sampleR", "bdac"]}
        with pytest.raises(ValueError, match=r"^invalid experiment config: algorithms: "
                                             r"'mmse_sampleR' needs N >= M, got N=16 "
                                             r"and M=32$"):
            harness.make_config({**raw, "scenario": {"N": 16}})
        assert harness.make_config({**raw, "scenario": {"N": 32}}).scenario.N == 32
        cfg = harness.make_config({**raw, "scenario": {"N": 16}, "algorithms": ["zf", "bdac"]})
        assert cfg.scenario.N == 16

    def test_chain_sweeps_need_more_users_and_samples_than_antennas(self):
        # K + N <= M: [H | n] has full column rank, so the sample objective
        # fits the pool exactly and the sweeps head for no equalizer
        raw = {"profile": "desk", "scenario": {"N": 28}}
        with pytest.raises(ValueError, match=r"^invalid experiment config: algorithms: "
                                             r"'bcd:1' needs K \+ N > M, got K=4, N=28 and "
                                             r"M=32; algorithms: 'bcd:4' needs K \+ N > M, "
                                             r"got K=4, N=28 and M=32$"):
            harness.make_config({**raw, "algorithms": ["bdac", "bcd:1", "bcd:4"]})
        # the initializer alone, bcd:0 included, needs only N >= max M_c
        cfg = harness.make_config({**raw, "algorithms": ["zf", "bdac", "bcd:0"]})
        assert cfg.algorithms == ("zf", "bdac", "bcd:0")
        cfg = harness.make_config({**raw, "scenario": {"N": 29}, "algorithms": ["bcd:4"]})
        assert cfg.scenario.N == 29

    def test_noise_free_grid_point_rejected_for_every_token_but_zf(self):
        # at Es/N0 = inf the pool is zero: zf alone has an equalizer there
        with pytest.raises(ValueError, match=r"^invalid experiment config: algorithms: "
                                             r"'mmse_sampleR' needs noise, but the grid "
                                             r"point Es/N0 inf dB, IoT 10\.0 dB is "
                                             r"noise-free; algorithms: 'bdac' needs noise, "
                                             r".*; algorithms: 'bcd:2' needs noise, .*$"):
            _small_config(es_n0_db=(8.0, np.inf))
        with pytest.raises(ValueError, match=r"^invalid experiment config: algorithms: "
                                             r"'mmse_exactR' needs noise, but the grid "
                                             r"point Es/N0 inf dB, IoT None dB is noise-free$"):
            _small_config(es_n0_db=(np.inf,), iot_db=(None, -np.inf),
                          algorithms=("zf", "mmse_exactR"))
        cfg = _small_config(es_n0_db=(8.0, np.inf), algorithms=("zf",))
        assert cfg.es_n0_db == (8.0, np.inf)

    @pytest.mark.parametrize("variant", ["red_black", "symmetric_gauss_seidel"])
    def test_schedule_variant_other_than_the_loop_rejected(self, variant):
        with pytest.raises(ValueError, match="schedule_variant: must be 'gauss_seidel_loop'"):
            _small_config(schedule_variant=variant)

    def test_profiles(self):
        desk = profile_scenario("desk")
        assert (desk.M, desk.C, desk.K, desk.N) == (32, 4, 4, 96)
        paper = profile_scenario("paper")
        assert (paper.M, paper.C, paper.K, paper.N) == (128, 8, 8, 192)
        with pytest.raises(ValueError):
            profile_scenario("pocket")

    def test_load_config_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "scenario: {M: 8, C: 2, K: 2, K_int: 2, N: 16, constellation: 4}\n"
            "es_n0_db: [4.0, 8.0]\n"
            "iot_db: [10.0]\n"
            "algorithms: [zf, 'bcd:2']\n"
            "trials: 3\n"
            "seed: 9\n")
        cfg = load_config(path)
        assert cfg.scenario.M == 8 and cfg.trials == 3 and cfg.seed == 9
        assert cfg.es_n0_db == (4.0, 8.0)
        cfg2 = load_config(path, seed=11)
        assert cfg2.seed == 11

    def test_numpy_grid_values_round_trip_through_csv(self, tmp_path):
        cfg = _small_config(es_n0_db=tuple(np.linspace(0, 4, 2)),
                            algorithms=("zf",), trials=1)
        assert all(type(v) is float for v in cfg.es_n0_db)
        path = tmp_path / "results.csv"
        emit_csv(run_experiment(cfg), path)
        assert [r.es_n0_db for r in read_results_csv(path)] == [0.0, 4.0]

    def test_scalar_grid_rejected_naming_key(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, N: 16}\nes_n0_db: 0.0\n")
        with pytest.raises(ValueError, match="es_n0_db: must be a list"):
            load_config(path)

    def test_string_algorithms_rejected_naming_key(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, N: 16}\nalgorithms: zf\n")
        with pytest.raises(ValueError, match="algorithms: must be a list"):
            load_config(path)

    def test_negative_sweep_count_rejected(self):
        with pytest.raises(ValueError, match="'bcd:-1' needs a sweep count"):
            parse_algorithm("bcd:-1")
        with pytest.raises(ValueError, match="algorithms"):
            _small_config(algorithms=("bcd:-1",))

    def test_cli_profile_overrides_config_profile(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("profile: desk\nes_n0_db: [10.0]\nalgorithms: [zf]\ntrials: 1\n"
                        "symbols_per_trial: 10\n")
        assert load_config(path, profile="paper").scenario.M == 128
        assert cli.main(["run", "--config", str(path), "--profile", "paper",
                         "--out", str(tmp_path)]) == 0
        rows = read_results_csv(tmp_path / "results.csv")
        assert [(r.M, r.C, r.K) for r in rows] == [(128, 8, 8)]

    def test_non_string_algorithm_rejected_naming_key(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, N: 16}\nalgorithms: [4]\n")
        with pytest.raises(ValueError, match="algorithms: 4 is not a string"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [("trials", "'3'"), ("trials", "2.5"),
                                            ("symbols_per_trial", "'250'"),
                                            ("symbols_per_trial", "true")])
    def test_non_integer_count_rejected_naming_key(self, tmp_path, key, value):
        path = tmp_path / "exp.yaml"
        path.write_text(f"scenario: {{M: 8, C: 2, K: 2, N: 16}}\n{key}: {value}\n")
        with pytest.raises(ValueError, match=f"{key}: must be an integer"):
            load_config(path)

    def test_numpy_integer_counts_accepted(self):
        cfg = _small_config(trials=np.int64(2), symbols_per_trial=np.int32(50),
                            seed=np.int64(0))
        assert type(cfg.trials) is int and type(cfg.symbols_per_trial) is int
        assert type(cfg.seed) is int and cfg.seed == 0

    @pytest.mark.parametrize("value", ["-1", "'x'", "1.5", "true"])
    def test_bad_seed_rejected_naming_key(self, tmp_path, value):
        path = tmp_path / "exp.yaml"
        path.write_text(f"scenario: {{M: 8, C: 2, K: 2, N: 16}}\nseed: {value}\n")
        with pytest.raises(ValueError, match="seed: must be"):
            load_config(path)

    @pytest.mark.parametrize("algorithms", [("bdac", "bdac"), ("zf", "bcd:4", "bcd:04")])
    def test_repeated_algorithm_rejected(self, algorithms):
        # two tokens of one (name, L) would write two rows of one algorithm
        with pytest.raises(ValueError, match=f"algorithms: '{algorithms[-1]}' repeats"):
            _small_config(algorithms=algorithms)

    def test_profile_with_uneven_cluster_sizes(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("profile: desk\nscenario: {cluster_sizes: [4, 4, 8, 16]}\n")
        sc = load_config(path).scenario
        assert (sc.M, sc.C, sc.cluster_sizes) == (32, 4, (4, 4, 8, 16))

    @pytest.mark.parametrize("scenario, key", [
        ("{foo: 1}", "foo"),
        ("{M: 8, C: 2, K: 2, N: 16, n_coh: 500}", "n_coh"),
        ("{M: 8, C: 2, K: 2, N: 16, db_ratios: false}", "db_ratios")])
    @pytest.mark.parametrize("profile", ["", "profile: desk\n"])
    def test_unknown_scenario_key_named(self, tmp_path, scenario, key, profile):
        path = tmp_path / "exp.yaml"
        path.write_text(f"{profile}scenario: {scenario}\n")
        with pytest.raises(ValueError, match=f"unknown scenario keys: scenario.{key}$"):
            load_config(path)

    @pytest.mark.parametrize("scenario, missing", [
        ("{K: 2}", "scenario.M and scenario.C and scenario.N"),
        ("{M: 8, K: 2}", "scenario.C and scenario.N"),
        ("{M: 8, C: 2}", "scenario.K and scenario.N")])
    def test_missing_dimensions_without_profile_named(self, tmp_path, scenario, missing):
        path = tmp_path / "exp.yaml"
        path.write_text(f"scenario: {scenario}\n")
        with pytest.raises(ValueError, match=f"^{missing} required when no profile"):
            load_config(path)

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, N: 16}\nturbo: true\n")
        with pytest.raises(ValueError, match="turbo"):
            load_config(path)


class TestRunExperiment:
    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = _small_config()
        paths = []
        for name in ("a.csv", "b.csv"):
            rows = run_experiment(cfg)
            p = tmp_path / name
            emit_csv(rows, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_zero_noise_zf_has_zero_ber(self):
        sc = model.Scenario(M=8, C=2, K=2, K_int=0, N=16, iot_db=None,
                            constellation=4)
        rows = run_experiment(ExperimentConfig(
            scenario=sc, es_n0_db=(np.inf,), iot_db=(None,),
            algorithms=("zf",), trials=2, symbols_per_trial=100, seed=3))
        assert all(r.ber == 0.0 for r in rows)

    def test_singular_covariance_names_grid_point_and_trials(self):
        # one interferer 300 dB over the thermal noise: to working precision
        # the sample covariance of every trial has rank one
        sc = model.Scenario(M=8, C=2, K=2, K_int=1, N=16, constellation=4)
        cfg = ExperimentConfig(scenario=sc, es_n0_db=(0.0,), iot_db=(300.0,),
                               algorithms=("zf", "mmse_sampleR"), trials=3,
                               symbols_per_trial=10, seed=3)
        with pytest.raises(central.SingularMatrixError,
                           match=r"^mmse_sampleR at Es/N0 0\.0 dB, IoT 300\.0 dB, in the "
                                 r"stack of trials 0\.\.2 .*: noise covariance in "
                                 r"trial 0 is numerically singular"):
            run_experiment(cfg)
        # the chain tokens share one chain run, and the message names them all
        # (every local Gram matrix is rank deficient and gets loaded first)
        cfg = dataclasses.replace(cfg, algorithms=("zf", "bdac", "bcd:1"))
        with pytest.warns(UserWarning, match="diagonal loading"), \
                pytest.raises(central.SingularMatrixError,
                              match=r"^bdac, bcd:1 at Es/N0 0\.0 dB, IoT 300\.0 dB, in "
                                    r"the stack of trials 0\.\.2 .*: cluster 0: local "
                                    r"covariance block R_cc in trial 0 is numerically "
                                    r"singular"):
            run_experiment(cfg)

    @pytest.mark.parametrize("iot_db, raises", [((10.0,), False), ((10.0, 300.0), True)])
    def test_no_lane_thread_outlives_the_run(self, monkeypatch, iot_db, raises):
        # two lanes on every chunk; at IoT 300 dB the sample covariance is
        # singular, after the first grid point has started the lane thread
        monkeypatch.setattr(detect, "LANE_BYTES", 0)
        monkeypatch.setattr(detect.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = _small_config(scenario=model.Scenario(M=8, C=2, K=2, K_int=1, N=16,
                                                    constellation=4),
                            es_n0_db=(0.0,), iot_db=iot_db, algorithms=("zf", "mmse_sampleR"))
        seen = []  # the threads alive after each detection call
        evaluate = detect.evaluate_equalizer

        def evaluate_and_look(*args, **kwargs):
            counts = evaluate(*args, **kwargs)
            seen.extend(threading.enumerate())
            return counts

        monkeypatch.setattr(detect, "evaluate_equalizer", evaluate_and_look)
        before = threading.enumerate()
        if raises:
            with pytest.raises(central.SingularMatrixError, match="IoT 300.0 dB"):
                run_experiment(cfg)
        else:
            run_experiment(cfg)
        assert any(t.name.startswith("chainmmse-lane") for t in seen)
        assert threading.enumerate() == before

    def test_desk_run_makes_no_eigendecomposition(self, monkeypatch):
        def eigvalsh(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        cfg = ExperimentConfig(
            scenario=profile_scenario("desk"), es_n0_db=(0.0, 16.0), iot_db=(10.0,),
            algorithms=("zf", "mmse_exactR", "mmse_sampleR", "bdac", "bcd:1", "bcd:4"),
            trials=9, symbols_per_trial=50, seed=1)
        assert len(run_experiment(cfg)) == 2 * 6

    def test_bcd_beats_initializer_on_grid(self):
        # paired comparison with common random numbers on the desk profile
        cfg = ExperimentConfig(
            scenario=profile_scenario("desk"),
            es_n0_db=(0.0, 4.0, 8.0, 12.0, 16.0),
            iot_db=(10.0,),
            algorithms=("bdac", "bcd:4"),
            trials=10, symbols_per_trial=250, seed=21)
        rows = run_experiment(cfg)
        by_point = {}
        for r in rows:
            by_point.setdefault(r.es_n0_db, {})[r.algorithm] = r
        for es, d in by_point.items():
            bdac, bcd = d["bdac"], d["bcd"]
            bits = bdac.symbols * 4
            se = np.sqrt(bdac.ber * (1 - bdac.ber) / bits
                         + bcd.ber * (1 - bcd.ber) / bits)
            assert bcd.ber <= bdac.ber + 2.0 * se, f"Es/N0={es}"

    def test_results_do_not_depend_on_chunk_size(self, tmp_path, monkeypatch):
        # 5 trials: chunks of 8 (one stack), of 2 (2+2+1) and of 1
        cfg = _small_config(algorithms=("zf", "mmse_exactR", "mmse_sampleR", "bdac",
                                        "bcd:3"), trials=5)
        assert harness.chunk_trials(cfg.scenario) >= 5
        blobs = []
        for budget in (harness.CHUNK_BYTES, 2 * 16 * 8 * (16 + 8), 1):
            monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
            path = tmp_path / f"{budget}.csv"
            emit_csv(run_experiment(cfg), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_chunk_size_from_byte_budget(self):
        # 16 M (N + M) bytes per trial: 64 KiB on desk, 640 KiB on paper
        assert harness.chunk_trials(profile_scenario("desk")) == 8
        assert harness.chunk_trials(profile_scenario("paper")) == 1

    def test_bdac_traffic_is_the_schedule_gram_phase(self):
        cfg = _small_config(algorithms=("bdac",))
        sc = cfg.scenario
        rng_ch, rng_pool, _ = harness.trial_rngs(0, 0, 0)
        ch = model.build_channel(sc, rng_ch)
        chain = daisy.make_chain(ch, model.draw_noise_pool(ch, sc, rng_pool), sc.E_s)
        ledger = daisy.run_bcd(chain, daisy.Schedule(L=1)).ledger
        [row] = run_experiment(cfg)
        assert row.traffic_entries == cfg.trials * sum(
            ledger.per_link(link, PHASE_GRAM) for link in ledger.topology.links)

    def test_chain_tokens_read_one_chain_run_per_stack(self, monkeypatch):
        tokens = ("bdac", "bcd:0", "bcd:1", "bcd:4")
        # 5 trials in chunks of 2: three stacks at each of two grid points
        monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * 16 * 8 * (16 + 8))
        cfg = _small_config(algorithms=("zf",) + tokens, es_n0_db=(0.0, 8.0), trials=5)

        def key(r):
            return r.es_n0_db, r.algorithm, r.L

        def rows_of(config):
            return sorted((dataclasses.replace(r, wall_time_s=0.0)
                           for r in run_experiment(config)), key=key)

        alone = sorted((r for t in cfg.algorithms
                        for r in rows_of(dataclasses.replace(cfg, algorithms=(t,)))),
                       key=key)
        calls = []
        make_chain = daisy.make_chain
        monkeypatch.setattr(daisy, "make_chain",
                            lambda *a, **kw: calls.append(1) or make_chain(*a, **kw))
        assert rows_of(cfg) == alone
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("algorithms, per_chunk", [
        (("zf", "mmse_exactR"), 0), (("mmse_sampleR",), 1), (("bdac",), 1),
        (("zf", "mmse_sampleR", "bdac", "bcd:2"), 1)])
    def test_one_sample_covariance_per_chunk(self, monkeypatch, algorithms, per_chunk):
        # 5 trials in chunks of 2: three stacks at each of two grid points;
        # mmse_sampleR reads the chain's R_hat when a chain token runs
        monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * 16 * 8 * (16 + 8))
        cfg = _small_config(algorithms=algorithms, es_n0_db=(0.0, 8.0), trials=5)
        calls = []
        sample_covariance = model.sample_covariance
        monkeypatch.setattr(model, "sample_covariance",
                            lambda pool: calls.append(pool.shape) or sample_covariance(pool))
        run_experiment(cfg)
        assert calls == [(T, 8, 16) for T in (2, 2, 1)] * 2 * per_chunk

    def test_one_detection_call_and_one_objective_call_per_chunk(self, monkeypatch):
        # 5 trials in chunks of 2: three stacks at each of two grid points
        monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * 16 * 8 * (16 + 8))
        cfg = _small_config(algorithms=("zf", "mmse_exactR", "mmse_sampleR", "bdac",
                                        "bcd:2"), es_n0_db=(0.0, 8.0), trials=5)

        def rows_of(config):
            return sorted((dataclasses.replace(r, wall_time_s=0.0)
                           for r in run_experiment(config)),
                          key=lambda r: (r.es_n0_db, r.algorithm, r.L))

        alone = sorted((r for t in cfg.algorithms
                        for r in rows_of(dataclasses.replace(cfg, algorithms=(t,)))),
                       key=lambda r: (r.es_n0_db, r.algorithm, r.L))
        detected, scored = [], []  # the shape of W in every call
        evaluate, objective = detect.evaluate_equalizer, central.sample_objective
        monkeypatch.setattr(detect, "evaluate_equalizer", lambda W, *a, **kw:
                            detected.append(W.shape) or evaluate(W, *a, **kw))
        monkeypatch.setattr(central, "sample_objective", lambda W, *a, **kw:
                            scored.append(W.shape) or objective(W, *a, **kw))
        assert rows_of(cfg) == alone
        # the A x T x K x M equalizers of a chunk, in both calls
        assert detected == scored == [(5, T, 2, 8) for T in (2, 2, 1)] * 2

    def test_rates_are_error_counts_over_config_totals(self, monkeypatch):
        cfg = _small_config(trials=3)
        counts = []
        evaluate = detect.evaluate_equalizer
        monkeypatch.setattr(detect, "evaluate_equalizer",
                            lambda *a, **kw: counts.append(evaluate(*a, **kw)) or counts[-1])
        rows = run_experiment(cfg)
        # each call counts an A x T chunk: sum over the trials, then the calls
        bit_errors, symbol_errors = np.sum([np.sum(c, axis=-1) for c in counts], axis=0)
        symbols = cfg.trials * cfg.scenario.K * cfg.symbols_per_trial
        assert bit_errors.any()
        for a, row in enumerate(rows):
            assert row.symbols == symbols
            assert row.ber == int(bit_errors[a]) / (2 * symbols)  # QPSK: 2 bits
            assert row.ser == int(symbol_errors[a]) / symbols
            assert type(row.ber) is type(row.ser) is type(row.objective) is float

    def test_traffic_column_independent_of_m(self):
        entries = []
        for M in (16, 32):
            sc = model.Scenario(M=M, C=4, K=4, K_int=2, N=64,
                                constellation=4)
            cfg = _small_config(scenario=sc, algorithms=("bcd:2",), trials=1)
            entries.append(run_experiment(cfg)[0].traffic_entries)
        assert entries[0] == entries[1] > 0


class TestCsv:
    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError):
            emit_csv([], path)
        assert not path.exists()

    def test_one_row_table(self, tmp_path):
        cfg = _small_config(algorithms=("zf",), trials=1)
        rows = run_experiment(cfg)
        path = tmp_path / "results.csv"
        emit_csv(rows, path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_round_trip_exact(self, tmp_path):
        rows = run_experiment(_small_config())
        path = tmp_path / "results.csv"
        emit_csv(rows, path)
        emitted = [dataclasses.replace(r, wall_time_s=0.0) for r in rows]
        assert read_results_csv(path) == emitted


class TestCli:
    BAD_CONFIGS = {"list.yaml": "- profile: desk\n",
                   "no_k_n.yaml": "scenario: {M: 8, C: 2}\n",
                   "null_grid.yaml": "profile: desk\nes_n0_db: [null]\n",
                   "bool_grid.yaml": "profile: desk\nes_n0_db: [true, '4']\n",
                   "scenario_es.yaml": "profile: desk\nscenario: {es_n0_db: 0.0}\n",
                   "scenario_iot.yaml": "profile: desk\nscenario: {iot_db: null}\n",
                   "scenario_e_s.yaml": "profile: desk\nscenario: {E_s: 2}\n",
                   "no_signal.yaml": "profile: desk\nes_n0_db: [-.inf]\n",
                   "inf_iot.yaml": "profile: desk\niot_db: [.inf]\n",
                   "inf_gain.yaml": "profile: desk\nscenario: {gain_range_db: [0.0, .inf]}\n",
                   "no_interferers.yaml": "profile: desk\nscenario: {K_int: 0}\n",
                   "huge_es.yaml": "profile: desk\nes_n0_db: [4000.0]\n",
                   "huge_iot.yaml": "profile: desk\niot_db: [4000.0]\n",
                   "tiny_es.yaml": "profile: desk\nes_n0_db: [-4000.0]\n",
                   "huge_gain.yaml": "profile: desk\nscenario: {gain_range_db: [0.0, 1.0e+300]}\n",
                   "tiny_gain.yaml": "profile: desk\nscenario: {gain_range_db: [-1.0e+300, 0.0]}\n",
                   "few_samples.yaml": "profile: desk\nscenario: {N: 16}\n"
                                       "algorithms: [zf, mmse_sampleR, bdac]\n",
                   "pool_fit.yaml": "profile: desk\nscenario: {N: 28}\n"
                                    "algorithms: [bdac, 'bcd:4']\n",
                   "pool_fit_start.yaml": "profile: desk\nscenario: {N: 28}\n"
                                          "algorithms: [bdac, 'bcd:0']\n",
                   "short_pool.yaml": "profile: desk\nscenario: {N: 30}\n"
                                      "algorithms: [bdac, 'bcd:4']\n",
                   "noise_free.yaml": "profile: desk\nes_n0_db: [8.0, .inf]\n"
                                      "algorithms: [zf, mmse_sampleR]\n",
                   "noise_free_chain.yaml": "profile: desk\nes_n0_db: [.inf]\n"
                                            "iot_db: [null]\n"
                                            "algorithms: [bdac, 'bcd:2', mmse_exactR]\n",
                   "noise_free_zf.yaml": "profile: desk\nes_n0_db: [.inf, 8.0]\n"
                                         "algorithms: [zf]\n",
                   "reversed_gain.yaml": "profile: desk\nscenario: {gain_range_db: [0.0, -6.0]}\n"}

    @pytest.mark.parametrize("argv, message", [
        (["run", "--trials", "0"], "invalid experiment config: trials: must be >= 1"),
        (["run", "--config", "missing.yaml"],
         "[Errno 2] No such file or directory: 'missing.yaml'"),
        (["trace", "--seed", "-1"], "invalid experiment config: seed: must be >= 0"),
        (["run", "--config", "huge_es.yaml"], "invalid experiment config: es_n0_db: 4000.0 "
         "dB is out of range; it must give a thermal noise power that is finite and above 0"),
        (["trace", "--config", "huge_iot.yaml"], "invalid experiment config: iot_db: 4000.0 "
         "dB is out of range; it must give a finite interference power"),
        (["run", "--config", "tiny_es.yaml"], "invalid experiment config: es_n0_db: -4000.0 "
         "dB is out of range; it must give a thermal noise power that is finite and above 0"),
        (["run", "--config", "huge_gain.yaml"], "scenario.gain_range_db: must give linear "
         "gains that are finite and above 0, got [0.0, 1e+300]"),
        (["run", "--config", "list.yaml"],
         "config: must be a mapping of config keys, got [{'profile': 'desk'}]"),
        (["run", "--config", "no_k_n.yaml"],
         "scenario.K and scenario.N required when no profile is given"),
        (["run", "--config", "null_grid.yaml"],
         "invalid experiment config: es_n0_db: must be a number, got None"),
        (["run", "--config", "bool_grid.yaml"],
         "invalid experiment config: es_n0_db: must be a number, got True"),
        (["run", "--config", "scenario_es.yaml"],
         "scenario.es_n0_db: set by the grid key es_n0_db"),
        (["trace", "--config", "scenario_iot.yaml"],
         "scenario.iot_db: set by the grid key iot_db"),
        (["run", "--config", "scenario_e_s.yaml"], "unknown scenario keys: scenario.E_s"),
        (["run", "--config", "no_signal.yaml"], "invalid experiment config: es_n0_db: must "
         "be > -inf, got -inf (infinite thermal noise)"),
        (["trace", "--config", "inf_iot.yaml"], "invalid experiment config: iot_db: must be "
         "< inf, got inf (infinite interference)"),
        (["run", "--config", "inf_gain.yaml"],
         "scenario.gain_range_db: must be finite, got [0.0, inf]"),
        (["run", "--config", "no_interferers.yaml"], "invalid experiment config: iot_db: "
         "10.0 dB needs interference users, but scenario.K_int is 0; use null or -.inf"),
        (["trace", "--config", "tiny_gain.yaml"], "scenario.gain_range_db: must give linear "
         "gains that are finite and above 0, got [-1e+300, 0.0]"),
        (["run", "--config", "few_samples.yaml"], "invalid experiment config: algorithms: "
         "'mmse_sampleR' needs N >= M, got N=16 and M=32"),
        (["run", "--config", "pool_fit.yaml"], "invalid experiment config: algorithms: "
         "'bcd:4' needs K + N > M, got K=4, N=28 and M=32"),
        # a flag's token is judged by the config's rules
        (["run", "--config", "pool_fit_start.yaml", "--algorithms", "bdac,bcd:2"],
         "invalid experiment config: algorithms: 'bcd:2' needs K + N > M, got K=4, N=28 "
         "and M=32"),
        # configs the run accepts: the trace is judged as a run of its reference
        # W*, the sample-MMSE solve, and its chain bcd:L at the first grid point
        (["trace", "--config", "short_pool.yaml"], "invalid experiment config: algorithms: "
         "'mmse_sampleR' needs N >= M, got N=30 and M=32"),
        (["trace", "--config", "pool_fit_start.yaml", "--sweeps", "2"], "invalid experiment "
         "config: algorithms: 'mmse_sampleR' needs N >= M, got N=28 and M=32; algorithms: "
         "'bcd:2' needs K + N > M, got K=4, N=28 and M=32"),
        # the pool is zero at Es/N0 = inf: every equalizer but zf is singular
        (["run", "--config", "noise_free.yaml"], "invalid experiment config: algorithms: "
         "'mmse_sampleR' needs noise, but the grid point Es/N0 inf dB, IoT 10.0 dB is "
         "noise-free"),
        (["run", "--config", "noise_free_chain.yaml"], "invalid experiment config: "
         "algorithms: 'bdac' needs noise, but the grid point Es/N0 inf dB, IoT None dB is "
         "noise-free; algorithms: 'bcd:2' needs noise, but the grid point Es/N0 inf dB, "
         "IoT None dB is noise-free; algorithms: 'mmse_exactR' needs noise, but the grid "
         "point Es/N0 inf dB, IoT None dB is noise-free"),
        (["trace", "--config", "noise_free_zf.yaml"], "invalid experiment config: "
         "algorithms: 'mmse_sampleR' needs noise, but the grid point Es/N0 inf dB, IoT 10.0 "
         "dB is noise-free; algorithms: 'bcd:50' needs noise, but the grid point Es/N0 inf "
         "dB, IoT 10.0 dB is noise-free"),
        (["run", "--config", "reversed_gain.yaml"],
         "scenario.gain_range_db: must be [low, high], got [0.0, -6.0]"),
        # an empty list of tokens is a token list, not a missing flag
        (["run", "--algorithms", ""],
         "invalid experiment config: algorithms: unknown algorithm ''"),
        # an --out that names a file fails before any row is computed
        (["run", "--trials", "1", "--symbols", "10", "--out", "list.yaml"],
         "[Errno 17] File exists: 'list.yaml'")])
    def test_input_errors_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv,
                                           message):
        monkeypatch.chdir(tmp_path)
        for name, text in self.BAD_CONFIGS.items():
            (tmp_path / name).write_text(text)
        for name in ("run_experiment", "convergence_trace"):
            monkeypatch.setattr(harness, name, lambda *a, name=name, **kw: pytest.fail(
                f"{name} ran before the usage error"))
        with pytest.raises(SystemExit) as exc:
            # an --out of the case's own goes over this one
            cli.main(argv[:1] + ["--out", str(tmp_path / "out")] + argv[1:])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"chainmmse {argv[0]}: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_config_schedule_variant_is_a_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "sym.yaml"
        path.write_text("profile: desk\nschedule_variant: symmetric_gauss_seidel\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"chainmmse {command}: error: invalid experiment config: schedule_variant: "
            "must be 'gauss_seidel_loop', got 'symmetric_gauss_seidel'\n")
        assert not (tmp_path / "out").exists()

    def test_traffic_meters_every_phase_on_every_loop_link(self, tmp_path, capsys):
        assert cli.main(["trace", "--profile", "desk", "--sweeps", "4",
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "traffic.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        links = ["0-1", "1-2", "2-3", "3-0"]
        phases = [PHASE_GRAM, PHASE_ACCUMULATE, PHASE_DISTRIBUTE, PHASE_SWEEP]
        assert sorted((r["phase"], r["link"]) for r in rows) == sorted(
            (phase, link) for phase in phases for link in links)
        per_link = {link: sum(int(r["entries"]) for r in rows if r["link"] == link)
                    for link in links}
        assert per_link == dict.fromkeys(links, predicted_traffic(4, 96, 4))
        assert f"predicted per-link entries (loop chain): {predicted_traffic(4, 96, 4)}" \
            in capsys.readouterr().out

    def test_traffic_meters_a_chain_of_c_equal_clusters_holding_k(self, tmp_path):
        # M = K = 20 antennas: K = 20 users in clusters of 5
        path = tmp_path / "square.yaml"
        path.write_text("scenario: {M: 20, C: 4, K: 20, K_int: 4, N: 96}\n")
        assert cli.main(["trace", "--config", str(path), "--sweeps", "1",
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "traffic.csv", newline="") as fh:
            total = sum(int(r["entries"]) for r in csv.DictReader(fh))
        assert total == 4 * predicted_traffic(20, 96, 1)

    def test_run_without_config_is_run_of_the_default_config(self, tmp_path):
        path = tmp_path / "default.yaml"
        path.write_text(yaml.safe_dump(cli.DEFAULT_CONFIG))
        flags = ["--trials", "2", "--symbols", "20"]
        assert cli.main(["run", *flags, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", "--config", str(path), *flags,
                         "--out", str(tmp_path / "b")]) == 0
        blobs = [(tmp_path / d / "results.csv").read_bytes() for d in "ab"]
        assert blobs[0] == blobs[1]
        assert len(blobs[0].splitlines()) == 1 + 6 * 5  # six algorithms, five points

    def test_run_without_interference_prints_a_null_iot(self, tmp_path, capsys):
        path = tmp_path / "white.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, K_int: 0, N: 16}\n"
                        "es_n0_db: [4.0]\niot_db: [null]\nalgorithms: [zf, bcd:1]\n"
                        "trials: 2\nsymbols_per_trial: 50\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = list(csv.DictReader(
            (tmp_path / "out" / "results.csv").read_text().splitlines()))
        assert [(r["algorithm"], r["iot_db"]) for r in rows] == [("zf", "None"),
                                                                 ("bcd", "None")]
        out = capsys.readouterr().out
        assert out.count("Es/N0=  4.0 dB IoT=none  BER=") == 2

    def test_errors_of_the_run_itself_propagate(self, tmp_path):
        # one interferer 300 dB over the thermal noise: a valid config whose
        # sample covariance is singular to working precision
        path = tmp_path / "loud.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, K_int: 1, N: 16}\n"
                        "es_n0_db: [0.0]\niot_db: [300.0]\nalgorithms: [mmse_sampleR]\n")
        with pytest.raises(central.SingularMatrixError, match="noise covariance"):
            cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])


class TestConvergenceTrace:
    def test_cli_traces_the_config_seed(self, tmp_path):
        path = tmp_path / "seed7.yaml"
        path.write_text("profile: desk\nseed: 7\n")
        runs = {"config": ["--config", str(path)],
                "profile": ["--profile", "desk", "--seed", "7"],
                "override": ["--config", str(path), "--seed", "1"],
                "default": []}
        traces = {}
        for name, argv in runs.items():
            assert cli.main(["trace", *argv, "--sweeps", "2",
                             "--out", str(tmp_path / name)]) == 0
            traces[name] = (tmp_path / name / "trace.csv").read_bytes()
        assert traces["config"] == traces["profile"]
        assert traces["override"] == traces["default"] != traces["config"]

    @pytest.mark.parametrize("scenario", [
        "profile: desk", "profile: paper",
        "profile: desk\nscenario: {cluster_sizes: [4, 4, 8, 16]}",
        "scenario: {M: 8, C: 1, K: 2, K_int: 2, N: 32}"],
        ids=["desk", "paper", "desk_uneven", "one_cluster"])
    def test_trace_is_the_first_instance_of_the_run(self, tmp_path, scenario):
        # the trace's last objective is the run's bcd:7 objective of its only
        # trial, and its ledger the run's traffic
        path = tmp_path / "one.yaml"
        path.write_text(f"{scenario}\nes_n0_db: [12.0]\ntrials: 1\nsymbols_per_trial: 10\n"
                        "algorithms: ['bcd:7']\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert cli.main(["trace", "--config", str(path), "--sweeps", "7",
                         "--out", str(tmp_path)]) == 0
        [row] = read_results_csv(tmp_path / "results.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        assert (row.algorithm, row.L, row.es_n0_db) == ("bcd", 7, 12.0)
        assert float(trace[-1]["objective"]) == pytest.approx(row.objective, rel=1e-12)
        with open(tmp_path / "traffic.csv", newline="") as fh:
            assert sum(int(r["entries"]) for r in csv.DictReader(fh)) == row.traffic_entries

    def test_trace_writes_to_the_config_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.yaml").write_text("profile: desk\nout_dir: cfgout\n")
        assert cli.main(["trace", "--config", "cfg.yaml", "--sweeps", "1"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "cfgout"]
        assert sorted(p.name for p in (tmp_path / "cfgout").iterdir()) == [
            "trace.csv", "traffic.csv"]

    @pytest.mark.parametrize("sweeps", ["0", "-3"])
    def test_cli_rejects_sweeps_below_one(self, tmp_path, capsys, sweeps):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trace", f"--sweeps={sweeps}", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument --sweeps: must be >= 1, got {sweeps}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_single_cluster_one_row_per_sweep(self):
        sc = model.Scenario(M=8, C=1, K=2, K_int=2, N=32)
        rows, _ = harness.convergence_trace(sc, seed=2, L=5)
        assert len(rows) == 5
        assert all(r.block == 0 for r in rows)
        assert rows[0].w_error < 1e-9  # exact after the first block solve

    def test_single_cluster_writes_a_ledger_without_links(self, tmp_path, capsys):
        path = tmp_path / "one.yaml"
        path.write_text("scenario: {M: 8, C: 1, K: 2, K_int: 2, N: 32}\n")
        assert cli.main(["trace", "--config", str(path), "--sweeps", "3",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "traffic.csv").read_text().splitlines() == [
            "phase,link,entries,bytes"]
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 1 + 3
        # the traced line alone: no closed form and no link line
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_converges_and_monotone(self, tmp_path):
        sc = model.Scenario(M=16, C=4, K=4, K_int=4, N=64, es_n0_db=0.0)
        rows, _ = harness.convergence_trace(sc, seed=3, L=400)
        assert [(r.sweep, r.block) for r in rows] == [
            (sweep, block) for sweep in range(1, 401) for block in range(4)]
        assert rows[-1].w_error < 1e-8
        objs = [r.objective for r in rows]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev * (1.0 + 1e-12)
        path = tmp_path / "trace.csv"
        emit_convergence_trace(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sweep,block,objective,w_error"
        assert len(lines) == len(rows) + 1


def _bench_module(name):
    """Import a standalone module of the repository's bench/ directory."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["desk", "chain_deep", "paper", "detect_long"])
def test_workload_matches_stored_reference(workload, tmp_path):
    """Exact results of a benchmark workload at seed 1: BER, SER, symbols and
    traffic equal the stored reference, the objective to 1e-12 relative."""
    check, workloads = _bench_module("check"), _bench_module("workloads")
    config = workloads.WORKLOADS[workload].config(1)
    reference = check.load_reference(workload, config, 1)
    assert reference is not None
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    emit_csv(run_experiment(load_config(path)), tmp_path / "results.csv")
    rows = check.read_rows(tmp_path / "results.csv")
    attempted, failures = check.check_rows(rows, config, reference)
    assert failures == {}
    assert attempted == len(rows) == len(reference)
