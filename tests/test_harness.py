import csv
import dataclasses
import importlib.util
import math
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainmmse import central, cli, daisy, detect, harness, model
from chainmmse.interconnect import (PHASE_ACCUMULATE, PHASE_DISTRIBUTE, PHASE_GRAM,
                                    PHASE_SWEEP)
from chainmmse.harness import (ExperimentConfig, ResultRow, emit_csv,
                               emit_convergence_trace, load_config, parse_algorithm,
                               profile_scenario, run_experiment)

from conftest import draw_point, paper_traffic, unreplayable


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


def _counted(rows: list[ResultRow]) -> list[ResultRow]:
    """The rows without their wall times, which no two runs share."""
    return [dataclasses.replace(r, wall_time_s=0.0) for r in rows]


@pytest.fixture
def blas_at_two():
    """Every loaded OpenBLAS library at two threads, the library default on two
    CPUs; yields a reader of their counts, and restores the counts after. The
    libraries are looked up afresh, and the lookup's cache is cleared after."""
    detect._openblas.cache_clear()
    libs = detect._openblas()
    if not libs:
        assert "openblas" not in np.show_config(mode="dicts")["Build Dependencies"][
            "blas"].get("name", "")  # numpy's own OpenBLAS is found
        pytest.skip("no OpenBLAS library loaded")
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(2)
    yield lambda: [get() for get, _ in libs]
    for (_, put), n in zip(libs, before):
        put(n)
    detect._openblas.cache_clear()  # no test's faked lookup outlives it


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
        # only ASCII digits count sweeps: int() would read '٣' as 3 and fail on '²'
        for token in ("bcd:²", "bcd:٣"):
            with pytest.raises(ValueError, match=f"^algorithms: '{token}' needs a sweep count"):
                parse_algorithm(token)

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

    @pytest.mark.parametrize("key, values, message", [
        ("es_n0_db", (0.0, 0.0), "es_n0_db: 0.0 repeats 0.0"),
        ("es_n0_db", (0.0, -0.0), "es_n0_db: -0.0 repeats 0.0"),
        ("es_n0_db", (4, 8.0, np.float64(4.0)), "es_n0_db: 4.0 repeats 4.0"),
        ("iot_db", (None, 10.0, None), "iot_db: None repeats None"),
        ("iot_db", (-math.inf, 10.0, -math.inf), "iot_db: -inf repeats -inf")],
        ids=["twice", "signed_zero", "numpy", "null", "minus_inf"])
    def test_repeated_grid_value_rejected(self, key, values, message):
        # a grid value keys its rows: a repeat would write two rows of one key
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            _small_config(**{key: values})

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
        # (every local Gram matrix is rank deficient, and is loaded and warned
        # of first)
        cfg = dataclasses.replace(cfg, algorithms=("zf", "bdac", "bcd:1"))
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(central.SingularMatrixError,
                              match=r"^bdac, bcd:1 at Es/N0 0\.0 dB, IoT 300\.0 dB, in "
                                    r"the stack of trials 0\.\.2 .*: cluster 0: local "
                                    r"covariance block R_cc in trial 0 is numerically "
                                    r"singular"):
            warnings.simplefilter("always")
            run_experiment(cfg)
        assert sorted(str(w.message) for w in caught) == sorted(
            f"cluster {c}, trial {t} at Es/N0 0.0 dB, IoT 300.0 dB: diagonal loading of its "
            "ill-conditioned Gram matrix" for t in range(3) for c in range(2))

    @pytest.mark.parametrize("iot_db, raises", [((10.0,), False), ((10.0, 300.0), True),
                                                ((10.0,), "build")])
    def test_no_lane_thread_outlives_the_run(self, monkeypatch, iot_db, raises):
        # two lanes on every chunk of two trials. At IoT 300 dB the sample
        # covariance is singular, after the first grid point has started the
        # lane thread; a build that fails on the second chunk finds lane 1
        # holding the first
        monkeypatch.setattr(detect, "LANE_BYTES", 0)
        monkeypatch.setattr(detect.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        sc = model.Scenario(M=8, C=2, K=2, K_int=1, N=16, constellation=4)
        monkeypatch.setattr(harness, "CHUNK_BYTES", 2 * 16 * sc.M * (sc.N + sc.M))
        cfg = _small_config(scenario=sc, es_n0_db=(0.0,), algorithms=("zf", "mmse_sampleR"),
                            trials=4)
        want = _counted(run_experiment(cfg))
        seen, used = [], []  # the threads alive after each detection call; its lanes
        evaluate, build = detect.evaluate_equalizer, harness._build_equalizer

        def evaluate_and_look(*args, **kwargs):
            counts = evaluate(*args, **kwargs)
            seen.extend(threading.enumerate())
            used.append(kwargs["lanes"])
            return counts

        def build_after_one_chunk(token, *args):
            if used:  # the second chunk: lane 1 holds the first (a private look)
                assert used[-1]._job is not None
                raise RuntimeError("build failed")
            return build(token, *args)

        monkeypatch.setattr(detect, "evaluate_equalizer", evaluate_and_look)
        before = threading.enumerate()
        if raises is True:
            with pytest.raises(central.SingularMatrixError, match="IoT 300.0 dB"):
                run_experiment(dataclasses.replace(cfg, iot_db=iot_db))
        elif raises == "build":
            monkeypatch.setattr(harness, "_build_equalizer", build_after_one_chunk)
            with pytest.raises(RuntimeError, match="build failed"):
                run_experiment(cfg)
            monkeypatch.setattr(harness, "_build_equalizer", build)
        else:
            run_experiment(cfg)
        assert any(t.name.startswith("chainmmse-lane") for t in seen)
        assert threading.enumerate() == before
        assert _counted(run_experiment(cfg)) == want  # no count of the run before

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
        # 7 trials: the plans of budgets of 7, 2, 3 and 4 trials (one stack,
        # 2+2+2+1, 3+2+2 and 4+3), and the uneven 6+1 of fixed chunks of 6
        cfg = _small_config(algorithms=("zf", "mmse_exactR", "mmse_sampleR", "bdac",
                                        "bcd:3"), trials=7)
        trial = 16 * 8 * (16 + 8)
        plans = {}
        for budget in (harness.CHUNK_BYTES, 2 * trial, 3 * trial, 4 * trial):
            monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
            plans[budget] = harness.chunk_plan(cfg.scenario, cfg.trials)
        assert [[len(c) for c in plan] for plan in plans.values()] == [
            [7], [2, 2, 2, 1], [3, 2, 2], [4, 3]]
        plans["uneven"] = [range(0, 6), range(6, 7)]
        blobs = []
        for key, plan in plans.items():
            monkeypatch.setattr(harness, "chunk_plan", lambda scenario, trials: plan)
            path = tmp_path / f"{key}.csv"
            emit_csv(run_experiment(cfg), path)
            blobs.append(path.read_bytes())
        assert blobs == [blobs[0]] * 5

    def test_results_do_not_depend_on_detection_groups(self, tmp_path, monkeypatch):
        # a chain_deep-shaped run: 20 desk trials of 64 symbols, detected in one
        # lane as one group of 20, then, with DRAW_BYTES at one trial's rows
        # (2 M + 2 K + 2 K_int = 80), in groups of one
        cfg = harness.make_config({"profile": "desk", "es_n0_db": [0.0, 16.0],
                                   "iot_db": [10.0], "algorithms": ["mmse_sampleR", "bcd:50"],
                                   "trials": 20, "symbols_per_trial": 64})
        plan, plans = detect.group_plan, []
        monkeypatch.setattr(detect, "group_plan",
                            lambda *args: plans.append(plan(*args)) or plans[-1])
        blobs = []
        for draw in (detect.DRAW_BYTES, 8 * 80 * 64):
            monkeypatch.setattr(detect, "DRAW_BYTES", draw)
            emit_csv(run_experiment(cfg), tmp_path / "results.csv")
            blobs.append((tmp_path / "results.csv").read_bytes())
        assert plans == [[range(20)]] * 2 + [[range(t, t + 1) for t in range(20)]] * 2
        assert blobs[1] == blobs[0]

    @pytest.mark.parametrize("shape, updates, maps", [
        # chain_deep: bcd:50 is one deep gap from the BDAC start, powered
        ({"profile": "desk", "algorithms": ["mmse_sampleR", "bcd:50"]}, 0, 2),
        # desk and paper: bdac, bcd:1 and bcd:4 read sweeps 0, 1 and 4, stepped
        ({"profile": "desk", "algorithms": ["zf", "mmse_exactR", "mmse_sampleR", "bdac",
                                            "bcd:1", "bcd:4"]}, 2 * 4 * 4, 0),
        ({"profile": "paper", "algorithms": ["bdac", "bcd:1", "bcd:4"]}, 2 * 4 * 8, 0)],
        ids=["chain_deep", "desk", "paper"])
    def test_deep_chain_tokens_advance_by_powers_of_the_sweep_map(self, monkeypatch, shape,
                                                                  updates, maps):
        # two grid points of one chunk each: the block updates and the sweep
        # maps that their chain runs make
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
        run_experiment(harness.make_config({**shape, "es_n0_db": [0.0, 16.0], "iot_db": [10.0],
                                            "trials": 2, "symbols_per_trial": 16}))
        assert calls == {"updates": updates, "maps": maps}

    def test_loading_warnings_name_the_grid_point_and_the_runs_trial(self, monkeypatch):
        # at 150 dB every local Gram matrix is loaded; at a budget of 8 desk
        # trials, 12 trials build in chunks of 6 and 6, and bdac and bcd:2
        # read one chain run
        monkeypatch.setattr(harness, "CHUNK_BYTES", 1 << 19)
        cfg = harness.make_config({"profile": "desk", "es_n0_db": [150.0],
                                   "iot_db": [10.0], "algorithms": ["bdac", "bcd:2"],
                                   "trials": 12, "symbols_per_trial": 10})
        assert harness.chunk_plan(cfg.scenario, 12) == [range(0, 6), range(6, 12)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        assert sorted(str(w.message) for w in caught) == sorted(
            f"cluster {c}, trial {t} at Es/N0 150.0 dB, IoT 10.0 dB: diagonal loading of "
            "its ill-conditioned Gram matrix" for t in range(12) for c in range(4))
        # the trace warns of its one instance, trial 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            harness.convergence_trace(cfg.scenario.with_ratios(150.0, 10.0), cfg.seed, L=1)
        assert [str(w.message) for w in caught] == [
            f"cluster {c}, trial 0 at Es/N0 150.0 dB, IoT 10.0 dB: diagonal loading of its "
            "ill-conditioned Gram matrix" for c in range(4)]

    def test_chunk_size_from_byte_budget(self, monkeypatch):
        # 16 M (N + M) bytes per trial: 64 KiB on desk, 640 KiB on paper. A
        # budget of 512 KiB holds 8 desk trials, and no paper trial, so paper
        # chunks hold the least, two trials
        monkeypatch.setattr(harness, "CHUNK_BYTES", 1 << 19)
        desk, paper = profile_scenario("desk"), profile_scenario("paper")
        assert [len(c) for c in harness.chunk_plan(desk, 8)] == [8]
        assert [len(c) for c in harness.chunk_plan(desk, 16)] == [8, 8]
        assert [len(c) for c in harness.chunk_plan(desk, 9)] == [5, 4]
        assert [len(c) for c in harness.chunk_plan(paper, 4)] == [2, 2]
        assert [len(c) for c in harness.chunk_plan(paper, 5)] == [2, 2, 1]
        # a run of one trial builds a chunk of one: its bcd:1 row is the trace's
        # last block update
        assert harness.chunk_plan(paper, 1) == [range(1)]
        sc = profile_scenario("paper")
        [row] = run_experiment(ExperimentConfig(scenario=sc, es_n0_db=(0.0,), iot_db=(10.0,),
                                                algorithms=("bcd:1",), trials=1,
                                                symbols_per_trial=10, seed=3))
        last = harness.convergence_trace(sc.with_ratios(0.0, 10.0), seed=3, L=1)[-1]
        assert row.symbols == sc.K * 10 and row.objective == last.objective

    @pytest.mark.parametrize("iot_db", [10.0, None])
    def test_a_stack_draws_each_trials_pool_bit_for_bit(self, iot_db):
        # the pools are drawn in place into one stack, through one generator:
        # each equals its trial's own draw_noise_pool from numpy's own
        # streams, with and without interference power
        sc = profile_scenario("desk").with_ratios(4.0, iot_db)
        states = harness.stream_states(7, 2, range(3, 8))
        channels, pool = harness.draw_trials(sc, states, harness.generator())
        assert pool.shape == (5, sc.M, sc.N) and states.shape == (5, 3, 4)
        for i, t in enumerate(range(3, 8)):
            rng_ch, rng_pool, rng_data = [np.random.default_rng(child) for child
                                          in np.random.SeedSequence([7, 2, t]).spawn(3)]
            ch = model.build_channel(sc, rng_ch)
            assert (channels.H[i] == ch.H).all() and (channels.H_int[i] == ch.H_int).all()
            assert (pool[i] == model.draw_noise_pool(ch, sc, rng_pool)).all()
            data = harness.set_stream(harness.generator(), states[i, 2])
            assert data.bit_generator.state == rng_data.bit_generator.state

    def test_chunk_plans_of_the_benchmark_workloads(self):
        # configs/desk.yaml (the desk workload) 50 trials: 25+25; chain_deep, 20
        # desk trials: one chunk; paper, 4 trials of which 3 fit the budget:
        # 2+2, not 3+1; detect_long, 8 trials of the desk scenario at 64-QAM
        root = Path(__file__).resolve().parent.parent
        desk = load_config(root / "configs" / "desk.yaml")
        assert desk.trials == 50 and desk.scenario == profile_scenario("desk")
        plans = {name: [len(c) for c in harness.chunk_plan(sc, trials)]
                 for name, sc, trials in [
                     ("desk", desk.scenario, desk.trials),
                     ("chain_deep", profile_scenario("desk"), 20),
                     ("paper", profile_scenario("paper"), 4),
                     ("detect_long", profile_scenario("desk", constellation=64), 8)]}
        assert plans == {"desk": [25, 25], "chain_deep": [20], "paper": [2, 2],
                         "detect_long": [8]}

    @pytest.mark.parametrize("budget", [0, 1 << 19, 1 << 21, 3 * 655360 + 1])
    def test_chunk_plan_is_the_fewest_even_chunks_in_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        for sc in (profile_scenario("desk"), profile_scenario("paper"),
                   model.Scenario(M=8, C=2, K=2, N=16)):
            trial = 16 * sc.M * (sc.N + sc.M)
            for trials in range(1, 101):
                plan = harness.chunk_plan(sc, trials)
                sizes = [len(c) for c in plan]
                # consecutive ranges that cover the trials, the larger first
                assert [t for c in plan for t in c] == list(range(trials))
                assert all(c.step == 1 for c in plan)
                assert sizes == sorted(sizes, reverse=True)
                assert max(sizes) - min(sizes) <= 1
                # within the budget, or of the least, two trials
                assert all(n * trial <= budget or n <= 2 for n in sizes)
                # the fewest: one chunk fewer would hold a chunk over both
                most = max(2, budget // trial)
                assert (len(plan) - 1) * most < trials

    def test_bdac_traffic_is_the_schedule_gram_phase(self):
        cfg = _small_config(algorithms=("bdac",))
        sc = cfg.scenario
        rng_ch, rng_pool, _ = harness.trial_rngs(0, 0, 0)
        ch = model.build_channel(sc, rng_ch)
        chain = daisy.make_chain(ch, model.draw_noise_pool(ch, sc, rng_pool), sc.E_s)
        ledger = daisy.run_bcd(chain, daisy.Schedule(L=1)).ledger
        [row] = run_experiment(cfg)
        gram = [ledger.counts[PHASE_GRAM, link] for link in ledger.topology.links]
        assert gram == [paper_traffic(sc.K, sc.N, None)] * sc.C
        assert row.traffic_entries == cfg.trials * sc.C * paper_traffic(sc.K, sc.N, None)

    def test_chain_tokens_read_one_chain_run_per_stack(self, monkeypatch):
        tokens = ("bdac", "bcd:0", "bcd:1", "bcd:4")
        # 5 trials at a budget of 2 trials: stacks of 2, 2 and 1 at each of two grid points
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
        # 5 trials at a budget of 2 trials: stacks of 2, 2 and 1 at each of two grid points;
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
        # 5 trials at a budget of 2 trials: stacks of 2, 2 and 1 at each of two grid points
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


def _numpy_states(seed, point_index, t):
    """The PCG64 states of a trial's streams as numpy seeds them: the test oracle."""
    return [np.random.PCG64(child).state
            for child in np.random.SeedSequence([seed, point_index, t]).spawn(3)]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a uint32 overflow warning fails
class TestStreams:
    @given(seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]),
                          st.integers(0, 2**128 - 1)),
           point_index=st.integers(0, 2**33), start=st.integers(1, 2**33),
           length=st.sampled_from([1, 2, 50]))
    @example(seed=1, point_index=0, start=2**32 - 25, length=50)  # across a word count
    @settings(max_examples=60, deadline=None)
    def test_batched_states_are_numpys_seed_sequence_spawn(self, seed, point_index, start,
                                                           length):
        trials = range(start, start + length)
        states = harness.stream_states(seed, point_index, trials)
        assert states.shape == (length, 3, 4) and states.dtype == np.uint64
        rng = harness.generator()
        for words, t in zip(states, trials):
            assert [harness.set_stream(rng, w).bit_generator.state for w in words] \
                == _numpy_states(seed, point_index, t)

    def test_trial_rngs_are_numpys_streams(self):
        for seed, point_index, t in [(0, 0, 0), (7, 2, 5), (2**64 + 5, 2**33, 2**32)]:
            assert [rng.bit_generator.state for rng in harness.trial_rngs(seed, point_index, t)] \
                == _numpy_states(seed, point_index, t)
        with pytest.raises(ValueError, match=">= 0"):
            harness.stream_states(-1, 0, range(1))

    def test_a_run_seeds_no_sequence_and_makes_no_default_rng(self, monkeypatch):
        # a desk-shaped run derives its trials' streams itself: numpy's own
        # seeding is the test oracle only
        made = []

        def counted(name, make):
            def make_and_count(*args, **kwargs):
                made.append(name)
                return make(*args, **kwargs)
            return make_and_count

        for name in ("SeedSequence", "default_rng"):
            monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
        config = ExperimentConfig(scenario=profile_scenario("desk"), es_n0_db=(0.0, 8.0),
                                  trials=6, symbols_per_trial=100, seed=4)
        rows = run_experiment(config)
        assert made == [] and len(rows) == 2 * len(config.algorithms)

    def test_importing_the_package_leaves_numpy_random_unimported(self):
        # the run makes its generator: one made at import would import
        # numpy.random with the package, and every run would pay for it in setup
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import chainmmse.cli, chainmmse.harness; print('numpy.random' in sys.modules)")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                              text=True, check=True)
        assert done.stdout == "False\n"


class TestOverlap:
    """A chunk's detection on lane 1 behind the build of the next chunk, with
    two lanes on every chunk of more than one trial and the CPUs mocked."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        """Sets the CPUs the process may run on; two to start with."""
        monkeypatch.setattr(detect, "LANE_BYTES", 0)

        def set_cpus(cpus):
            monkeypatch.setattr(detect.os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)

        set_cpus({0, 1})
        return set_cpus

    def test_overlapped_run_counts_what_one_cpu_counts(self, monkeypatch, cpus, tmp_path):
        # at a budget of 8 desk trials, 20 trials build in chunks of 7, 7 and 6
        # at each of two grid points
        monkeypatch.setattr(harness, "CHUNK_BYTES", 1 << 19)
        cfg = ExperimentConfig(scenario=profile_scenario("desk"), es_n0_db=(0.0, 12.0),
                               algorithms=("zf", "mmse_sampleR", "bdac", "bcd:1"),
                               trials=20, symbols_per_trial=100, seed=4)
        evaluate = detect.evaluate_equalizer
        counts, held = {}, {}

        def evaluate_and_keep(*args, lanes, out, **kwargs):
            got = evaluate(*args, lanes=lanes, out=out, **kwargs)
            outs.append(out)
            held[n].append(lanes._job is not None)  # a private look at lane 1's job
            return got

        monkeypatch.setattr(detect, "evaluate_equalizer", evaluate_and_keep)
        for n in (2, 1):
            cpus(set(range(n)))
            outs, held[n] = [], []
            emit_csv(run_experiment(cfg), tmp_path / f"{n}.csv")
            counts[n] = np.concatenate(outs, axis=-1)  # read once the run has returned
        assert held == {2: [True] * 6, 1: [False] * 6}
        assert counts[1].shape == (2, 4, 40) and counts[1][:, :, :20].all()
        np.testing.assert_array_equal(counts[2], counts[1])
        assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()

    def test_blas_runs_at_one_thread_on_both_lanes(self, monkeypatch, blas_at_two):
        # each lane's share of a detection job reads the BLAS thread count as
        # it starts, on the lane's own thread; chunks of the least, two trials
        take, seen = detect._take, []

        def take_and_look(work, trials, lane):
            seen.append((threading.current_thread().name, blas_at_two()))
            take(work, trials, lane)

        monkeypatch.setattr(detect, "_take", take_and_look)
        monkeypatch.setattr(harness, "CHUNK_BYTES", 0)
        run_experiment(_small_config(trials=4))
        ones = [1] * len(blas_at_two())
        assert sorted(seen) == [("MainThread", ones)] * 2 + [("chainmmse-lane-1_0", ones)] * 2
        assert blas_at_two() == [2] * len(ones)  # the count before the run, back

    def test_bare_lanes_leave_the_blas_threads_as_they_are(self, blas_at_two):
        # a run holds BLAS at one thread around its lanes; the lanes alone, and
        # a two-lane job on them, leave the count as it was
        seen = []
        with detect.Lanes() as lanes:
            lanes.start(lambda lane, u: seen.append(blas_at_two()), range(2), 2)
            lanes.wait()
        twos = [2] * len(blas_at_two())
        assert seen == [twos] * 2 and blas_at_two() == twos

    def test_a_points_last_chunk_is_held_at_the_next_points_draw(self, monkeypatch, cpus):
        # at a budget of 8 desk trials, chunks of 5 and 5 at each of three
        # grid points
        monkeypatch.setattr(harness, "CHUNK_BYTES", 1 << 19)
        draw, evaluate = harness.draw_trials, detect.evaluate_equalizer
        used, held = [], {}  # the run's lanes; lane 1's job at each point's first draw

        def evaluate_and_keep(*args, **kwargs):
            used.append(kwargs["lanes"])
            return evaluate(*args, **kwargs)

        def draw_and_look(scenario, states, rng):
            if points and points[-1] != scenario.es_n0_db:  # a later point's first draw
                held[n].append(used[-1]._job is not None)  # a private look at lane 1
            points.append(scenario.es_n0_db)
            return draw(scenario, states, rng)

        monkeypatch.setattr(detect, "evaluate_equalizer", evaluate_and_keep)
        monkeypatch.setattr(harness, "draw_trials", draw_and_look)
        for n in (2, 1):
            cpus(set(range(n)))
            held[n], points = [], []
            run_experiment(ExperimentConfig(scenario=profile_scenario("desk"),
                                            es_n0_db=(0.0, 6.0, 12.0), algorithms=("zf",),
                                            trials=10, symbols_per_trial=50, seed=2))
        assert held == {2: [True, True], 1: [False, False]}

    def _chunk(self):
        """The zf equalizers, channels and frames of a chunk of three desk trials."""
        sc = profile_scenario("desk").with_ratios(6.0, 10.0)
        channels, _, data_rngs = draw_point(sc, 3, 0, range(3))
        frames = [detect.make_frame(sc, 100, rng) for rng in data_rngs]
        return central.zf_centralized(channels.H)[None], channels, frames, sc

    @pytest.mark.parametrize("joined_by", ["the next call", "wait"])
    def test_an_error_in_a_held_job_is_raised_when_it_is_joined(self, joined_by):
        W, channels, frames, sc = self._chunk()
        bad = [unreplayable(f) for f in frames]  # every trial fails, in a lane
        with detect.Lanes() as lanes:
            want = detect.evaluate_equalizer(W, channels, frames, sc, lanes=lanes)
            out = np.empty((2, 1, 3), dtype=np.int64)
            detect.evaluate_equalizer(W, channels, bad, sc, lanes=lanes, out=out)  # held
            with pytest.raises(ValueError, match="PCG64"):
                if joined_by == "wait":
                    lanes.wait()
                else:
                    detect.evaluate_equalizer(W, channels, frames, sc, lanes=lanes, out=out)
            lanes.wait()  # nothing is left to join
            detect.evaluate_equalizer(W, channels, frames, sc, lanes=lanes, out=out)
            lanes.wait()
        assert want[0].all()
        np.testing.assert_array_equal(out, np.stack(want))

    def test_an_error_in_the_points_last_chunk_is_raised_by_the_run(self, monkeypatch):
        # at a budget of 8 desk trials, chunks of 5 and 5: the second is joined
        # at the point's end
        monkeypatch.setattr(harness, "CHUNK_BYTES", 1 << 19)
        make_frame, made = detect.make_frame, []

        def make_bad_frame_after_five(*args):
            made.append(make_frame(*args))
            return made[-1] if len(made) <= 5 else unreplayable(made[-1])

        monkeypatch.setattr(detect, "make_frame", make_bad_frame_after_five)
        before = threading.enumerate()
        with pytest.raises(ValueError, match="PCG64"):
            run_experiment(ExperimentConfig(scenario=profile_scenario("desk"),
                                            es_n0_db=(6.0,), algorithms=("zf",), trials=10,
                                            symbols_per_trial=50, seed=2))
        assert len(made) == 10
        assert threading.enumerate() == before


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
         "[Errno 17] File exists: 'list.yaml'"),
        # sweep counts are ASCII digits
        (["run", "--algorithms", "bcd:²"], "invalid experiment config: algorithms: "
         "'bcd:²' needs a sweep count >= 0, e.g. 'bcd:4'"),
        (["run", "--algorithms", "bcd:٣"], "invalid experiment config: algorithms: "
         "'bcd:٣' needs a sweep count >= 0, e.g. 'bcd:4'")])
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
        assert per_link == dict.fromkeys(links, paper_traffic(4, 96, 4))
        assert f"predicted per-link entries (loop chain): {paper_traffic(4, 96, 4)}" \
            in capsys.readouterr().out

    def test_traffic_meters_a_chain_of_c_equal_clusters_holding_k(self, tmp_path):
        # M = K = 20 antennas: K = 20 users in clusters of 5
        path = tmp_path / "square.yaml"
        path.write_text("scenario: {M: 20, C: 4, K: 20, K_int: 4, N: 96}\n")
        assert cli.main(["trace", "--config", str(path), "--sweeps", "1",
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "traffic.csv", newline="") as fh:
            total = sum(int(r["entries"]) for r in csv.DictReader(fh))
        assert total == 4 * paper_traffic(20, 96, 1)

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

    def test_importing_the_cli_leaves_scipy_and_the_lane_executor_unimported(self):
        # every run pays for its imports in setup; concurrent.futures (which
        # imports logging and queue) waits for the first two-lane job
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import chainmmse.cli; "
                "print(sorted({'scipy', 'concurrent.futures', 'logging', 'queue'}"
                " & set(sys.modules)))")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"


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
        assert float(trace[-1]["objective"]) == row.objective
        with open(tmp_path / "traffic.csv", newline="") as fh:
            assert sum(int(r["entries"]) for r in csv.DictReader(fh)) == row.traffic_entries

    @pytest.mark.parametrize("scenario", [
        "profile: desk", "profile: desk\nscenario: {C: 3, cluster_sizes: [5, 11, 16]}",
        "scenario: {M: 8, C: 1, K: 2, K_int: 2, N: 32}",
        "profile: desk\nscenario: {M: 36, C: 12}"],
        ids=["desk", "uneven", "one_cluster", "twelve_clusters"])
    def test_trace_traffic_is_the_ledger_run_bcd_books(self, tmp_path, scenario):
        # traffic.csv is the closed form; the ledger run_bcd books for the
        # traced instance holds the same (phase, link) counts
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{scenario}\nes_n0_db: [12.0]\n")
        assert cli.main(["trace", "--config", str(path), "--sweeps", "3",
                         "--out", str(tmp_path)]) == 0
        config = load_config(path)
        sc = config.scenario.with_ratios(12.0, config.iot_db[0])
        channels, pool, _ = draw_point(sc, config.seed, 0, range(1))
        ledger = daisy.run_bcd(daisy.make_chain(channels, pool, sc.E_s),
                               daisy.Schedule(L=3)).ledger
        with open(tmp_path / "traffic.csv", newline="") as fh:
            rows = [(r["phase"], r["link"], int(r["entries"]), int(r["bytes"]))
                    for r in csv.DictReader(fh)]
        assert rows == [(phase, f"{a}-{b}", n, 16 * n)
                        for (phase, (a, b)), n in sorted(ledger.counts.items())]
        assert bool(rows) == (sc.C > 1)

    def test_trace_fails_where_the_run_fails(self, tmp_path):
        # one interferer 300 dB over the thermal noise: the run of mmse_sampleR
        # and bcd:2 stops at the chain's first local block, and so does the
        # trace, whose W* is the run's mmse_sampleR build after its chain; both
        # warn of the loaded local Gram matrices first
        path = tmp_path / "loud.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, K_int: 1, N: 16}\n"
                        "es_n0_db: [0.0]\niot_db: [300.0]\n")
        errors = []
        for argv in (["run", "--algorithms", "mmse_sampleR,bcd:2"], ["trace", "--sweeps", "2"]):
            with (pytest.warns(UserWarning, match="diagonal loading"),
                  pytest.raises(central.SingularMatrixError) as exc):
                cli.main([*argv, "--config", str(path), "--out", str(tmp_path)])
            errors.append(exc.value)
        run, trace = errors
        assert str(trace).startswith("trace of trial 0 at Es/N0 0.0 dB, IoT 300.0 dB: "
                                     "cluster 0: local covariance block R_cc")
        assert str(trace) == f"trace of trial 0 at Es/N0 0.0 dB, IoT 300.0 dB: {run.__cause__}"
        assert not (tmp_path / "trace.csv").exists()

    def test_trace_builds_at_one_blas_thread(self, monkeypatch, blas_at_two):
        build, seen = harness._build_equalizer, []

        def build_and_look(*args):
            seen.append(blas_at_two())
            return build(*args)

        monkeypatch.setattr(harness, "_build_equalizer", build_and_look)
        harness.convergence_trace(profile_scenario("desk").with_ratios(0.0, 10.0), seed=1, L=1)
        ones = [1] * len(blas_at_two())
        assert seen == [ones] and blas_at_two() == [2] * len(ones)

    def test_a_failed_run_and_trace_restore_the_blas_threads(self, tmp_path, blas_at_two):
        # the config of test_trace_fails_where_the_run_fails: both raise
        path = tmp_path / "loud.yaml"
        path.write_text("scenario: {M: 8, C: 2, K: 2, K_int: 1, N: 16}\n"
                        "es_n0_db: [0.0]\niot_db: [300.0]\n")
        for argv in (["run", "--algorithms", "mmse_sampleR,bcd:2"], ["trace", "--sweeps", "2"]):
            with (pytest.warns(UserWarning, match="diagonal loading"),
                  pytest.raises(central.SingularMatrixError)):
                cli.main([*argv, "--config", str(path), "--out", str(tmp_path)])
            assert set(blas_at_two()) == {2}

    @pytest.mark.parametrize("missing", ["symbols", "maps"])
    def test_without_openblas_the_pin_does_nothing(self, monkeypatch, blas_at_two, missing):
        # every library loads without the thread functions, or no map of the
        # loaded libraries can be read
        import ctypes

        def refuse(*args):
            raise OSError("no map")

        if missing == "symbols":
            monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        else:
            monkeypatch.setattr(detect, "open", refuse, raising=False)
        detect._openblas.cache_clear()  # the pin looks the libraries up again
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with detect.one_blas_thread():
                assert set(blas_at_two()) == {2}
        assert set(blas_at_two()) == {2}
        assert detect._openblas() == ()  # the faked lookup found none

    def test_the_pin_looks_the_libraries_up_once(self, monkeypatch, blas_at_two):
        # the first pin reads the map of loaded libraries; later ones, of this
        # run or the next, reuse what it found
        detect._openblas.cache_clear()
        reads = []
        monkeypatch.setattr(detect, "open", lambda *args: reads.append(args) or open(*args),
                            raising=False)
        for _ in range(3):
            with detect.one_blas_thread():
                assert set(blas_at_two()) == {1}
        run_experiment(_small_config(trials=1))
        assert reads == [("/proc/self/maps",)] and set(blas_at_two()) == {2}

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
        rows = harness.convergence_trace(sc, seed=2, L=5)
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
        rows = harness.convergence_trace(sc, seed=3, L=400)
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
