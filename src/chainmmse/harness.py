"""Monte Carlo experiment driver: seeded sweeps over Es/N0 x IoT x algorithm.

Common-random-numbers discipline: at every grid point, each trial derives
three independent RNG streams (channel, noise pool, data) from
SeedSequence([seed, point_index, trial_index]), so every algorithm sees
identical channels, pools, bits, and data noise, and BER comparisons are
paired. Total RNG consumption is therefore independent of the algorithm
subset, and trials may run in any order.

Trials are drawn one by one and built in chunks stacked along a leading trial
axis: all chain algorithms read theirs from one chain run (bdac at its start,
bcd:L after L sweeps), then each centralized one builds a chunk in one call,
mmse_sampleR from the chain's R_hat. The chunk's equalizers form one algorithm
x trial stack, scored by one objective call; a trial's equalizers do not depend
on its chunk. Each trial draws one frame, in trial order, and the chunk's
frames are equalized and decided for all algorithms in one detection call,
whose per-trial counts do not depend on how it splits the trials into threads.
A row's traffic is the closed form of interconnect.predicted_traffic; the
metered ledger of a chain run is what convergence_trace returns.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np
import yaml

from . import central, daisy, detect, interconnect, model

KNOWN_ALGORITHMS = ("zf", "mmse_exactR", "mmse_sampleR", "bdac", "bcd")

# bytes of stacked trial data per chunk; a chunk of the desk profile holds
# 8 trials, one of the paper profile a single trial
CHUNK_BYTES = 1 << 19


def parse_algorithm(token: str) -> tuple[str, int | None]:
    """Split an algorithm token like 'bcd:4' into (name, sweeps)."""
    if not isinstance(token, str):
        raise ValueError(f"algorithms: {token!r} is not a string; write e.g. "
                         "'zf' or 'bcd:4'")
    name, _, arg = token.partition(":")
    if name not in KNOWN_ALGORITHMS:
        raise ValueError(f"algorithms: unknown algorithm {token!r}")
    if name == "bcd":
        if not arg.isdigit():
            raise ValueError(f"algorithms: {token!r} needs a sweep count >= 0, "
                             "e.g. 'bcd:4'")
        return name, int(arg)
    if arg:
        raise ValueError(f"algorithms: {name!r} takes no argument")
    return name, None


@dataclass(frozen=True)
class ExperimentConfig:
    """Built by make_config; a key its mapping leaves out takes the default."""
    scenario: model.Scenario
    es_n0_db: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0, 16.0)
    iot_db: tuple[float | None, ...] = (10.0,)
    algorithms: tuple[str, ...] = ("zf", "mmse_exactR", "mmse_sampleR", "bdac", "bcd:1", "bcd:4")
    trials: int = 10
    symbols_per_trial: int = 250
    seed: int = 1
    out_dir: str = "out"
    schedule_variant: str = "gauss_seidel_loop"

    def __post_init__(self):
        errors = []
        for key in ("es_n0_db", "iot_db", "algorithms"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                errors.append(f"{key}: must be a list, got {value!r}")
                value = ()
            elif not value:
                errors.append(f"{key}: list must be nonempty")
            # plain floats, so emit_csv writes '0.0' and not 'np.float64(0.0)'
            if key != "algorithms":
                try:
                    value = [None if v is None and key == "iot_db" else model.number(key, v)
                             for v in value]
                except ValueError as exc:
                    errors.append(str(exc))
            object.__setattr__(self, key, tuple(value))
        for key, least in (("trials", 1), ("symbols_per_trial", 1), ("seed", 0)):
            try:
                value = model.integer(key, getattr(self, key))
            except ValueError as exc:
                errors.append(str(exc))
                continue
            if value < least:
                errors.append(f"{key}: must be >= {least}")
            object.__setattr__(self, key, value)
        if not isinstance(self.out_dir, str):
            errors.append(f"out_dir: must be a string, got {self.out_dir!r}")
        if self.schedule_variant != "gauss_seidel_loop":
            errors.append("schedule_variant: must be 'gauss_seidel_loop', "
                          f"got {self.schedule_variant!r}")
        seen = {}
        for token in self.algorithms:
            try:
                key = parse_algorithm(token)
            except ValueError as exc:
                errors.append(str(exc))
                continue
            if key in seen:
                # each (name, L) is one results row
                errors.append(f"algorithms: {token!r} repeats {seen[key]!r}")
            else:
                seen[key] = token
        sc = self.scenario
        if ("mmse_sampleR", None) in seen and sc.N < sc.M:
            # the sample covariance of N < M pool samples has rank N: singular
            errors.append(f"algorithms: 'mmse_sampleR' needs N >= M, got N={sc.N} "
                          f"and M={sc.M}")
        if sc.K + sc.N <= sc.M:
            # [H | n] has full column rank: W H = I and W n = 0 fit the pool
            # exactly, so the sample objective the sweeps descend on is 0
            for (name, L), token in seen.items():
                if name == "bcd" and L >= 1:
                    errors.append(f"algorithms: {token!r} needs K + N > M, got K={sc.K}, "
                                  f"N={sc.N} and M={sc.M}")
        if math.inf in self.es_n0_db and self.iot_db:
            # the pool is zero at Es/N0 = inf: every equalizer but zf is singular
            errors += [f"algorithms: {token!r} needs noise, but the grid point Es/N0 inf "
                       f"dB, IoT {self.iot_db[0]} dB is noise-free"
                       for token in seen.values() if token != "zf"]
        if errors:
            raise ValueError("invalid experiment config: " + "; ".join(errors))
        for iot in self.iot_db:  # every grid point must be an operating point
            for es in self.es_n0_db:
                try:
                    model.powers_from_ratios(self.scenario.with_ratios(es, iot))
                except ValueError as exc:
                    raise ValueError(f"invalid experiment config: {exc}") from None


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    L: int
    es_n0_db: float
    iot_db: float | None
    M: int
    C: int
    K: int
    N: int
    ber: float
    ser: float
    symbols: int
    traffic_entries: int
    objective: float
    wall_time_s: float


# wall_time_s is a ResultRow field but deliberately not a CSV column: the
# results file must be byte-identical across reruns of the same seed
RESULT_COLUMNS = [f.name for f in fields(ResultRow) if f.name != "wall_time_s"]


PROFILES = {
    "desk": dict(M=32, C=4, K=4, K_int=4, N=96, constellation=16,
                 gain_range_db=(-6.0, 0.0)),
    "paper": dict(M=128, C=8, K=8, K_int=8, N=192, constellation=16,
                  gain_range_db=(-6.0, 0.0)),
}


_SCENARIO_KEYS = frozenset(f.name for f in fields(model.Scenario))
_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"profile"}


def profile_scenario(name: str, **overrides) -> model.Scenario:
    return _make_scenario(overrides, name)


def _make_scenario(params: dict, profile: str | None = None) -> model.Scenario:
    """Scenario of the profile, if one is named, with params put over its
    fields; without one, every field without a default must be given."""
    if profile is not None and not (isinstance(profile, str) and profile in PROFILES):
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    for key in ("es_n0_db", "iot_db"):  # the operating point: with_ratios sets it per grid point
        if key in params:
            raise ValueError(f"scenario.{key}: set by the grid key {key}")
    params = {**PROFILES.get(profile, {}), **params}
    unknown = sorted(set(params) - _SCENARIO_KEYS, key=str)
    if unknown:
        raise ValueError("unknown scenario keys: "
                         + ", ".join(f"scenario.{k}" for k in unknown))
    missing = [f"scenario.{f.name}" for f in fields(model.Scenario)
               if f.default is MISSING and f.name not in params]
    if missing:
        raise ValueError(f"{' and '.join(missing)} required when no profile "
                         "is given")
    return model.Scenario(**params)


def make_config(raw: dict) -> ExperimentConfig:
    """The one path from a config mapping (see README for the schema) to an
    ExperimentConfig: the profile's scenario, if any, under the scenario keys."""
    params = dict(raw)
    unknown = sorted(set(params) - _CONFIG_KEYS, key=str)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    profile = params.pop("profile", None)
    sc_raw = params.pop("scenario", None) or {}
    if not isinstance(sc_raw, dict):
        raise ValueError(f"scenario: must be a mapping of scenario keys, got {sc_raw!r}")
    return ExperimentConfig(scenario=_make_scenario(sc_raw, profile), **params)


def trial_rngs(seed: int, point_index: int, trial_index: int):
    """Three independent streams (channel, pool, data) for one trial."""
    ss = np.random.SeedSequence([seed, point_index, trial_index])
    return [np.random.default_rng(child) for child in ss.spawn(3)]


def draw_trials(scenario: model.Scenario, seed: int, point_index: int, trials: range):
    """The channels and noise pools of trials at a grid point, drawn trial by
    trial and stacked along a leading trial axis, and each trial's data stream."""
    rngs = [trial_rngs(seed, point_index, t) for t in trials]
    channel_sets = [model.build_channel(scenario, rng_ch) for rng_ch, _, _ in rngs]
    channels, pool = model.stack_trials(
        channel_sets, [model.draw_noise_pool(ch, scenario, rng_pool)
                       for ch, (_, rng_pool, _) in zip(channel_sets, rngs)])
    return channels, pool, [rng_data for _, _, rng_data in rngs]


def chunk_trials(scenario: model.Scenario) -> int:
    """Trials built as one stack: CHUNK_BYTES over a trial's complex noise
    samples and covariance matrix, 16 M (N + M) bytes."""
    return max(1, CHUNK_BYTES // (16 * scenario.M * (scenario.N + scenario.M)))


def _build_equalizer(token: str, channels, R_hat, sc: model.Scenario) -> np.ndarray:
    """T x K x M equalizers of a centralized solver for a stack of trials."""
    if token == "zf":
        return central.zf_centralized(channels.H)
    if token == "mmse_exactR":
        sigma2, p_int, _ = model.powers_from_ratios(sc)
        return central.mmse_exact(channels.H, channels.H_int, sigma2, p_int, sc.E_s)
    return central.mmse_centralized(channels.H, R_hat, sc.E_s)


def _run_chain(depths: dict[str, int], channels, pool, E_s: float):
    """One chain run over a stack of trials to the deepest of depths (chain token
    -> sweeps, bdac 0): its R_hat and {token: T x K x M equalizers}."""
    chain = daisy.make_chain(channels, pool, E_s)
    C = len(chain.slices)
    result = daisy.run_bcd(chain, daisy.Schedule(L=max(depths.values())),
                           keep={L * C for L in depths.values()})
    return chain.R_hat, {t: result.kept[L * C] for t, L in depths.items()}


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every algorithm at every (Es/N0, IoT) grid point. The run's
    detection lanes serve every chunk; their threads are joined, and their
    buffers dropped, when it returns or raises."""
    with detect.Lanes() as lanes:
        return _run_grid(config, lanes)


def _run_grid(config: ExperimentConfig, lanes: detect.Lanes) -> list[ResultRow]:
    parsed = [parse_algorithm(token) for token in config.algorithms]
    depths = {t: L or 0 for t, (name, L) in zip(config.algorithms, parsed)
              if name in ("bdac", "bcd")}
    # the chain tokens share one build, timed as the deepest; it runs first
    builds = [tuple(depths)] if depths else []
    builds += [(t,) for t in config.algorithms if t not in depths]
    A = len(config.algorithms)
    axis = {t: a for a, t in enumerate(config.algorithms)}  # the algorithm axis
    rows = []
    grid = [(es, iot) for iot in config.iot_db for es in config.es_n0_db]
    for p, (es, iot) in enumerate(grid):
        sc = config.scenario.with_ratios(es_n0_db=es, iot_db=iot)
        const = detect.Constellation(sc.constellation)
        errors = np.zeros((2, A), dtype=np.int64)  # bit errors, symbol errors
        objective, wall = np.zeros(A), np.zeros(A)
        chunk = chunk_trials(sc)
        for first in range(0, config.trials, chunk):
            channels, pool, data_rngs = draw_trials(
                sc, config.seed, p, range(first, min(first + chunk, config.trials)))
            T = len(data_rngs)
            # mmse_sampleR reads the chain's R_hat when a chain token runs
            R_hat = (model.sample_covariance(pool)
                     if "mmse_sampleR" in axis and not depths else None)
            W = np.empty((A, T, sc.K, sc.M), dtype=complex)
            for tokens in builds:
                t0 = time.perf_counter()
                try:
                    if tokens[0] in depths:
                        R_hat, built = _run_chain(depths, channels, pool, sc.E_s)
                        for t, W_t in built.items():
                            W[axis[t]] = W_t
                    else:
                        W[axis[tokens[0]]] = _build_equalizer(tokens[0], channels,
                                                              R_hat, sc)
                except central.SingularMatrixError as exc:
                    raise central.SingularMatrixError(
                        f"{', '.join(tokens)} at Es/N0 {es} dB, IoT {iot} dB, in the "
                        f"stack of trials {first}..{first + T - 1} (stack "
                        f"trial t is trial {first} + t): {exc}") from exc
                wall[axis[max(tokens, key=lambda t: depths.get(t, 0))]] += (
                    time.perf_counter() - t0)
            obj = central.sample_objective(W, channels.H, pool, sc.E_s)
            frames = [detect.make_frame(sc, config.symbols_per_trial, rng_data, const)
                      for rng_data in data_rngs]
            errors += np.sum(detect.evaluate_equalizer(W, channels, frames, sc, const,
                                                       lanes=lanes), axis=-1)
            for i in range(T):
                objective += obj[:, i]  # trial by trial, in trial order
        symbols = config.trials * sc.K * config.symbols_per_trial
        links = sc.C if sc.C > 1 else 0  # the loop's links: one cluster sends nothing
        for a, (name, L) in enumerate(parsed):
            # one trial's entries per link, in closed form: bdac, the initializer
            # alone, sends only its Gram accumulation
            per_link = (sc.K * sc.K if name == "bdac" else
                        interconnect.predicted_traffic(sc.K, sc.N, L) if name == "bcd"
                        else 0)
            rows.append(ResultRow(
                algorithm=name, L=L or 0, es_n0_db=es, iot_db=iot,
                M=sc.M, C=sc.C, K=sc.K, N=sc.N,
                ber=int(errors[0, a]) / (symbols * const.bits_per_symbol),
                ser=int(errors[1, a]) / symbols, symbols=symbols,
                traffic_entries=config.trials * links * per_link,
                objective=float(objective[a]) / config.trials,
                wall_time_s=float(wall[a])))
    return rows


def write_table(path, columns, rows) -> None:
    """Write a CSV table of a header and rows; floats and None use repr, so a
    parse-back is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(v) if v is None or isinstance(v, float) else v for v in row]
                         for row in rows)


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write the result table (see write_table)."""
    if not rows:
        raise ValueError(f"empty result table; refusing to write {path}")
    write_table(path, RESULT_COLUMNS, [[getattr(r, c) for c in RESULT_COLUMNS] for r in rows])


@dataclass(frozen=True)
class TraceRow:
    sweep: int
    block: int
    objective: float
    w_error: float  # ||W - W*||_F / ||W*||_F against the centralized solve


def convergence_trace(scenario: model.Scenario, seed: int,
                      L: int = 50) -> tuple[list[TraceRow], interconnect.TrafficLedger]:
    """Run one chain instance, drawn as trial 0 of grid point 0 of the seed;
    report per-block-update distance to the optimum and the run's traffic ledger."""
    channels, pool, _ = draw_trials(scenario, seed, 0, range(1))  # a stack of one
    chain = daisy.make_chain(channels, pool, scenario.E_s)
    W_star = central.mmse_centralized(channels.H, chain.R_hat, scenario.E_s)[0]
    norm_star = np.linalg.norm(W_star, "fro")
    C = len(chain.slices)
    result = daisy.run_bcd(chain, daisy.Schedule(L=L), keep=range(1, L * C + 1))
    rows = []
    for u, W in result.kept.items():  # stacks of one trial
        sweep, block = divmod(u - 1, C)
        obj = central.sample_objective(W[0], channels.H[0], pool[0], scenario.E_s)
        err = np.linalg.norm(W[0] - W_star, "fro") / norm_star
        rows.append(TraceRow(sweep=sweep + 1, block=block, objective=float(obj),
                             w_error=float(err)))
    return rows, result.ledger


def emit_convergence_trace(rows: list[TraceRow], path) -> None:
    if not rows:
        raise ValueError(f"empty trace; refusing to write {path}")
    write_table(path, [f.name for f in fields(TraceRow)], map(astuple, rows))


def load_config(path, **overrides) -> ExperimentConfig:
    """The experiment of a YAML config file, with overrides put over its keys."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is not None and not isinstance(raw, dict):
        raise ValueError(f"config: must be a mapping of config keys, got {raw!r}")
    return make_config({**(raw or {}), **overrides})
