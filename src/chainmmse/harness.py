"""Monte Carlo experiment driver: seeded sweeps over Es/N0 x IoT x algorithm.

Common-random-numbers discipline: at every grid point, each trial has
three independent RNG streams (channel, noise pool, data), numpy's PCG64
children of SeedSequence([seed, point_index, trial_index]), so every
algorithm sees identical channels, pools, bits, and data noise, and BER
comparisons are paired. Total RNG consumption is therefore independent of the
algorithm subset, and trials may run in any order. The streams of a grid
point's trials are derived in one vectorized pass (stream_states), and every
trial is drawn through the run's one generator, set to each stream in turn.

Trials are drawn one by one and built in chunks stacked along a leading trial
axis, a grid point's trials split evenly over the fewest chunks a byte budget
allows (chunk_plan): all chain algorithms read theirs from one chain run (bdac
at its start, bcd:L after L sweeps), then each centralized one builds a chunk
in one call, mmse_sampleR from the chain's R_hat, else from its pool's sample
covariance.
The chunk's equalizers form one algorithm x trial stack, scored by one
objective call; a trial's equalizers do not depend on its chunk. Each trial
draws one frame, in trial order, and the chunk's frames are equalized and
decided for all algorithms in one detection call.
On two lanes it returns once lane 1 holds the chunk, and the next chunk, of
this point or the next, is built meanwhile; the next call, or the run's end,
joins it, taking the trials lane 1 has not from their shared counter. Which
lane takes a trial does not change its counts. The run keeps one record: per
trial its objectives and counts, per point its build times. Once its last
chunk is joined, the rows reduce it, the objective summed in trial order. A
row's traffic sums interconnect.chain_traffic, as the trace's traffic.csv does.
"""
from __future__ import annotations

import csv
import functools
import math
import time
import warnings
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np
import yaml

from . import central, daisy, detect, interconnect, model

KNOWN_ALGORITHMS = ("zf", "mmse_exactR", "mmse_sampleR", "bdac", "bcd")

# bytes of stacked trial data per chunk: a chunk of the desk profile holds up
# to 32 trials, one of the paper profile up to 3 (chunk_plan)
CHUNK_BYTES = 1 << 21


def parse_algorithm(token: str) -> tuple[str, int | None]:
    """Split an algorithm token like 'bcd:4' into (name, sweeps)."""
    if not isinstance(token, str):
        raise ValueError(f"algorithms: {token!r} is not a string; write e.g. "
                         "'zf' or 'bcd:4'")
    name, _, arg = token.partition(":")
    if name not in KNOWN_ALGORITHMS:
        raise ValueError(f"algorithms: unknown algorithm {token!r}")
    if name == "bcd":
        if not (arg.isascii() and arg.isdigit()):  # [0-9]+, not '²' or '٣'
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
                else:  # each grid value keys rows: 0.0 and -0.0 are one value
                    errors += [f"{key}: {v!r} repeats {value[value.index(v)]!r}"
                               for i, v in enumerate(value) if v in value[:i]]
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


# numpy's SeedSequence, from which its PCG64 seeds: O'Neill's seed_seq hash
# over a pool of 4 uint32 words (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905), its constants, and PCG64's LCG multiplier
_POOL = 4
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _rounds(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 constants of n successive hash rounds from the multiplier
    init: round i xors its word with the multiplier, advances the multiplier
    by mult, and multiplies the word by it."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    xors, mults = np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)
    xors.flags.writeable = mults.flags.writeable = False  # one pair serves every call
    return xors, mults


def _hash(words: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Hash rounds on uint32 arrays, the constants broadcast over the words."""
    h = words ^ xors
    h *= mults
    h ^= h >> 16
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = x * _MIX_L - y * _MIX_R
    m ^= m >> 16
    return m


def _words(n: int) -> list[int]:
    """n's uint32 words, least significant first; 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def stream_states(seed: int, point_index: int, trials: range) -> np.ndarray:
    """The PCG64 states of the channel, pool and data streams of trials at a
    grid point, trials x 3 x 4 uint64 words: state high and low, increment
    high and low. They are numpy's PCG64(SeedSequence([seed, point_index,
    t]).spawn(3)[i]) bit for bit, the hash run on uint32 arrays across the
    trials and the 128-bit seeding step on Python ints; set_stream sets one.
    Every trial's entropy words are the seed's, point_index's and t's, zeros
    up to the pool, then the child's spawn key i."""
    if min(seed, point_index, trials.start) < 0:
        raise ValueError("stream_states: seed, point and trials must be >= 0")
    cut = 1 << 32 * len(_words(trials.start))
    if trials.stop > cut:  # trials of one word count share the layout of their words
        return np.concatenate([stream_states(seed, point_index, range(trials.start, cut)),
                               stream_states(seed, point_index, range(cut, trials.stop))])
    head, n_t = _words(seed) + _words(point_index), len(_words(trials.start))
    entropy = np.zeros((len(trials), max(_POOL, len(head) + n_t)), dtype=np.uint32)
    entropy[:, :len(head)] = head
    entropy[:, len(head):len(head) + n_t] = [_words(t) for t in trials]
    # mix_entropy: the first words hashed into the pool, each pool word into
    # every other, then each further word into every pool word; the hash's
    # multiplier runs on through the rounds, whatever the words are
    xors, mults = _rounds(_INIT_A, _MULT_A, _POOL * (entropy.shape[1] + 1))
    pool, k = _hash(entropy[:, :_POOL], xors[:_POOL], mults[:_POOL]), _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], xors[k:k + 3],
                                                mults[k:k + 3]))
        k += 3
    for src in range(_POOL, entropy.shape[1]):
        pool = _mix(pool, _hash(entropy[:, src, None], xors[k:k + 4], mults[k:k + 4]))
        k += 4
    # the children's last word, their spawn keys 0, 1 and 2: trials x 3 pools
    pool = _mix(pool[:, None], _hash(np.arange(3, dtype=np.uint32)[:, None], xors[k:], mults[k:]))
    # generate_state(4, uint64): 8 words, cycling through the pool, paired
    # little end first into the seed's and the sequence's 128 bits
    words = _hash(np.tile(pool, 2), *_rounds(_INIT_B, _MULT_B, 2 * _POOL)).astype(np.uint64)
    seeds = (words[..., 0::2] | words[..., 1::2] << 32).reshape(-1, 4)
    flat = []
    for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
        # PCG64's seeding: inc = 2 sequence + 1, then two LCG steps from 0,
        # the seed added between them
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        flat += (state >> 64, state & _MASK64, inc >> 64, inc & _MASK64)
    return np.array(flat, dtype=np.uint64).reshape(len(trials), 3, 4)


def set_stream(rng: np.random.Generator, words: np.ndarray) -> np.random.Generator:
    """rng, its PCG64 set to the stream of words, one stream of stream_states."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def generator() -> np.random.Generator:
    """A PCG64 generator to set streams into (set_stream). It is made when a
    run or a trace starts, never at import: numpy.random, which importing
    numpy leaves out, is then imported by the first call, not by the package."""
    return np.random.Generator(np.random.PCG64(0))


def trial_rngs(seed: int, point_index: int, trial_index: int):
    """Three independent streams (channel, pool, data) for one trial."""
    return [set_stream(generator(), words)
            for words in stream_states(seed, point_index, range(trial_index, trial_index + 1))[0]]


def draw_trials(scenario: model.Scenario, states: np.ndarray, rng: np.random.Generator):
    """The channels and noise pools of the trials of states (stream_states
    rows), stacked along a leading trial axis, drawn trial by trial through
    rng: set to the trial's channel stream, then to its pool stream."""
    pool = np.empty((len(states), scenario.M, scenario.N), dtype=complex)
    channel_sets = []
    for t, (channel, noise, _) in enumerate(states):
        channel_sets.append(model.build_channel(scenario, set_stream(rng, channel)))
        model.draw_noise_pool(channel_sets[-1], scenario, set_stream(rng, noise),
                              out=pool[t])  # drawn in place
    return model.stack_channels(channel_sets), pool


def chunk_plan(scenario: model.Scenario, trials: int) -> list[range]:
    """The chunks, as ranges of trials, that a grid point's trials are built
    in: the fewest that hold at most CHUNK_BYTES of stacked trial data, at a
    trial's complex noise samples and covariance matrix, 16 M (N + M) bytes,
    or two trials, as a chunk of one detects in one lane with lane 1 idle
    (detect.lane_count). The trials are split evenly over them, the first
    chunks a trial larger than the rest: a small tail chunk pays a whole
    chunk's calls for few trials, and one of one trial detects in one lane."""
    most = max(2, CHUNK_BYTES // (16 * scenario.M * (scenario.N + scenario.M)))
    n = -(-trials // most)
    size, extra = divmod(trials, n)
    ends = [c * size + min(c, extra) for c in range(n + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _build_equalizer(token: str, channels, pool, sc: model.Scenario, R_hat) -> np.ndarray:
    """T x K x M equalizers of a centralized solver for a stack of trials;
    mmse_sampleR solves with R_hat, the chain's, or if None with the pool's."""
    if token == "zf":
        return central.zf_centralized(channels.H)
    if token == "mmse_exactR":
        sigma2, p_int, _ = model.powers_from_ratios(sc)
        return central.mmse_exact(channels.H, channels.H_int, sigma2, p_int, sc.E_s)
    if R_hat is None:
        R_hat = model.sample_covariance(pool)
    return central.mmse_centralized(channels.H, R_hat, sc.E_s)


def warn_loaded(loaded: np.ndarray, sc: model.Scenario, first: int = 0) -> None:
    """Warn once per loaded (trial, cluster) of a chain stack at grid point sc;
    stack trial t is trial first + t."""
    for t, c in np.argwhere(loaded).tolist():
        warnings.warn(f"cluster {c}, trial {first + t} at Es/N0 {sc.es_n0_db} dB, IoT "
                      f"{sc.iot_db} dB: diagonal loading of its ill-conditioned Gram matrix")


def _make_chain(channels, pool, sc: model.Scenario, first: int) -> daisy.Chain:
    """The chains of a stack of trials from first on; a loaded Gram matrix warns."""
    chain = daisy.make_chain(channels, pool, sc.E_s)
    warn_loaded(chain.loaded, sc, first)
    return chain


def _run_chain(channels, pool, sc: model.Scenario, first: int, keep):
    """One chain run over a stack of trials from first on, through the sweeps
    that reach the most block updates in keep: its R_hat and {u: T x K x M
    equalizers after u block updates} for every u in keep (0 the BDAC start)."""
    chain = _make_chain(channels, pool, sc, first)
    result = daisy.run_bcd(chain, daisy.Schedule(L=math.ceil(max(keep) / sc.C)), keep=keep)
    return chain.R_hat, result.kept


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every algorithm at every (Es/N0, IoT) grid point. The run's
    two detection lanes serve every chunk: lane 1 detects a chunk while the
    next, of this grid point or the next, is built, and the calling thread
    joins it, from the trials' shared counter, at the next detection call or
    at the run's end. The lanes are the run's parallelism: BLAS runs at one
    thread while they are open (detect.one_blas_thread). The lane thread is
    joined, the BLAS thread count restored, and the buffers dropped, when the
    run returns or raises."""
    with detect.Lanes() as lanes:
        return _run_grid(config, lanes)


def _run_grid(config: ExperimentConfig, lanes: detect.Lanes) -> list[ResultRow]:
    parsed = [parse_algorithm(token) for token in config.algorithms]
    # chain token -> the block updates its W reads: bdac 0, bcd:L L C
    updates = {t: (L or 0) * config.scenario.C for t, (name, L) in zip(config.algorithms, parsed)
               if name in ("bdac", "bcd")}
    # the chain tokens share one build, timed as the deepest; it runs first
    builds = [tuple(updates)] if updates else []
    builds += [(t,) for t in config.algorithms if t not in updates]
    A = len(config.algorithms)
    axis = {t: a for a, t in enumerate(config.algorithms)}  # the algorithm axis
    grid = [(es, iot) for iot in config.iot_db for es in config.es_n0_db]
    # neither depends on the operating point that a grid point sets
    const = detect.Constellation(config.scenario.constellation)
    plan = chunk_plan(config.scenario, config.trials)
    # the run's per-trial record: bit and symbol errors, objectives, build times
    errors = np.zeros((len(grid), 2, A, config.trials), dtype=np.int64)
    objective, wall = np.zeros((len(grid), A, config.trials)), np.zeros((len(grid), A))
    rng = generator()  # set to each stream of each trial in turn
    for p, (es, iot) in enumerate(grid):
        sc = config.scenario.with_ratios(es_n0_db=es, iot_db=iot)
        states = stream_states(config.seed, p, range(config.trials))
        for trials in plan:
            first, T, R_hat = trials.start, len(trials), None
            streams = states[first:first + T]
            channels, pool = draw_trials(sc, streams, rng)
            W = np.empty((A, T, sc.K, sc.M), dtype=complex)
            for tokens in builds:
                t0 = time.perf_counter()
                try:
                    if tokens[0] in updates:
                        R_hat, kept = _run_chain(channels, pool, sc, first, updates.values())
                        for t, u in updates.items():
                            W[axis[t]] = kept[u]
                    else:
                        W[axis[tokens[0]]] = _build_equalizer(tokens[0], channels, pool,
                                                              sc, R_hat)
                except central.SingularMatrixError as exc:
                    raise central.SingularMatrixError(
                        f"{', '.join(tokens)} at Es/N0 {es} dB, IoT {iot} dB, in the "
                        f"stack of trials {first}..{first + T - 1} (stack "
                        f"trial t is trial {first} + t): {exc}") from exc
                wall[p, axis[max(tokens, key=lambda t: updates.get(t, 0))]] += (
                    time.perf_counter() - t0)
            objective[p, :, first:first + T] = central.sample_objective(W, channels.H, pool,
                                                                        sc.E_s)
            del pool, R_hat  # the chunk's largest arrays, not held while it is detected
            frames = [detect.make_frame(sc, config.symbols_per_trial, set_stream(rng, data), const)
                      for data in streams[:, 2]]
            detect.evaluate_equalizer(W, channels, frames, sc, const, lanes=lanes,
                                      out=errors[p, ..., first:first + T])
            del channels, W  # nor while the next chunk is drawn
    lanes.wait()  # the run's counts are complete
    M, C, K, N = (getattr(config.scenario, key) for key in "MCKN")
    symbols = config.trials * K * config.symbols_per_trial
    links = len(interconnect.Topology("uni_loop", C).links)
    return [ResultRow(
        algorithm=name, L=L or 0, es_n0_db=es, iot_db=iot, M=M, C=C, K=K, N=N,
        ber=int(errors[p, 0, a].sum()) / (symbols * const.bits_per_symbol),
        ser=int(errors[p, 1, a].sum()) / symbols, symbols=symbols,
        # one trial's closed-form entries per link; L is None for bdac
        traffic_entries=config.trials * links * (
            interconnect.predicted_traffic(K, N, L) if name in ("bdac", "bcd") else 0),
        # summed trial by trial, in trial order: np.sum adds pairwise
        objective=sum(objective[p, a].tolist()) / config.trials, wall_time_s=float(wall[p, a]))
        for p, (es, iot) in enumerate(grid) for a, (name, L) in enumerate(parsed)]


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


def convergence_trace(scenario: model.Scenario, seed: int, L: int) -> list[TraceRow]:
    """Run one chain instance, drawn as trial 0 of grid point 0 of the seed,
    and its W*, as a run of mmse_sampleR and bcd:L builds them, at one BLAS
    thread as a run builds; report per-block-update distance to the optimum,
    each W scored as the chain makes it."""
    with detect.one_blas_thread():
        channels, pool = draw_trials(scenario, stream_states(seed, 0, range(1)),
                                     generator())  # a stack of one
        chain = _make_chain(channels, pool, scenario, 0)
        rows, W_star, norm_star = [], None, None

        def score(u, W):
            nonlocal W_star, norm_star
            if W_star is None:  # built once the chain has started, as a run builds it
                W_star = _build_equalizer("mmse_sampleR", channels, pool, scenario,
                                          chain.R_hat)[0]
                norm_star = np.linalg.norm(W_star, "fro")
            sweep, block = divmod(u - 1, scenario.C)
            obj = central.sample_objective(W[0], channels.H[0], pool[0], scenario.E_s)
            err = np.linalg.norm(W[0] - W_star, "fro") / norm_star
            rows.append(TraceRow(sweep + 1, block, float(obj), float(err)))

        daisy.run_bcd(chain, daisy.Schedule(L=L), keep=range(1, L * scenario.C + 1),
                      on_keep=score)
    return rows


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
