"""Scenario construction: channels, colored-noise samples, covariances, cluster partition.

The receiver noise is the sum of thermal noise and signals from out-of-cell
interference users, so its covariance is non-diagonal ("colored"). All
operations here are seed-deterministic, and pure but for a draw into a given
array. Draws are per trial; stack_channels stacks a chunk of trials'
channels along a leading axis (a pool is drawn into its trial's row of a
stack), and the covariance functions accept such stacks.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np


def crandn(rng: np.random.Generator, *shape: int, out: np.ndarray | None = None) -> np.ndarray:
    """Circular complex Gaussian CN(0, 1): unit variance per entry, written
    into out, a complex array of the shape, if given.

    The normals fill a (2,) + shape buffer: the real block, then the
    imaginary block, the stream of two consecutive standard_normal(shape)
    calls. Each block is written already scaled, a * (1/sqrt(2)) into z.real
    and b * (1/sqrt(2)) into z.imag: a real multiply by the reciprocal, which
    is how numpy's complex division by sqrt(2) + 0j scales too. So z equals
    (a + 1j * b) / sqrt(2) bit for bit, except for the sign of an exactly zero
    draw, which z keeps and the complex formula may flip.
    """
    draws = np.empty((2,) + shape)
    rng.standard_normal(out=draws)
    z = np.empty(shape, dtype=complex) if out is None else out
    np.multiply(draws[0], 1 / np.sqrt(2.0), out=z.real)
    np.multiply(draws[1], 1 / np.sqrt(2.0), out=z.imag)
    return z


def cluster_slices(cluster_sizes) -> list[slice]:
    offsets = np.concatenate(([0], np.cumsum(cluster_sizes)))
    return [slice(int(offsets[c]), int(offsets[c + 1])) for c in range(len(cluster_sizes))]


def integer(key: str, value) -> int:
    """value as a plain int (numpy integers too, not booleans), else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key}: must be an integer, got {value!r}")
    return int(value)


def number(key: str, value) -> float:
    """value as a plain float (numpy numbers too; not booleans, NaN), else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value):
        raise ValueError(f"{key}: must be a number, got {value!r}")
    return float(value)


def from_db(db: float) -> float:
    """The linear ratio of db decibels; inf where it overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """All dimensions and power levels of one simulation setup.

    es_n0_db and iot_db are in dB, the operating point that with_ratios sets
    per grid point. iot_db=None disables interference power entirely (see
    powers_from_ratios).
    """
    E_s = 1.0                           # per-user transmit energy (linear), not a field
    M: int                              # BS antennas
    K: int                              # target users
    C: int                              # antenna clusters
    cluster_sizes: tuple[int, ...] | None = None  # sums to M; None: C equal ones
    N: int                              # noise samples (pilot REs)
    K_int: int = 0                      # interference users
    es_n0_db: float = 10.0              # signal-to-thermal-noise ratio
    iot_db: float | None = 10.0         # interference-over-thermal ratio
    constellation: int = 16             # QAM order: 4 / 16 / 64
    gain_range_db: tuple[float, float] = (0.0, 0.0)  # large-scale gain span

    def __post_init__(self):
        for key in ("M", "K", "C", "N", "K_int", "constellation"):
            object.__setattr__(self, key, integer(f"scenario.{key}", getattr(self, key)))
        for key in ("es_n0_db", "iot_db"):
            value = getattr(self, key)
            if not (key == "iot_db" and value is None):
                object.__setattr__(self, key, number(f"scenario.{key}", value))
        gains = self.gain_range_db
        if not isinstance(gains, (list, tuple)) or len(gains) != 2:
            raise ValueError(f"scenario.gain_range_db: must be two numbers, got {gains!r}")
        gains = tuple(number("scenario.gain_range_db", g) for g in gains)
        if not all(map(math.isfinite, gains)):
            raise ValueError(f"scenario.gain_range_db: must be finite, got {list(gains)}")
        if not all(0.0 < from_db(g) < math.inf for g in gains):
            raise ValueError("scenario.gain_range_db: must give linear gains that are "
                             f"finite and above 0, got {list(gains)}")
        if gains[0] > gains[1]:
            raise ValueError(f"scenario.gain_range_db: must be [low, high], got {list(gains)}")
        object.__setattr__(self, "gain_range_db", gains)
        if not (self.M >= self.K >= 1):
            raise ValueError(f"need M >= K >= 1, got M={self.M}, K={self.K}")
        sizes = self.cluster_sizes
        if sizes is None:
            if self.C < 1 or self.M % self.C != 0:
                raise ValueError(f"M={self.M} not divisible by C={self.C}")
            sizes = (self.M // self.C,) * self.C
        if not isinstance(sizes, (list, tuple)):
            raise ValueError(f"scenario.cluster_sizes: must be a list of integers, "
                             f"got {sizes!r}")
        object.__setattr__(self, "cluster_sizes",
                           tuple(integer("scenario.cluster_sizes", m) for m in sizes))
        if self.C < 1 or len(self.cluster_sizes) != self.C:
            raise ValueError(f"cluster_sizes must have C={self.C} entries")
        if any(m < 1 for m in self.cluster_sizes):
            raise ValueError("every cluster size must be >= 1")
        if sum(self.cluster_sizes) != self.M:
            raise ValueError(f"cluster_sizes sum {sum(self.cluster_sizes)} != M={self.M}")
        if self.K_int < 0:
            raise ValueError("K_int must be >= 0")
        # N >= max M_c keeps every local sample covariance invertible a.s.
        if self.N < max(self.cluster_sizes):
            raise ValueError(f"N={self.N} must be >= max cluster size {max(self.cluster_sizes)}")
        if self.constellation not in (4, 16, 64):
            raise ValueError(f"unsupported constellation order {self.constellation}")

    def with_ratios(self, es_n0_db: float, iot_db: float | None) -> "Scenario":
        return replace(self, es_n0_db=es_n0_db, iot_db=iot_db)


def powers_from_ratios(scenario: Scenario) -> tuple[float, float, float]:
    """Map (E_s, Es/N0, IoT) to (sigma2_thermal, p_int, symbol_scale).

    Total interference power over total thermal power per antenna equals the
    IoT ratio, so per-user interference power carries a 1/K_int factor.
    Es/N0 = inf dB is noise-free, IoT = -inf dB or None interference-free;
    Es/N0 = -inf dB and IoT = inf dB ask for infinite noise and are errors, as
    is a finite ratio whose power is not a finite float, or is 0 for Es/N0.
    """
    if scenario.es_n0_db == -math.inf:
        raise ValueError("es_n0_db: must be > -inf, got -inf (infinite thermal noise)")
    if scenario.iot_db == math.inf:
        raise ValueError("iot_db: must be < inf, got inf (infinite interference)")
    es_n0 = from_db(scenario.es_n0_db)
    iot = None if scenario.iot_db is None else from_db(scenario.iot_db)
    sigma2 = scenario.E_s / es_n0 if es_n0 > 0.0 else math.inf
    if math.isfinite(scenario.es_n0_db) and not 0.0 < sigma2 < math.inf:
        raise ValueError(f"es_n0_db: {scenario.es_n0_db} dB is out of range; it must "
                         "give a thermal noise power that is finite and above 0")
    if scenario.K_int == 0:
        if iot is not None and iot > 0.0:
            raise ValueError(f"iot_db: {scenario.iot_db} dB needs interference users, "
                             "but scenario.K_int is 0; use null or -.inf")
        p_int = 0.0
    else:
        p_int = 0.0 if iot is None else sigma2 * iot / scenario.K_int
        if not math.isfinite(p_int):  # nan where a noise-free sigma2 meets an overflow
            raise ValueError(f"iot_db: {scenario.iot_db} dB is out of range; it must "
                             "give a finite interference power")
    return sigma2, p_int, math.sqrt(scenario.E_s)


@dataclass(frozen=True)
class ChannelSet:
    """Target channel H (M x K) and interference channel H_int (M x K_int),
    or (T, M, K) and (T, M, K_int) stacks of T trials."""
    H: np.ndarray
    H_int: np.ndarray
    cluster_sizes: tuple[int, ...]


def build_channel(scenario: Scenario, rng: np.random.Generator) -> ChannelSet:
    """i.i.d. Rayleigh channels with log-uniform large-scale gains.

    Entry variance of column k is the linear gain of user k; gains are drawn
    uniformly in dB over scenario.gain_range_db.
    """
    lo, hi = scenario.gain_range_db

    def draw(n_users: int) -> np.ndarray:
        gains_db = rng.uniform(lo, hi, size=n_users)
        gains = 10.0 ** (gains_db / 10.0)
        return crandn(rng, scenario.M, n_users) * np.sqrt(gains)[None, :]

    H = draw(scenario.K)
    H_int = draw(scenario.K_int)
    return ChannelSet(H=H, H_int=H_int, cluster_sizes=scenario.cluster_sizes)


def draw_noise_pool(channels: ChannelSet, scenario: Scenario, rng: np.random.Generator,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Draw the N independent pilot-RE samples of thermal-plus-interference
    noise: the noise pool, one sample per column of an (M, N) array, out if
    given (a trial's row of a stack, say)."""
    sigma2, p_int, _ = powers_from_ratios(scenario)
    M, K_int = channels.H_int.shape
    pool = crandn(rng, M, scenario.N, out=out)
    pool *= np.sqrt(sigma2)
    if K_int > 0 and p_int > 0.0:
        x = crandn(rng, K_int, scenario.N)  # unit-power interference symbols
        pool += np.sqrt(p_int) * (channels.H_int @ x)
    return pool


def stack_channels(channel_sets: list[ChannelSet]) -> ChannelSet:
    """Stack per-trial channels of one scenario along a new leading trial axis."""
    return ChannelSet(H=np.stack([c.H for c in channel_sets]),
                      H_int=np.stack([c.H_int for c in channel_sets]),
                      cluster_sizes=channel_sets[0].cluster_sizes)


def exact_covariance(channels: ChannelSet, scenario: Scenario) -> np.ndarray:
    """True covariance p_int * H_int H_int^H + sigma2 * I of the colored noise,
    (M, M) or a (T, M, M) stack."""
    sigma2, p_int, _ = powers_from_ratios(scenario)
    H_int = channels.H_int
    M = H_int.shape[-2]
    full = np.broadcast_to(sigma2 * np.eye(M, dtype=complex),
                           H_int.shape[:-2] + (M, M)).copy()
    if H_int.shape[-1] > 0 and p_int > 0.0:
        full = full + p_int * (H_int @ H_int.conj().swapaxes(-1, -2))
    return full


def sample_covariance(pool: np.ndarray) -> np.ndarray:
    """Average of outer products over the (..., M, N) pool's columns,
    (1/N) sum_i n_i n_i^H. A stack is formed one trial at a time, so no copy
    of the whole pool's conjugate is held."""
    N = pool.shape[-1]
    if N == 0:
        raise ValueError("noise pool is empty")
    R = np.empty(pool.shape[:-1] + pool.shape[-2:-1], dtype=np.result_type(pool, 1.0))
    for i in np.ndindex(pool.shape[:-2]):
        np.matmul(pool[i], pool[i].conj().T, out=R[i])
    R /= N
    return R
