"""Spans around chainmmse's public functions, recorded from outside the program.

A function is traced by replacing the module attribute its caller looks up,
e.g. `chainmmse.daisy.bcd_block_update`, with a wrapper that records a span
(name, start, end, parent). Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

# (module, public functions) wrapped in a traced run. On the `run` path every
# caller looks these up as module attributes at call time, so replacing the
# attribute catches every call.
TRACED = {
    "model": ("build_channel", "draw_noise_pool", "sample_covariance", "exact_covariance"),
    "central": ("mmse_centralized", "zf_centralized", "sample_objective"),
    "daisy": ("make_chain", "bdac_init", "bcd_block_update", "run_bcd"),
    "detect": ("make_frame", "evaluate_equalizer"),
    "harness": ("run_experiment", "emit_csv"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)


class Tracer:
    """Records one span per wrapped call; `spans[i]` is [name, start, end, parent]
    where parent is the index of the enclosing span, or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def wrap(self, name: str, fn, on_return=None):
        """fn wrapped in a span; on_return(args, kwargs, result) runs after the
        span closes, with the caller's span still open."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.clock(), None, self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = self.clock()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return traced


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time, call count).

    A span's self time is its duration minus the durations of its direct
    children. Spans come from one thread, so children never overlap and the
    part of the interval they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    calls: Counter = Counter()
    for (name, start, end, _), inner in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start - inner)
        calls[name] += 1
    return {name: (total[name], calls[name]) for name in total}
