"""Generative test of the command-line front door: every config mapping and
set of flags, through `chainmmse run` or `chainmmse trace`, ends one of three
ways. It is a usage error (exit 2, one stderr line, nothing written); or the
command writes sane rows (BER and SER in [0, 1], finite objectives,
closed-form traffic); or the run itself raises a SingularMatrixError that
names its grid point. An output directory that names an existing file is
always a usage error."""
import contextlib
import csv
import io
import math
import os
import tempfile
import warnings

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainmmse import central, cli, harness

from conftest import paper_traffic

TOKENS = ["zf", "mmse_exactR", "mmse_sampleR", "bdac", "bcd:0", "bcd:1", "bcd:3"]


def now_and_then(common, rare):
    """common, and one draw in eight rare (an integer draw would lean to 0)."""
    return st.sampled_from([True] + [False] * 7).flatmap(lambda r: rare if r else common)


ES_N0_DB = now_and_then(st.floats(-40.0, 150.0), st.sampled_from([math.inf, -math.inf]))
IOT_DB = now_and_then(st.floats(-10.0, 150.0),
                      st.sampled_from([None, math.inf, -math.inf]))


@st.composite
def configs(draw):
    """Small configs, M <= 16 and one trial of at most 20 symbols, most of them
    valid: now and then C does not divide M, K is 0 or above M, the gain
    range is reversed, a grid value is infinite, or scenario keys are left out."""
    C = draw(st.integers(1, 4))
    if draw(st.booleans()):  # C equal clusters
        M = C * draw(st.integers(1, 4)) + draw(now_and_then(st.just(0), st.just(1)))
        scenario = {"M": M, "C": C}
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=C, max_size=C))
        M = sum(sizes)
        scenario = {"M": M, "C": C, "cluster_sizes": sizes}
    low = draw(st.floats(-20.0, 20.0))
    scenario.update(K=draw(now_and_then(st.integers(1, M), st.sampled_from([0, M + 1]))),
                    K_int=draw(st.integers(0, 20)), N=draw(st.integers(1, 3 * M)),
                    constellation=draw(st.sampled_from([4, 16, 64])),
                    gain_range_db=[low, low + draw(now_and_then(st.floats(0.0, 20.0),
                                                                st.floats(-20.0, -0.1)))])
    for key in draw(now_and_then(st.just([]), st.lists(st.sampled_from(sorted(scenario))))):
        scenario.pop(key, None)  # left to the profile, if a flag names one
    return {"scenario": scenario,
            "es_n0_db": draw(st.lists(ES_N0_DB, min_size=1, max_size=2)),
            "iot_db": draw(st.lists(IOT_DB, min_size=1, max_size=2)),
            "algorithms": draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3,
                                        unique=True)),
            "trials": 1, "symbols_per_trial": draw(st.integers(1, 20)),
            "seed": draw(st.integers(0, 2**16))}


# the flags that put a value over a config key: key -> (flag, commands)
FLAGS = {"profile": ("--profile", ("run", "trace")), "seed": ("--seed", ("run", "trace")),
         "algorithms": ("--algorithms", ("run",)), "trials": ("--trials", ("run",)),
         "symbols_per_trial": ("--symbols", ("run",))}


@st.composite
def flag_values(draw):
    """Config key -> value of some of FLAGS, now and then one out of range."""
    values = {"profile": now_and_then(st.just("desk"), st.just("paper")),
              "seed": now_and_then(st.integers(0, 2**16), st.just(-1)),
              "algorithms": st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3,
                                     unique=True),
              "trials": now_and_then(st.integers(1, 2), st.just(0)),
              "symbols_per_trial": now_and_then(st.integers(1, 20), st.just(0))}
    keys = draw(st.lists(st.sampled_from(sorted(FLAGS)), unique=True))
    return {key: draw(values[key]) for key in keys}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _closed_form(token, sc):
    """One trial's traffic over the loop links of sc: none for a centralized
    token, the Gram phase for bdac, the protocol's closed form for bcd:L."""
    name, depth = harness.parse_algorithm(token)
    links = sc.C if sc.C > 1 else 0
    return links * paper_traffic(sc.K, sc.N, depth) if name in ("bdac", "bcd") else 0


def _names_a_grid_point(text, config):
    return any(f"at Es/N0 {es} dB, IoT {iot} dB" in text
               for es in config.es_n0_db for iot in config.iot_db)


def _check_warnings(caught, config):
    """A run may warn only of diagonal loading, naming one of its grid points."""
    for w in caught:
        text = str(w.message)
        assert "diagonal loading" in text and _names_a_grid_point(text, config), text


def _check_outcome(command, raw, sweeps, flags, out):
    """Run command on the config raw under flags (config key -> value). out
    names the --out target in a scratch directory: "out" to be made, "taken"
    an existing file, or None for no --out, when the config's out_dir is
    "out"; with --out, the config's out_dir "unused" must never be made."""
    flags = {key: val for key, val in flags.items() if command in FLAGS[key][1]}
    with tempfile.TemporaryDirectory() as tmp:
        path, taken = os.path.join(tmp, "config.yaml"), os.path.join(tmp, "taken")
        with open(taken, "w") as fh:
            fh.write("a file\n")
        out_dir = os.path.join(tmp, out or "out")
        with open(path, "w") as fh:
            yaml.safe_dump({**raw, "out_dir": os.path.join(tmp, "unused" if out else "out")},
                           fh)
        argv = [command, "--config", path] + (["--out", out_dir] if out else []) + (
            ["--sweeps", str(sweeps)] if command == "trace" else [])
        for key, val in flags.items():
            argv += [FLAGS[key][0], ",".join(val) if key == "algorithms" else str(val)]
        before = sorted(os.listdir(tmp))
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(argv) == 0
        except SystemExit as exc:
            [line] = stderr.getvalue().splitlines()
            assert (exc.code, line.split(": error: ")[0]) == (2, f"chainmmse {command}")
            assert caught == []
            assert sorted(os.listdir(tmp)) == before
            with open(taken) as fh:
                assert fh.read() == "a file\n"
            return "usage error"
        except central.SingularMatrixError as exc:
            assert out != "taken" and os.listdir(out_dir) == []
            config = harness.make_config({**raw, **flags})
            assert _names_a_grid_point(str(exc), config), str(exc)
            _check_warnings(caught, config)
            return "singular"
        assert out != "taken" and sorted(os.listdir(tmp)) == sorted(before + ["out"])
        config = harness.make_config({**raw, **flags})
        _check_warnings(caught, config)
        sc = config.scenario
        if command == "run":
            rows = _rows(os.path.join(out_dir, "results.csv"))
            assert len(rows) == (len(config.algorithms) * len(config.es_n0_db)
                                 * len(config.iot_db))
            for r, token in zip(rows, config.algorithms * len(rows)):
                assert 0.0 <= float(r["ber"]) <= 1.0 and 0.0 <= float(r["ser"]) <= 1.0
                assert math.isfinite(float(r["objective"]))
                assert int(r["traffic_entries"]) == config.trials * _closed_form(token, sc)
        else:
            rows = _rows(os.path.join(out_dir, "trace.csv"))
            assert len(rows) == sweeps * sc.C
            assert all(math.isfinite(float(r[key])) for r in rows
                       for key in ("objective", "w_error"))
            traffic = _rows(os.path.join(out_dir, "traffic.csv"))
            assert sum(int(r["entries"]) for r in traffic) == _closed_form(f"bcd:{sweeps}", sc)
        return "rows"


DESK = {"profile": "desk"}


def usage_error(command, raw, sweeps=1, flags=None, out=None):
    return example(command=command, raw=raw, sweeps=sweeps, flags=flags or {}, out=out,
                   expect="usage error")


# the input bugs mended so far, each once a traceback or a wrong file
# an --out naming a file, once a traceback after every row was computed
@usage_error("run", {}, flags={"profile": "desk", "trials": 1, "symbols_per_trial": 10},
             out="taken")
@usage_error("run", {**DESK, "algorithms": [4]})
@usage_error("run", {**DESK, "trials": "3"})
@usage_error("run", {"scenario": {"K": 2}})
@usage_error("run", {**DESK, "scenario": {"cluster_sizes": 4}})
@usage_error("run", {"scenario": {"M": "8", "C": 2, "K": 2, "N": 16}})
@usage_error("run", {**DESK, "es_n0_db": [4000.0]})
@usage_error("trace", {**DESK, "iot_db": [4000.0]})
@usage_error("run", {**DESK, "es_n0_db": [-4000.0]})
@usage_error("run", {**DESK, "scenario": {"gain_range_db": [0.0, 1.0e+300]}})
@usage_error("run", {**DESK, "scenario": {"gain_range_db": [0.0, -6.0]}})
@usage_error("trace", {**DESK, "scenario": {"N": 16}, "algorithms": ["bdac", "bcd:4"]}, 4)
@usage_error("trace", {**DESK, "es_n0_db": [math.inf, 8.0], "algorithms": ["zf"]}, 2)
# a repeated grid value, once two rows of one key
@usage_error("run", {**DESK, "es_n0_db": [0.0, -0.0]})
# more interferers than antennas at an extreme IoT: mmse_exactR solves R itself
@example(command="run", raw={"scenario": {"M": 8, "C": 2, "K": 2, "K_int": 12, "N": 16},
                             "es_n0_db": [0.0], "iot_db": [150.0],
                             "algorithms": ["mmse_exactR"], "trials": 1,
                             "symbols_per_trial": 10}, sweeps=1, flags={}, out=None,
         expect="rows")
# an interferer 300 dB over the thermal noise: R_hat is singular to working precision
@example(command="trace", raw={"scenario": {"M": 8, "C": 2, "K": 2, "K_int": 1, "N": 16},
                               "es_n0_db": [0.0], "iot_db": [300.0]}, sweeps=2,
         flags={}, out=None, expect="singular")
@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["run", "trace"]), raw=configs(), sweeps=st.integers(1, 4),
       flags=flag_values(), out=st.sampled_from([None, "out", "taken"]), expect=st.none())
def test_every_config_is_a_usage_error_sane_rows_or_a_named_singular_point(
        command, raw, sweeps, flags, out, expect):
    outcome = _check_outcome(command, raw, sweeps, flags, out)
    assert expect in (None, outcome)
