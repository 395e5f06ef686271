"""One fresh-process `chainmmse run`, timed, optionally traced.

    python3 bench/worker.py --config CFG --out DIR --result OUT.json [--trace]

Started by bench/run.py with PYTHONPATH and the BLAS thread variables set.
Set-up time runs from before `import chainmmse` to the loaded config; the run
time is the `chainmmse.cli.main(["run", ...])` call, bracketed by timings of
the calibration kernel in calibrate.py that measure the host's speed. With
--trace the public functions listed in tracing.TRACED are wrapped from
outside and the spans are written to DIR/spans.json when the run ends.
"""
import argparse
import json
import os
import resource
import sys
import time


def blas_runtime() -> list[dict]:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({f[-1] for f in (line.split() for line in fh)
                        if len(f) >= 6 and "openblas" in os.path.basename(f[-1]).lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found.append({"library": os.path.basename(path), "threads": fn()})
                break
    return found


def versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas.get("openblas configuration") or blas.get("version"),
            "scipy_blas": scipy_blas.get("openblas configuration") or scipy_blas.get("version"),
            "blas_runtime": blas_runtime()}


def install_tracing(tracer, meter: dict, captured: dict) -> None:
    """Wrap the traced functions; meter per-link ledger counts of the chain
    algorithms and keep the rows run_experiment returns."""
    import importlib
    from tracing import TRACED

    def count_links(tok, ledger):
        per_tok = meter.setdefault(tok, {})
        for link in ledger.topology.links:
            n = str(ledger.per_link(link))
            per_tok[n] = per_tok.get(n, 0) + 1

    def on_run_bcd(args, kwargs, result):
        schedule = kwargs["schedule"] if "schedule" in kwargs else args[1]
        count_links(f"bcd:{schedule.L}", result.ledger)

    def on_bdac_init(args, kwargs, result):
        ledger = kwargs.get("ledger", args[1] if len(args) > 1 else None)
        # run_bcd meters its own initializer as part of bcd:L
        if ledger is not None and tracer.parent_name() != "daisy.run_bcd":
            count_links("bdac", ledger)

    def on_run_experiment(args, kwargs, result):
        captured["rows"] = result

    hooks = {"daisy.run_bcd": on_run_bcd, "daisy.bdac_init": on_bdac_init,
             "harness.run_experiment": on_run_experiment}
    for mod_name, fns in TRACED.items():
        module = importlib.import_module(f"chainmmse.{mod_name}")
        for fn in fns:
            name = f"{mod_name}.{fn}"
            setattr(module, fn, tracer.wrap(name, getattr(module, fn), hooks.get(name)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    from chainmmse import cli, harness
    config = harness.load_config(args.config)
    setup_s = time.perf_counter() - t0

    from calibrate import REF_S, Calibrator
    calibrator = Calibrator()
    result = {"setup_s": setup_s, "env": versions(), "trace": None}
    calib_before = calibrator.seconds()
    run_argv = ["run", "--config", args.config, "--out", args.out]
    if not args.trace:
        t = time.perf_counter()
        rc = cli.main(run_argv)
        result["run_s"] = time.perf_counter() - t
    else:
        import warnings
        from tracing import Tracer, self_times
        tracer, meter, captured = Tracer(), {}, {}
        install_tracing(tracer, meter, captured)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = time.perf_counter()
            rc = cli.main(run_argv)
            result["run_s"] = time.perf_counter() - t
        per_trial = len(config.es_n0_db) * len(config.iot_db) * config.trials
        build_ms = {}
        for r in captured.get("rows", []):
            tok = f"bcd:{r.L}" if r.algorithm == "bcd" else r.algorithm
            build_ms[tok] = build_ms.get(tok, 0.0) + 1e3 * r.wall_time_s / per_trial
        spans_path = os.path.join(args.out, "spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
        result["trace"] = {
            "self": self_times(tracer.spans),
            "diag_loads": sum("diagonal loading" in str(w.message) for w in caught),
            "build_ms": build_ms,
            "meter": meter,
            "spans_file": spans_path}
    result["calib_s"] = (calib_before + calibrator.seconds()) / 2
    result["calib_ref_s"] = REF_S
    result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
