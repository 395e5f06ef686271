"""Correctness check of a `chainmmse run` results table.

Two parts, both row by row:

- stored reference results for a workload at a recorded seed: BER, SER,
  symbols and traffic must match exactly, the objective to 1e-12 relative;
- invariants that hold for any seed: objectives are bounded below by
  mmse_sampleR and descend with chain depth, metered traffic equals the
  closed form, symbol counts match the config, BER and SER lie in [0, 1].

Pure standard library, so the benchmark parent never imports numpy.
"""
from __future__ import annotations

import csv
import json
import os

OBJECTIVE_RTOL = 1e-12
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")
EXACT_FIELDS = ("M", "C", "K", "N", "ber", "ser", "symbols", "traffic_entries")
INT_FIELDS = ("L", "M", "C", "K", "N", "symbols", "traffic_entries")
FLOAT_FIELDS = ("es_n0_db", "iot_db", "ber", "ser", "objective")


def read_rows(path) -> list[dict]:
    """Parse results.csv; floats were written with repr, so parsing is exact."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        for f in INT_FIELDS:
            r[f] = int(r[f])
        for f in FLOAT_FIELDS:
            r[f] = float(r[f])
    return rows


def token(row: dict) -> str:
    """The config token of a row's algorithm, e.g. 'bcd:4'."""
    return f"bcd:{row['L']}" if row["algorithm"] == "bcd" else row["algorithm"]


def chain_depth(tok: str) -> int | None:
    """Sweeps run by a chain algorithm (bdac is 0), None for a centralized one."""
    if tok == "bdac":
        return 0
    if tok.startswith("bcd:"):
        return int(tok[4:])
    return None


def closed_form_per_link(tok: str, K: int, N: int) -> int:
    """Complex entries per loop link for one trial: K^2 for bdac,
    3K^2 + 2NK + L*K*(N+K) for bcd:L, nothing for the centralized solvers."""
    depth = chain_depth(tok)
    if depth is None:
        return 0
    if tok == "bdac":
        return K * K
    return 3 * K * K + 2 * N * K + depth * K * (N + K)


def loop_links(C: int) -> int:
    return C if C > 1 else 0


def grid_points(config: dict) -> list[tuple[float, float]]:
    return [(float(es), float(iot)) for iot in config["iot_db"] for es in config["es_n0_db"]]


def _below(f: float, f_ref: float) -> bool:
    return f < f_ref - OBJECTIVE_RTOL * abs(f_ref)


def check_rows(rows: list[dict], config: dict,
               reference: list[dict] | None = None) -> tuple[int, dict[int, list[str]]]:
    """Check one results table against its config (and reference, if given).

    Returns (attempted, failures): attempted is the number of rows the config
    asks for plus any unexpected extras; failures maps a row index (an index
    past the end stands for a missing row) to its reasons.
    """
    trials, n_sym = config["trials"], config["symbols_per_trial"]
    expected = [(tok, p) for p in grid_points(config) for tok in config["algorithms"]]
    failures: dict[int, list[str]] = {}

    def fail(i, reason):
        failures.setdefault(i, []).append(reason)

    by_key = {}
    extras = 0
    for i, r in enumerate(rows):
        key = (token(r), (r["es_n0_db"], r["iot_db"]))
        if key in by_key or key not in expected:
            fail(i, f"unexpected row {key}")
            extras += 1
        else:
            by_key[key] = i
    missing = [k for k in expected if k not in by_key]
    for j, key in enumerate(missing):
        fail(len(rows) + j, f"missing row {key}")

    ref_by_key = None
    if reference is not None:
        ref_by_key = {(token(r), (r["es_n0_db"], r["iot_db"])): r for r in reference}

    for (tok, point), i in by_key.items():
        r = rows[i]
        for f in ("ber", "ser"):
            if not 0.0 <= r[f] <= 1.0:
                fail(i, f"{f}={r[f]} outside [0, 1]")
        want_sym = trials * r["K"] * n_sym
        if r["symbols"] != want_sym:
            fail(i, f"symbols={r['symbols']}, expected {want_sym}")
        want_tr = loop_links(r["C"]) * trials * closed_form_per_link(tok, r["K"], r["N"])
        if r["traffic_entries"] != want_tr:
            fail(i, f"traffic_entries={r['traffic_entries']}, closed form {want_tr}")
        opt = by_key.get(("mmse_sampleR", point))
        if opt is not None and _below(r["objective"], rows[opt]["objective"]):
            fail(i, f"objective {r['objective']!r} below mmse_sampleR "
                    f"{rows[opt]['objective']!r}")
        if ref_by_key is not None:
            ref = ref_by_key.get((tok, point))
            if ref is None:
                fail(i, "no reference row")
            else:
                for f in EXACT_FIELDS:
                    if r[f] != ref[f]:
                        fail(i, f"{f}={r[f]!r}, reference {ref[f]!r}")
                if abs(r["objective"] - ref["objective"]) > OBJECTIVE_RTOL * abs(ref["objective"]):
                    fail(i, f"objective={r['objective']!r}, reference {ref['objective']!r}")

    # descent: bdac >= bcd:1 >= bcd:4 >= bcd:50 wherever they co-occur
    for point in grid_points(config):
        chain = sorted((chain_depth(tok), i) for (tok, p), i in by_key.items()
                       if p == point and chain_depth(tok) is not None)
        for (_, i_shallow), (_, i_deep) in zip(chain, chain[1:]):
            if _below(rows[i_shallow]["objective"], rows[i_deep]["objective"]):
                fail(i_deep, f"objective {rows[i_deep]['objective']!r} above the "
                             f"shallower {token(rows[i_shallow])} "
                             f"{rows[i_shallow]['objective']!r}")
    return len(expected) + extras, failures


def load_reference(workload: str, config: dict, seed: int) -> list[dict] | None:
    """Reference rows for a workload at a seed, or None when none was recorded.

    Raises ValueError when the stored reference was made for another config.
    """
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        stored = json.load(fh)
    body = {k: v for k, v in config.items() if k != "seed"}
    if stored["config"] != body:
        raise ValueError(f"{path} was recorded for another config; "
                         "regenerate it with bench/make_references.py")
    rows = stored["seeds"].get(str(seed))
    if rows is None:
        return None
    return [dict(zip(stored["columns"], r)) for r in rows]


def summary(rows: list[dict], config: dict) -> dict:
    """Traffic and accuracy figures derived from one results table.

    link_entries_per_trial: metered entries per link per trial, summed over
    the chain algorithms, beside its closed form. objective_gap_rel: mean
    over grid points of (f - f*)/f* for the deepest chain algorithm against
    mmse_sampleR. All are 0 when no chain algorithm ran.
    """
    trials, n_points = config["trials"], len(grid_points(config))
    chain = [t for t in config["algorithms"] if chain_depth(t) is not None]
    link_entries = 0.0
    closed_form = 0
    if chain and rows and loop_links(rows[0]["C"]):
        K, N, links = rows[0]["K"], rows[0]["N"], loop_links(rows[0]["C"])
        link_entries = sum(r["traffic_entries"] for r in rows if token(r) in chain) \
            / (links * trials * n_points)
        closed_form = sum(closed_form_per_link(t, K, N) for t in chain)
    gap = 0.0
    f = {(token(r), r["es_n0_db"], r["iot_db"]): r["objective"] for r in rows}
    if chain and "mmse_sampleR" in config["algorithms"]:
        deepest = max(chain, key=chain_depth)
        gaps = [(f[(deepest, *p)] - f[("mmse_sampleR", *p)]) / f[("mmse_sampleR", *p)]
                for p in grid_points(config)
                if (deepest, *p) in f and ("mmse_sampleR", *p) in f]
        gap = sum(gaps) / len(gaps) if gaps else 0.0
    return {"link_entries_per_trial": link_entries,
            "closed_form_per_trial": closed_form,
            "objective_gap_rel": gap,
            "symbols": sum(r["symbols"] for r in rows)}
