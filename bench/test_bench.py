"""Tests of the benchmark's own logic: python3 -m pytest bench -q"""
import csv
import json
import os
import sys

import pytest

import check
import run
from tracing import Tracer, self_times
from workloads import WORKLOADS

sys.path.insert(0, os.path.join(run.ROOT, "src"))

K, N, C, TRIALS, SYMBOLS = 4, 96, 4, 2, 50
CONFIG = {"profile": "desk", "es_n0_db": [0.0, 8.0], "iot_db": [10.0],
          "algorithms": ["zf", "mmse_sampleR", "bdac", "bcd:1", "bcd:4"],
          "trials": TRIALS, "symbols_per_trial": SYMBOLS, "seed": 1}
OBJECTIVE = {"zf": 2.0, "mmse_sampleR": 1.0, "bdac": 1.3, "bcd:1": 1.2, "bcd:4": 1.1}


def clean_rows():
    """A results table that satisfies every invariant for CONFIG."""
    rows = []
    for es in CONFIG["es_n0_db"]:
        for tok in CONFIG["algorithms"]:
            name, _, L = tok.partition(":")
            rows.append(dict(
                algorithm=name, L=int(L or 0), es_n0_db=es, iot_db=10.0,
                M=32, C=C, K=K, N=N, ber=0.01, ser=0.03, symbols=TRIALS * K * SYMBOLS,
                traffic_entries=C * TRIALS * check.closed_form_per_link(tok, K, N),
                objective=OBJECTIVE[tok] * (1.0 + es)))
    return rows


def find(rows, tok, es=0.0):
    return next(i for i, r in enumerate(rows) if check.token(r) == tok and r["es_n0_db"] == es)


def test_clean_table_passes_with_and_without_reference():
    rows = clean_rows()
    assert check.check_rows(rows, CONFIG) == (len(rows), {})
    assert check.check_rows(rows, CONFIG, reference=clean_rows()) == (len(rows), {})


@pytest.mark.parametrize("tok,field,value,with_reference", [
    ("bcd:4", "ber", 0.0100001, True),          # BER changed: reference mismatch
    ("bdac", "ser", 0.02, True),
    ("bcd:1", "traffic_entries", +1, False),     # traffic off by one: closed form
    ("bdac", "traffic_entries", -1, False),
    ("bcd:4", "objective", 0.99, False),         # below the mmse_sampleR optimum
    ("bcd:4", "objective", 1.25, False),         # above the shallower bcd:1
    ("zf", "symbols", +1, False),
    ("zf", "ber", 1.5, False),
    ("bcd:1", "objective", 1.2 * (1 + 1e-9), True),  # beyond the 1e-12 tolerance
])
def test_corrupted_row_is_flagged(tok, field, value, with_reference):
    rows = clean_rows()
    i = find(rows, tok)
    if field in ("traffic_entries", "symbols"):
        rows[i][field] += value
    else:
        rows[i][field] = value
    _, failures = check.check_rows(rows, CONFIG, clean_rows() if with_reference else None)
    assert i in failures, failures


def test_objective_within_tolerance_of_reference_passes():
    rows = clean_rows()
    rows[find(rows, "bcd:1")]["objective"] *= 1 + 1e-14
    assert check.check_rows(rows, CONFIG, clean_rows())[1] == {}


def test_missing_and_duplicate_rows_are_failures():
    rows = clean_rows()
    dropped = rows.pop(find(rows, "bdac"))
    attempted, failures = check.check_rows(rows, CONFIG)
    assert attempted == len(rows) + 1 and list(failures) == [len(rows)]
    rows.append(dropped)
    rows.append(dict(dropped))
    attempted, failures = check.check_rows(rows, CONFIG)
    assert attempted == len(rows) and list(failures) == [len(rows) - 1]


def test_closed_form_traffic():
    assert check.closed_form_per_link("bdac", K, N) == K * K == 16
    assert check.closed_form_per_link("bcd:1", K, N) == 3 * 16 + 2 * 96 * 4 + 4 * 100 == 1216
    assert check.closed_form_per_link("bcd:4", K, N) == 1216 + 3 * 400 == 2416
    assert check.closed_form_per_link("bcd:50", 8, 192) == 3 * 64 + 2 * 192 * 8 + 50 * 8 * 200
    assert check.closed_form_per_link("mmse_sampleR", K, N) == 0
    from chainmmse.interconnect import predicted_traffic
    for L in (0, 1, 4, 50):
        assert check.closed_form_per_link(f"bcd:{L}", K, N) == predicted_traffic(K, N, L)


def test_summary_traffic_and_objective_gap():
    s = check.summary(clean_rows(), CONFIG)
    assert s["link_entries_per_trial"] == s["closed_form_per_trial"] == 16 + 1216 + 2416
    assert s["objective_gap_rel"] == pytest.approx(0.1)   # bcd:4 is the deepest
    assert s["symbols"] == 10 * TRIALS * K * SYMBOLS
    no_chain = {**CONFIG, "algorithms": ["zf", "mmse_sampleR"]}
    rows = [r for r in clean_rows() if check.token(r) in no_chain["algorithms"]]
    s = check.summary(rows, no_chain)
    assert (s["link_entries_per_trial"], s["objective_gap_rel"]) == (0.0, 0.0)


def test_closed_form_matches_the_metered_ledger():
    from chainmmse import daisy, harness, model
    from chainmmse.interconnect import Topology, TrafficLedger
    sc = harness.profile_scenario("desk")
    rng_ch, rng_pool, _ = harness.trial_rngs(1, 0, 0)
    channels = model.build_channel(sc, rng_ch)
    pool = model.draw_noise_pool(channels, sc, rng_pool)
    for L in (1, 4):
        ledger = daisy.run_bcd(daisy.make_chain(channels, pool, sc.E_s),
                               daisy.Schedule(L=L)).ledger
        assert [ledger.per_link(link) for link in ledger.topology.links] \
            == [check.closed_form_per_link(f"bcd:{L}", sc.K, sc.N)] * sc.C
    ledger = TrafficLedger(Topology("uni_loop", sc.C))
    daisy.bdac_init(daisy.make_chain(channels, pool, sc.E_s), ledger=ledger)
    assert [ledger.per_link(link) for link in ledger.topology.links] \
        == [check.closed_form_per_link("bdac", sc.K, sc.N)] * sc.C


def test_self_times_on_a_synthetic_nest():
    spans = [["a", 0.0, 10.0, -1],   # 0: root
             ["b", 1.0, 4.0, 0],     # 1: child of a
             ["c", 2.0, 3.0, 1],     # 2: child of b
             ["b", 5.0, 7.0, 0],     # 3: second b under a
             ["d", 11.0, 12.5, -1]]  # 4: second root
    assert self_times(spans) == {"a": (5.0, 1), "b": (4.0, 2), "c": (1.0, 1), "d": (1.5, 1)}


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    # clock: outer opens 0, inner 1-2, inner 3-4, outer closes 5
    assert tracer.spans == [["m.outer", 0.0, 5.0, -1], ["m.inner", 1.0, 2.0, 0],
                            ["m.inner", 3.0, 4.0, 0]]
    assert self_times(tracer.spans) == {"m.outer": (3.0, 1), "m.inner": (2.0, 2)}


def test_traced_meter_off_closed_form_fails_rows(tmp_path):
    rows = clean_rows()
    with open(tmp_path / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    good = {"bcd:1": {"1216": 8}, "bdac": {"16": 8}}
    bad = {"bcd:1": {"1216": 7, "1217": 1}, "bdac": {"16": 8}}
    _, failures, _ = run.check_worker({"trace": {"meter": good}}, tmp_path, CONFIG, None)
    assert failures == {}
    _, failures, _ = run.check_worker({"trace": {"meter": bad}}, tmp_path, CONFIG, None)
    assert sorted(failures) == sorted(i for i, r in enumerate(rows) if check.token(r) == "bcd:1")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": x}
                                  for n, u, b, x in run.END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in run.per_layer_spec()]


def test_references_match_the_workload_configs():
    for name, w in WORKLOADS.items():
        rows = check.load_reference(name, w.config(1), 1)
        assert rows is not None, f"no reference for {name} at seed 1"
        assert check.check_rows(rows, w.config(1))[1] == {}
