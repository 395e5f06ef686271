import dataclasses
import math
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from chainmmse import central, detect, model
from chainmmse.detect import Constellation, evaluate_equalizer, make_frame

from conftest import colored_noise_reference, crandn_reference, unreplayable


def modulate(bits, constellation):
    """Symbol oracle: the point of every group of bits_per_symbol bits,
    MSB first; every row of a 2-D bit block is a stream of its own."""
    bits = np.asarray(bits, dtype=np.int64)
    bps = constellation.bits_per_symbol
    if bits.shape[-1] % bps != 0:
        raise ValueError(f"bit count {bits.shape[-1]} not divisible by {bps}")
    weights = 1 << np.arange(bps - 1, -1, -1)
    return constellation.points[bits.reshape(bits.shape[:-1] + (-1, bps)) @ weights]


def nearest_symbol(s_hat, constellation):
    """Symbol oracle: the index of the point nearest to every estimate, by a
    search over all the constellation's points."""
    s_hat = np.asarray(s_hat)
    return np.argmin(np.abs(s_hat[..., None] - constellation.points), axis=-1)


def symbol_bits(sym, constellation):
    """The MSB-first bits of every symbol index, one stream."""
    shifts = np.arange(constellation.bits_per_symbol - 1, -1, -1)
    return ((np.ravel(sym)[:, None] >> shifts) & 1).ravel()


def demodulate_hard(s_hat, constellation):
    """Bit oracle: the nearest point to every symbol, then the MSB-first
    bits of its symbol index."""
    return symbol_bits(nearest_symbol(np.ravel(s_hat), constellation), constellation)


def decide(s_hat, constellation):
    """Constellation.decide_in_place on a copy of the estimates, given in
    units of the level spacing."""
    s_hat = np.asarray(s_hat)
    return constellation.decide_in_place(np.stack([s_hat.real, s_hat.imag]))


def spaced(constellation):
    """The constellation's points in units of the level spacing 2 scale:
    exact half-integers, an odd multiple of scale over 2 scale each."""
    p = constellation.points / constellation.scale
    return (np.round(p.real) + 1j * np.round(p.imag)) / 2


def exact_nearest(re, im, constellation):
    """Brute-force oracle in exact arithmetic: for every estimate re + 1j im,
    in units of the level spacing, a mask of the points at the least squared
    distance from it. The floats are taken as integers in units of the least
    subnormal, 2**-1074."""
    def exact(x):
        return np.array([n * (2 ** 1074 // d) for n, d in
                         (float(v).as_integer_ratio() for v in np.ravel(x))], dtype=object)

    p = spaced(constellation)
    d = ((exact(re)[:, None] - exact(p.real)) ** 2
         + (exact(im)[:, None] - exact(p.imag)) ** 2)
    return d == d.min(axis=1)[:, None]


def reference_frame(ch, sc, n, seed):
    """The reference formulas of a frame's data stream: the bits and the
    received block Y = scale H S + colored noise."""
    const = Constellation(sc.constellation)
    sigma2, p_int, scale = model.powers_from_ratios(sc)
    ref = np.random.default_rng(seed)
    bits = ref.integers(0, 2, size=(sc.K, n * const.bits_per_symbol))
    S = modulate(bits, const)
    return bits, scale * (ch.H @ S) + colored_noise_reference(ch, sigma2, p_int, n, ref)


def oracle_counts(W, Y, bits, sc):
    """Bit and symbol errors of deciding W Y / scale, counted bit by bit."""
    const = Constellation(sc.constellation)
    _, _, scale = model.powers_from_ratios(sc)
    got = nearest_symbol(W @ Y / scale, const)
    shifts = np.arange(const.bits_per_symbol - 1, -1, -1)
    wrong = ((got[..., None] >> shifts) & 1).reshape(got.shape[:-1] + (-1,)) != bits
    per_symbol = wrong.reshape(got.shape + (-1,)).any(axis=-1)
    return wrong.sum(axis=(-2, -1)), per_symbol.sum(axis=(-2, -1))


def _awgn_scenario(es_n0_db, order=4):
    sc = model.Scenario(M=1, K=1, C=1, cluster_sizes=(1,), N=4, K_int=0,
                        iot_db=None, es_n0_db=es_n0_db, constellation=order)
    ch = model.ChannelSet(H=np.ones((1, 1), complex),
                          H_int=np.zeros((1, 0), complex), cluster_sizes=(1,))
    return sc, ch


class TestConstellation:
    def test_qpsk_mapping_table(self):
        c = Constellation(4)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(modulate([0, 0], c), [s + 1j * s])
        np.testing.assert_allclose(modulate([0, 1], c), [s - 1j * s])
        np.testing.assert_allclose(modulate([1, 0], c), [-s + 1j * s])
        np.testing.assert_allclose(modulate([1, 1], c), [-s - 1j * s])

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_mean_power_by_construction(self, order):
        c = Constellation(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_adjacency(self, order):
        c = Constellation(order)
        # geometric axis neighbors differ in exactly one bit of the symbol index
        side = c.side
        step = 2.0 * c.scale
        for s in range(order):
            for t in range(s + 1, order):
                d = c.points[s] - c.points[t]
                if abs(abs(d) - step) < 1e-12 and (abs(d.real) < 1e-12
                                                   or abs(d.imag) < 1e-12):
                    assert bin(s ^ t).count("1") == 1

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            Constellation(8)


class TestModulate:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            modulate([0, 1, 0], Constellation(4))

    def test_all_zero_bits_constant_stream(self):
        c = Constellation(16)
        sym = modulate(np.zeros(400, dtype=int), c)
        assert np.all(sym == sym[0])

    def test_16qam_empirical_power(self):
        rng = np.random.default_rng(0)
        c = Constellation(16)
        sym = modulate(rng.integers(0, 2, size=4 * 100_000), c)
        assert abs(np.mean(np.abs(sym) ** 2) - 1.0) < 0.01


def _axis(constellation):
    """The amplitudes of an axis in units of the level spacing, ascending, and
    the decision boundaries between neighbours, their midpoints: the
    half-integers and the integers between them."""
    amp = np.unique(spaced(constellation).real)
    return amp, (amp[:-1] + amp[1:]) / 2


class TestDemodulate:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_round_trip_exact_points(self, order):
        c = Constellation(order)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=c.bits_per_symbol * 256)
        sym = modulate(bits, c)
        np.testing.assert_array_equal(symbol_bits(decide(sym / (2 * c.scale), c), c), bits)
        np.testing.assert_array_equal(demodulate_hard(sym, c), bits)

    def test_small_perturbation_same_decision(self):
        c = Constellation(16)
        bits = np.array([1, 0, 1, 1])
        sym = modulate(bits, c) / (2 * c.scale)
        np.testing.assert_array_equal(symbol_bits(decide(sym + 1e-6 * (1 + 1j), c), c), bits)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_brute_force_nearest_point_oracle(self, order):
        # in units of the level spacing, the points of 64-QAM reach +-3.5
        c = Constellation(order)
        rng = np.random.default_rng(2)
        soft = c.side / 2 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        got = symbol_bits(decide(soft, c), c).reshape(500, -1)
        nearest = np.argmin(np.abs(soft[:, None] - spaced(c)[None, :]), axis=1)
        bps = c.bits_per_symbol
        oracle = np.array([[(s >> (bps - 1 - j)) & 1 for j in range(bps)]
                           for s in nearest])
        np.testing.assert_array_equal(got, oracle)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_decisions_beside_every_boundary_are_the_nearest_point(self, order):
        # each axis at a level, or 1 to 4 ulps or 1e-9 relative to either side
        # of a boundary, an integer; every pair, so beside a boundary on one
        # axis or at the corner of four points
        c = Constellation(order)
        amp, bounds = _axis(c)
        values = list(amp)
        for b in bounds:
            step = 1e-9 * max(abs(b), 0.5)
            values += [b - step, b + step]
            for direction in (-np.inf, np.inf):
                x = b
                for _ in range(4):  # 1, 2, 3 and 4 ulps off
                    x = np.nextafter(x, direction)
                    values.append(x)
        re, im = (v.ravel() for v in np.meshgrid(values, values))
        nearest = exact_nearest(re, im, c)
        assert (nearest.sum(axis=1) == 1).all()  # no tie
        np.testing.assert_array_equal(decide(re + 1j * im, c), nearest.argmax(axis=1))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_decisions_on_a_boundary_are_one_of_the_two_nearest_points(self, order):
        # each axis at a level or exactly on a boundary, which may be decided
        # to either level beside it
        c = Constellation(order)
        amp, bounds = _axis(c)
        values = np.concatenate([amp, bounds])
        nearest = [{a} for a in amp] + [{amp[j], amp[j + 1]} for j in range(len(bounds))]
        i, q = (v.ravel() for v in np.meshgrid(range(len(values)), range(len(values))))
        got = spaced(c)[decide(values[i] + 1j * values[q], c)]
        for n in range(len(got)):
            assert got[n].real in nearest[i[n]] and got[n].imag in nearest[q[n]]

    @given(order=st.sampled_from([4, 16, 64]), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, order, seed):
        c = Constellation(order)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=c.bits_per_symbol * 32)
        sym = modulate(bits, c) / (2 * c.scale)
        np.testing.assert_array_equal(symbol_bits(decide(sym, c), c), bits)


def _equalizer_stack(ch, rng):
    """ZF, two perturbed ZFs and a poor random equalizer: a stack of four
    whose error counts differ."""
    W = central.zf_centralized(ch.H)
    K, M = W.shape
    size = np.abs(W).mean()
    return np.stack([W, W + 0.2 * size * model.crandn(rng, K, M),
                     W + 0.5 * size * model.crandn(rng, K, M), model.crandn(rng, K, M)])


stack = model.stack_channels  # the channels of a chunk of trials


def evaluate_one(W, ch, frame, sc, lanes):
    """The counts of one frame: W, K x M or (..., K, M), as a chunk of one trial."""
    bit_errors, symbol_errors = evaluate_equalizer(W[..., None, :, :], stack([ch]),
                                                   [frame], sc, lanes=lanes)
    return bit_errors[..., 0], symbol_errors[..., 0]


def _chunk(sc, seeds, n):
    """A chunk of trials, one per seed: the 4 x T x K x M equalizer stacks, the
    T channel sets and the T frames, each trial from its own channel,
    equalizer and data seeds."""
    chs = [model.build_channel(sc, np.random.default_rng(s)) for s in seeds]
    W = np.stack([_equalizer_stack(ch, np.random.default_rng(s + 1))
                  for ch, s in zip(chs, seeds)], axis=1)
    return W, chs, [make_frame(sc, n, np.random.default_rng(s + 2)) for s in seeds]


def _two_cpus(pid):
    return {0, 1}


def test_real_forms_are_written_bit_for_bit_as_concatenated():
    # each part's real form [[Re P, -Im P], [Im P, Re P]], trial by trial,
    # with the parts side by side
    rng = np.random.default_rng(3)
    A, T, K = 3, 2, 2
    parts = [model.crandn(rng, A, T, K, m) for m in (2, 5, 1)]

    def real_form(Q):
        return np.concatenate([np.concatenate([Q.real, -Q.imag], axis=-1),
                               np.concatenate([Q.imag, Q.real], axis=-1)], axis=-2)

    want = np.concatenate([real_form(np.moveaxis(P, 1, 0).reshape(T, A * K, -1))
                           for P in parts], axis=-1)
    got = detect._real_form(parts)
    assert got.shape == (T, 2 * A * K, 16) and (got == want).all()
    assert (np.signbit(got) == np.signbit(want)).all()


class TestErrorCounts:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_stack_counts_equal_each_equalizer_alone(self, order, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=order)
        W, chs, frames = _chunk(sc, (21, 31), 1500)
        bit_errors, symbol_errors = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        assert bit_errors.shape == symbol_errors.shape == (4, 2)
        assert bit_errors.dtype.kind == symbol_errors.dtype.kind == "i"
        for t in range(2):
            assert len(set(bit_errors[:, t].tolist())) == 4  # the counts differ
            for a in range(4):
                one = evaluate_one(W[a, t], chs[t], frames[t], sc, lanes)
                assert one == (bit_errors[a, t], symbol_errors[a, t])
        # any leading axes: a 2 x 2 stack of the same equalizers
        grid = evaluate_equalizer(W.reshape(2, 2, *W.shape[1:]), stack(chs), frames, sc,
                                  lanes=lanes)
        np.testing.assert_array_equal(grid[0].reshape(4, 2), bit_errors)
        np.testing.assert_array_equal(grid[1].reshape(4, 2), symbol_errors)

    def test_frame_of_another_bit_generator_is_refused(self, lanes):
        # the replay generator is a PCG64, the bit generator of every trial stream
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0, constellation=16)
        W, chs, _ = _chunk(sc, (21,), 50)
        frame = make_frame(sc, 50, np.random.Generator(np.random.MT19937(23)))
        with pytest.raises(ValueError, match="PCG64"):
            evaluate_equalizer(W, stack(chs), [frame], sc, lanes=lanes)

    @pytest.mark.parametrize("extra", ["below", "equal", "two_blocks_and_17"])
    def test_blocked_counts_equal_the_blocks_counted_by_hand(self, extra, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(25))
        W = _equalizer_stack(ch, np.random.default_rng(26))
        block = detect.DETECT_BYTES // (16 * 4 * sc.K)
        n = {"below": block // 3, "equal": block, "two_blocks_and_17": 2 * block + 17}[extra]
        frame = make_frame(sc, n, np.random.default_rng(27))
        bits, Y_ref = reference_frame(ch, sc, n, 27)
        bit_errors, symbol_errors = np.zeros(4, np.int64), np.zeros(4, np.int64)
        for first in range(0, n, block):
            cols = slice(first, min(first + block, n))
            counts = oracle_counts(W, Y_ref[:, cols], bits[:, 4 * first:4 * cols.stop], sc)
            bit_errors += counts[0]
            symbol_errors += counts[1]
        got = evaluate_one(W, ch, frame, sc, lanes)
        assert bit_errors.all()
        np.testing.assert_array_equal(got[0], bit_errors)
        np.testing.assert_array_equal(got[1], symbol_errors)

    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 6), K=st.integers(1, 3),
           K_int=st.integers(0, 3), iot_db=st.sampled_from([None, -math.inf, 3.0]),
           es_n0_db=st.sampled_from([0.0, 12.0, math.inf]), order=st.sampled_from([4, 16, 64]),
           lead=st.sampled_from([(), (2,), (2, 3)]), n=st.integers(1, 40),
           T=st.integers(2, 3), block=st.integers(1, 9), rows=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_the_oracle_on_the_received_block(
            self, lanes, seed, M, K, K_int, iot_db, es_n0_db, order, lead, n, T, block, rows):
        K = min(K, M)
        if K_int == 0 and iot_db == 3.0:
            iot_db = None
        sc = model.Scenario(M=M, C=1, K=K, K_int=K_int, N=M, iot_db=iot_db,
                            es_n0_db=es_n0_db, constellation=order)
        rng = np.random.default_rng(seed)
        chs = [model.build_channel(sc, rng) for _ in range(T)]
        W = np.stack([central.zf_centralized(ch.H) for ch in chs])
        W = W + 0.3 * np.abs(W).mean() * model.crandn(rng, *lead, T, K, M)
        # blocks of `block` columns, the last one short unless block divides n;
        # the stream in blocks of `rows` rows, the first one with the symbols;
        # the trials in two lanes however small their frames
        AK = math.prod(lead) * K
        with mock.patch.multiple(detect, DETECT_BYTES=16 * AK * block,
                                 DRAW_BYTES=8 * n * rows, LANE_BYTES=0):
            frames = [make_frame(sc, n, np.random.default_rng(seed + t)) for t in range(T)]
            got = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        want = [oracle_counts(W[..., t, :, :], Y_ref, bits, sc)
                for t, (bits, Y_ref) in enumerate(reference_frame(ch, sc, n, seed + t)
                                                  for t, ch in enumerate(chs))]
        assert got[0].shape == got[1].shape == lead + (T,)
        np.testing.assert_array_equal(got[0], np.stack([w[0] for w in want], axis=-1))
        np.testing.assert_array_equal(got[1], np.stack([w[1] for w in want], axis=-1))

    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 6), K=st.integers(1, 3),
           K_int=st.integers(0, 3), iot_db=st.sampled_from([None, -math.inf, 3.0]),
           es_n0_db=st.sampled_from([0.0, 12.0, math.inf]), order=st.sampled_from([4, 16, 64]),
           lead=st.sampled_from([(), (2,), (2, 3)]), n=st.integers(1, 40),
           T=st.integers(1, 6), draw=st.integers(1, 6), decide=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_one_lane_group_counts_equal_the_oracle_on_the_received_block(
            self, lanes, seed, M, K, K_int, iot_db, es_n0_db, order, lead, n, T, draw, decide):
        K, draw, decide = min(K, M), min(draw, T), min(decide, T)
        if K_int == 0 and iot_db == 3.0:
            iot_db = None
        sc = model.Scenario(M=M, C=1, K=K, K_int=K_int, N=M, iot_db=iot_db,
                            es_n0_db=es_n0_db, constellation=order)
        rng = np.random.default_rng(seed)
        chs = [model.build_channel(sc, rng) for _ in range(T)]
        W = np.stack([central.zf_centralized(ch.H) for ch in chs])
        W = W + 0.3 * np.abs(W).mean() * model.crandn(rng, *lead, T, K, M)
        # on one CPU, budgets that hold the rows of `draw` trials and the
        # estimates of `decide`: groups of the smaller, the last one short
        # unless it divides T
        AK = math.prod(lead) * K
        rows = 2 * K + 2 * M + 2 * K_int * (model.powers_from_ratios(sc)[1] > 0.0)
        size = min(draw, decide)
        plan = detect.group_plan
        with mock.patch.multiple(detect, DRAW_BYTES=8 * rows * n * draw,
                                 DETECT_BYTES=16 * AK * n * decide), \
                mock.patch.object(detect.os, "sched_getaffinity", return_value={0}, create=True), \
                mock.patch.object(detect, "group_plan", side_effect=plan) as spy:
            frames = [make_frame(sc, n, np.random.default_rng(seed + t)) for t in range(T)]
            got = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
            assert plan(*spy.call_args.args) == [range(a, min(a + size, T))
                                                 for a in range(0, T, size)]
        assert spy.call_args.args[1:] == (rows, AK, 1)
        want = [oracle_counts(W[..., t, :, :], Y_ref, bits, sc)
                for t, (bits, Y_ref) in enumerate(reference_frame(ch, sc, n, seed + t)
                                                  for t, ch in enumerate(chs))]
        assert got[0].shape == got[1].shape == lead + (T,)
        np.testing.assert_array_equal(got[0], np.stack([w[0] for w in want], axis=-1))
        np.testing.assert_array_equal(got[1], np.stack([w[1] for w in want], axis=-1))

    def test_one_lane_groups_count_what_two_lanes_count_trial_by_trial(self, lanes):
        # chain_deep-shaped frames of 64 symbols: on one CPU the 6 trials are
        # one group, on two each trial is its own
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0, constellation=16)
        W, chs, frames = _chunk(sc, (100, 104, 108, 112, 116, 120), 64)
        plan, plans, counts = detect.group_plan, [], {}
        for cpus in ({0}, {0, 1}):
            with mock.patch.object(detect, "LANE_BYTES", 0), \
                    mock.patch.object(detect.os, "sched_getaffinity", return_value=cpus,
                                      create=True), \
                    mock.patch.object(detect, "group_plan",
                                      lambda *args: plans.append(plan(*args)) or plans[-1]):
                counts[len(cpus)] = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        assert plans == [[range(6)], [range(t, t + 1) for t in range(6)]]
        for t in range(6):
            assert counts[1][0][:, t].all()
            for one, two in zip(counts[1], counts[2]):
                np.testing.assert_array_equal(one[:, t], two[:, t])

    def test_groups_end_where_the_frame_length_changes(self, lanes):
        # frames of 30, 30, 30, 50, 30 and 30 symbols in one lane: groups of
        # 0-2, 3 and 4-5, each trial counted as when it is evaluated alone
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0, constellation=64)
        W, chs, _ = _chunk(sc, (130, 134, 138, 142, 146, 150), 1)
        frames = [make_frame(sc, n, np.random.default_rng(160 + t))
                  for t, n in enumerate((30, 30, 30, 50, 30, 30))]
        assert detect.group_plan([30, 30, 30, 50, 30, 30], 28, 12, 1) == [
            range(0, 3), range(3, 4), range(4, 6)]
        with mock.patch.object(detect.os, "sched_getaffinity", return_value={0}, create=True):
            bit_errors, symbol_errors = evaluate_equalizer(W, stack(chs), frames, sc,
                                                           lanes=lanes)
        for t, frame in enumerate(frames):
            one = evaluate_one(W[:, t], chs[t], frame, sc, lanes)
            assert one[0].all()
            np.testing.assert_array_equal(one[0], bit_errors[:, t])
            np.testing.assert_array_equal(one[1], symbol_errors[:, t])

    def test_group_plan_takes_the_largest_groups_both_budgets_hold(self):
        # 8 bytes a row and 16 an estimate pair a symbol: trials of 10
        # symbols, 20 rows and AK = 5 take 1600 bytes of rows and 800 of
        # estimates each
        lengths = [10] * 7
        with mock.patch.multiple(detect, DRAW_BYTES=3 * 1600, DETECT_BYTES=5 * 800):
            assert detect.group_plan(lengths, 20, 5, 1) == [range(0, 3), range(3, 6),
                                                            range(6, 7)]
            assert detect.group_plan(lengths, 20, 5, 2) == [range(t, t + 1) for t in range(7)]
        with mock.patch.multiple(detect, DRAW_BYTES=1 << 30, DETECT_BYTES=2 * 800 + 799):
            assert detect.group_plan(lengths, 20, 5, 1) == [range(a, min(a + 2, 7))
                                                            for a in range(0, 7, 2)]
        # a trial that one budget does not hold whole is a group of one
        for draw, decide in ((1599, 1 << 30), (1 << 30, 799)):
            with mock.patch.multiple(detect, DRAW_BYTES=draw, DETECT_BYTES=decide):
                assert detect.group_plan(lengths, 20, 5, 1) == [range(t, t + 1)
                                                                for t in range(7)]
        assert detect.group_plan([], 20, 5, 1) == []

    def test_one_lane_and_two_lanes_give_the_same_counts(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=16)
        W, chs, frames = _chunk(sc, (40, 44, 48, 52, 56), 700)
        counts = {}
        for cpus in ({0}, {0, 1}):
            with mock.patch.object(detect, "LANE_BYTES", 0), \
                    mock.patch.object(detect.os, "sched_getaffinity", return_value=cpus,
                                      create=True):
                assert detect.lane_count(5, 0) == len(cpus)
                counts[len(cpus)] = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        assert counts[1][0].all()
        for got, want in zip(counts[2], counts[1]):
            assert got.shape == (4, 5)
            np.testing.assert_array_equal(got, want)

    def test_chunk_counts_equal_its_trials_one_by_one(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=64)
        W, chs, frames = _chunk(sc, (62, 66, 70), 900)
        with mock.patch.object(detect, "LANE_BYTES", 0):
            bit_errors, symbol_errors = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        assert bit_errors.all()
        for t, frame in enumerate(frames):
            one = evaluate_one(W[:, t], chs[t], frame, sc, lanes)
            np.testing.assert_array_equal(one[0], bit_errors[:, t])
            np.testing.assert_array_equal(one[1], symbol_errors[:, t])

    def test_a_frame_evaluated_twice_gives_the_same_counts(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=16)
        W, chs, frames = _chunk(sc, (72, 76), 800)
        state = dict(frames[0].noise_state)
        first = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        second = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        assert first[0].all() and frames[0].noise_state == state
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_lanes_are_capped_by_the_gate_the_trials_and_the_cpus(self):
        with mock.patch.object(detect.os, "sched_getaffinity", _two_cpus, create=True):
            assert detect.lane_count(8, detect.LANE_BYTES) == 2
            assert detect.lane_count(8, detect.LANE_BYTES - 1) == 1
            assert detect.lane_count(1, detect.LANE_BYTES) == 1
        with mock.patch.object(detect.os, "sched_getaffinity", lambda pid: {0}, create=True):
            assert detect.lane_count(8, detect.LANE_BYTES) == 1
        with mock.patch.object(detect.os, "sched_getaffinity", lambda pid: set(range(8)),
                               create=True):
            assert detect.lane_count(8, detect.LANE_BYTES) == 2

    def test_desk_trials_run_in_two_lanes_and_chain_deep_trials_in_one(self):
        # a trial's normals: 8 bytes x (2 M + 2 K_int) rows x its symbols. In
        # the desk profile (M = 32, K = K_int = 4) 500 symbols run in two lanes
        # and the 64 of the chain_deep benchmark in one
        with mock.patch.object(detect.os, "sched_getaffinity", _two_cpus, create=True):
            assert detect.lane_count(8, 8 * 72 * 500) == 2
            assert detect.lane_count(8, 8 * 72 * 64) == 1
            # the group plans of the benchmark workloads' chunks, of 2 M + 2 K
            # + 2 K_int rows and A K estimate pairs a symbol: chain_deep's 20
            # trials (A = 2) are one group; desk's 25 and paper's 2 (M = 128,
            # K = K_int = 8), A = 6, are groups of one, in two lanes or one
            assert detect.group_plan([64] * 20, 80, 2 * 4, detect.lane_count(20, 8 * 72 * 64)) == [
                range(20)]
            for n_trials, M, K in ((25, 32, 4), (2, 128, 8)):
                rows = 2 * M + 4 * K
                assert detect.lane_count(n_trials, 8 * (rows - 2 * K) * 500) == 2
                for n_lanes in (2, 1):
                    assert detect.group_plan([500] * n_trials, rows, 6 * K, n_lanes) == [
                        range(t, t + 1) for t in range(n_trials)]

    def test_the_lanes_take_every_trial_once(self):
        # trials of Python work only, with the GIL handed between the lanes
        # every microsecond: a counter that lost an update would repeat a trial
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def take(lane, t):
            taken.append(t)
            for _ in range(100):
                pass

        try:
            with detect.Lanes() as lanes:
                for _ in range(20):
                    taken = []
                    lanes.start(take, range(500), 2)
                    lanes.wait()
                    assert sorted(taken) == list(range(500))
        finally:
            sys.setswitchinterval(interval)

    def test_an_error_in_a_lane_is_raised_to_the_caller(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=16)
        W, chs, frames = _chunk(sc, (80, 84), 100)
        # every trial fails, on whichever lane takes it
        frames = [unreplayable(f) for f in frames]
        with mock.patch.multiple(detect, LANE_BYTES=0), \
                mock.patch.object(detect.os, "sched_getaffinity", _two_cpus, create=True), \
                pytest.raises(ValueError, match="PCG64"):
            evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)

    def test_a_frame_of_another_user_count_is_rejected_before_the_lanes_run(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=16)
        W, chs, frames = _chunk(sc, (80, 84, 88), 100)
        for sym, shape in [(frames[1].sym[:2], "(2, 100)"), (frames[1].sym[0], "(100,)"),
                           (frames[1].sym[None], "(1, 3, 100)")]:
            bad = [frames[0], dataclasses.replace(frames[1], sym=sym), frames[2]]
            with mock.patch.object(lanes, "start", side_effect=AssertionError("lanes ran")), \
                    pytest.raises(ValueError, match=rf"frame of trial 1: sym shaped "
                                                    rf"{re.escape(shape)}, not K = 3 rows"):
                evaluate_equalizer(W, stack(chs), bad, sc, lanes=lanes)

    def test_lane_0s_error_wins_over_lane_1s(self):
        # each lane holds one trial of two at the barrier, then fails: lane 1
        # (the lane thread) with a ValueError, lane 0 with a KeyError
        barrier = threading.Barrier(2, timeout=10)

        def fail(lane, t):
            barrier.wait()
            if threading.current_thread().name.startswith("chainmmse-lane"):
                raise ValueError("lane 1")
            raise KeyError("lane 0")

        def take(lane, t):
            taken.append(t)

        with detect.Lanes() as lanes:
            for _ in range(20):
                lanes.start(fail, range(2), 2)
                with pytest.raises(KeyError):
                    lanes.wait()
                taken = []
                lanes.start(take, range(50), 2)
                lanes.wait()
                assert sorted(taken) == list(range(50))

    def test_a_lane_that_failed_serves_the_next_call(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=16)
        W, chs, frames = _chunk(sc, (80, 84), 100)
        want = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)  # in one lane
        # every trial fails, on whichever lane takes it
        bad = [unreplayable(f) for f in frames]
        with mock.patch.multiple(detect, LANE_BYTES=0), \
                mock.patch.object(detect.os, "sched_getaffinity", _two_cpus, create=True):
            with pytest.raises(ValueError, match="PCG64"):
                evaluate_equalizer(W, stack(chs), bad, sc, lanes=lanes)
            got = evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes)
        assert want[0].all()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_equalizers_of_another_trial_count_are_rejected(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16)
        W, chs, frames = _chunk(sc, (90, 94), 10)
        with pytest.raises(ValueError, match="equalizers of 2 trials for 1 frames"):
            evaluate_equalizer(W, stack(chs), frames[:1], sc, lanes=lanes)
        with pytest.raises(ValueError, match="channels: 1 trials for 2 frames"):
            evaluate_equalizer(W, stack(chs[:1]), frames, sc, lanes=lanes)


class TestFrame:
    @pytest.mark.parametrize("K_int, iot_db", [(2, 10.0), (0, None), (2, None)])
    def test_frame_is_the_reference_formula_byte_for_byte(self, K_int, iot_db):
        sc = model.Scenario(M=8, C=2, K=3, K_int=K_int, N=16, iot_db=iot_db,
                            es_n0_db=7.0, constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(36))
        const = Constellation(16)
        # the stream of the reference formulas: bits, thermal noise, then the
        # interference symbols, drawn only with interference power
        ref = np.random.default_rng(37)
        bits = ref.integers(0, 2, size=(3, 500 * const.bits_per_symbol))
        S = modulate(bits, const)
        Z = crandn_reference(ref, 8, 500)
        X = crandn_reference(ref, K_int, 500) if iot_db is not None else None
        rng = np.random.default_rng(37)
        frame = make_frame(sc, 500, rng)
        assert frame.sym.dtype == np.uint8
        assert const.points[frame.sym].tobytes() == S.tobytes()
        # rng is left after the bits, where the frame's normals start
        assert rng.bit_generator.state == frame.noise_state
        # the replayed normals: a and b, then c and d with interference power,
        # with Z = (a + 1j b) / sqrt(2) and X = (c + 1j d) / sqrt(2)
        replay = np.random.Generator(np.random.PCG64())
        replay.bit_generator.state = frame.noise_state
        a, b = replay.standard_normal((2, 8, 500))
        assert ((a + 1j * b) / np.sqrt(2.0)).tobytes() == Z.tobytes()
        if X is not None:
            c, d = replay.standard_normal((2, K_int, 500))
            assert ((c + 1j * d) / np.sqrt(2.0)).tobytes() == X.tobytes()
        assert replay.random() == ref.random()  # both streams advanced alike

    @pytest.mark.parametrize("n", [1, 37, 500])
    def test_bits_drawn_in_row_blocks_are_the_stream_of_one_call(self, n):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, constellation=64)
        ch = model.build_channel(sc, np.random.default_rng(38))
        whole = make_frame(sc, n, np.random.default_rng(39))
        # one user row per call: 6 n bits
        with mock.patch.object(detect, "DRAW_BYTES", 1):
            rows = make_frame(sc, n, np.random.default_rng(39))
        assert rows.sym.tobytes() == whole.sym.tobytes()
        assert rows.noise_state == whole.noise_state


class TestRunLink:
    def test_zero_noise_zf_is_error_free(self, lanes):
        sc = model.Scenario(M=8, C=2, K=3, K_int=0, N=16, iot_db=None,
                            es_n0_db=np.inf, constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(4))
        W = central.zf_centralized(ch.H)
        frame = make_frame(sc, 2000, np.random.default_rng(5))
        assert evaluate_one(W, ch, frame, sc, lanes) == (0, 0)
        assert frame.sym.shape == (3, 2000)
        assert frame.sym.size * Constellation(16).bits_per_symbol == 3 * 2000 * 4

    def test_zero_equalizer_is_coin_flipping(self, lanes):
        sc = model.Scenario(M=4, C=2, K=2, K_int=0, N=8, iot_db=None,
                            es_n0_db=10.0, constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(6))
        W = np.zeros((2, 4), dtype=complex)
        frame = make_frame(sc, 13_000, np.random.default_rng(7))
        bit_errors, _ = evaluate_one(W, ch, frame, sc, lanes)
        bits = frame.sym.size * Constellation(16).bits_per_symbol
        assert bits >= 100_000
        assert abs(bit_errors / bits - 0.5) < 0.01

    def test_awgn_qpsk_matches_q_function(self, lanes):
        # single antenna, unit channel: BER = Q(sqrt(2*Eb/N0)) with
        # Eb/N0 = E_s / (2 sigma2), i.e. Q(sqrt(E_s/sigma2))
        es_n0_db = 6.0
        sc, ch = _awgn_scenario(es_n0_db)
        W = central.zf_centralized(ch.H)
        frame = make_frame(sc, 500_000, np.random.default_rng(8))
        bit_errors, _ = evaluate_one(W, ch, frame, sc, lanes)
        bits = frame.sym.size * Constellation(4).bits_per_symbol
        theory = norm.sf(math.sqrt(10.0 ** (es_n0_db / 10.0)))
        se = math.sqrt(theory * (1.0 - theory) / bits)
        assert abs(bit_errors / bits - theory) < 3.0 * se

    def test_global_phase_rotation_invariance(self, lanes):
        # turn the received block a quarter, j Y = scale (j H) S + sqrt(p_int)
        # (j H_int) X + sqrt(sigma2) j Z, and counter-rotate the equalizer:
        # the soft estimates, and hence the decisions, must be those of W Y
        sc = model.Scenario(M=8, C=2, K=2, K_int=2, N=16, es_n0_db=8.0,
                            constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(9))
        W = central.zf_centralized(ch.H)
        frame = make_frame(sc, 20_000, np.random.default_rng(10))
        bits, Y_ref = reference_frame(ch, sc, 20_000, 10)
        counts_a = evaluate_one(W, ch, frame, sc, lanes)
        counts_b = oracle_counts(W / 1j, 1j * Y_ref, bits, sc)
        assert counts_a[0] > 0
        assert counts_a == counts_b

    def test_batch_accumulation_matches_single_run(self, lanes):
        # the estimates accumulated over blocks of stream rows and decided in
        # blocks of columns count as one product over the whole frame
        sc = model.Scenario(M=4, C=2, K=2, K_int=2, N=8, es_n0_db=8.0,
                            constellation=4)
        W, chs, frames = _chunk(sc, (11, 24), 600)
        combined = np.array(evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes))
        with mock.patch.multiple(detect, DETECT_BYTES=16 * 4 * sc.K * 250,
                                 DRAW_BYTES=8 * 600 * 5):
            blocked = np.array(evaluate_equalizer(W, stack(chs), frames, sc, lanes=lanes))
        # (bit errors, symbol errors) x equalizers x trials
        assert combined.shape == (2, 4, 2) and combined[0].all()
        np.testing.assert_array_equal(blocked, combined)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_error_counts_match_per_user_bit_oracle(self, order, lanes):
        # all users are decided at once and counted on symbol indices; compare
        # with demapping every user's row to bits and counting bit by bit
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=12.0,
                            constellation=order)
        ch = model.build_channel(sc, np.random.default_rng(13))
        W = central.zf_centralized(ch.H)
        frame = make_frame(sc, 3000, np.random.default_rng(14))
        const = Constellation(order)
        # the bit block is the first draw of the frame's data stream
        bits, Y_ref = reference_frame(ch, sc, 3000, 14)
        symbols = const.points[frame.sym]
        for k in range(sc.K):
            np.testing.assert_array_equal(symbols[k], modulate(bits[k], const))
        _, _, scale = model.powers_from_ratios(sc)
        rx_bits = np.stack([demodulate_hard(s, const) for s in W @ Y_ref / scale])
        wrong = rx_bits != bits
        per_symbol = wrong.reshape(sc.K, 3000, -1)
        bit_errors, symbol_errors = evaluate_one(W, ch, frame, sc, lanes)
        assert bit_errors == int(wrong.sum()) > 0
        assert symbol_errors == int(per_symbol.any(axis=-1).sum())
