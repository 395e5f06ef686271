import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from chainmmse import central, detect, model
from chainmmse.detect import Constellation, evaluate_equalizer, make_frame

from conftest import colored_noise_reference, crandn_reference


def modulate(bits, constellation):
    """Symbol oracle: the point of every group of bits_per_symbol bits,
    MSB first; every row of a 2-D bit block is a stream of its own."""
    bits = np.asarray(bits, dtype=np.int64)
    bps = constellation.bits_per_symbol
    if bits.shape[-1] % bps != 0:
        raise ValueError(f"bit count {bits.shape[-1]} not divisible by {bps}")
    weights = 1 << np.arange(bps - 1, -1, -1)
    return constellation.points[bits.reshape(bits.shape[:-1] + (-1, bps)) @ weights]


def demodulate_hard(s_hat, constellation):
    """Bit oracle: nearest-point decision per symbol, then the MSB-first
    bits of the symbol index."""
    s_hat = np.asarray(s_hat).ravel()
    sym = constellation.decide(s_hat.real, s_hat.imag)
    shifts = np.arange(constellation.bits_per_symbol - 1, -1, -1)
    return ((sym[:, None] >> shifts) & 1).ravel()


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
    s_hat = W @ Y / scale
    got = const.decide(s_hat.real, s_hat.imag)
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


class TestDemodulate:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_round_trip_exact_points(self, order):
        c = Constellation(order)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=c.bits_per_symbol * 256)
        np.testing.assert_array_equal(demodulate_hard(modulate(bits, c), c), bits)

    def test_small_perturbation_same_decision(self):
        c = Constellation(16)
        bits = np.array([1, 0, 1, 1])
        sym = modulate(bits, c)
        np.testing.assert_array_equal(
            demodulate_hard(sym + 1e-6 * (1 + 1j), c), bits)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_brute_force_nearest_point_oracle(self, order):
        c = Constellation(order)
        rng = np.random.default_rng(2)
        soft = 2.0 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        got = demodulate_hard(soft, c).reshape(500, -1)
        nearest = np.argmin(np.abs(soft[:, None] - c.points[None, :]), axis=1)
        bps = c.bits_per_symbol
        oracle = np.array([[(s >> (bps - 1 - j)) & 1 for j in range(bps)]
                           for s in nearest])
        np.testing.assert_array_equal(got, oracle)

    @given(order=st.sampled_from([4, 16, 64]), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, order, seed):
        c = Constellation(order)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=c.bits_per_symbol * 32)
        np.testing.assert_array_equal(demodulate_hard(modulate(bits, c), c), bits)


def _equalizer_stack(ch, rng):
    """ZF, two perturbed ZFs and a poor random equalizer: a stack of four
    whose error counts differ."""
    W = central.zf_centralized(ch.H)
    K, M = W.shape
    size = np.abs(W).mean()
    return np.stack([W, W + 0.2 * size * model.crandn(rng, K, M),
                     W + 0.5 * size * model.crandn(rng, K, M), model.crandn(rng, K, M)])


class TestErrorCounts:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_stack_counts_equal_each_equalizer_alone(self, order):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=order)
        ch = model.build_channel(sc, np.random.default_rng(21))
        W = _equalizer_stack(ch, np.random.default_rng(22))
        frame = make_frame(ch, sc, 1500, np.random.default_rng(23))
        bit_errors, symbol_errors = evaluate_equalizer(W, frame, sc)
        assert bit_errors.shape == symbol_errors.shape == (4,)
        assert bit_errors.dtype.kind == symbol_errors.dtype.kind == "i"
        assert len(set(bit_errors.tolist())) == 4  # the counts differ
        for a in range(4):
            assert evaluate_equalizer(W[a], frame, sc) == (bit_errors[a], symbol_errors[a])
        # any leading axes: a 2 x 2 stack of the same equalizers
        grid = evaluate_equalizer(W.reshape(2, 2, *W.shape[1:]), frame, sc)
        np.testing.assert_array_equal(grid[0].ravel(), bit_errors)
        np.testing.assert_array_equal(grid[1].ravel(), symbol_errors)

    @pytest.mark.parametrize("extra", ["below", "equal", "two_blocks_and_17"])
    def test_blocked_counts_equal_the_blocks_counted_by_hand(self, extra):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=6.0,
                            constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(25))
        W = _equalizer_stack(ch, np.random.default_rng(26))
        block = detect.DETECT_BYTES // (16 * 4 * sc.K)
        n = {"below": block // 3, "equal": block, "two_blocks_and_17": 2 * block + 17}[extra]
        frame = make_frame(ch, sc, n, np.random.default_rng(27))
        bits, Y_ref = reference_frame(ch, sc, n, 27)
        bit_errors, symbol_errors = np.zeros(4, np.int64), np.zeros(4, np.int64)
        for first in range(0, n, block):
            cols = slice(first, min(first + block, n))
            counts = oracle_counts(W, Y_ref[:, cols], bits[:, 4 * first:4 * cols.stop], sc)
            bit_errors += counts[0]
            symbol_errors += counts[1]
        got = evaluate_equalizer(W, frame, sc)
        assert bit_errors.all()
        np.testing.assert_array_equal(got[0], bit_errors)
        np.testing.assert_array_equal(got[1], symbol_errors)

    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 6), K=st.integers(1, 3),
           K_int=st.integers(0, 3), iot_db=st.sampled_from([None, -math.inf, 3.0]),
           es_n0_db=st.sampled_from([0.0, 12.0, math.inf]), order=st.sampled_from([4, 16, 64]),
           lead=st.sampled_from([(), (2,), (2, 3)]), n=st.integers(1, 40),
           block=st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_the_oracle_on_the_received_block(
            self, seed, M, K, K_int, iot_db, es_n0_db, order, lead, n, block):
        K = min(K, M)
        if K_int == 0 and iot_db == 3.0:
            iot_db = None
        sc = model.Scenario(M=M, C=1, K=K, K_int=K_int, N=M, iot_db=iot_db,
                            es_n0_db=es_n0_db, constellation=order)
        rng = np.random.default_rng(seed)
        ch = model.build_channel(sc, rng)
        W = central.zf_centralized(ch.H)
        W = W + 0.3 * np.abs(W).mean() * model.crandn(rng, *lead, K, M)
        bits, Y_ref = reference_frame(ch, sc, n, seed)
        # blocks of `block` columns: the last one is short unless block divides n
        AK = math.prod(lead) * K
        with mock.patch.object(detect, "DETECT_BYTES", 16 * AK * block):
            got = evaluate_equalizer(W, make_frame(ch, sc, n, np.random.default_rng(seed)), sc)
        want = oracle_counts(W, Y_ref, bits, sc)
        assert got[0].shape == got[1].shape == lead
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestFrame:
    @pytest.mark.parametrize("K_int, iot_db", [(2, 10.0), (0, None), (2, None)])
    def test_refilled_frame_equals_a_new_frame(self, K_int, iot_db):
        sc = model.Scenario(M=8, C=2, K=3, K_int=K_int, N=16, iot_db=iot_db,
                            es_n0_db=7.0, constellation=64)
        # the old frame carries interference whenever there are interferers
        old_sc = sc.with_ratios(7.0, 10.0 if K_int else None)
        old = make_frame(model.build_channel(sc, np.random.default_rng(30)), old_sc, 700,
                         np.random.default_rng(31))
        arrays = (old.sym, old.parts)
        ch = model.build_channel(sc, np.random.default_rng(32))
        new = make_frame(ch, sc, 700, np.random.default_rng(33))
        refilled = make_frame(ch, sc, 700, np.random.default_rng(33), out=old)
        assert refilled is old and refilled.channels is ch
        for name in ("parts", "sym"):
            got, want = getattr(refilled, name), getattr(new, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
        for before, after in zip(arrays, (refilled.sym, refilled.parts)):
            assert np.shares_memory(before, after)

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
        X = (crandn_reference(ref, K_int, 500) if iot_db is not None
             else np.zeros((K_int, 500), complex))
        rng = np.random.default_rng(37)
        frame = make_frame(ch, sc, 500, rng)
        assert rng.random() == ref.random()  # both streams advanced alike
        np.testing.assert_array_equal(const.points[frame.sym], S)
        # the rows [Re S; a; c] and [Im S; b; d], with Z = (a + 1j b) / sqrt(2)
        # and X = (c + 1j d) / sqrt(2), or 0 without interference power
        (re_S, a, c), (im_S, b, d) = (np.split(p, [3, 11]) for p in frame.parts)
        assert re_S.tobytes() == S.real.tobytes() and im_S.tobytes() == S.imag.tobytes()
        assert ((a + 1j * b) / np.sqrt(2.0)).tobytes() == Z.tobytes()
        assert ((c + 1j * d) / np.sqrt(2.0)).tobytes() == X.tobytes()

    def test_refill_rejects_a_frame_of_another_shape(self):
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16)
        ch = model.build_channel(sc, np.random.default_rng(34))
        old = make_frame(ch, sc, 100, np.random.default_rng(35))
        with pytest.raises(ValueError, match="cannot hold K=3, M=8, 101 symbols"):
            make_frame(ch, sc, 101, np.random.default_rng(35), out=old)


class TestRunLink:
    def test_zero_noise_zf_is_error_free(self):
        sc = model.Scenario(M=8, C=2, K=3, K_int=0, N=16, iot_db=None,
                            es_n0_db=np.inf, constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(4))
        W = central.zf_centralized(ch.H)
        frame = make_frame(ch, sc, 2000, np.random.default_rng(5))
        assert evaluate_equalizer(W, frame, sc) == (0, 0)
        assert frame.sym.shape == (3, 2000)
        assert frame.sym.size * Constellation(16).bits_per_symbol == 3 * 2000 * 4

    def test_zero_equalizer_is_coin_flipping(self):
        sc = model.Scenario(M=4, C=2, K=2, K_int=0, N=8, iot_db=None,
                            es_n0_db=10.0, constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(6))
        W = np.zeros((2, 4), dtype=complex)
        frame = make_frame(ch, sc, 13_000, np.random.default_rng(7))
        bit_errors, _ = evaluate_equalizer(W, frame, sc)
        bits = frame.sym.size * Constellation(16).bits_per_symbol
        assert bits >= 100_000
        assert abs(bit_errors / bits - 0.5) < 0.01

    def test_awgn_qpsk_matches_q_function(self):
        # single antenna, unit channel: BER = Q(sqrt(2*Eb/N0)) with
        # Eb/N0 = E_s / (2 sigma2), i.e. Q(sqrt(E_s/sigma2))
        es_n0_db = 6.0
        sc, ch = _awgn_scenario(es_n0_db)
        W = central.zf_centralized(ch.H)
        frame = make_frame(ch, sc, 500_000, np.random.default_rng(8))
        bit_errors, _ = evaluate_equalizer(W, frame, sc)
        bits = frame.sym.size * Constellation(4).bits_per_symbol
        theory = norm.sf(math.sqrt(10.0 ** (es_n0_db / 10.0)))
        se = math.sqrt(theory * (1.0 - theory) / bits)
        assert abs(bit_errors / bits - theory) < 3.0 * se

    def test_global_phase_rotation_invariance(self):
        # turn the received block a quarter, j Y = scale (j H) S + sqrt(p_int)
        # (j H_int) X + sqrt(sigma2) (-b + 1j a) / sqrt(2), and counter-rotate
        # the equalizer: the soft estimates, and hence the decisions, must be
        # unchanged
        sc = model.Scenario(M=8, C=2, K=2, K_int=2, N=16, es_n0_db=8.0,
                            constellation=16)
        ch = model.build_channel(sc, np.random.default_rng(9))
        W = central.zf_centralized(ch.H)
        frame = make_frame(ch, sc, 20_000, np.random.default_rng(10))
        parts = frame.parts.copy()
        a, b = frame.parts[:, 2:10]
        parts[0, 2:10], parts[1, 2:10] = -b, a
        frame_rot = dataclasses.replace(
            frame, channels=dataclasses.replace(ch, H=1j * ch.H, H_int=1j * ch.H_int),
            parts=parts)
        counts_a = evaluate_equalizer(W, frame, sc)
        counts_b = evaluate_equalizer(W / 1j, frame_rot, sc)
        assert counts_a == counts_b

    def test_batch_accumulation_matches_single_run(self):
        sc = model.Scenario(M=4, C=2, K=2, K_int=2, N=8, es_n0_db=8.0,
                            constellation=4)
        ch = model.build_channel(sc, np.random.default_rng(11))
        W = _equalizer_stack(ch, np.random.default_rng(24))
        frame = make_frame(ch, sc, 600, np.random.default_rng(12))
        combined = np.array(evaluate_equalizer(W, frame, sc))
        part = [np.array(evaluate_equalizer(
            W, dataclasses.replace(frame, sym=frame.sym[:, sl], parts=frame.parts[..., sl]), sc))
            for sl in [slice(0, 250), slice(250, 600)]]
        # (bit errors, symbol errors) x equalizer counts of the two parts add up
        assert combined.shape == (2, 4) and combined[0].any()
        np.testing.assert_array_equal(part[0] + part[1], combined)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_error_counts_match_per_user_bit_oracle(self, order):
        # all users are decided at once and counted on symbol indices; compare
        # with demapping every user's row to bits and counting bit by bit
        sc = model.Scenario(M=8, C=2, K=3, K_int=2, N=16, es_n0_db=12.0,
                            constellation=order)
        ch = model.build_channel(sc, np.random.default_rng(13))
        W = central.zf_centralized(ch.H)
        frame = make_frame(ch, sc, 3000, np.random.default_rng(14))
        const = Constellation(order)
        # the bit block is the first draw of the frame's data stream
        bits, Y_ref = reference_frame(ch, sc, 3000, 14)
        symbols = frame.parts[0, :sc.K] + 1j * frame.parts[1, :sc.K]
        for k in range(sc.K):
            np.testing.assert_array_equal(symbols[k], modulate(bits[k], const))
        np.testing.assert_array_equal(const.points[frame.sym], symbols)
        _, _, scale = model.powers_from_ratios(sc)
        rx_bits = np.stack([demodulate_hard(s, const) for s in W @ Y_ref / scale])
        wrong = rx_bits != bits
        per_symbol = wrong.reshape(sc.K, 3000, -1)
        bit_errors, symbol_errors = evaluate_equalizer(W, frame, sc)
        assert bit_errors == int(wrong.sum()) > 0
        assert symbol_errors == int(per_symbol.any(axis=-1).sum())
