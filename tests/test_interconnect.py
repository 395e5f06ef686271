import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmmse import cli, daisy
from chainmmse.interconnect import (PHASE_ACCUMULATE, PHASE_DISTRIBUTE, PHASE_GRAM,
                                    PHASE_SWEEP, Topology, chain_traffic, predicted_traffic)

from conftest import make_instance, paper_traffic


class TestTopology:
    def test_link_counts(self):
        assert len(Topology("uni_loop", 4).links) == 4
        assert Topology("uni_loop", 1).links == ()

    def test_loop_closes(self):
        links = Topology("uni_loop", 3).links
        assert (2, 0) in links

    def test_unknown_variant(self):
        for variant in ("mesh", "bi_chain"):
            with pytest.raises(ValueError):
                Topology(variant, 4)


class TestPredictedTraffic:
    def test_zero_users(self):
        assert predicted_traffic(0, 100, 5) == 0

    def test_paper_configuration(self):
        assert predicted_traffic(8, 192, 4) == 9664

    def test_preprocessing_only(self):
        assert predicted_traffic(8, 192, 0) == 3264

    def test_bdac_alone_is_the_gram_phase(self):
        assert chain_traffic(8, 192, None) == {PHASE_GRAM: 64}
        assert predicted_traffic(8, 192, None) == 64

    def test_negative_arguments(self):
        for K, N, L in ((-1, 4, 1), (4, -1, 1), (4, 4, -1), (-1, 4, None)):
            with pytest.raises(ValueError, match="must be >= 0"):
                predicted_traffic(K, N, L)

    @given(K=st.integers(0, 32), N=st.integers(0, 512), L=st.integers(0, 16))
    @settings(max_examples=50)
    def test_matches_polynomial(self, K, N, L):
        assert predicted_traffic(K, N, L) == 3 * K * K + 2 * N * K + L * K * (N + K)


class TestMeteredTraffic:
    def _run(self, M, L, seed=0, C=4, K=4, N=64):
        sc, ch, pool, _ = make_instance(seed=seed, M=M, C=C, K=K, K_int=4, N=N)
        dbus = daisy.make_chain(ch, pool, sc.E_s)
        return daisy.run_bcd(dbus, daisy.Schedule(L=L)).ledger

    def test_sweep_message_size(self):
        ledger = self._run(M=16, L=1)
        for link in ledger.topology.links:
            assert ledger.counts[PHASE_SWEEP, link] == 4 ** 2 + 64 * 4

    def test_per_link_sweep_traffic_closed_form(self):
        for L in (1, 3, 7):
            ledger = self._run(M=16, L=L)
            for link in ledger.topology.links:
                assert ledger.counts[PHASE_SWEEP, link] == L * 4 * (64 + 4)

    def test_preprocessing_matches_paper_accounting(self):
        ledger = self._run(M=16, L=2)
        K, N = 4, 64
        for link in ledger.topology.links:
            assert sum(ledger.counts[phase, link] for phase in (
                PHASE_GRAM, PHASE_ACCUMULATE, PHASE_DISTRIBUTE)) == 3 * K * K + 2 * N * K

    def test_total_per_link_matches_prediction(self):
        for L in (0, 1, 4):
            ledger = self._run(M=32, L=L)
            for link in ledger.topology.links:
                assert ledger.per_link(link) == paper_traffic(4, 64, L)

    def test_independent_of_antenna_count(self):
        ledgers = [self._run(M=M, L=4) for M in (16, 32, 64)]
        totals = {sum(ledger.per_link(link) for link in ledger.topology.links)
                  for ledger in ledgers}
        assert len(totals) == 1

    def test_csv_roundtrip(self, tmp_path):
        # the trace's traffic.csv at C = 12: the closed form, 16 bytes per entry,
        # by phase and then by link as a tuple, so 2-3 comes before 10-11
        path = tmp_path / "twelve.yaml"
        path.write_text("profile: desk\nscenario: {M: 36, C: 12}\n")
        assert cli.main(["trace", "--config", str(path), "--sweeps", "2",
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "traffic.csv").read_text().splitlines()
        assert lines[0] == "phase,link,entries,bytes"
        links = [f"{c}-{(c + 1) % 12}" for c in range(12)]
        assert lines[1:] == [f"{phase},{link},{n},{16 * n}"
                             for phase, n in sorted(chain_traffic(4, 96, 2).items())
                             for link in links]
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 12 * paper_traffic(
            4, 96, 2)

