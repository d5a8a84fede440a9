import csv
import dataclasses

import numpy as np
import pytest

from wisv.compute import round_latency
from wisv.engine import LinkBill
from wisv.metrics import episode_totals, summarize, write_csv
from wisv.wire import PROTO_TOKENS, LatencyBreakdown

# The results.csv header, as README gives it.
RESULTS_COLUMNS = ("mode,k,tau,rate_bps,rtt_s,aal,rounds,latency_s,throughput,accuracy_proxy,"
                   "uplink_bits,downlink_bits").split(",")


def fake_result(accepted_lengths, latency_per_round=0.1, critical=0):
    """One episode's ``LinkBill``, a batch of one.

    Full-accept rounds, latency split between uplink and RTT; the first
    round accepts ``critical`` critical mismatches."""
    n = len(accepted_lengths)
    accepted = np.array(accepted_lengths, dtype=np.int64)
    zeros = np.zeros(n)
    half = np.full(n, latency_per_round / 2)
    comm = LatencyBreakdown(
        uplink_s=half, downlink_s=zeros, rtt_s=half,
        uplink_bits=np.full(n, 1000), downlink_bits=np.full(n, 100),
    )
    crit = np.zeros(n, dtype=np.int64)
    crit[:1] = critical
    return LinkBill(
        bounds=np.array([0, n]),
        start=np.zeros(n, dtype=np.int64),
        m=np.zeros(n, dtype=np.int64),
        reject_pos=np.full(n, -1),
        accepted=accepted,
        accepted_critical=crit,
        draft_s=zeros,
        verify_s=zeros,
        head_s=zeros,
        proto=np.full(n, PROTO_TOKENS),
        comm=comm,
        total_s=round_latency(zeros, comm, zeros, zeros),
    )


def totals_of(bill):
    """The ``EpisodeTotals`` of ``fake_result``'s episode."""
    (totals,) = episode_totals(bill)
    return totals


def fake_episode(accepted_lengths, latency_per_round=0.1, critical=0):
    return totals_of(fake_result(accepted_lengths, latency_per_round, critical))


class TestAal:
    def test_single_episode_mean(self):
        assert summarize([fake_episode([3, 5, 4])])["aal"] == 4.0

    def test_episode_level_averaging(self):
        # Episode AALs 4 and 6 average to 5 regardless of round counts.
        short = fake_episode([4])
        long = fake_episode([6] * 9)
        assert summarize([short, long])["aal"] == 5.0

    def test_all_full_accepts(self):
        assert summarize([fake_episode([10] * 7)])["aal"] == 10.0

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="no rounds"):
            totals_of(fake_result([]))
        with pytest.raises(ValueError, match="zero rounds"):
            summarize([dataclasses.replace(fake_episode([1]), rounds=0)])


class TestEpisodeTotals:
    def test_batch_reduces_to_each_episodes_totals(self):
        # Three episodes of different lengths and latencies, billed back to
        # back: each reduces exactly as on its own.
        bills = [fake_result([2, 3, 1], 0.1, critical=1), fake_result([4], 0.3),
                 fake_result([1, 1, 5, 2], 0.07)]
        bill = back_to_back(bills)
        totals = episode_totals(bill)
        assert totals == [totals_of(own) for own in bills]
        # Each latency is its own slice's sum in round order, not a running total.
        assert [t.latency_s for t in totals] == [sum(own.total_s.tolist()) for own in bills]
        assert [t.uplink_bits for t in totals] == [3000, 1000, 4000]
        assert [(t.accepted, t.tokens, t.accepted_critical) for t in totals] == [
            (6, 9, 1), (4, 5, 0), (9, 13, 0)]

    def test_zero_round_episode_in_batch_rejected(self):
        # reduceat would hand the empty middle episode its successor's first round.
        bill = back_to_back([fake_result([2]), fake_result([]), fake_result([3])])
        assert bill.bounds.tolist() == [0, 1, 1, 2]
        with pytest.raises(ValueError, match="no rounds"):
            episode_totals(bill)


def back_to_back(bills):
    """One ``LinkBill`` of single-episode bills, placed back to back."""
    comm = LatencyBreakdown(*(np.concatenate([getattr(own.comm, f.name) for own in bills])
                              for f in dataclasses.fields(LatencyBreakdown)))
    columns = {f.name: np.concatenate([getattr(own, f.name) for own in bills])
               for f in dataclasses.fields(LinkBill) if f.name not in ("bounds", "comm")}
    bounds = np.cumsum([0, *(len(own.m) for own in bills)])
    return LinkBill(bounds=bounds, comm=comm, **columns)


class TestRoundCount:
    def test_single(self):
        assert summarize([fake_episode([1] * 7)])["rounds"] == 7

    def test_mean(self):
        eps = [fake_episode([1] * 10), fake_episode([1] * 20)]
        assert summarize(eps)["rounds"] == 15


class TestLatency:
    def test_zero_components(self):
        # summarize refuses a point of zero total latency (TestThroughput), so
        # the zero is read from the episode's own record.
        assert fake_episode([1, 1], latency_per_round=0.0).latency_s == 0.0

    def test_three_rounds(self):
        eps = [fake_episode([1, 1, 1], latency_per_round=0.1)]
        assert summarize(eps)["latency_s"] == pytest.approx(0.3)

    def test_matches_component_recomputation(self):
        results = [fake_result([2, 3], 0.05), fake_result([4], 0.2)]
        recomputed = np.mean([sum(bill.comm.total_s) for bill in results])
        eps = [totals_of(res) for res in results]
        assert summarize(eps)["latency_s"] == pytest.approx(recomputed, rel=1e-12)


class TestThroughput:
    def test_simple_ratio(self):
        ep = fake_episode([50, 50], latency_per_round=5.0)
        assert summarize([ep])["throughput"] == pytest.approx(10.0)

    def test_pooled_identity(self):
        eps = [fake_episode([5] * 4, 0.1), fake_episode([8] * 2, 0.3)]
        total_tokens = sum(ep.accepted for ep in eps)
        total_latency = sum(ep.latency_s for ep in eps)
        point = summarize(eps)
        got = point["throughput"]
        assert got == pytest.approx(total_tokens / total_latency, rel=1e-12)
        # throughput * mean latency * n episodes recovers the token total
        assert got * point["latency_s"] * len(eps) == pytest.approx(total_tokens, rel=1e-9)

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError):
            summarize([fake_episode([1], latency_per_round=0.0)])

    def test_reference_identity_rows(self):
        # Aggregate consistency of the definition: accepted tokens per
        # round x rounds / latency. Frozen reference rows.
        for aal_v, rounds_v, lat_v, thr_v in [
            (6.607, 31.912, 7.616, 27.683),
            (15.489, 13.152, 16.653, 12.233),
        ]:
            assert aal_v * rounds_v / lat_v == pytest.approx(thr_v, rel=0.005)


class TestAccuracyProxy:
    def test_all_clean(self):
        assert summarize([fake_episode([1]), fake_episode([2])])["accuracy_proxy"] == 1.0

    def test_counts_critical_acceptances(self):
        eps = [fake_episode([1]), fake_episode([1], critical=2), fake_episode([1])]
        assert summarize(eps)["accuracy_proxy"] == pytest.approx(2 / 3)


class TestSummaryAndCsv:
    def test_summary_totals(self):
        eps = [fake_episode([2, 4], 0.1), fake_episode([6], 0.2)]
        s = summarize(eps)
        assert s["aal"] == pytest.approx((3 + 6) / 2)
        assert s["rounds"] == 1.5
        assert s["uplink_bits"] == 3000
        assert s["downlink_bits"] == 300
        assert s["latency_s"] == pytest.approx((0.2 + 0.2) / 2)

    def test_csv_columns_exact(self, tmp_path):
        eps = [fake_episode([2, 4], 0.1)]
        row = {"mode": "sd_greedy", "k": 10, "tau": 0.5, "rate_bps": 500e6, "rtt_s": 0.05,
               **summarize(eps)}
        path = tmp_path / "results.csv"
        write_csv(path, [row])
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == RESULTS_COLUMNS
            back = next(reader)
        assert back["mode"] == "sd_greedy"
        assert int(back["k"]) == 10
        assert back["rate_bps"] == repr(500e6)  # str of a float is its repr
        assert float(back["aal"]) == pytest.approx(3.0)

    def test_csv_bytes_deterministic(self, tmp_path):
        eps = [fake_episode([2, 4], 0.1)]
        row = {"mode": "wisv_fh", "k": 16, "tau": 0.9, "rate_bps": 20e6, "rtt_s": 0.005,
               **summarize(eps)}
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, [row])
        write_csv(b, [row])
        assert a.read_bytes() == b.read_bytes()
