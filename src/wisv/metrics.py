"""Aggregation of episode results into system-level metrics.

Every metric reduces the per-round columns of each ``EpisodeResult`` to one
number per episode (``EpisodeTotals``), then combines the episodes in
order. Float columns are added in round order (``round_order_sum``), so the
written numbers do not depend on numpy's summation order.

AAL and end-to-end latency use two-level averaging (per episode, then over
episodes). Throughput is the pooled ratio of total accepted tokens to total
wall-clock latency, which makes throughput * mean-latency * episode count
recover the accepted token total exactly. The reference identity
throughput = AAL * rounds / latency is exact for one episode, or with the
pooled AAL (total accepted over total rounds); with the two-level AAL it
holds only approximately when round counts differ between episodes.
"""

from __future__ import annotations

import csv as _csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .engine import EpisodeResult, round_order_sum

CSV_COLUMNS = [
    "mode",
    "k",
    "tau",
    "rate_bps",
    "rtt_s",
    "aal",
    "rounds",
    "latency_s",
    "throughput",
    "accuracy_proxy",
    "uplink_bits",
    "downlink_bits",
]


@dataclass(frozen=True)
class MetricsSummary:
    aal: float
    rounds_mean: float
    latency_mean_s: float
    throughput_tokens_per_s: float
    accuracy_proxy: float
    uplink_bits_total: int
    downlink_bits_total: int
    draft_s_mean: float
    verify_s_mean: float
    head_s_mean: float
    uplink_s_mean: float
    downlink_s_mean: float
    rtt_s_mean: float


@dataclass(frozen=True)
class EpisodeTotals:
    """One episode reduced to what ``summarize`` reads; float sums in round order.

    A sweep keeps these instead of whole ``EpisodeResult``s until all of a
    point's episodes are in. The first five fields share their names with
    ``EpisodeResult``'s properties, so every metric below takes either.
    """

    n_rounds: int
    accepted_total: int
    aal: float
    total_latency_s: float
    synthetic_correct: bool
    uplink_bits_total: int
    downlink_bits_total: int
    draft_s_total: float
    verify_s_total: float
    head_s_total: float
    uplink_s_total: float
    downlink_s_total: float
    rtt_s_total: float

    @classmethod
    def of(cls, ep: EpisodeResult) -> EpisodeTotals:
        return cls(
            n_rounds=ep.n_rounds,
            accepted_total=ep.accepted_total,
            aal=ep.aal,
            total_latency_s=ep.total_latency_s,
            synthetic_correct=ep.synthetic_correct,
            uplink_bits_total=int(ep.comm.uplink_bits.sum()),
            downlink_bits_total=int(ep.comm.downlink_bits.sum()),
            draft_s_total=round_order_sum(ep.draft_s),
            verify_s_total=round_order_sum(ep.verify_s),
            head_s_total=round_order_sum(ep.head_s),
            uplink_s_total=round_order_sum(ep.comm.uplink_s),
            downlink_s_total=round_order_sum(ep.comm.downlink_s),
            rtt_s_total=round_order_sum(ep.comm.rtt_s),
        )


Episodes = Sequence[EpisodeResult | EpisodeTotals]


def _require(results: Episodes) -> None:
    if not results:
        raise ValueError("no episode results")
    if any(ep.n_rounds == 0 for ep in results):
        raise ValueError("episode with zero rounds")


def aal(results: Episodes) -> float:
    """Mean accepted length per round, averaged per episode first."""
    _require(results)
    return sum(ep.aal for ep in results) / len(results)


def round_count(results: Episodes) -> float:
    """Mean interaction rounds per episode."""
    _require(results)
    return sum(ep.n_rounds for ep in results) / len(results)


def e2e_latency(results: Episodes) -> float:
    """Mean per-episode wall-clock latency in seconds."""
    _require(results)
    return sum(ep.total_latency_s for ep in results) / len(results)


def throughput(results: Episodes) -> float:
    """Pooled accepted tokens per second across all episodes."""
    _require(results)
    total_latency = sum(ep.total_latency_s for ep in results)
    if total_latency <= 0.0:
        raise ValueError("zero total latency")
    return sum(ep.accepted_total for ep in results) / total_latency


def accuracy_proxy(results: Episodes) -> float:
    """Fraction of episodes that accepted no critical mismatch."""
    _require(results)
    return sum(ep.synthetic_correct for ep in results) / len(results)


def summarize(results: Episodes) -> MetricsSummary:
    """Metrics of one sweep point from its episodes' results or ``EpisodeTotals``."""
    _require(results)
    eps = [ep if isinstance(ep, EpisodeTotals) else EpisodeTotals.of(ep) for ep in results]

    def mean(field: str) -> float:
        return sum(getattr(ep, field) for ep in eps) / len(eps)

    return MetricsSummary(
        aal=aal(eps),
        rounds_mean=round_count(eps),
        latency_mean_s=e2e_latency(eps),
        throughput_tokens_per_s=throughput(eps),
        accuracy_proxy=accuracy_proxy(eps),
        uplink_bits_total=sum(ep.uplink_bits_total for ep in eps),
        downlink_bits_total=sum(ep.downlink_bits_total for ep in eps),
        draft_s_mean=mean("draft_s_total"),
        verify_s_mean=mean("verify_s_total"),
        head_s_mean=mean("head_s_total"),
        uplink_s_mean=mean("uplink_s_total"),
        downlink_s_mean=mean("downlink_s_total"),
        rtt_s_mean=mean("rtt_s_total"),
    )


def csv_row(
    mode: str, k: int, tau: float, rate_bps: float, rtt_s: float, summary: MetricsSummary
) -> dict:
    return {
        "mode": mode,
        "k": k,
        "tau": repr(tau),
        "rate_bps": repr(rate_bps),
        "rtt_s": repr(rtt_s),
        "aal": repr(summary.aal),
        "rounds": repr(summary.rounds_mean),
        "latency_s": repr(summary.latency_mean_s),
        "throughput": repr(summary.throughput_tokens_per_s),
        "accuracy_proxy": repr(summary.accuracy_proxy),
        "uplink_bits": summary.uplink_bits_total,
        "downlink_bits": summary.downlink_bits_total,
    }


def write_csv(path: str | Path, rows: list[dict], columns: list[str] = CSV_COLUMNS) -> None:
    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
