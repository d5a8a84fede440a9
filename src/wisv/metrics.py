"""Aggregation of episode results into system-level metrics.

Every metric reduces the per-round columns of each ``EpisodeResult`` to one
number per episode, then combines the episodes in order. Float columns are
added in round order (``round_order_sum``), so the written numbers do not
depend on numpy's summation order.

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


def _require(results: list[EpisodeResult]) -> None:
    if not results:
        raise ValueError("no episode results")
    if any(ep.n_rounds == 0 for ep in results):
        raise ValueError("episode with zero rounds")


def aal(results: list[EpisodeResult]) -> float:
    """Mean accepted length per round, averaged per episode first."""
    _require(results)
    return sum(ep.aal for ep in results) / len(results)


def round_count(results: list[EpisodeResult]) -> float:
    """Mean interaction rounds per episode."""
    _require(results)
    return sum(ep.n_rounds for ep in results) / len(results)


def e2e_latency(results: list[EpisodeResult]) -> float:
    """Mean per-episode wall-clock latency in seconds."""
    _require(results)
    return sum(ep.total_latency_s for ep in results) / len(results)


def throughput(results: list[EpisodeResult]) -> float:
    """Pooled accepted tokens per second across all episodes."""
    _require(results)
    total_latency = sum(ep.total_latency_s for ep in results)
    if total_latency <= 0.0:
        raise ValueError("zero total latency")
    return sum(ep.accepted_total for ep in results) / total_latency


def accuracy_proxy(results: list[EpisodeResult]) -> float:
    """Fraction of episodes that accepted no critical mismatch."""
    _require(results)
    return sum(ep.synthetic_correct for ep in results) / len(results)


def _mean_total(columns) -> float:
    """Mean over episodes of each episode's column total."""
    return sum(round_order_sum(col) for col in columns) / len(columns)


def summarize(results: list[EpisodeResult]) -> MetricsSummary:
    _require(results)
    return MetricsSummary(
        aal=aal(results),
        rounds_mean=round_count(results),
        latency_mean_s=e2e_latency(results),
        throughput_tokens_per_s=throughput(results),
        accuracy_proxy=accuracy_proxy(results),
        uplink_bits_total=sum(int(ep.comm.uplink_bits.sum()) for ep in results),
        downlink_bits_total=sum(int(ep.comm.downlink_bits.sum()) for ep in results),
        draft_s_mean=_mean_total([ep.draft_s for ep in results]),
        verify_s_mean=_mean_total([ep.verify_s for ep in results]),
        head_s_mean=_mean_total([ep.head_s for ep in results]),
        uplink_s_mean=_mean_total([ep.comm.uplink_s for ep in results]),
        downlink_s_mean=_mean_total([ep.comm.downlink_s for ep in results]),
        rtt_s_mean=_mean_total([ep.comm.rtt_s for ep in results]),
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


def write_csv(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
