"""Aggregation of episode results into system-level metrics.

An episode is reduced once, to its ``EpisodeTotals``: the metric keys of
its ``episodes.jsonl`` line, in line order. Float columns are added in
round order (``round_order_sum``), so the written numbers do not depend on
numpy's summation order. A sweep point is its episodes' totals in episode
order; every metric below takes them, and ``summarize`` gives the metric
columns of the point's ``results.csv`` row. A metric is defined once, by
one ``EpisodeTotals`` field and one ``summarize`` entry.

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

import numpy as np

from .engine import EpisodeResult

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


def round_order_sum(column: np.ndarray) -> float:
    """Sum of a float column in round order, as Python's ``sum`` adds it.

    ``np.sum`` adds pairwise and can move the last digit, which would
    change the written results.
    """
    return sum(column.tolist())


@dataclass(frozen=True)
class EpisodeTotals:
    """One episode's metrics: the keys of its ``episodes.jsonl`` line, in line order.

    A sweep keeps these instead of whole ``EpisodeResult``s until all of a
    point's episodes are in. ``correct`` is the synthetic accuracy signal:
    the episode accepted no critical mismatch.
    """

    rounds: int
    aal: float
    accepted: int
    tokens: int
    latency_s: float
    uplink_bits: int
    downlink_bits: int
    accepted_critical: int
    correct: bool

    @classmethod
    def of(cls, res: EpisodeResult) -> EpisodeTotals:
        if not res.n_rounds:
            raise ValueError("episode has no rounds")
        return cls(
            rounds=res.n_rounds,
            aal=res.n_accepted / res.n_rounds,
            accepted=res.n_accepted,
            tokens=res.n_tokens,
            latency_s=round_order_sum(res.total_s),
            uplink_bits=int(res.comm.uplink_bits.sum()),
            downlink_bits=int(res.comm.downlink_bits.sum()),
            accepted_critical=res.n_accepted_critical,
            correct=res.n_accepted_critical == 0,
        )


Episodes = Sequence[EpisodeTotals]


def _require(totals: Episodes) -> None:
    if not totals:
        raise ValueError("no episode results")
    if any(ep.rounds == 0 for ep in totals):
        raise ValueError("episode with zero rounds")


def aal(totals: Episodes) -> float:
    """Mean accepted length per round, averaged per episode first."""
    _require(totals)
    return sum(ep.aal for ep in totals) / len(totals)


def round_count(totals: Episodes) -> float:
    """Mean interaction rounds per episode."""
    _require(totals)
    return sum(ep.rounds for ep in totals) / len(totals)


def e2e_latency(totals: Episodes) -> float:
    """Mean per-episode wall-clock latency in seconds."""
    _require(totals)
    return sum(ep.latency_s for ep in totals) / len(totals)


def throughput(totals: Episodes) -> float:
    """Pooled accepted tokens per second across all episodes."""
    _require(totals)
    total_latency = sum(ep.latency_s for ep in totals)
    if total_latency <= 0.0:
        raise ValueError("zero total latency")
    return sum(ep.accepted for ep in totals) / total_latency


def accuracy_proxy(totals: Episodes) -> float:
    """Fraction of episodes that accepted no critical mismatch."""
    _require(totals)
    return sum(ep.correct for ep in totals) / len(totals)


def summarize(totals: Episodes) -> dict:
    """The metric columns of one sweep point's ``results.csv`` row, in column order."""
    return {
        "aal": aal(totals),
        "rounds": round_count(totals),
        "latency_s": e2e_latency(totals),
        "throughput": throughput(totals),
        "accuracy_proxy": accuracy_proxy(totals),
        "uplink_bits": sum(ep.uplink_bits for ep in totals),
        "downlink_bits": sum(ep.downlink_bits for ep in totals),
    }


def write_csv(path: str | Path, rows: list[dict], columns: list[str] = CSV_COLUMNS) -> None:
    """Write ``rows`` under ``columns``; floats as ``str``, which is their ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
