"""Aggregation of episode results into system-level metrics.

An episode is reduced once, to its ``EpisodeTotals``: the metric keys of
its ``episodes.jsonl`` line, in line order. ``episode_totals`` reduces a
batch of episodes billed in one ``engine.price_link`` call. Float columns
are added in round order, as Python's ``sum`` adds a list: ``np.sum`` adds
pairwise and ``np.add.reduceat`` in its own order, and either can move the
last digit of a written number. A sweep point is its episodes' totals in
episode order; every metric below takes them, and ``summarize`` gives the
metric columns of the point's ``results.csv`` row. A metric is defined
once, by one ``EpisodeTotals`` field and one ``summarize`` entry.

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

from .engine import LinkBill, PricedDecisions

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
class EpisodeTotals:
    """One episode's metrics: the keys of its ``episodes.jsonl`` line, in line order.

    A sweep reduces each point's billed batch to these once, and writes
    and summarizes the point from them. ``correct`` is the synthetic
    accuracy signal: the episode accepted no critical mismatch.
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


def episode_totals(batch: Sequence[PricedDecisions], link: LinkBill) -> list[EpisodeTotals]:
    """Each episode's metrics, from a batch's priced decisions and its ``price_link`` bill.

    An episode's latency is the round-order sum of its slice of one
    ``total_s`` list; its bit counts are integer sums, which are exact in
    any order.
    """
    if any(priced.n_rounds == 0 for priced in batch):
        # reduceat would give an empty slice the next episode's first entry.
        raise ValueError("episode has no rounds")
    bounds, total_s = link.bounds.tolist(), link.total_s.tolist()
    uplink_bits = np.add.reduceat(link.comm.uplink_bits, link.bounds[:-1]).tolist()
    downlink_bits = np.add.reduceat(link.comm.downlink_bits, link.bounds[:-1]).tolist()
    return [
        EpisodeTotals(
            rounds=priced.n_rounds,
            aal=priced.n_accepted / priced.n_rounds,
            accepted=priced.n_accepted,
            tokens=priced.n_tokens,
            latency_s=sum(total_s[lo:hi]),
            uplink_bits=up,
            downlink_bits=down,
            accepted_critical=priced.n_accepted_critical,
            correct=priced.n_accepted_critical == 0,
        )
        for priced, lo, hi, up, down in zip(batch, bounds, bounds[1:], uplink_bits, downlink_bits)
    ]


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
