"""Aggregation of episode results into system-level metrics.

An episode is reduced once, to its ``EpisodeTotals``: the metric keys of
its ``episodes.jsonl`` line, in line order. ``episode_totals`` reduces a
batch of episodes billed in one ``engine.price_link`` call. Float columns
are added in round order, as Python's ``sum`` adds a list: ``np.sum`` adds
pairwise and ``np.add.reduceat`` in its own order, and either can move the
last digit of a written number. A sweep point is its episodes' totals in
episode order, and ``summarize`` of them is the metric columns of the
point's ``results.csv`` row. A metric is defined once, by one
``EpisodeTotals`` field or one ``summarize`` entry; ``write_csv`` takes its
header from the row's keys, and an ``episodes.jsonl`` line is the totals'
fields, so neither restates the list.

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


def summarize(totals: Sequence[EpisodeTotals]) -> dict:
    """The metric columns of one sweep point's ``results.csv`` row, in column order.

    ``aal`` is the mean of the episodes' accepted lengths per round,
    ``rounds`` and ``latency_s`` are means per episode, ``throughput`` is
    the pooled accepted tokens per second, ``accuracy_proxy`` is the
    fraction of episodes that accepted no critical mismatch, and the bit
    columns are totals over the point's episodes.
    """
    if not totals:
        raise ValueError("no episode results")
    if any(ep.rounds == 0 for ep in totals):
        raise ValueError("episode with zero rounds")
    n, latency_s = len(totals), sum(ep.latency_s for ep in totals)
    if latency_s <= 0.0:
        raise ValueError("zero total latency")
    return {
        "aal": sum(ep.aal for ep in totals) / n,
        "rounds": sum(ep.rounds for ep in totals) / n,
        "latency_s": latency_s / n,
        "throughput": sum(ep.accepted for ep in totals) / latency_s,
        "accuracy_proxy": sum(ep.correct for ep in totals) / n,
        "uplink_bits": sum(ep.uplink_bits for ep in totals),
        "downlink_bits": sum(ep.downlink_bits for ep in totals),
    }


def write_csv(path: str | Path, rows: list[dict]) -> None:
    """Write ``rows`` under the first row's keys; floats as ``str``, which is their ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
