"""Aggregation of episode results into system-level metrics.

An episode is reduced once, to its ``EpisodeTotals``: the metric keys of
its ``episodes.jsonl`` line, in line order. ``episode_totals`` reduces the
``LinkBill`` of a batch of episodes, the whole ledger that one
``engine.price_link`` call returns. Integer columns are summed per episode
with ``np.add.reduceat``, which is exact in any order. Float columns are
added in round order, as Python's ``sum`` adds a list: ``np.sum`` adds
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

from .engine import LinkBill


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


def episode_totals(bill: LinkBill) -> list[EpisodeTotals]:
    """Each episode's metrics, from a batch's ``price_link`` bill.

    An episode's latency is the round-order sum of its slice of one
    ``total_s`` list; its counts are integer sums, and its aal an int
    divided by an int.
    """
    rounds = np.diff(bill.bounds)
    if not rounds.all():
        # reduceat would give an empty slice the next episode's first entry.
        raise ValueError("episode has no rounds")
    bounds, total_s = bill.bounds.tolist(), bill.total_s.tolist()

    def per_episode(column: np.ndarray) -> list[int]:
        return np.add.reduceat(column, bill.bounds[:-1]).tolist()

    return [
        EpisodeTotals(
            rounds=n,
            aal=accepted / n,
            accepted=accepted,
            tokens=accepted + n,
            latency_s=sum(total_s[lo:hi]),
            uplink_bits=up,
            downlink_bits=down,
            accepted_critical=critical,
            correct=critical == 0,
        )
        for n, lo, hi, accepted, critical, up, down in zip(
            rounds.tolist(), bounds, bounds[1:], per_episode(bill.accepted),
            per_episode(bill.accepted_critical), per_episode(bill.comm.uplink_bits),
            per_episode(bill.comm.downlink_bits))
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
