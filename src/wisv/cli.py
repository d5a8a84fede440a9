"""Experiment runner.

Subcommands mirror the pipeline stages:

    trace    collect greedy-decoding mismatch traces from the oracle
    relabel  turn traces into a link-aware training set
    train    fit the rejection head and report held-out quality
    eval     sweep modes x window sizes x channel scenarios
    ablate   compare the trained (link-aware) head with a link-blind one
             trained on the traces' base labels
    all      trace -> relabel -> train -> eval

Eval and the ablation are one sweep (``_sweep``) of (scenario, mode, k,
tau, head) points: eval's grid with the trained head, and the ablation's
scenarios at ``wisv_fh`` with two named heads, trained and link-blind.

Every command is a pure function of (config, seed): reruns produce
byte-identical output files. Outputs carry the configuration hash either
inline (JSON) or via a sibling ``*_meta.json`` (CSV, JSON-lines).
"""

from __future__ import annotations

import argparse
import bisect
import concurrent.futures
import contextlib
import dataclasses
import json
import math
import os
import struct
import sys
from collections.abc import Iterator, Sequence
from itertools import chain, product
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .channel import N_CSI_FEATURES, generate_trace, quality
from .config import (
    DATASET_SECTIONS,
    HEAD_SECTIONS,
    SEED_CHANNEL,
    SEED_EVAL,
    SEED_RELABEL,
    SEED_TRACE,
    SEED_TRAIN,
    TRACE_SECTIONS,
    ExperimentConfig,
)
from .engine import (
    LinkBill,
    PricedDecisions,
    decide,
    episode_oracle,
    head_screens,
    price_decisions,
    price_link,
)
from .head import HeadParams, forward_batch, load_params, save_params, train
from .labeler import (
    collect_traces,
    read_traces,
    relabel,
    sample_csi_states,
    write_dataset,
    read_dataset,
    write_traces,
)
from .metrics import CSV_COLUMNS, EpisodeTotals, episode_totals, summarize, write_csv
from .wire import PROTO_NAMES

TRACES = "traces.jsonl"
TRACES_META = "traces_meta.json"
DATASET = "dataset.bin"
DATASET_MANIFEST = "dataset_manifest.json"
HEAD = "head.bin"
TRAIN_REPORT = "train_report.json"
RESULTS = "results.csv"
RESULTS_META = "results_meta.json"
EPISODES_JSONL = "episodes.jsonl"
ROUNDS_JSONL = "rounds.jsonl"
PLOT_DATA = "plot_latency_vs_k.json"
ABLATE_CSV = "ablate.csv"
ABLATE_META = "ablate_meta.json"

# The ablation's two heads; eval deploys the link-aware one.
LINK_AWARE = "csi"
LINK_BLIND = "no_csi"


def _dump_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_lineage(cfg: ExperimentConfig, record: Path, sections, stage: str) -> None:
    """Refuse an artifact unless ``record`` holds ``cfg``'s hash of every section it consumed."""
    lineage = json.loads(record.read_text()).get("lineage", {}) if record.exists() else {}
    for section, expected in cfg.lineage(sections).items():
        if lineage.get(section) != expected:
            raise ValueError(f"no record in {record} matches this run's config section "
                             f"{section!r}; rerun {stage!r}")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def cmd_trace(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    eng = cfg.raw["engine"]
    episodes = collect_traces(
        cfg.raw["trace"]["episodes"],
        cfg.oracle(),
        seed=SEED_TRACE,
        window=eng["window"],
        max_tokens=eng["max_tokens"],
        prefix_len=eng["prefix_len"],
    )
    write_traces(out / TRACES, episodes)
    n_mismatch = sum(len(ep) for ep in episodes)
    n_critical = sum(int(ep.base_labels.sum()) for ep in episodes if len(ep))
    stats = {
        "episodes": len(episodes),
        "mismatches": n_mismatch,
        "critical": n_critical,
        "critical_fraction": n_critical / n_mismatch if n_mismatch else 0.0,
        "mean_mismatches_per_episode": n_mismatch / len(episodes),
        "config_hash": cfg.hash,
        "lineage": cfg.lineage(TRACE_SECTIONS),
    }
    _dump_json(out / TRACES_META, stats)
    print(
        f"trace: {stats['episodes']} episodes, {n_mismatch} mismatches, "
        f"critical fraction {stats['critical_fraction']:.4f}"
    )
    return stats


# ---------------------------------------------------------------------------
# relabel
# ---------------------------------------------------------------------------


def _load_traces(cfg: ExperimentConfig, out: Path) -> list:
    """The trace file's episodes, refused unless 'trace' wrote them under this config."""
    traces_path = out / TRACES
    if not traces_path.exists():
        raise FileNotFoundError(f"missing trace file {traces_path}; run 'trace' first")
    _check_lineage(cfg, out / TRACES_META, TRACE_SECTIONS, "trace")
    episodes = read_traces(traces_path, n_episodes=cfg.raw["trace"]["episodes"])
    if sum(len(ep) for ep in episodes) == 0:
        raise ValueError("trace set contains no mismatches; no head can learn from it")
    return episodes


def cmd_relabel(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    episodes = _load_traces(cfg, out)
    rcfg = cfg.relabel()
    bounds = cfg.bounds()
    relabel_channel = cfg.channel(cfg.raw["labeler"]["channel"])
    rng = np.random.default_rng([cfg.seed, SEED_RELABEL])
    qualities = []

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # One episode's rows at a time: write_dataset writes each block as it
        # is made, so the feature matrix is never held whole.
        for ep in episodes:
            # Drawn even for an episode without mismatches: the rng stream, and
            # so the dataset, must not depend on which episodes are empty.
            samples = sample_csi_states(relabel_channel, rcfg.csi_samples_per_episode, rng)
            x, y, sample_ids = relabel(ep, samples, rcfg, bounds, rng)
            if len(y):
                qualities.append(quality(samples, bounds)[sample_ids])
                yield x, y

    feature_dim, y = write_dataset(out / DATASET, blocks())
    q = np.concatenate(qualities)

    edges = np.linspace(0.0, 1.0, 6)
    buckets = {}
    for i in range(5):
        mask = (q >= edges[i]) & (q < edges[i + 1] if i < 4 else q <= edges[i + 1])
        key = f"q_{edges[i]:.1f}_{edges[i + 1]:.1f}"
        buckets[key] = {
            "instances": int(mask.sum()),
            "positive_rate": float(y[mask].mean()) if mask.any() else None,
        }
    manifest = {
        "instances": int(len(y)),
        "feature_dim": feature_dim,
        "positives": int(y.sum()),
        "positive_rate": float(y.mean()),
        "per_quality_bucket": buckets,
        "config_hash": cfg.hash,
        "lineage": cfg.lineage(DATASET_SECTIONS),
    }
    _dump_json(out / DATASET_MANIFEST, manifest)
    print(
        f"relabel: {manifest['instances']} instances, dim {manifest['feature_dim']}, "
        f"positive rate {manifest['positive_rate']:.4f}"
    )
    return manifest


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with average ranks for ties.

    The sorted scores at positions i..j (0-based) of one tie group all rank
    0.5 * (i + j) + 1.
    """
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    opens_group = np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]])
    first = np.flatnonzero(opens_group)
    last = np.append(first[1:], len(scores)) - 1
    ranks = np.empty(len(scores))
    ranks[order] = (0.5 * (first + last) + 1.0)[np.cumsum(opens_group) - 1]
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def cmd_train(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    dataset_path = out / DATASET
    if not dataset_path.exists():
        raise FileNotFoundError(f"missing dataset {dataset_path}; run 'relabel' first")
    _check_lineage(cfg, out / DATASET_MANIFEST, DATASET_SECTIONS, "relabel")
    x, y = read_dataset(dataset_path)
    tcfg = cfg.train()
    if tcfg.learning_rate == 0.0:
        print("warning: learning rate is 0; parameters will not move", file=sys.stderr)

    rng = np.random.default_rng([cfg.seed, SEED_TRAIN])
    order = rng.permutation(len(y))
    fraction = cfg.raw["train"]["holdout_fraction"]
    n_hold = int(round(fraction * len(y)))
    hold, keep = order[:n_hold], order[n_hold:]
    n_pos = int(y[hold].sum())
    if n_pos in (0, n_hold):
        # The holdout AUC needs both classes; refuse before training, not after.
        raise ValueError(
            f"the holdout set of {n_hold} of {len(y)} instances has {n_pos} positive and "
            f"{n_hold - n_pos} negative instances, but its AUC needs both classes; "
            f"raise train.holdout_fraction (now {fraction})"
        )
    params, report = train(x[keep], y[keep], tcfg)

    s_hold, p_hold = forward_batch(params, x[hold])
    hold_acc = float(np.mean((s_hold >= 0.0) == (y[hold] == 1.0)))
    hold_auc = _auc(p_hold, y[hold])
    meta = {
        "config_hash": cfg.hash,
        "train_instances": int(len(keep)),
        "holdout_instances": int(len(hold)),
        "pos_weight": report.pos_weight,
        "final_train_loss": report.epoch_losses[-1],
        "final_train_accuracy": report.final_train_accuracy,
        "holdout_accuracy": hold_acc,
        "holdout_auc": hold_auc,
        "lineage": cfg.lineage(HEAD_SECTIONS),
    }
    save_params(out / HEAD, params, metadata=meta)
    _dump_json(out / TRAIN_REPORT, {**meta, "epoch_losses": report.epoch_losses})
    print(
        f"train: loss {meta['final_train_loss']:.4f}, "
        f"holdout acc {hold_acc:.4f}, holdout auc {hold_auc:.4f}"
    )
    return meta


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


# JSON text of each protocol code in a round line.
_PROTO_JSON = tuple(json.dumps(name) for name in PROTO_NAMES)
_DOUBLE, _INT64 = struct.Struct("d"), struct.Struct("q")


def _line_prefix(key: dict) -> str:
    """The JSON text a line of ``key`` starts with: its members and a comma."""
    return json.dumps(key, separators=(",", ":"))[:-1] + ","


def _float_json(bits: int) -> str:
    """The JSON text of the float whose IEEE 754 bits, read as an int64, are ``bits``."""
    return repr(_DOUBLE.unpack(_INT64.pack(bits))[0])


class _Memo(dict):
    """``memo[key]`` is ``render(key)``, rendered the first time ``key`` is asked for."""

    __slots__ = ("render",)

    def __init__(self, render) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key) -> str:
        text = self[key] = self.render(key)
        return text


class _Texts:
    """JSON texts of numbers, each distinct number rendered once.

    Ints and floats have memos of their own, because ``1 == 1.0`` although
    their texts differ. A float is keyed by its bits, so ``-0.0`` never gets
    the text of ``0.0``; a bool is written as ``true`` or ``false`` and never
    reaches the int memo (``True == 1``). ``chunks[chunk]`` fills one of
    ``_ROUND_CHUNKS`` once per distinct tuple of member texts. Each scope
    makes its own: one per sweep block, one for an eval's episode lines.
    None outlives its scope.
    """

    def __init__(self) -> None:
        self.ints = _Memo(int.__repr__)
        self.floats = _Memo(_float_json)
        self.chunks = {chunk: _Memo(chunk.__mod__) for chunk in _ROUND_CHUNKS}

    def column(self, column: np.ndarray) -> list[str]:
        """The text of each entry of an integer or float64 column, in order."""
        if column.dtype == np.float64:
            return list(map(self.floats.__getitem__, column.view(np.int64).tolist()))
        if column.dtype.kind in "iu":
            return list(map(self.ints.__getitem__, column.tolist()))
        raise TypeError(f"no JSON number text for a column of dtype {column.dtype}")

    def scalar(self, value: bool | int | float) -> str:
        """The text of one bool, int or finite float; a non-finite float raises."""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return self.ints[value]
        if not math.isfinite(value):
            raise ValueError(f"JSON cannot encode {value}")
        return self.floats[_INT64.unpack(_DOUBLE.pack(value))[0]]


# An episodes.jsonl line after its point's members: the episode, then
# EpisodeTotals' fields in order.
_EPISODE_TEMPLATE = "%s\"episode\":%d," + ",".join(
    f'"{field.name}":%s' for field in dataclasses.fields(EpisodeTotals)) + "}\n"


def _episode_line(point_prefix: str, episode: int, totals: EpisodeTotals, texts: _Texts) -> str:
    """The ``episodes.jsonl`` line of one episode of a point whose ``_line_prefix`` is
    ``point_prefix``: compact ``json.dumps({**key, "episode": episode, **vars(totals)})``.

    A non-finite float, which JSON writes as ``NaN``, raises.
    """
    values = vars(totals)
    try:
        return _EPISODE_TEMPLATE % (point_prefix, episode, *map(texts.scalar, values.values()))
    except ValueError:
        name = next(name for name, value in values.items() if not math.isfinite(value))
        raise ValueError(f"episode column {name!r} of episode {episode} holds a "
                         "non-finite value, which JSON cannot encode") from None


def _column_texts(texts: _Texts, columns: dict, bounds: Sequence[int],
                  episodes: Sequence[int]) -> list[list[str]]:
    """The JSON texts of round columns, one list per column; a list already holds texts.

    The columns hold a batch of episodes back to back: episode
    ``episodes[e]`` holds entries ``bounds[e]:bounds[e + 1]``. A non-finite
    float, which JSON writes as ``NaN``, raises, naming the episode that
    holds it.
    """
    values = []
    for name, column in columns.items():
        if not isinstance(column, list):
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                at = int(np.flatnonzero(~np.isfinite(column))[0])
                episode = episodes[bisect.bisect_right(bounds, at) - 1]
                raise ValueError(f"round column {name!r} of episode {episode} holds a "
                                 "non-finite value, which JSON cannot encode")
            column = texts.column(column)
        values.append(column)
    return values


# A round line after the point's members, split at the five slots its link
# fills: each chunk is a ``%`` format of the decision's members it holds.
_ROUND_CHUNKS = (
    '"round":%s,"m":%s,"reject_pos":%s,"accepted":%s,"committed":%s,"proto":',
    ',"uplink_bits":',
    ',"downlink_bits":',
    ',"draft_s":%s,"verify_s":%s,"head_s":%s,"comm_s":',
    ',"total_s":',
    ',"accepted_critical":%s}\n',
)
# An episode's lines as one list: per round, the point's prefix slot, then
# each chunk followed by the slot after it; slots sit at the even entries.
_ROUND_STRIDE = 2 * len(_ROUND_CHUNKS)


def _round_template(episode: int, priced: PricedDecisions, texts: _Texts) -> list:
    """The ``rounds.jsonl`` lines of one episode's priced decisions, pre-split into chunks.

    Rendered once per decision, with ``texts``: the list holds
    ``_ROUND_CHUNKS`` filled with each round's decision members, and
    leaves each slot a point fills (its key prefix and its link's members)
    None, for ``_round_lines`` to fill per point.
    """
    n = priced.n_rounds
    # The decision's members, in line order.
    columns = iter(_column_texts(texts, {
        "round": np.arange(n),
        "m": priced.m,
        "reject_pos": ["null" if j < 0 else texts.ints[j] for j in priced.reject_pos.tolist()],
        "accepted": priced.accepted,
        "committed": priced.committed,
        "draft_s": priced.draft_s,
        "verify_s": priced.verify_s,
        "head_s": priced.head_s,
        "accepted_critical": priced.accepted_critical,
    }, [0, n], [episode]))
    chunks: list = [None] * (_ROUND_STRIDE * n)
    for i, chunk in enumerate(_ROUND_CHUNKS):
        own = [next(columns) for _ in range(chunk.count("%s"))]
        # Each distinct chunk is made once: rounds repeat chunks across the
        # block's episodes and decisions, and the block holds every template
        # until its last point.
        chunks[2 * i + 1::_ROUND_STRIDE] = (
            list(map(texts.chunks[chunk].__getitem__, zip(*own))) if own else [chunk] * n)
    return chunks


def _round_lines(point: dict, templates: Sequence[list], link: LinkBill, texts: _Texts,
                 first_episode: int = 0) -> Iterator[str]:
    """One point's ``rounds.jsonl`` lines, one string per episode of its batch.

    The batch holds the sweep's episodes ``first_episode`` on, in order.
    Episode e's lines are compact ``json.dumps({**point, "episode": e,
    "round": r, **columns})``: ``templates[i]`` is the ``_round_template``
    of the priced decisions the batch's i-th episode was billed from, and
    ``link`` the batch's bill. Each link column is rendered with ``texts``
    into one list, checked before any line is made, and each episode's
    lines are its template's chunks joined with its slice of them.
    """
    comm, bounds = link.comm, link.bounds.tolist()
    episodes = range(first_episode, first_episode + len(templates))
    point_prefix = _line_prefix(point)
    # The link's members, in line order.
    columns = _column_texts(texts, {
        "proto": list(map(_PROTO_JSON.__getitem__, link.proto.tolist())),
        "uplink_bits": comm.uplink_bits,
        "downlink_bits": comm.downlink_bits,
        "comm_s": comm.total_s,
        "total_s": link.total_s,
    }, bounds, episodes)
    for episode, template, lo, hi in zip(episodes, templates, bounds, bounds[1:]):
        parts = template.copy()
        # The prefix of {**point, "episode": episode}: an int's JSON text is its str.
        parts[::_ROUND_STRIDE] = [f'{point_prefix}"episode":{episode},'] * (hi - lo)
        for slot, column in enumerate(columns, 1):
            parts[2 * slot::_ROUND_STRIDE] = column[lo:hi]
        yield "".join(parts)


def _sweep_points(sweep: dict) -> list[tuple]:
    """Eval's sweep points ``(scenario index, mode, k, tau, head)``, in output order.

    Every point names the deployed head, which only the head-verified modes read.
    """
    return list(product(range(len(sweep["scenarios"])), sweep["modes"], sweep["k_values"],
                        sweep["tau_values"], [LINK_AWARE]))


def _decision_key(s_idx: int, mode: str, k: int, tau: float, head: str) -> tuple:
    """The key of the decision a sweep point is billed from.

    Per window, ``sd_greedy`` and ``sd_reject`` read neither the channel,
    tau nor a head, so each decides once; the head-verified modes decide
    once per (scenario, tau, head), shared by FH, SH and adaptive.
    """
    return (k, s_idx, tau, head) if mode.startswith("wisv") else (k, mode)


def _eval_point(payload: dict) -> tuple[dict, dict]:
    """Decide the sweep points of one episode. Must stay picklable.

    The episode builds one oracle, for the points' largest window, one
    channel trace per scenario the points use, and each of the payload's
    heads screens each trace. Each distinct decision (``_decision_key``) is
    decided and priced (``price_decisions``) once, and its round lines are
    rendered (``_round_template``) with the block's ``payload["texts"]``
    unless that is None. Returns the traces by scenario index, and
    ``(priced, template or None)`` per decision key.
    """
    cfg = ExperimentConfig(raw=payload["raw"])
    ep, points = payload["episode"], payload["points"]
    system = cfg.system()
    oracle = episode_oracle(
        cfg.oracle(), cfg.engine(window=max(k for _, _, k, _, _ in points)), [SEED_EVAL, ep],
        with_distributions=any(mode == "sd_reject" for _, mode, *_ in points),
    )
    # Deduplicated first: one trace per scenario, not one per point.
    scenarios, rounds = cfg.raw["sweep"]["scenarios"], cfg.raw["engine"]["max_tokens"]
    traces = {s_idx: generate_trace(cfg.channel(scenarios[s_idx]),
                                    [cfg.seed, SEED_CHANNEL, s_idx, ep], rounds=rounds)
              for s_idx in dict.fromkeys(s_idx for s_idx, *_ in points)}
    screens = {(name, s_idx): screen for name, head in payload["heads"].items()
               for s_idx, screen in zip(traces, head_screens(
                   head, oracle, list(traces.values()), system.bounds))}
    decided: dict = {}
    for point in points:
        s_idx, mode, k, tau, head = point
        key = _decision_key(*point)
        if key not in decided:
            engine_cfg = cfg.engine(mode=mode, window=k, tau=tau)
            screen = screens[head, s_idx] if mode.startswith("wisv") else None
            priced = price_decisions(system, engine_cfg, decide(engine_cfg, oracle, screen))
            texts = payload["texts"]
            decided[key] = priced, (None if texts is None else _round_template(ep, priced, texts))
    return traces, decided


def _point_key(scenarios: Sequence[dict], point: tuple) -> dict:
    """The members every output line of a sweep point starts with."""
    s_idx, mode, k, tau, _ = point
    return {"scenario": scenarios[s_idx]["name"], "mode": mode, "k": k, "tau": tau}


def _sweep_block(payload: dict, rounds: BinaryIO | None) -> Iterator[list[EpisodeTotals]]:
    """Run the sweep's points over one block of episodes: each point's totals, in point order.

    ``_eval_point`` decides each episode of the block (``payload["episodes"]``,
    a range), screening with ``payload["heads"]``. Then each point prices
    its link once over the block's episodes and reduces that ``LinkBill``
    once to their ``EpisodeTotals``. If ``rounds`` is given, the point's
    round lines are written to it before its totals are yielded; the block
    renders each distinct number of its lines once, with its own ``_Texts``.
    """
    cfg = ExperimentConfig(raw=payload["raw"])
    block, points = payload["episodes"], payload["points"]
    texts = None if rounds is None else _Texts()
    results = [_eval_point({"raw": payload["raw"], "episode": ep, "points": points,
                            "heads": payload["heads"], "texts": texts})
               for ep in block]
    traces = [episode_traces for episode_traces, _ in results]
    decided = [episode_decided for _, episode_decided in results]
    # A decision key's batch is freed after its last point.
    last_point = {_decision_key(*point): i for i, point in enumerate(points)}
    system, scenarios = cfg.system(), cfg.raw["sweep"]["scenarios"]
    for i, point in enumerate(points):
        s_idx, mode, k, tau, _ = point
        key = _decision_key(*point)
        batch, templates = zip(*(episode_decided[key] for episode_decided in decided))
        link = price_link(system, cfg.engine(mode=mode, window=k, tau=tau), batch,
                          [episode_traces[s_idx] for episode_traces in traces])
        if rounds is not None:
            rounds.writelines(lines.encode() for lines in _round_lines(
                _point_key(scenarios, point), templates, link, texts, first_episode=block.start))
        yield episode_totals(batch, link)
        if last_point[key] == i:
            for episode_decided in decided:
                del episode_decided[key]


def _sweep_worker(payload: dict, scratch: Path | None) -> list[tuple[int, list[EpisodeTotals]]]:
    """Run one block in a worker process. Must stay picklable.

    The block's round lines go to the file ``scratch``, if one is named.
    Returns, per point, the byte offset at which its lines end in that file
    (0 without one) and its totals.
    """
    if scratch is None:
        return [(0, totals) for totals in _sweep_block(payload, None)]
    with open(scratch, "wb") as rounds:
        return [(rounds.tell(), totals) for totals in _sweep_block(payload, rounds)]


def _blocks(episodes: int, jobs: int) -> list[range]:
    """``range(episodes)`` split into ``min(jobs, episodes)`` contiguous blocks.

    Block sizes differ by at most one, the larger blocks first.
    """
    n_blocks = min(jobs, episodes)
    size, larger = divmod(episodes, n_blocks)
    starts = [b * size + min(b, larger) for b in range(n_blocks + 1)]
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:])]


def _sweep(cfg: ExperimentConfig, points: Sequence[tuple], heads: dict[str, HeadParams],
           episodes: int, jobs: int, rounds: BinaryIO | None = None) -> Iterator[tuple]:
    """Run ``points`` over ``episodes`` episodes: ``(point, totals)`` per point, in order.

    The episodes are split into ``min(jobs, episodes)`` blocks, each run by
    ``_sweep_block``. One block runs in this process and writes each point's
    round lines straight to ``rounds``. Otherwise each block runs in its
    own worker process and writes its lines to a scratch file named after
    ``rounds``; per point, the blocks' segments are then copied to
    ``rounds`` in block order and their totals joined in episode order. The
    scratch files are removed however the sweep ends. Without ``rounds`` no
    lines are rendered, and the blocks return totals only.
    """
    blocks = _blocks(episodes, jobs)
    payloads = [{"raw": cfg.raw, "episodes": block, "points": points, "heads": heads}
                for block in blocks]
    if len(blocks) == 1:
        yield from zip(points, _sweep_block(payloads[0], rounds))
        return
    scratch = [None if rounds is None else Path(f"{rounds.name}.{b}") for b in range(len(blocks))]
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(_sweep_worker, payloads, scratch))
        with contextlib.ExitStack() as stack:
            segments = [stack.enter_context(open(path, "rb")) for path in scratch if path]
            for point, per_block in zip(points, zip(*results)):
                for segment, (end, _) in zip(segments, per_block):
                    rounds.write(segment.read(end - segment.tell()))
                yield point, list(chain.from_iterable(totals for _, totals in per_block))
    finally:
        for path in scratch:
            if path:
                path.unlink(missing_ok=True)


@contextlib.contextmanager
def _replaced_on_success(path: Path) -> Iterator[BinaryIO]:
    """A binary file that replaces ``path`` when the block ends, or is removed if the block raises.

    It is written under a temporary name beside ``path``, so a failed run
    leaves no half-written file under ``path``'s name.
    """
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "wb") as fh:
            yield fh
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, path)


def _load_head(cfg: ExperimentConfig, head_path: Path) -> HeadParams:
    """Load the trained head and check it takes this config's feature vector."""
    if not head_path.exists():
        raise FileNotFoundError(f"missing head parameters {head_path}; run 'train' first")
    head = load_params(head_path)
    if head.d_in != cfg.feature_dim():
        raise ValueError(
            f"head {head_path} takes {head.d_in} input features, but this config "
            f"gives {cfg.feature_dim()} (oracle.d_h_draft + oracle.d_h_target + "
            f"{N_CSI_FEATURES} CSI features); rerun 'train'"
        )
    _check_lineage(cfg, head_path.with_name(head_path.name + ".json"), HEAD_SECTIONS, "train")
    return head


def cmd_eval(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> list[dict]:
    sweep = cfg.raw["sweep"]
    needs_head = any(m.startswith("wisv") for m in sweep["modes"])
    heads = {LINK_AWARE: _load_head(cfg, out / HEAD)} if needs_head else {}
    rows = []
    first_tau = sweep["tau_values"][0]
    plot: dict = {"config_hash": cfg.hash, "tau": first_tau, "panels": {}}
    # The episode lines' own memo: each distinct number is rendered once per eval.
    texts = _Texts()
    with (_replaced_on_success(out / EPISODES_JSONL) as ef,
          _replaced_on_success(out / ROUNDS_JSONL) as rf):
        for point, totals in _sweep(cfg, _sweep_points(sweep), heads, sweep["episodes"], jobs, rf):
            s_idx, mode, k, tau, _ = point
            scenario = sweep["scenarios"][s_idx]
            prefix = _line_prefix(_point_key(sweep["scenarios"], point))
            ef.writelines(_episode_line(prefix, ep, ep_totals, texts).encode()
                          for ep, ep_totals in enumerate(totals))
            row = {"mode": mode, "k": k, "tau": tau, "rate_bps": scenario["rate_up_bps"],
                   "rtt_s": scenario["rtt_s"], **summarize(totals)}
            rows.append(row)
            if tau == first_tau:
                panel = plot["panels"].setdefault(scenario["name"], {})
                series = panel.setdefault(mode, {"k": [], "latency_s": []})
                series["k"].append(k)
                series["latency_s"].append(row["latency_s"])
    write_csv(out / RESULTS, rows)
    _dump_json(out / PLOT_DATA, plot)
    _dump_json(
        out / RESULTS_META,
        {"config_hash": cfg.hash, "rows": len(rows), "columns": list(rows[0].keys())},
    )
    print(f"eval: {len(rows)} sweep points -> {out / RESULTS}")
    return rows


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def _link_blind_head(cfg: ExperimentConfig, out: Path) -> HeadParams:
    """The ablation's link-blind head, trained on the traces' base labels.

    It is trained with the CSI slot zeroed, then deployed with its CSI
    weights zeroed, so it reads no link state. The traces are freed when it
    returns, before any sweep runs.
    """
    episodes = _load_traces(cfg, out)
    x_base = np.vstack(
        [np.hstack([ep.h_draft, ep.h_target, np.zeros((len(ep), N_CSI_FEATURES))])
         for ep in episodes]
    )
    y_base = np.concatenate([ep.base_labels for ep in episodes]).astype(np.float64)
    params, _ = train(x_base, y_base, cfg.train())
    params.w1[:, -N_CSI_FEATURES:] = 0.0
    return params


def cmd_ablate(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    # The link-aware variant is the head 'train' wrote, which eval deploys.
    heads = {LINK_AWARE: _load_head(cfg, out / HEAD), LINK_BLIND: _link_blind_head(cfg, out)}
    abl = cfg.raw["ablate"]
    scenarios = cfg.raw["sweep"]["scenarios"]
    s_indices = {s["name"]: s_idx for s_idx, s in enumerate(scenarios)}
    # Eval's sweep over both heads: per scenario, one point per variant.
    points = list(product([s_indices[s_name] for s_name in abl["scenarios"]], ["wisv_fh"],
                          [abl["k"]], [abl["tau"]], heads))
    rows = []
    aals: dict = {}
    paired: dict = {"config_hash": cfg.hash, "scenarios": {}}
    for (s_idx, mode, k, tau, variant), totals in _sweep(cfg, points, heads, abl["episodes"], jobs):
        scenario = scenarios[s_idx]
        row = {"variant": variant, "mode": mode, "k": k, "tau": tau,
               "rate_bps": scenario["rate_up_bps"], "rtt_s": scenario["rtt_s"],
               **summarize(totals)}
        rows.append(row)
        aals[scenario["name"], variant] = a = np.array([ep.aal for ep in totals])
        paired["scenarios"].setdefault(scenario["name"], {})[variant] = {
            "aal_mean": float(a.mean()),
            "aal_std": float(a.std(ddof=1)),
            "aal_sem": float(a.std(ddof=1) / np.sqrt(len(a))),
            "latency_mean_s": row["latency_s"],
            "accuracy_proxy": row["accuracy_proxy"],
        }
    for s_name, per_variant in paired["scenarios"].items():
        # Both variants run the same episodes: the per-episode difference
        # cancels the episode-to-episode spread the unpaired SEMs carry.
        diff = aals[s_name, LINK_AWARE] - aals[s_name, LINK_BLIND]
        per_variant["aal_diff_sem"] = float(diff.std(ddof=1) / np.sqrt(len(diff)))

    write_csv(out / ABLATE_CSV, rows, ["variant", *CSV_COLUMNS])
    _dump_json(out / ABLATE_META, paired)
    for s_name, pv in paired["scenarios"].items():
        print(
            f"ablate[{s_name}]: csi aal {pv['csi']['aal_mean']:.3f} "
            f"vs no-csi {pv['no_csi']['aal_mean']:.3f} (paired diff SEM {pv['aal_diff_sem']:.3f})"
        )
    return paired


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "trace": cmd_trace,
    "relabel": cmd_relabel,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def cmd_all(cfg: ExperimentConfig, out: Path, jobs: int = 1):
    cmd_trace(cfg, out, jobs)
    cmd_relabel(cfg, out, jobs)
    cmd_train(cfg, out, jobs)
    return cmd_eval(cfg, out, jobs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wisv",
        description="Wireless device-edge speculative decoding simulator",
    )
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=Path, default=None, help="output directory override")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")

    try:
        cfg = ExperimentConfig.load(args.config, seed=args.seed)
        out = args.out if args.out is not None else Path(cfg.raw["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "all":
            cmd_all(cfg, out, args.jobs)
        else:
            COMMANDS[args.command](cfg, out, args.jobs)
    except Exception as exc:  # noqa: BLE001 - single CLI failure surface
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
