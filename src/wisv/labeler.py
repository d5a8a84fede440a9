"""Training-set construction: trace collection and cost-aware relabeling.

Stage 1 decodes episodes with the engine's own kernel under greedy
verification and keeps every materialized mismatch as a column entry
(position, token IDs, both hidden states, and the oracle's criticality
latent as the base label).

Stage 2 relaxes those base labels per sampled link condition: a smoothed
importance score spreads criticality to nearby mismatches, a link-dependent
multiplier lambda(q) rises as quality drops, and each mismatch keeps its
repair label with probability b_t * sigmoid((b_smooth_t - lambda) / rho).
Relaxation is one-way: a mismatch that was not critical is never repaired.
An exact budgeted solver is included as the reference optimum the soft
policy approximates.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, CsiState, NormalizationBounds, features, quality, sampled_states
from .columns import read_columns, write_columns
from .engine import EngineConfig, EpisodeColumns, Lane, decide, episode_oracle
from .head import sigmoid
from .oracle import OracleConfig


@dataclass(frozen=True)
class Episode:
    """The mismatches of one greedy decoding episode, as columns in position order.

    Entry t of every column belongs to the episode's t-th mismatch: its
    absolute position, the draft and target tokens there, its base label
    (the oracle's 0/1 criticality latent) and its hidden rows. ``h_draft``
    and ``h_target`` are (n, d) arrays, also when n is 0.
    """

    episode_id: int
    positions: np.ndarray
    draft_tokens: np.ndarray
    target_tokens: np.ndarray
    base_labels: np.ndarray
    h_draft: np.ndarray
    h_target: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class RelabelConfig:
    """Smoothing, policy sharpness, and link-to-multiplier map settings."""

    alpha: float = 0.5
    rho: float = 0.1
    lambda_hi: float = 0.8
    lambda_lo: float = 0.2
    csi_samples_per_episode: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 0.0 <= self.lambda_lo <= self.lambda_hi:
            raise ValueError("need 0 <= lambda_lo <= lambda_hi")


# Episodes per ``decide`` call in ``collect_traces``. A call holds all its
# lanes' round columns and the rows kept for its episodes at once: one call
# over the 400 calibration episodes raised the calibrate workload's peak RSS
# from about 60.1 MB (one episode per call) to 62.2 MB, while calls of 32
# keep it at about 59.6 MB and cost the trace stage no time.
EPISODES_PER_CALL = 32


def collect_traces(
    n_episodes: int,
    oracle_cfg: OracleConfig,
    seed: int,
    engine_cfg: EngineConfig = EngineConfig(),
) -> list[Episode]:
    """Decode episodes under greedy verification and keep each materialized mismatch.

    ``engine_cfg``'s window, token budget and prefix length set the
    decoding; its mode is replaced by ``sd_greedy``. Episode ``ep`` is
    decided on the oracle seeded ``[seed, ep]``, as one lane of a
    ``decide`` call over up to ``EPISODES_PER_CALL`` consecutive episodes.
    A greedy round rejects at its first mismatch, so the rounds that
    reject name every mismatch the decoding meets exactly once, in
    increasing position order. Each oracle is freed once its mismatch
    columns, and its rows at the mismatches a round can reject at, are
    kept; the episode's columns are those rows at the rejected positions.
    """
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    engine_cfg = replace(engine_cfg, mode="sd_greedy")
    # A round starts before the budget's end and rejects inside its window.
    prefix = engine_cfg.prefix_len
    reach = slice(prefix, prefix + engine_cfg.max_tokens + engine_cfg.window)
    episodes = []
    for first in range(0, n_episodes, EPISODES_PER_CALL):
        lanes, kept = [], []
        for ep in range(first, min(first + EPISODES_PER_CALL, n_episodes)):
            oracle = episode_oracle(oracle_cfg, engine_cfg, [seed, ep], False)
            at = np.flatnonzero(oracle.mismatch[reach]) + prefix
            lanes.append(Lane(engine_cfg, EpisodeColumns.of(oracle)))
            kept.append((at, oracle.draft_tokens[at], oracle.target_tokens[at], oracle.crit[at],
                         oracle.h_draft[at], oracle.h_target[at]))
        del oracle
        decisions = decide(lanes)
        del lanes
        bounds = decisions.bounds.tolist()
        for j, (at, draft, target, crit, h_draft, h_target) in enumerate(kept):
            lo, hi = bounds[j], bounds[j + 1]
            rejects = decisions.reject_pos[lo:hi] >= 0
            pos = decisions.start[lo:hi][rejects] + decisions.reject_pos[lo:hi][rejects]
            rows = np.searchsorted(at, pos)
            episodes.append(Episode(first + j, pos, draft[rows], target[rows],
                                    crit[rows].astype(np.int64), h_draft[rows], h_target[rows]))
    return episodes


def smooth(b: np.ndarray, alpha: float) -> np.ndarray:
    """Exponentially spread importance: max over critical k of alpha^|t-k|.

    A sequence with no critical entry smooths to all zeros.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    b = np.asarray(b)
    ones = np.nonzero(b == 1)[0]
    if ones.size == 0:
        return np.zeros(len(b), dtype=np.float64)
    t = np.arange(len(b))
    dist = np.min(np.abs(t[:, None] - ones[None, :]), axis=1)
    return alpha ** dist.astype(np.float64)


def solve_budget_exact(b: np.ndarray, b_smooth: np.ndarray, budget: int) -> np.ndarray:
    """Optimal repair actions for the budgeted objective.

    Minimizes sum (b_t - a_t) * b_smooth_t subject to sum a_t <= budget and
    a_t <= b_t. The objective separates, so the optimum repairs the
    eligible positions with the largest smoothed scores; ties break toward
    the lowest index.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    b = np.asarray(b)
    b_smooth = np.asarray(b_smooth, dtype=np.float64)
    actions = np.zeros(len(b), dtype=np.int64)
    eligible = np.nonzero(b == 1)[0]
    if eligible.size == 0 or budget == 0:
        return actions
    order = sorted(eligible, key=lambda i: (-b_smooth[i], i))
    actions[order[: min(budget, len(order))]] = 1
    return actions


def soft_policy(b_t, b_smooth_t, lam: float, rho: float):
    """Repair probability b_t * sigmoid((b_smooth_t - lambda) / rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return np.asarray(b_t, dtype=np.float64) * sigmoid(
        (np.asarray(b_smooth_t, dtype=np.float64) - lam) / rho
    )


def lambda_of_csi(q: float, lambda_hi: float, lambda_lo: float) -> float:
    """Repair-threshold multiplier, decreasing linearly in channel quality."""
    if not 0.0 <= lambda_lo <= lambda_hi:
        raise ValueError("need 0 <= lambda_lo <= lambda_hi")
    return lambda_hi - (lambda_hi - lambda_lo) * q


def relabel(
    episode: Episode,
    csi_samples: CsiState,
    cfg: RelabelConfig,
    bounds: NormalizationBounds,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample repair actions per CSI draw and emit supervised instances.

    ``csi_samples`` holds one array entry per CSI draw. Returns (features,
    labels, CSI sample ids) with one row per (CSI sample, mismatch) pair,
    ordered by sample and then by mismatch, and draws one uniform per row
    in that order. A feature row is [h_draft; h_target; CSI features].
    Every label is <= its base label (the b_t gate inside the soft policy
    never repairs a non-critical mismatch). An episode without mismatches
    yields empty arrays and draws nothing from ``rng``.
    """
    n = len(episode)
    if n == 0:
        return np.empty((0, 0)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    b = episode.base_labels
    b_smooth = smooth(b, cfg.alpha)
    lam = lambda_of_csi(quality(csi_samples, bounds), cfg.lambda_hi, cfg.lambda_lo)
    pi = soft_policy(b, b_smooth, lam[:, None], cfg.rho)
    labels = (rng.random(pi.shape) < pi).astype(np.int64).ravel()
    csi = features(csi_samples, bounds)
    h_d, h_t = episode.h_draft, episode.h_target
    # Filled in place: copies of the hidden rows per sample would be freed
    # temporaries, and they fragment the heap across episodes.
    feats = np.empty((len(csi), n, h_d.shape[1] + h_t.shape[1] + csi.shape[1]))
    feats[:, :, : h_d.shape[1]] = h_d
    feats[:, :, h_d.shape[1] : -csi.shape[1]] = h_t
    feats[:, :, -csi.shape[1] :] = csi[:, None, :]
    return feats.reshape(len(csi) * n, -1), labels, np.repeat(np.arange(len(csi)), n)


def sample_csi_states(channel_cfg: ChannelConfig, n: int, rng: np.random.Generator) -> CsiState:
    """Draw ``n`` relabeling CSI states, as columns, from the configured channel regime.

    The sampled regime draws like ``generate_trace``; two-state picks the
    base or the alternate state with equal odds, one uniform per draw.
    """
    if channel_cfg.regime == "sampled":
        return sampled_states(channel_cfg, rng, n)
    if channel_cfg.regime == "two-state":
        return channel_cfg.states.take((rng.random(n) < 0.5).astype(np.int64))
    return channel_cfg.states.take(np.zeros(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# File formats: traces as JSON lines plus hidden-row columns, packed FP32 datasets
# ---------------------------------------------------------------------------

_DATA_MAGIC = b"WSVD"
_DATA_HEADER = struct.Struct("<II")

# Trace-line member of each integer ``Episode`` column, in line order.
_TRACE_KEYS = {
    "position": "positions",
    "draft_token": "draft_tokens",
    "target_token": "target_tokens",
    "base_label": "base_labels",
}
_TRACE_LINE = "{" + ",".join(f'"{key}":%d' for key in ("episode", "index", *_TRACE_KEYS)) + "}\n"
_HIDDEN = ("h_draft", "h_target")


def write_traces(path: str | Path, hidden_path: str | Path, episodes: list[Episode]) -> None:
    """Write the episodes' integer columns as JSON lines and their hidden rows as columns.

    ``path`` gets one line per mismatch, the compact ``json.dumps`` of
    ``{"episode", "index", "position", "draft_token", "target_token",
    "base_label"}``; episodes with no mismatch leave no lines.
    ``hidden_path`` is a column file (``columns.write_columns``) of
    ``h_draft`` and ``h_target`` as ``<f8`` matrices whose row i belongs to
    line i. A non-finite hidden value raises: no head can learn from it.
    """
    for ep in episodes:
        for name in _HIDDEN:
            if not np.isfinite(getattr(ep, name)).all():
                raise ValueError(f"trace column {name!r} of episode {ep.episode_id} "
                                 "holds a non-finite value")
    with open(path, "w") as fh:
        for ep in episodes:
            columns = [getattr(ep, name).tolist() for name in _TRACE_KEYS.values()]
            fh.writelines(_TRACE_LINE % (ep.episode_id, t, *values)
                          for t, values in enumerate(zip(*columns)))
    # Each episode's rows are a block of the column: the stacked matrix is never built.
    write_columns(hidden_path, {
        name: [np.asarray(getattr(ep, name), dtype=np.float64) for ep in episodes]
        for name in _HIDDEN
    })


def read_traces(
    path: str | Path, hidden_path: str | Path, n_episodes: int | None = None
) -> list[Episode]:
    """Rebuild episodes from a trace's lines and its hidden-row column file.

    The integer columns come from the lines, the hidden rows from the
    column file, unparsed: an episode's hidden arrays are views of the
    file's bytes, unless its lines come in several runs, which are joined
    in file order. With ``n_episodes``, episodes 0 .. n_episodes-1 are
    returned; one without lines has no mismatches, and its hidden arrays
    keep the widths of the file's columns.
    """
    keys = ("episode", *_TRACE_KEYS)
    with open(path) as fh:
        try:
            # Straight into one int64 array: no Python list per line is kept.
            table = np.fromiter(chain.from_iterable(map(itemgetter(*keys), map(json.loads, fh))),
                                dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"a line of {path} has no member {exc}; run 'trace' first") from None
    table = table.reshape(-1, len(keys))
    hidden = read_columns(hidden_path)
    for name in _HIDDEN:
        if hidden.get(name, np.empty(0)).ndim != 2:
            raise ValueError(f"{hidden_path} holds no {name!r} matrix; run 'trace' first")
        if len(hidden[name]) != len(table):
            raise ValueError(f"{hidden_path} holds {len(hidden[name])} {name!r} rows, but "
                             f"{path} has {len(table)} lines; run 'trace' first")
    ids, *ints = np.ascontiguousarray(table.T)
    columns = {**dict(zip(_TRACE_KEYS.values(), ints)), **{name: hidden[name] for name in _HIDDEN}}
    if (np.diff(ids) < 0).any():
        order = np.argsort(ids, kind="stable")
        ids, columns = ids[order], {name: column[order] for name, column in columns.items()}
    episode_ids = np.unique(ids).tolist()
    if n_episodes is not None:
        if set(episode_ids) - set(range(n_episodes)):
            raise ValueError("trace file contains more episodes than declared")
        episode_ids = range(n_episodes)
    starts = np.searchsorted(ids, episode_ids, side="left").tolist()
    ends = np.searchsorted(ids, episode_ids, side="right").tolist()
    return [Episode(i, **{name: column[lo:hi] for name, column in columns.items()})
            for i, lo, hi in zip(episode_ids, starts, ends)]


def write_dataset(
    path: str | Path, blocks: Iterable[tuple[np.ndarray, np.ndarray]]
) -> tuple[int, np.ndarray]:
    """Pack (features, labels) blocks into one little-endian FP32 dataset file.

    The file is the magic ``WSVD``, the ``<II`` row count n and feature
    width d, the n x d feature rows, then the n labels. Each block's rows
    are written as soon as it arrives, so only the labels are held; the
    header is patched once n is known. Returns d and the labels as float64.
    """
    labels, width = [], None
    with open(path, "wb") as fh:
        fh.write(_DATA_MAGIC + _DATA_HEADER.pack(0, 0))
        for x, y in blocks:
            x = np.asarray(x, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            if x.ndim != 2 or x.shape[0] != y.shape[0] or width not in (None, x.shape[1]):
                raise ValueError("every block must be an (n, d) feature matrix with n labels "
                                 "and the width of the first block")
            width = x.shape[1]
            fh.write(x.astype("<f4"))
            labels.append(y)
        y = np.concatenate(labels) if labels else np.empty(0)
        fh.write(y.astype("<f4"))
        fh.seek(len(_DATA_MAGIC))
        fh.write(_DATA_HEADER.pack(len(y), width or 0))
    return width or 0, y


def read_dataset(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The features as a read-only FP32 (n, d) view of the file's bytes, and the labels as float64."""
    raw = Path(path).read_bytes()
    if raw[:4] != _DATA_MAGIC:
        raise ValueError(f"{path} is not a dataset file")
    start = len(_DATA_MAGIC) + _DATA_HEADER.size
    if len(raw) < start:
        raise ValueError(f"truncated dataset {path}: {len(raw)} bytes, shorter than its header")
    n, d = _DATA_HEADER.unpack_from(raw, len(_DATA_MAGIC))
    need = start + 4 * (n * d + n)
    if len(raw) != need:
        raise ValueError(f"truncated dataset {path}: {len(raw)} bytes, expected {need}")
    x = np.frombuffer(raw, dtype="<f4", count=n * d, offset=start).reshape(n, d)
    y = np.frombuffer(raw, dtype="<f4", count=n, offset=start + 4 * n * d).astype(np.float64)
    return x, y
