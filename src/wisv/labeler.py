"""Training-set construction: trace collection and cost-aware relabeling.

Stage 1 decodes episodes with the engine's own loop under greedy
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
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, CsiState, NormalizationBounds, features, quality, sampled_states
from .engine import EngineConfig, decide, episode_oracle
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


def collect_traces(
    n_episodes: int,
    oracle_cfg: OracleConfig,
    seed: int,
    window: int = 10,
    max_tokens: int = 256,
    prefix_len: int = 64,
) -> list[Episode]:
    """Decode episodes under greedy verification and keep each materialized mismatch.

    Episode ``ep`` runs the engine's ``decide`` in ``sd_greedy`` mode on
    the oracle seeded ``[seed, ep]``. A greedy round rejects at its first
    mismatch, so the rounds that reject name every mismatch the decoding
    meets exactly once, in increasing position order; the columns are read
    from the oracle at those positions.
    """
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    engine_cfg = EngineConfig(
        mode="sd_greedy", window=window, max_tokens=max_tokens, prefix_len=prefix_len
    )
    episodes = []
    for ep in range(n_episodes):
        oracle = episode_oracle(oracle_cfg, engine_cfg, [seed, ep], False)
        decisions = decide(engine_cfg, oracle)
        rejects = decisions.reject_pos >= 0
        pos = decisions.start[rejects] + decisions.reject_pos[rejects]
        episodes.append(Episode(
            ep, pos, oracle.draft_tokens[pos], oracle.target_tokens[pos],
            oracle.crit[pos].astype(np.int64), oracle.h_draft[pos], oracle.h_target[pos],
        ))
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
# File formats: JSON-lines traces, packed FP32 datasets
# ---------------------------------------------------------------------------

_DATA_MAGIC = b"WSVD"

# Trace-file key of each ``Episode`` column, in line order.
_TRACE_KEYS = {
    "position": "positions",
    "draft_token": "draft_tokens",
    "target_token": "target_tokens",
    "base_label": "base_labels",
    "h_draft": "h_draft",
    "h_target": "h_target",
}


def write_traces(path: str | Path, episodes: list[Episode]) -> None:
    """One JSON record per mismatch; episodes with no mismatch leave no lines.

    A line is the compact ``json.dumps`` of ``{"episode", "index",
    **columns}``, written with one ``%`` template: the integer columns as
    ``%d``, and each hidden row as the ``str`` of its float list, spaces
    removed (a float's ``str`` is its ``repr``, as in JSON). A non-finite
    hidden value, which JSON writes as ``NaN``, raises.
    """
    keys = ("episode", "index", *_TRACE_KEYS)
    template = "{" + ",".join(f'"{key}":%{"s" if key.startswith("h_") else "d"}'
                              for key in keys) + "}\n"
    with open(path, "w") as fh:
        for ep in episodes:
            columns = []
            for key, name in _TRACE_KEYS.items():
                column = getattr(ep, name)
                if key.startswith("h_"):
                    if not np.isfinite(column).all():
                        raise ValueError(f"trace column {key!r} of episode {ep.episode_id} "
                                         "holds a non-finite value, which JSON cannot encode")
                    columns.append([str(row).replace(" ", "") for row in column.tolist()])
                else:
                    columns.append(column.tolist())
            fh.writelines(template % (ep.episode_id, t, *values)
                          for t, values in enumerate(zip(*columns)))


def read_traces(path: str | Path, n_episodes: int | None = None) -> list[Episode]:
    """Rebuild episodes from a mismatch-per-line trace file.

    With ``n_episodes``, episodes 0 .. n_episodes-1 are returned; one
    without lines has no mismatches, and its hidden arrays take the widths
    of the file's records (0 when the file has none).
    """
    by_id: dict[int, list[dict]] = defaultdict(list)
    with open(path) as fh:
        for raw in fh:
            rec = json.loads(raw)
            # Arrays hold a line's hidden values in a fraction of a float list's memory.
            rec["h_draft"], rec["h_target"] = np.array(rec["h_draft"]), np.array(rec["h_target"])
            by_id[rec["episode"]].append(rec)
    ids = sorted(by_id)
    if n_episodes is not None:
        if set(ids) - set(range(n_episodes)):
            raise ValueError("trace file contains more episodes than declared")
        ids = range(n_episodes)
    first = next(iter(by_id.values()), [{"h_draft": [], "h_target": []}])[0]
    episodes = []
    for i in ids:
        records, columns = by_id.get(i, []), {}
        for key, name in _TRACE_KEYS.items():
            hidden = key.startswith("h_")
            shape = (len(records), len(first[key])) if hidden else len(records)
            values = [rec[key] for rec in records]
            columns[name] = np.array(values, dtype=np.float64 if hidden else np.int64).reshape(shape)
        episodes.append(Episode(i, **columns))
    return episodes


def write_dataset(path: str | Path, x: np.ndarray, y: np.ndarray) -> None:
    """Packed little-endian FP32 feature matrix and label vector."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) with n labels")
    with open(path, "wb") as fh:
        fh.write(_DATA_MAGIC)
        fh.write(struct.pack("<II", x.shape[0], x.shape[1]))
        fh.write(x.astype("<f4").tobytes())
        fh.write(y.astype("<f4").tobytes())


def read_dataset(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != _DATA_MAGIC:
        raise ValueError(f"{path} is not a dataset file")
    n, d = struct.unpack("<II", raw[4:12])
    need = 12 + 4 * (n * d + n)
    if len(raw) != need:
        raise ValueError(f"truncated dataset: {len(raw)} bytes, expected {need}")
    flat = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64)
    return flat[: n * d].reshape(n, d), flat[n * d :]
