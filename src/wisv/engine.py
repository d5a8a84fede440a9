"""Device-edge decoding episodes: one decision kernel and one latency bill.

Modes:

* ``sd_greedy``: accept a draft token iff it equals the target argmax;
  token-IDs-only uplink.
* ``sd_reject``: probabilistic verification with residual resampling
  (distribution-preserving); dense-probability uplink.
* ``wisv_fh`` / ``wisv_sh``: greedy mismatch localization, then the
  decision head screens every mismatch; the earliest rejected one stops
  the block. FH ships all hidden states up front; SH requests only the
  localized positions at the cost of a second round trip.
* ``wisv_adaptive``: per-round protocol choice from the measured RTT.

An episode runs in two steps. ``decide`` is the one decision kernel, for
eval, the ablation and trace collection. It takes a batch of lanes, each
a (config, episode position columns, head screen) decode, and scans each
lane's rounds over a stop column: the first mismatch (``sd_greedy``), the
first draft the per-position speculative-sampling draw rejects
(``sd_reject``), or the first mismatch the head screens at p >= tau. The
lanes' distinct stop columns are stacked, and each iteration advances
every unfinished lane by one round, so no loop decodes one episode. The
result is one ragged ``Decisions``: the lanes' integer round columns,
placed back to back. A lane's committed token stream is rebuilt on demand
(``committed_tokens``). ``price_link`` is the one latency ledger: it bills
a batch of episodes' decisions, each episode on its own trace of a
``TraceBatch``. Per round it prices the draft and verify compute from the
prefix length (``compute.window_flops``), the head's screening of the m
mismatches on the head-verified modes, the wire protocol code
(``wire.PROTO_*``) and the communication from the CSI columns
(``wire.round_comm``), and adds them up, in one pass over the batch.
Decisions never read the protocol, and only the head-verified modes read
the channel: FH, SH and adaptive share one decision, and their bills
differ only in the protocol and what it prices. A batch's bill is its
``LinkBill`` columns; ``metrics.episode_totals`` is the one reduction, to
each episode's totals. A sweep builds one oracle per episode
(``episode_oracle``), decides a block's episodes together, each decision
once per episode, and bills each point once over all its episodes, from a
slice of the block's decisions.

The head-verified modes decide from a ``HeadScreen``, built once per
(head, episode, trace) by ``head_screens``. A sweep may name several
heads: the ablation is eval's sweep over a link-aware and a link-blind
head, which share each episode's oracle and traces. The head's first
layer is linear, so it splits into a hidden-state term per mismatch and a
link term per trace row, each one matmul per episode. On a link whose term
is the same in every round, the screen is one p column over the
mismatches, and every window and tau of the episode scans a stop column
cut from it, as ``sd_greedy`` does; otherwise a screened round adds its
link row to its window's hidden rows. The final training accuracy and
the holdout are scored by ``head.chunked_logits``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import N_CSI_FEATURES, CsiState, NormalizationBounds, features
from .compute import (
    FlopsConstants,
    HardwareProfile,
    ModelDims,
    exec_time,
    head_flops,
    round_latency,
    window_flops,
)
from .head import HeadParams, sigmoid
from .oracle import EpisodeOracle, OracleConfig, speculative_fix
from .wire import (
    PROTO_DENSE,
    PROTO_FH,
    PROTO_SH,
    PROTO_TOKENS,
    LatencyBreakdown,
    WireConfig,
    round_comm,
)

MODES = ("sd_greedy", "sd_reject", "wisv_fh", "wisv_sh", "wisv_adaptive")

_MODE_PROTO = {
    "sd_greedy": PROTO_TOKENS,
    "sd_reject": PROTO_DENSE,
    "wisv_fh": PROTO_FH,
    "wisv_sh": PROTO_SH,
}


@dataclass(frozen=True)
class EngineConfig:
    mode: str = "sd_greedy"
    window: int = 10
    tau: float = 0.5
    max_tokens: int = 256
    prefix_len: int = 64
    adaptive_rtt_cutoff_s: float = 0.010

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("window", "max_tokens", "prefix_len"):
            # The config layer's rule: a fraction fails late, and a bool passes as 0 or 1.
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.window < 1:
            raise ValueError("window must be an integer >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not math.isfinite(self.adaptive_rtt_cutoff_s):
            raise ValueError("adaptive_rtt_cutoff_s must be finite, "
                             f"got {self.adaptive_rtt_cutoff_s!r}")
        if self.adaptive_rtt_cutoff_s <= 0:
            raise ValueError("adaptive rtt cutoff must be positive")
        if self.max_tokens < 1 or self.prefix_len < 0:
            raise ValueError("bad token budget or prefix length")


@dataclass(frozen=True)
class SystemModel:
    """The wire and compute models that ``price_link`` prices with.

    Pricing reads no CSI scaling; ``bounds`` rides along for
    ``head_screens``, which normalizes the link features with it.

    ``head_d_in``/``head_d_j`` are the accounting dimensions used to bill
    decision-head FLOPs; they describe the deployed head, not the small
    synthetic one trained against the oracle. ``head_d_in`` is derived:
    the uploaded drafter hidden, the target hidden and the CSI features.
    """

    wire: WireConfig
    draft_dims: ModelDims
    target_dims: ModelDims
    consts: FlopsConstants
    hw_draft: HardwareProfile
    hw_target: HardwareProfile
    bounds: NormalizationBounds
    head_d_j: int

    @property
    def head_d_in(self) -> int:
        return self.wire.d_h + self.target_dims.hidden + N_CSI_FEATURES


def select_protocol(rtt: np.ndarray, cutoff: float) -> np.ndarray:
    """Protocol code per round: FH where the RTT strictly exceeds the cutoff, SH otherwise."""
    return np.where(rtt > cutoff, PROTO_FH, PROTO_SH)


# The round columns of ``Decisions``, in field order.
ROUND_COLUMNS = ("start", "m", "reject_pos", "accepted", "accepted_critical")


@dataclass(frozen=True)
class Decisions:
    """The verification decisions of a batch of lanes, placed back to back.

    Lane l holds entries ``bounds[l]:bounds[l + 1]`` of each round column;
    entry r of its slice is its round r. The round columns do not depend on
    the wire protocol: ``m`` localized mismatches, ``reject_pos``
    (window-relative, -1 on full accept), ``accepted`` draft tokens and
    accepted critical mismatches. ``start`` is the round's prefix length, so
    a rejection sits at position ``start + reject_pos``. ``window[l]`` and
    ``mode[l]`` are the window and the mode lane l was decided for; only a
    bill of that window and kind of verifier may price it.
    ``committed_tokens`` rebuilds a lane's token stream from its oracle.
    """

    bounds: np.ndarray
    start: np.ndarray
    m: np.ndarray
    reject_pos: np.ndarray
    accepted: np.ndarray
    accepted_critical: np.ndarray
    window: tuple[int, ...]
    mode: tuple[str, ...]

    @property
    def n_rounds(self) -> int:
        """The rounds of all lanes."""
        return len(self.m)

    def lanes(self, lo: int, hi: int) -> Decisions:
        """Lanes ``lo`` to ``hi - 1``, their round columns as views of these."""
        first, last = self.bounds[lo], self.bounds[hi]
        return Decisions(self.bounds[lo:hi + 1] - first,
                         *(getattr(self, name)[first:last] for name in ROUND_COLUMNS),
                         self.window[lo:hi], self.mode[lo:hi])

    @staticmethod
    def concat(batches: Sequence[Decisions]) -> Decisions:
        """The lanes of ``batches``, one batch after another."""
        offsets = np.cumsum([0, *(batch.n_rounds for batch in batches)])
        return Decisions(
            np.concatenate([[0], *(batch.bounds[1:] + offset
                                   for batch, offset in zip(batches, offsets))]),
            *(np.concatenate([getattr(batch, name) for batch in batches])
              for name in ROUND_COLUMNS),
            sum((batch.window for batch in batches), ()),
            sum((batch.mode for batch in batches), ()),
        )


@dataclass(frozen=True)
class LinkBill:
    """The round columns of a batch of billed episodes, placed back to back.

    Episode e of the batch holds entries ``bounds[e]:bounds[e + 1]`` of
    each column. ``start``, ``m``, ``reject_pos``, ``accepted`` and
    ``accepted_critical`` are its lane's ``Decisions`` columns; ``draft_s``,
    ``verify_s`` and ``head_s`` its rounds' compute; ``proto`` the
    protocol code each round was billed under, ``comm`` its communication
    and ``total_s`` its latency. ``metrics.episode_totals`` reduces it to
    each episode's metrics.
    """

    bounds: np.ndarray
    start: np.ndarray
    m: np.ndarray
    reject_pos: np.ndarray
    accepted: np.ndarray
    accepted_critical: np.ndarray
    draft_s: np.ndarray
    verify_s: np.ndarray
    head_s: np.ndarray
    proto: np.ndarray
    comm: LatencyBreakdown
    total_s: np.ndarray


def episode_oracle(
    oracle_cfg: OracleConfig,
    engine_cfg: EngineConfig,
    seed: int | list[int],
    with_distributions: bool,
) -> EpisodeOracle:
    """The oracle of one episode, for windows up to ``engine_cfg.window``.

    Its positions cover the token budget plus an overshooting window. Its
    data is keyed to positions, so one oracle sized for a sweep's largest
    window serves every window, mode, tau and channel of the episode. Only
    ``sd_reject`` reads distributions; building them changes no other field.
    """
    k = engine_cfg.window
    n_positions = engine_cfg.prefix_len + engine_cfg.max_tokens + 2 * k + 2
    return EpisodeOracle(
        oracle_cfg, seed=seed, n_positions=n_positions, with_distributions=with_distributions
    )


@dataclass(frozen=True)
class HeadScreen:
    """One head's screen of one episode's mismatches on one link.

    The head's first layer splits as ``w1 · [h_d; h_t; csi] + b1 = w1_h · h
    + (w1_c · csi + b1)``. ``hidden`` holds the first term for every mismatch
    of the episode, in position order, and ``link`` the second for every
    trace row, or its one row when all rows are equal. Then ``p`` is every
    mismatch's rejection probability; otherwise it is None, and round r
    screens its window's mismatches on link row ``r % len(link)``
    (``round_p``).
    """

    hidden: np.ndarray
    link: np.ndarray
    w2: np.ndarray
    b2: float
    p: np.ndarray | None = None

    def round_p(self, rows: slice, r: int) -> np.ndarray:
        """Rejection probabilities of the mismatches ``rows`` under link row ``r``, wrapping."""
        act = np.maximum(self.hidden[rows] + self.link[r % len(self.link)], 0.0)
        return sigmoid(act @ self.w2 + self.b2)


def head_screens(
    head_params: HeadParams,
    oracle: EpisodeOracle,
    traces: list[CsiState],
    bounds: NormalizationBounds,
) -> list[HeadScreen]:
    """The head's screen of the oracle's mismatches on each trace.

    The hidden-state term is one matmul over the episode's mismatches,
    shared by every trace; the link term is one matmul over each trace's
    CSI feature rows (a scalar state is one row).
    """
    if traces is None or bounds is None:
        raise ValueError("head screening requires a channel trace and normalization bounds")
    d_h = head_params.d_in - N_CSI_FEATURES
    at = np.flatnonzero(oracle.mismatch)
    h = np.concatenate([oracle.h_draft[at], oracle.h_target[at]], axis=1)
    hidden = h @ head_params.w1[:, :d_h].T
    screens = []
    for trace in traces:
        csi = np.atleast_2d(features(trace, bounds))
        if not np.all(np.isfinite(csi)):
            raise ValueError("non-finite feature input")
        link = csi @ head_params.w1[:, d_h:].T + head_params.b1
        if not (link == link[0]).all():
            screens.append(HeadScreen(hidden, link, head_params.w2, head_params.b2))
            continue
        # Every round reads the same row: screen each mismatch once.
        screen = HeadScreen(hidden, link[:1].copy(), head_params.w2, head_params.b2)
        screens.append(replace(screen, p=screen.round_p(slice(None), 0)))
    return screens


@dataclass(frozen=True)
class EpisodeColumns:
    """The position columns of one episode that ``decide`` reads.

    ``mismatch`` and ``crit`` are the oracle's; ``spec_accept`` is None
    unless it was built with distributions. An ``EpisodeOracle`` has the
    same three attributes, so either may be a lane's columns.
    """

    mismatch: np.ndarray
    crit: np.ndarray
    spec_accept: np.ndarray | None = None

    @classmethod
    def of(cls, oracle: EpisodeOracle) -> EpisodeColumns:
        return cls(oracle.mismatch, oracle.crit, oracle.spec_accept)


class Lane(NamedTuple):
    """One decode for ``decide``: a config, one episode's position columns and its screen.

    ``columns`` is the episode's ``EpisodeOracle`` or ``EpisodeColumns``.
    The head-verified modes need ``screen``, the head's screen of the same
    episode on the lane's link (``head_screens``).
    """

    engine_cfg: EngineConfig
    columns: EpisodeColumns | EpisodeOracle
    screen: HeadScreen | None = None


def _placed(columns: Sequence[np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """The positions in ``columns``, column c's shifted by ``offsets[c]``, back to back."""
    return np.concatenate([column + offset for column, offset in zip(columns, offsets)])


def decide(lanes: Sequence[Lane]) -> Decisions:
    """Verify each lane's episode to its token budget; lane l is lane l of the result.

    Each round commits the accepted draft tokens plus one target-side
    token (``committed_tokens``). A lane's rounds are one scan over a stop
    column: the mismatches for ``sd_greedy``, the drafts the oracle's
    speculative-sampling columns reject for ``sd_reject``, and, for the
    head-verified modes on a constant link, the mismatches whose p in the
    screen is >= tau. On any other link a head-verified round that holds a
    mismatch screens all of its window's mismatches on its own link row
    (``HeadScreen.round_p``, one call per such round) and stops at the
    first at p >= tau.

    The lanes' distinct stop columns are placed back to back once, as their
    stop positions, and each iteration advances every unfinished lane by
    one round, to its next stop (one ``searchsorted`` over them all) or its
    window's end. ``m`` and ``accepted_critical`` count the episodes'
    mismatch and critical positions the same way. A round past its oracle
    raises ``IndexError``.
    """
    if not lanes:
        raise ValueError("decide needs at least one lane")
    episodes: dict[int, int] = {}  # id of a lane's columns -> its episode
    columns, mismatches = [], []  # each episode's columns, and its mismatch positions
    stop_of: dict[tuple, int] = {}  # (kind, id, tau) -> its stop column
    stops, stop_episode = [], []  # each stop column's stop positions, and its episode
    lane_episode, lane_stop, lane_per_round = [], [], []
    for engine_cfg, episode, screen in lanes:
        mode = engine_cfg.mode
        screening = mode.startswith("wisv")
        if screening and screen is None:
            raise ValueError(f"mode {mode} requires a head screen of the episode (head_screens)")
        if mode == "sd_reject" and episode.spec_accept is None:
            raise RuntimeError("sd_reject needs an oracle built with distributions")
        e = episodes.setdefault(id(episode), len(columns))
        if e == len(columns):
            columns.append(episode)
            mismatches.append(np.flatnonzero(episode.mismatch))
        per_round = screening and screen.p is None
        if mode == "sd_reject":
            key = ("sampled", e, None)
        elif screening and not per_round:
            key = ("screened", id(screen), engine_cfg.tau)
        else:
            key = ("mismatch", e, None)
        if key not in stop_of:
            stop_of[key] = len(stops)
            stop_episode.append(e)
            if key[0] == "sampled":
                stops.append(np.flatnonzero(~episode.spec_accept))
            elif key[0] == "screened":
                stops.append(mismatches[e][screen.p >= engine_cfg.tau])
            else:
                stops.append(mismatches[e])
        lane_episode.append(e)
        lane_stop.append(stop_of[key])
        lane_per_round.append(per_round)

    # Stop column c spans its episode's positions from stop_off[c]; the
    # stops, in that space, end on one past its end.
    lengths = np.array([len(columns[e].mismatch) for e in stop_episode])
    stop_off = np.cumsum([0, *lengths])
    stop_at = np.append(_placed(stops, stop_off), stop_off[-1])
    after_stop = stop_at + 1

    k = np.array([lane.engine_cfg.window for lane in lanes], dtype=np.int64)
    off = stop_off[lane_stop]
    # Each lane's position in that space, one past the last one a round may
    # start at (its window and the bonus position after it must fit), and
    # its budget's end.
    pos = off + np.array([lane.engine_cfg.prefix_len for lane in lanes], dtype=np.int64)
    fits = off + lengths[lane_stop] - k
    end = pos + np.array([lane.engine_cfg.max_tokens for lane in lanes], dtype=np.int64)
    per_round = np.array(lane_per_round)

    # A lane runs while its next round is in its budget and fits its oracle;
    # one that leaves its oracle inside its budget raises.
    if (pos >= fits).any():
        raise IndexError("episode oracle ran out of pregenerated positions")
    active, act = np.arange(len(lanes)), (k + 1, np.minimum(end, fits), end, off, per_round)
    screened, visits = per_round.any(), []
    while active.size:
        act_k1, act_runs, act_end, act_off, act_per_round = act
        # One past each round's fix position: its first stop, or its bonus position.
        after = np.minimum(after_stop[np.searchsorted(stop_at, pos)], pos + act_k1)
        if screened:
            for j in np.flatnonzero(act_per_round & (after - pos < act_k1)).tolist():
                lane = int(active[j])
                engine_cfg, _, screen = lanes[lane]
                at = mismatches[lane_episode[lane]]
                prefix = int(pos[j] - act_off[j])
                # The episode's mismatches before the round, and before its window's end.
                first, last = np.searchsorted(at, [prefix, prefix + engine_cfg.window]).tolist()
                p = screen.round_p(slice(first, last), len(visits))
                hits = np.flatnonzero(p >= engine_cfg.tau)
                reject = int(at[first + hits[0]]) - prefix if hits.size else engine_cfg.window
                after[j] = pos[j] + reject + 1
        visits.append((active, pos, after))
        going = after < act_runs
        if not going.all():
            if (after[~going] < act_end[~going]).any():
                raise IndexError("episode oracle ran out of pregenerated positions")
            active, after = active[going], after[going]
            act = tuple(column[going] for column in act)
        pos = after

    # Iteration t holds round t of each lane it visits, so lane l's round r
    # lands at entry bounds[l] + r.
    rounds = np.repeat(np.arange(len(visits)), [len(lanes_t) for lanes_t, _, _ in visits])
    visited, pos, after = (np.concatenate(column) for column in zip(*visits))
    del visits
    bounds = np.cumsum(np.concatenate([[0], np.bincount(visited, minlength=len(lanes))]))
    at = bounds[visited] + rounds
    round_lane, start, accepted = (np.empty_like(pos) for _ in range(3))
    round_lane[at], start[at], accepted[at] = visited, pos - off[visited], after - pos - 1
    del rounds, visited, pos, after, at
    round_k = k[round_lane]
    rejected = accepted < round_k
    reject_pos = np.where(rejected, accepted, -1)
    modes = tuple(lane.engine_cfg.mode for lane in lanes)
    sampled = np.array([mode == "sd_reject" for mode in modes])[round_lane]
    # The episodes' mismatch and critical positions, each episode from its own offset.
    ep_off = np.cumsum([0, *(len(episode.mismatch) for episode in columns)])
    lo = ep_off[lane_episode][round_lane] + start
    mismatch_at = _placed(mismatches, ep_off)
    m = np.where(sampled, rejected,
                 np.searchsorted(mismatch_at, lo + round_k) - np.searchsorted(mismatch_at, lo))
    crit_at = _placed([np.flatnonzero(episode.crit) for episode in columns], ep_off)
    accepted_critical = np.where(
        sampled, 0, np.searchsorted(crit_at, lo + accepted) - np.searchsorted(crit_at, lo))
    return Decisions(bounds, start, m, reject_pos, accepted, accepted_critical,
                     tuple(k.tolist()), modes)


def committed_tokens(oracle: EpisodeOracle, decisions: Decisions, lane: int) -> np.ndarray:
    """The token stream lane ``lane`` of ``decisions`` commits, decided on ``oracle``'s episode.

    Accepted drafts keep the draft token, and each round ends on its fix
    position ``start + accepted``: the target argmax there (at a rejected
    mismatch, or the bonus token after a full accept), or, for
    ``sd_reject``, the speculative-sampling draw (``speculative_fix``).
    """
    lo, hi = decisions.bounds[lane], decisions.bounds[lane + 1]
    start, accepted = decisions.start[lo:hi], decisions.accepted[lo:hi]
    first, fix = start[0], start + accepted
    if decisions.mode[lane] == "sd_reject":
        tokens = oracle.spec_draft[first:fix[-1] + 1].copy()
        tokens[fix - first] = speculative_fix(oracle.p_draft[fix], oracle.p_target[fix],
                                              oracle.spec_u[fix], decisions.reject_pos[lo:hi] >= 0)
    else:
        # Elsewhere the target agrees with the draft.
        tokens = oracle.draft_tokens[first:fix[-1] + 1].copy()
        tokens[fix - first] = oracle.target_tokens[fix]
    return tokens


@dataclass(frozen=True)
class TraceBatch:
    """A batch of episodes' channel traces, placed back to back.

    Episode e's trace is entries ``bounds[e]:bounds[e + 1]`` of ``states``'
    columns; a scalar state is one entry.
    """

    states: CsiState
    bounds: np.ndarray

    @classmethod
    def of(cls, traces: Sequence[CsiState]) -> TraceBatch:
        return cls(CsiState.concat(traces),
                   np.cumsum([0, *(np.size(trace.rtt) for trace in traces)]))


def price_link(
    system: SystemModel,
    engine_cfg: EngineConfig,
    decisions: Decisions,
    traces: TraceBatch,
) -> LinkBill:
    """Bill a batch of episodes' decisions under ``engine_cfg``'s protocol and CSI.

    Lane e of ``decisions`` is episode e, billed on episode e of ``traces``:
    its round r uses the trace's state r, wrapping if the episode outlives
    the trace, so no wrap crosses an episode. The rounds are priced in one
    pass. Every round drafts and verifies its window from its prefix
    length; under a head-verified mode (FH, SH or adaptive) it also screens
    its m localized mismatches. Adaptive picks FH or SH per round from the
    state's RTT. Every round's latency is its communication plus its
    compute.
    """
    k, head_verified = engine_cfg.window, engine_cfg.mode.startswith("wisv")
    for window, mode in set(zip(decisions.window, decisions.mode)):
        verified = mode.startswith("wisv")
        if (window, verified) != (k, head_verified):
            raise ValueError(f"decisions decided for window {window} and head_verified="
                             f"{verified} cannot be billed as {engine_cfg.mode} with window {k}")
    n_episodes = len(decisions.bounds) - 1
    if n_episodes != len(traces.bounds) - 1:
        raise ValueError(f"a batch of {n_episodes} episodes needs as many traces, "
                         f"got {len(traces.bounds) - 1}")
    bounds = decisions.bounds
    n_rounds, lengths = np.diff(bounds), np.diff(traces.bounds)
    # Batch round i is round r = i - bounds[e] of its episode e, so it reads
    # state r (wrapping) of trace e, found at its offset in the batch's traces.
    round_in_episode = np.arange(bounds[-1]) - np.repeat(bounds[:-1], n_rounds)
    rows = (np.repeat(traces.bounds[:-1], n_rounds)
            + round_in_episode % np.repeat(lengths, n_rounds))
    csi = traces.states.take(rows)
    code = _MODE_PROTO.get(engine_cfg.mode)
    if code is None:
        proto = select_protocol(csi.rtt, engine_cfg.adaptive_rtt_cutoff_s)
    else:
        proto = np.full(bounds[-1], code, dtype=np.int64)
    start, m = decisions.start, decisions.m
    comm = round_comm(system.wire, k, proto, m, csi)
    draft_s = exec_time(window_flops(system.draft_dims, system.consts, start, k),
                        system.hw_draft)
    verify_s = exec_time(window_flops(system.target_dims, system.consts, start, k),
                         system.hw_target)
    head_s = exec_time(head_flops(system.head_d_in, system.head_d_j,
                                  m if head_verified else np.zeros_like(m)), system.hw_target)
    return LinkBill(
        bounds=bounds,
        start=start,
        m=m,
        reject_pos=decisions.reject_pos,
        accepted=decisions.accepted,
        accepted_critical=decisions.accepted_critical,
        draft_s=draft_s,
        verify_s=verify_s,
        head_s=head_s,
        proto=proto,
        comm=comm,
        total_s=round_latency(draft_s, comm, verify_s, head_s),
    )
