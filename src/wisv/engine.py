"""Device-edge decoding episodes: one decision loop and one latency bill.

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

An episode runs in two steps. ``decide`` is the only loop that decodes an
episode, for eval, the ablation and trace collection. It reads the
oracle's position columns and scans the rounds over a stop column: the
first mismatch (``sd_greedy``), the first draft the per-position
speculative-sampling draw rejects (``sd_reject``), or the first mismatch
the head screens at p >= tau. The loop records integer ``Decisions``
columns per round. ``price_link`` is the one latency ledger: it bills a
batch of episodes' decisions, placed back to back, each episode on its own
trace. Per round it prices the draft and verify compute from the prefix
length (``compute.window_flops``), the head's screening of the m
mismatches on the head-verified modes, the wire protocol code
(``wire.PROTO_*``) and the communication from the CSI columns
(``wire.round_comm``), and adds them up, in one pass over the batch.
Decisions never read the protocol, and only the head-verified modes read
the channel: FH, SH and adaptive share one decision, and their bills
differ only in the protocol and what it prices. A batch's bill is its
``LinkBill`` columns; ``metrics.episode_totals`` is the one reduction, to
each episode's totals. A sweep decides each decision once per episode,
with one oracle per episode (``episode_oracle``), and bills each point
once over all its episodes.

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

from collections.abc import Sequence
from dataclasses import dataclass, replace

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
from .oracle import EpisodeOracle, OracleConfig
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


@dataclass(frozen=True)
class Decisions:
    """One episode's verification decisions; entry r of every array is round r.

    The round columns that do not depend on the wire protocol: ``m``
    localized mismatches, ``reject_pos`` (window-relative, -1 on full
    accept), ``accepted`` draft tokens and accepted critical mismatches.
    ``start`` is the round's prefix length, so a rejection sits at
    position ``start + reject_pos``. ``tokens`` is the committed stream.
    ``window`` and ``head_verified`` are the window and the kind of
    verifier they were decided for; only a bill of both may price them.
    """

    tokens: np.ndarray
    start: np.ndarray
    m: np.ndarray
    reject_pos: np.ndarray
    accepted: np.ndarray
    accepted_critical: np.ndarray
    window: int
    head_verified: bool

    @property
    def n_rounds(self) -> int:
        return len(self.m)


@dataclass(frozen=True)
class LinkBill:
    """The round columns of a batch of billed episodes, placed back to back.

    Episode e of the batch holds entries ``bounds[e]:bounds[e + 1]`` of
    each column. ``start``, ``m``, ``reject_pos``, ``accepted`` and
    ``accepted_critical`` are its ``Decisions`` columns; ``draft_s``,
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


def decide(
    engine_cfg: EngineConfig, oracle: EpisodeOracle, screen: HeadScreen | None = None
) -> Decisions:
    """Verify one episode to its token budget.

    Each round commits the accepted draft tokens plus one target-side
    token: the target argmax at the rejected position (or the bonus token
    after a full accept), or the speculative-sampling draw. The rounds are
    one scan over a stop column: the mismatches for ``sd_greedy``, the
    drafts the oracle's speculative-sampling columns reject for
    ``sd_reject``, and, for the head-verified modes on a constant link, the
    mismatches whose p in ``screen`` is >= tau. On any other link a
    head-verified round that holds a mismatch screens all of its window's
    mismatches on its own link row (``HeadScreen.round_p``) and stops at the
    first at p >= tau. The head-verified modes need ``screen``, built by
    ``head_screens`` from the same oracle. A round past the oracle raises
    ``IndexError``.
    """
    mode, k = engine_cfg.mode, engine_cfg.window
    screening = mode.startswith("wisv")
    if screening and screen is None:
        raise ValueError(f"mode {mode} requires a head screen of the episode (head_screens)")
    sampling = mode == "sd_reject"
    if sampling and oracle.spec_accept is None:
        raise RuntimeError("sd_reject needs an oracle built with distributions")
    per_round = screening and screen.p is None
    if sampling:
        stop = ~oracle.spec_accept
    elif screening and not per_round:
        stop = np.zeros_like(oracle.mismatch)
        stop[oracle.mismatch] = screen.p >= engine_cfg.tau
    else:
        stop = oracle.mismatch
    n = len(stop)
    # Entry i: the first stop position at or after i, or n.
    next_stop = np.minimum.accumulate(np.where(stop, np.arange(n), n)[::-1])[::-1].tolist()
    # Entry i: the number of mismatches before position i.
    before = np.concatenate([[0], np.cumsum(oracle.mismatch)])
    if per_round:
        mismatches, count = np.flatnonzero(oracle.mismatch), before.tolist()

    starts: list[int] = []
    rejects: list[int] = []
    lo = prefix = engine_cfg.prefix_len
    while prefix < lo + engine_cfg.max_tokens:
        if prefix + k + 1 > n:
            raise IndexError("episode oracle ran out of pregenerated positions")
        reject = next_stop[prefix] - prefix
        if per_round and reject < k:
            first = count[prefix]
            p = screen.round_p(slice(first, count[prefix + k]), len(starts))
            hits = np.flatnonzero(p >= engine_cfg.tau)
            reject = int(mismatches[first + hits[0]]) - prefix if hits.size else k
        starts.append(prefix)
        rejects.append(reject if reject < k else -1)
        prefix += min(reject, k) + 1

    start, reject_pos = np.array(starts, dtype=np.int64), np.array(rejects, dtype=np.int64)
    rejected = reject_pos >= 0
    accepted = np.where(rejected, reject_pos, k)
    fix = start + accepted
    if sampling:
        m, accepted_critical = rejected.astype(np.int64), np.zeros_like(start)
        tokens = oracle.spec_draft[lo:prefix].copy()
        tokens[fix - lo] = np.where(rejected, oracle.spec_residual[fix], oracle.spec_bonus[fix])
    else:
        crit_before = np.concatenate([[0], np.cumsum(oracle.crit)])
        m = before[start + k] - before[start]
        accepted_critical = crit_before[fix] - crit_before[start]
        # Accepted drafts keep the draft token; elsewhere the target agrees with it.
        tokens = oracle.draft_tokens[lo:prefix].copy()
        tokens[fix - lo] = oracle.target_tokens[fix]
    return Decisions(tokens, start, m, reject_pos, accepted, accepted_critical, k, screening)


def price_link(
    system: SystemModel,
    engine_cfg: EngineConfig,
    batch: Sequence[Decisions],
    traces: Sequence[CsiState],
) -> LinkBill:
    """Bill a batch of episodes' decisions under ``engine_cfg``'s protocol and CSI.

    Episode e is billed on ``traces[e]``: its round r uses the trace's state
    r, wrapping if the episode outlives the trace, so no wrap crosses an
    episode. The episodes' rounds are placed back to back and priced in one
    pass. Every round drafts and verifies its window from its prefix
    length; under a head-verified mode (FH, SH or adaptive) it also screens
    its m localized mismatches. Adaptive picks FH or SH per round from the
    state's RTT. Every round's latency is its communication plus its
    compute.
    """
    k, head_verified = engine_cfg.window, engine_cfg.mode.startswith("wisv")
    for window, verified in {(decisions.window, decisions.head_verified) for decisions in batch}:
        if (window, verified) != (k, head_verified):
            raise ValueError(f"decisions decided for window {window} and head_verified="
                             f"{verified} cannot be billed as {engine_cfg.mode} with window {k}")
    if len(batch) != len(traces):
        raise ValueError(f"a batch of {len(batch)} episodes needs as many traces, "
                         f"got {len(traces)}")
    n_rounds = [decisions.n_rounds for decisions in batch]
    bounds = np.cumsum([0, *n_rounds])
    # Batch round i is round r = i - bounds[e] of its episode e, so it reads
    # state r (wrapping) of traces[e], found at traces[e]'s offset in the
    # traces placed back to back.
    lengths = np.array([np.size(trace.rtt) for trace in traces])
    round_in_episode = np.arange(bounds[-1]) - np.repeat(bounds[:-1], n_rounds)
    rows = (np.repeat(np.cumsum(lengths) - lengths, n_rounds)
            + round_in_episode % np.repeat(lengths, n_rounds))
    csi = CsiState.concat(traces).take(rows)
    code = _MODE_PROTO.get(engine_cfg.mode)
    if code is None:
        proto = select_protocol(csi.rtt, engine_cfg.adaptive_rtt_cutoff_s)
    else:
        proto = np.full(bounds[-1], code, dtype=np.int64)
    start, m, reject_pos, accepted, accepted_critical = (
        np.concatenate([getattr(decisions, name) for decisions in batch])
        for name in ("start", "m", "reject_pos", "accepted", "accepted_critical")
    )
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
        reject_pos=reject_pos,
        accepted=accepted,
        accepted_critical=accepted_critical,
        draft_s=draft_s,
        verify_s=verify_s,
        head_s=head_s,
        proto=proto,
        comm=comm,
        total_s=round_latency(draft_s, comm, verify_s, head_s),
    )
