"""Payload sizes (bits) and serialization latency (seconds) per round.

Every round of an episode uses one of four wire protocols, coded as in
``EpisodeResult.proto``:

* token IDs only (greedy baseline): one uplink carrying the window's token
  IDs, one downlink feedback, one exchange.
* dense probability (rejection-sampling baseline): one uplink carrying token
  IDs plus a full vocabulary of probabilities per position, feedback, one
  exchange.
* full-hidden (FH): one uplink carrying token IDs plus every drafter hidden
  state, feedback, one exchange.
* selective-hidden (SH): the token-ID uplink, then a position-request
  downlink and an on-demand hidden uplink for the m localized mismatches,
  then feedback: two exchanges.

A round is therefore a row of (uplink bits, downlink bits, exchanges), and
``round_comm`` prices every row with one formula: serialization time for a
payload of B bits is B / (R * (1 - PER)), and each exchange costs one RTT.
Packet errors are folded into expected goodput; there is no retransmission
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CsiState, effective_rate

# Wire protocol of a round, as stored in EpisodeResult.proto: token IDs only
# (greedy), dense probabilities (rejection sampling), full or selective
# hidden upload. The head-verified protocols FH and SH have the highest
# codes. PROTO_NAMES is what the per-round records report.
PROTO_TOKENS, PROTO_DENSE, PROTO_FH, PROTO_SH = range(4)
PROTO_NAMES = (None, None, "FH", "SH")


@dataclass(frozen=True)
class WireConfig:
    """Bit-accounting constants for one device-edge deployment.

    ``b_id`` is always ceil(log2(vocab_size)) and is derived, not set.
    Headers default to 320 bits (a 40-byte transport header) per message.
    """

    vocab_size: int = 128256
    d_h: int = 2048
    b_h: int = 16
    b_pos: int = 16
    b_prob: int = 16
    hdr_up: int = 320
    hdr_down: int = 320

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        for name in ("d_h", "b_h", "b_pos", "b_prob", "hdr_up", "hdr_down"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def b_id(self) -> int:
        return math.ceil(math.log2(self.vocab_size))


@dataclass(frozen=True)
class LatencyBreakdown:
    """Communication latency split of one round; total_s is the exact component sum.

    Fields are scalars for one round, or arrays with one entry per round.
    """

    uplink_s: float | np.ndarray
    downlink_s: float | np.ndarray
    rtt_s: float | np.ndarray
    uplink_bits: int | np.ndarray
    downlink_bits: int | np.ndarray

    @property
    def total_s(self) -> float | np.ndarray:
        return self.uplink_s + self.downlink_s + self.rtt_s


def hidden_bits(cfg: WireConfig) -> int:
    """Bits for one drafter hidden vector: d_h * b_h."""
    return cfg.d_h * cfg.b_h


def feedback_bits(cfg: WireConfig) -> int:
    """Downlink feedback: header + rejected-position index + corrected token ID."""
    return cfg.hdr_down + cfg.b_pos + cfg.b_id


def token_uplink_bits(cfg: WireConfig, k: int) -> int:
    """Token-IDs-only uplink (greedy baseline; also the first SH uplink)."""
    if k < 1:
        raise ValueError("speculation window must be >= 1")
    return cfg.hdr_up + k * cfg.b_id


def fh_uplink_bits(cfg: WireConfig, k: int) -> int:
    """Full-hidden uplink: token IDs plus all k hidden vectors."""
    if k < 1:
        raise ValueError("speculation window must be >= 1")
    return cfg.hdr_up + k * cfg.b_id + k * hidden_bits(cfg)


def sh_bits(cfg: WireConfig, k: int, m: int | np.ndarray) -> tuple[int, int, int]:
    """Selective-hidden payload triple (first uplink, request, second uplink).

    ``m`` is the number of positions whose hidden states the edge requests;
    0 <= m <= k. It may be an array of per-round counts.
    """
    if np.any((m < 0) | (m > k)):
        raise ValueError(f"need 0 <= m <= k, got m={m}, k={k}")
    u1 = token_uplink_bits(cfg, k)
    req = cfg.hdr_down + m * cfg.b_pos
    u2 = cfg.hdr_up + m * hidden_bits(cfg)
    return u1, req, u2


def reject_uplink_bits(cfg: WireConfig, k: int) -> int:
    """Dense-probability uplink: token IDs plus k full-vocab rows of b_prob bits."""
    if k < 1:
        raise ValueError("speculation window must be >= 1")
    return cfg.hdr_up + k * cfg.b_id + k * cfg.vocab_size * cfg.b_prob


# First uplink of each protocol, indexed by its code; SH's sends token IDs only.
_FIRST_UPLINK = (token_uplink_bits, reject_uplink_bits, fh_uplink_bits, token_uplink_bits)


def round_comm(
    cfg: WireConfig, k: int, proto: int | np.ndarray, m: int | np.ndarray, csi: CsiState
) -> LatencyBreakdown:
    """Communication of every round under its protocol code ``proto``.

    ``proto``, ``m`` (localized mismatches, 0 <= m <= k) and ``csi`` hold one
    entry per round, or scalars for one round. The uplink is the protocol's
    first uplink plus, on SH rounds, the on-demand hidden uplink; the
    downlink is the feedback plus, on SH rounds, the position request. SH
    rounds pay two exchanges, all others one.
    """
    _, request, hidden_uplink = sh_bits(cfg, k, m)
    first_uplink = np.array([uplink(cfg, k) for uplink in _FIRST_UPLINK])
    sh = proto == PROTO_SH
    uplink_bits = first_uplink[proto] + np.where(sh, hidden_uplink, 0)
    downlink_bits = feedback_bits(cfg) + np.where(sh, request, 0)
    exchanges = np.where(sh, 2, 1)
    return LatencyBreakdown(
        uplink_s=uplink_bits / effective_rate(csi, "up"),
        downlink_s=downlink_bits / effective_rate(csi, "down"),
        rtt_s=exchanges * csi.rtt,
        uplink_bits=uplink_bits,
        downlink_bits=downlink_bits,
    )
