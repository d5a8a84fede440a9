"""Payload sizes (bits) and serialization latency (seconds) per round.

Every round of an episode uses one of four wire protocols, coded as in
``LinkBill.proto``:

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

Each protocol is one row of a payload table for the window k, with five
entries: uplink bits, uplink bits per requested hidden state, downlink
bits, downlink bits per request, and exchanges. With the token-ID uplink
``tokens = hdr_up_bits + k*b_id`` and the feedback ``feedback =
hdr_down_bits + b_pos + b_id`` (header, rejected position, corrected
token ID):

    code          uplink                   + per m  downlink                  + per m  exchanges
    PROTO_TOKENS  tokens                   0        feedback                  0        1
    PROTO_DENSE   tokens + k*vocab*b_prob  0        feedback                  0        1
    PROTO_FH      tokens + k*d_h*b_h       0        feedback                  0        1
    PROTO_SH      tokens + hdr_up_bits     d_h*b_h  feedback + hdr_down_bits  b_pos    2

A round with m requests is its row plus m times the per-request entries,
and ``round_comm`` prices it with one formula: serialization time for a
payload of B bits is B / (R * (1 - PER)), and each exchange costs one RTT.
Packet errors are folded into expected goodput; there is no retransmission
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CsiState, effective_rate

# Wire protocol of a round, as stored in LinkBill.proto: token IDs only
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
    hdr_up_bits: int = 320
    hdr_down_bits: int = 320

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        for name in ("d_h", "b_h", "b_pos", "b_prob", "hdr_up_bits", "hdr_down_bits"):
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


def _payload_table(cfg: WireConfig, k: int) -> np.ndarray:
    """The (4, 5) payload table of window ``k``, one row per protocol code."""
    tokens = cfg.hdr_up_bits + k * cfg.b_id
    feedback = cfg.hdr_down_bits + cfg.b_pos + cfg.b_id
    return np.array([
        [tokens, 0, feedback, 0, 1],
        [tokens + k * cfg.vocab_size * cfg.b_prob, 0, feedback, 0, 1],
        [tokens + k * cfg.d_h * cfg.b_h, 0, feedback, 0, 1],
        [tokens + cfg.hdr_up_bits, cfg.d_h * cfg.b_h, feedback + cfg.hdr_down_bits,
         cfg.b_pos, 2],
    ])


def round_comm(
    cfg: WireConfig, k: int, proto: int | np.ndarray, m: int | np.ndarray, csi: CsiState
) -> LatencyBreakdown:
    """Communication of every round under its protocol code ``proto``.

    ``proto``, ``m`` (localized mismatches, 0 <= m <= k) and ``csi`` hold one
    entry per round, or scalars for one round. Each round's bits and
    exchanges are its protocol's row of the payload table, with m requests.
    """
    if k < 1:
        raise ValueError("speculation window must be >= 1")
    if np.any((m < 0) | (m > k)):
        raise ValueError(f"need 0 <= m <= k, got m={m}, k={k}")
    uplink, uplink_per_m, downlink, downlink_per_m, exchanges = _payload_table(cfg, k)[proto].T
    uplink_bits = uplink + m * uplink_per_m
    downlink_bits = downlink + m * downlink_per_m
    return LatencyBreakdown(
        uplink_s=uplink_bits / effective_rate(csi, "up"),
        downlink_s=downlink_bits / effective_rate(csi, "down"),
        rtt_s=exchanges * csi.rtt,
        uplink_bits=uplink_bits,
        downlink_bits=downlink_bits,
    )
