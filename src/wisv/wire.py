"""Payload sizes (bits) and serialization latency (seconds) per exchange.

Three message patterns are modeled:

* full-hidden: one uplink carrying token IDs plus every drafter hidden
  state, one downlink feedback, one round-trip overhead.
* selective-hidden: token-ID uplink, position-request downlink, on-demand
  hidden uplink, feedback downlink, two round-trip overheads.
* dense-probability baseline: one uplink carrying token IDs plus a full
  vocabulary of probabilities per position.

Serialization time for a payload of B bits is B / (R * (1 - PER)); packet
errors are folded into expected goodput, there is no retransmission state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CsiState, effective_rate


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
    """Latency split of one exchange; total_s is the exact component sum.

    Fields are scalars for one exchange, or arrays with one entry per round
    when the ``CsiState`` holds per-round arrays.
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


def single_exchange_latency(
    uplink_bits: int, downlink_bits: int, csi: CsiState
) -> LatencyBreakdown:
    """Latency of one uplink + one downlink + one round trip."""
    return LatencyBreakdown(
        uplink_s=uplink_bits / effective_rate(csi, "up"),
        downlink_s=downlink_bits / effective_rate(csi, "down"),
        rtt_s=csi.rtt,
        uplink_bits=uplink_bits,
        downlink_bits=downlink_bits,
    )


def comm_latency_fh(cfg: WireConfig, k: int, csi: CsiState) -> LatencyBreakdown:
    """Full-hidden round: uplink serialization + feedback + one RTT."""
    return single_exchange_latency(fh_uplink_bits(cfg, k), feedback_bits(cfg), csi)


def comm_latency_sh(
    cfg: WireConfig, k: int, m: int | np.ndarray, csi: CsiState
) -> LatencyBreakdown:
    """Selective-hidden round: four serialization terms + two RTTs."""
    u1, req, u2 = sh_bits(cfg, k, m)
    fb = feedback_bits(cfg)
    return LatencyBreakdown(
        uplink_s=(u1 + u2) / effective_rate(csi, "up"),
        downlink_s=(req + fb) / effective_rate(csi, "down"),
        rtt_s=2.0 * csi.rtt,
        uplink_bits=u1 + u2,
        downlink_bits=req + fb,
    )
