"""FLOPs-based execution-time model for drafter, verifier, and decision head.

Per-token cost of a decoder-only transformer at context length l:

    N * (c1*d^2 + c2*d*d_ff + c3*l*d) + c4*d*V

c1 covers the attention projections, c2 the gated MLP, c3 the two
attention matmuls against the cached context, c4 the LM head. A round's
draft and verify costs are one closed form, ``window_flops``, under the
drafter's and the target's dimensions. Execution time is
flops / (utilization * peak_flops); no roofline beyond the scalar
utilization factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wire import LatencyBreakdown


@dataclass(frozen=True)
class ModelDims:
    layers: int
    hidden: int
    ffn: int
    vocab: int

    def __post_init__(self) -> None:
        if min(self.layers, self.hidden, self.ffn, self.vocab) < 1:
            raise ValueError("all model dimensions must be positive")


@dataclass(frozen=True)
class HardwareProfile:
    """Peak throughput in FLOPs/s and an effective utilization in (0, 1]."""

    peak_flops: float
    utilization: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.peak_flops):
            raise ValueError(f"peak_flops must be finite, got {self.peak_flops!r}")
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must lie in (0, 1]")


@dataclass(frozen=True)
class FlopsConstants:
    c1: float = 8.0
    c2: float = 6.0
    c3: float = 4.0
    c4: float = 2.0

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if min(self.c1, self.c2, self.c3, self.c4) <= 0:
            raise ValueError("all constants must be positive")


# Named (drafter, target) dimension bundles selectable from the config file.
MODEL_PRESETS: dict[str, tuple[ModelDims, ModelDims]] = {
    "llama-1b-8b": (
        ModelDims(layers=16, hidden=2048, ffn=8192, vocab=128256),
        ModelDims(layers=32, hidden=4096, ffn=14336, vocab=128256),
    ),
    "qwen-0.5b-7b": (
        ModelDims(layers=24, hidden=896, ffn=4864, vocab=151936),
        ModelDims(layers=28, hidden=3584, ffn=18944, vocab=152064),
    ),
}


def per_token_flops(dims: ModelDims, consts: FlopsConstants, ctx_len: int) -> float:
    """FLOPs to decode one token at context length ``ctx_len``."""
    if ctx_len < 0:
        raise ValueError("context length must be nonnegative")
    d = dims.hidden
    return (
        dims.layers * (consts.c1 * d * d + consts.c2 * d * dims.ffn + consts.c3 * ctx_len * d)
        + consts.c4 * d * dims.vocab
    )


def window_flops(
    dims: ModelDims, consts: FlopsConstants, prefix: int | np.ndarray, k: int
) -> float | np.ndarray:
    """FLOPs to run a k-token window on a ``prefix``-token context.

    The drafter extending the context by k tokens and the target verifying
    the k-token block follow the same causal chain: the closed form of the
    sum over l = prefix .. prefix+k-1 of ``per_token_flops(l)``, whose
    context term contributes N*c3*d * (k*prefix + k*(k-1)/2). ``prefix`` may
    be an array of per-round prefix lengths.
    """
    if k < 1:
        raise ValueError("block length must be >= 1")
    if np.any(prefix < 0):
        raise ValueError("prefix length must be nonnegative")
    fixed = per_token_flops(dims, consts, 0)
    ctx_sum = k * prefix + k * (k - 1) // 2
    return k * fixed + dims.layers * consts.c3 * dims.hidden * ctx_sum


def head_flops(d_in: int, d_j: int, m: int | np.ndarray) -> float | np.ndarray:
    """Decision-head FLOPs for ``m`` evaluated positions (scalar or per round)."""
    if np.any(m < 0):
        raise ValueError("position count must be nonnegative")
    return m * (2 * d_in * d_j + d_j + 2 * d_j + 1)


def exec_time(flops: float, hw: HardwareProfile) -> float:
    """Seconds to execute ``flops`` at the profile's effective throughput."""
    return flops / (hw.utilization * hw.peak_flops)


def round_latency(
    draft_s: float, comm: LatencyBreakdown, verify_s: float, head_s: float
) -> float:
    """Strictly additive per-round latency: compute + communication + head."""
    return draft_s + comm.total_s + verify_s + head_s
