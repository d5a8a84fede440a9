"""Per-round wireless link state (CSI) and its scalar/vector summaries.

The link at each interaction round is described by uplink/downlink rates,
packet error rates, and a round-trip overhead. Packet errors scale the
usable rate as R(1-PER) (expected goodput), so effective rates stay strictly
positive as long as PER < 1. Channel traces are generated from a seeded
generator and are fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REGIMES = ("static", "two-state", "sampled")


@dataclass(frozen=True)
class CsiState:
    """Link condition for one interaction round.

    Rates are in bits/second, PERs are probabilities in [0, 1), rtt is the
    per-exchange round-trip overhead in seconds.
    """

    r_up: float
    r_down: float
    per_up: float
    per_down: float
    rtt: float

    def __post_init__(self) -> None:
        if self.r_up <= 0 or self.r_down <= 0:
            raise ValueError("link rates must be strictly positive")
        if not (0.0 <= self.per_up < 1.0 and 0.0 <= self.per_down < 1.0):
            raise ValueError("packet error rates must lie in [0, 1)")
        if self.rtt < 0:
            raise ValueError("rtt must be nonnegative")


@dataclass(frozen=True)
class CsiColumns:
    """Link conditions of consecutive rounds, one array entry per round.

    Same fields as ``CsiState``, so ``effective_rate`` and the wire latency
    functions accept either; the states were validated when created.
    """

    r_up: np.ndarray
    r_down: np.ndarray
    per_up: np.ndarray
    per_down: np.ndarray
    rtt: np.ndarray


@dataclass(frozen=True)
class NormalizationBounds:
    """Bounds used to map raw link quantities into [0, 1] features.

    Defaults bracket the 20 Mbps .. 1 Gbps / 5 ms .. 50 ms operating range.
    """

    r_min: float = 10e6
    r_max: float = 1e9
    rtt_max: float = 0.1

    def __post_init__(self) -> None:
        if not (0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.rtt_max <= 0:
            raise ValueError("rtt_max must be positive")


def effective_rate(state: CsiState | CsiColumns, direction: str) -> float | np.ndarray:
    """Expected goodput R*(1-PER) for ``direction`` in {"up", "down"}."""
    if direction == "up":
        return state.r_up * (1.0 - state.per_up)
    if direction == "down":
        return state.r_down * (1.0 - state.per_down)
    raise ValueError(f"unknown direction {direction!r}")


def _log_unit(rate: float, bounds: NormalizationBounds) -> float:
    x = (math.log(rate) - math.log(bounds.r_min)) / (
        math.log(bounds.r_max) - math.log(bounds.r_min)
    )
    return min(1.0, max(0.0, x))


def quality(state: CsiState, bounds: NormalizationBounds) -> float:
    """Scalar channel quality q in [0, 1].

    Log interpolation of the effective uplink goodput between r_min and
    r_max, clamped. Monotone nondecreasing in r_up and nonincreasing in
    per_up.
    """
    return _log_unit(effective_rate(state, "up"), bounds)


def features(state: CsiState, bounds: NormalizationBounds) -> np.ndarray:
    """5-entry CSI feature vector, every entry in [0, 1].

    Layout: [log-unit r_up, log-unit r_down, per_up, per_down,
    rtt / rtt_max clamped]. PERs pass through raw (already unit scale).
    """
    return np.array(
        [
            _log_unit(state.r_up, bounds),
            _log_unit(state.r_down, bounds),
            state.per_up,
            state.per_down,
            min(1.0, state.rtt / bounds.rtt_max),
        ],
        dtype=np.float64,
    )


N_CSI_FEATURES = 5


@dataclass(frozen=True)
class ChannelConfig:
    """Channel generator settings, one of three regimes.

    static: every round repeats the base state.
    two-state: seeded Markov switch between the base and alternate state
        with per-round switch probability ``switch_prob``.
    sampled: every field drawn per round from a uniform range
        ``(lo, hi)``; ranges default to the degenerate base value.
    """

    rate_up_bps: float = 500e6
    rate_down_bps: float = 500e6
    per_up: float = 0.0
    per_down: float = 0.0
    rtt_s: float = 0.05
    regime: str = "static"
    # two-state regime
    alt_rate_up_bps: float | None = None
    alt_rate_down_bps: float | None = None
    alt_per_up: float | None = None
    alt_per_down: float | None = None
    alt_rtt_s: float | None = None
    switch_prob: float = 0.1
    # sampled regime; None means "fixed at the base value"
    rate_up_range_bps: tuple[float, float] | None = None
    rate_down_range_bps: tuple[float, float] | None = None
    per_up_range: tuple[float, float] | None = None
    per_down_range: tuple[float, float] | None = None
    rtt_range_s: tuple[float, float] | None = None

    def base_state(self) -> CsiState:
        return CsiState(
            self.rate_up_bps, self.rate_down_bps, self.per_up, self.per_down, self.rtt_s
        )

    def alt_state(self) -> CsiState:
        def pick(alt, base):
            return base if alt is None else alt

        return CsiState(
            pick(self.alt_rate_up_bps, self.rate_up_bps),
            pick(self.alt_rate_down_bps, self.rate_down_bps),
            pick(self.alt_per_up, self.per_up),
            pick(self.alt_per_down, self.per_down),
            pick(self.alt_rtt_s, self.rtt_s),
        )


@dataclass
class ChannelTrace:
    """Per-round CSI sequence; same seed and config always reproduce it."""

    states: list[CsiState]
    seed: tuple[int, ...]
    regime: str

    def __len__(self) -> int:
        return len(self.states)

    def at_round(self, r: int) -> CsiState:
        """State for round ``r``; traces shorter than a run wrap around."""
        return self.states[r % len(self.states)]

    def columns(self, n_rounds: int) -> CsiColumns:
        """States of rounds 0 .. n_rounds-1 as arrays, wrapping like ``at_round``."""
        rows = [
            (s.r_up, s.r_down, s.per_up, s.per_down, s.rtt)
            for s in map(self.at_round, range(n_rounds))
        ]
        return CsiColumns(*np.array(rows, dtype=np.float64).T)


def generate_trace(
    config: ChannelConfig, seed: int | list[int], rounds: int
) -> ChannelTrace:
    """Generate a reproducible ``rounds``-long CSI trace."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if config.regime not in REGIMES:
        raise ValueError(f"unknown channel regime {config.regime!r}")
    entropy = (seed,) if isinstance(seed, int) else tuple(seed)

    if config.regime == "static":
        states = [config.base_state()] * rounds
    elif config.regime == "two-state":
        rng = np.random.default_rng([*entropy, 0x5C1])
        pair = (config.base_state(), config.alt_state())
        cur = 0
        states = []
        for _ in range(rounds):
            states.append(pair[cur])
            if rng.random() < config.switch_prob:
                cur = 1 - cur
    else:
        rng = np.random.default_rng([*entropy, 0x5C1])
        states = [sample_state(config, rng) for _ in range(rounds)]
    return ChannelTrace(states=states, seed=entropy, regime=config.regime)


def sample_state(config: ChannelConfig, rng: np.random.Generator) -> CsiState:
    """One uniform draw per field for the sampled regime."""

    def draw(rng_range, base):
        if rng_range is None:
            return base
        lo, hi = rng_range
        return float(rng.uniform(lo, hi))

    return CsiState(
        draw(config.rate_up_range_bps, config.rate_up_bps),
        draw(config.rate_down_range_bps, config.rate_down_bps),
        draw(config.per_up_range, config.per_up),
        draw(config.per_down_range, config.per_down),
        draw(config.rtt_range_s, config.rtt_s),
    )
