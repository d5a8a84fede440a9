"""Per-round wireless link state (CSI) and its scalar/vector summaries.

The link at each interaction round is described by uplink/downlink rates,
packet error rates, and a round-trip overhead. Packet errors scale the
usable rate as R(1-PER) (expected goodput), so effective rates stay strictly
positive as long as PER < 1. One type, ``CsiState``, holds the link of one
round (scalar fields) or of many rounds (one array entry per round): a
channel trace is a ``CsiState`` of arrays. Traces are generated from a
seeded generator and are fully reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REGIMES = ("static", "two-state", "sampled")


@dataclass(frozen=True)
class CsiState:
    """Link condition of one interaction round, or of consecutive rounds.

    Rates are finite, in bits/second, PERs are probabilities in [0, 1), rtt
    is the finite per-exchange round-trip overhead in seconds. Fields are
    scalars for one round, or arrays with one entry per round (a channel
    trace); every entry is validated.
    """

    r_up: float | np.ndarray
    r_down: float | np.ndarray
    per_up: float | np.ndarray
    per_down: float | np.ndarray
    rtt: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("r_up", "r_down", "rtt"):
            # A NaN fails none of the checks below; an infinite rate or RTT
            # makes a round's serialization time 0 or its latency infinite.
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.r_up <= 0) or np.any(self.r_down <= 0):
            raise ValueError("link rates must be strictly positive")
        for per in (self.per_up, self.per_down):
            if not np.all((0.0 <= per) & (per < 1.0)):
                raise ValueError("packet error rates must lie in [0, 1)")
        if np.any(self.rtt < 0):
            raise ValueError("rtt must be nonnegative")

    def take(self, rounds: np.ndarray) -> CsiState:
        """The states of ``rounds`` as columns, wrapping around a shorter trace.

        A scalar state is the same link in every round. The entries come
        from this validated state, so they are not checked again.
        """
        return _prevalidated(
            np.asarray(getattr(self, name), dtype=np.float64).take(rounds, mode="wrap")
            for name in _CSI_FIELDS
        )

    @staticmethod
    def concat(states: Sequence[CsiState]) -> CsiState:
        """The rounds of ``states``, one state after another, as one state of columns.

        A scalar state is one round. The entries come from validated states,
        so they are not checked again.
        """
        return _prevalidated(
            np.concatenate([np.atleast_1d(getattr(state, name)) for state in states])
            for name in _CSI_FIELDS
        )


_CSI_FIELDS = ("r_up", "r_down", "per_up", "per_down", "rtt")


def _prevalidated(columns: Iterable[np.ndarray]) -> CsiState:
    """A ``CsiState`` of ``columns`` in field order, whose entries were validated already."""
    state = object.__new__(CsiState)
    for name, column in zip(_CSI_FIELDS, columns):
        object.__setattr__(state, name, column)
    return state


@dataclass(frozen=True)
class NormalizationBounds:
    """Bounds used to map raw link quantities into [0, 1] features.

    Defaults bracket the 20 Mbps .. 1 Gbps / 5 ms .. 50 ms operating range.
    """

    r_min_bps: float = 10e6
    r_max_bps: float = 1e9
    rtt_max_s: float = 0.1

    def __post_init__(self) -> None:
        if not (0 < self.r_min_bps < self.r_max_bps):
            raise ValueError("need 0 < r_min_bps < r_max_bps")
        if not math.isfinite(self.rtt_max_s):
            raise ValueError(f"rtt_max_s must be finite, got {self.rtt_max_s!r}")
        if self.rtt_max_s <= 0:
            raise ValueError("rtt_max_s must be positive")


def effective_rate(state: CsiState, direction: str) -> float | np.ndarray:
    """Expected goodput R*(1-PER) for ``direction`` in {"up", "down"}."""
    if direction == "up":
        return state.r_up * (1.0 - state.per_up)
    if direction == "down":
        return state.r_down * (1.0 - state.per_down)
    raise ValueError(f"unknown direction {direction!r}")


def _log_unit(rate: float | np.ndarray, bounds: NormalizationBounds) -> float | np.ndarray:
    x = (np.log(rate) - math.log(bounds.r_min_bps)) / (
        math.log(bounds.r_max_bps) - math.log(bounds.r_min_bps)
    )
    return np.clip(x, 0.0, 1.0)


def quality(state: CsiState, bounds: NormalizationBounds) -> float | np.ndarray:
    """Channel quality q in [0, 1], one value per round of an array state.

    Log interpolation of the effective uplink goodput between r_min_bps and
    r_max_bps, clamped. Monotone nondecreasing in r_up and nonincreasing in
    per_up.
    """
    return _log_unit(effective_rate(state, "up"), bounds)


def features(state: CsiState, bounds: NormalizationBounds) -> np.ndarray:
    """5-entry CSI feature vector, every entry in [0, 1]; (n, 5) for an array state.

    Layout: [log-unit r_up, log-unit r_down, per_up, per_down,
    rtt / rtt_max_s clamped]. PERs pass through raw (already unit scale).
    """
    return np.stack(
        [
            _log_unit(state.r_up, bounds),
            _log_unit(state.r_down, bounds),
            state.per_up,
            state.per_down,
            np.minimum(1.0, state.rtt / bounds.rtt_max_s),
        ],
        axis=-1,
    )


N_CSI_FEATURES = 5

# The sampled regime's range of each CsiState field, in field order.
RANGE_FIELDS = (
    "rate_up_range_bps", "rate_down_range_bps", "per_up_range", "per_down_range", "rtt_range_s"
)


@dataclass(frozen=True)
class ChannelConfig:
    """Channel generator settings, one of three regimes.

    static: every round repeats the base state.
    two-state: seeded Markov switch between the base and alternate state
        with per-round switch probability ``switch_prob``.
    sampled: every field drawn per round from a uniform range
        ``(lo, hi)``; ranges default to the degenerate base value.

    Every state the regime can produce is checked when the config is built.
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

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown channel regime {self.regime!r}")
        if not 0.0 <= self.switch_prob <= 1.0:
            raise ValueError(f"switch_prob must lie in [0, 1], got {self.switch_prob!r}")
        self.states  # builds, and so validates, the base and alternate state
        spans = self._ranges()
        ends = [(base, base) if span is None else span for base, span in zip(self._base(), spans)]
        for name, (lo, hi) in zip(RANGE_FIELDS, ends):
            if not lo <= hi:
                raise ValueError(f"{name} must have lo <= hi, got {(lo, hi)!r}")
        if any(span is not None for span in spans):
            try:
                CsiState(*np.array(ends, dtype=np.float64))
            except ValueError as exc:
                raise ValueError(f"a sampled range leaves the link's domain: {exc}") from None

    def _base(self) -> tuple:
        return self.rate_up_bps, self.rate_down_bps, self.per_up, self.per_down, self.rtt_s

    def _ranges(self) -> tuple:
        return tuple(getattr(self, name) for name in RANGE_FIELDS)

    @cached_property
    def states(self) -> CsiState:
        """The base state (entry 0) and the alternate state (entry 1) as columns.

        Alternate fields left unset repeat the base value.
        """
        alt = (
            self.alt_rate_up_bps, self.alt_rate_down_bps, self.alt_per_up, self.alt_per_down,
            self.alt_rtt_s,
        )
        return CsiState(
            *(np.array([b, b if a is None else a], dtype=np.float64)
              for b, a in zip(self._base(), alt))
        )


def sampled_states(config: ChannelConfig, rng: np.random.Generator, n: int) -> CsiState:
    """``n`` states of the sampled regime as columns.

    One uniform draw per ranged field and state, state by state and then
    field by field; fields without a range keep their base value.
    """
    spans = config._ranges()
    ranged = [i for i, span in enumerate(spans) if span is not None]
    lo, hi = np.array([spans[i] for i in ranged], dtype=np.float64).reshape(-1, 2).T
    draws = rng.uniform(lo, hi, size=(n, len(ranged)))
    columns = [np.full(n, base, dtype=np.float64) for base in config._base()]
    for j, i in enumerate(ranged):
        columns[i] = draws[:, j]
    return CsiState(*columns)


def generate_trace(config: ChannelConfig, seed: int | list[int], rounds: int) -> CsiState:
    """Generate a reproducible CSI trace: a state of ``rounds``-long columns."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if config.regime == "static":
        return config.states.take(np.zeros(rounds, dtype=np.int64))
    entropy = (seed,) if isinstance(seed, int) else tuple(seed)
    rng = np.random.default_rng([*entropy, 0x5C1])
    if config.regime == "two-state":
        # Round r is in the alternate state after an odd number of switches before it.
        switches = (rng.random(rounds) < config.switch_prob).astype(np.int64)
        return config.states.take((np.cumsum(switches) - switches) % 2)
    return sampled_states(config, rng, rounds)
