"""Synthetic drafter/target token source with controllable agreement.

Stands in for the real model pair. Every per-position quantity (mismatch
flag, criticality latent, token IDs, hidden vectors, and the per-position
token distributions used by the dense-probability baseline) is pregenerated
for a whole episode from one seeded generator, indexed by absolute token
position. Because the draws are keyed to positions rather than to rounds,
two engine runs over the same episode that make different acceptance
decisions still see identical data at every position; this is what makes
the threshold-monotonicity and protocol-equivalence properties exact
rather than statistical.

Hidden vectors follow a linear-Gaussian family: h = sep * u * v + noise,
with u the 0/1 criticality latent and v a fixed unit direction per side.
A Bayes-optimal linear probe on the concatenated hiddens then has a known
error rate, which guarantees (and lets tests verify) that the decision
head has signal to learn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OracleConfig:
    """Agreement statistics and feature geometry of the synthetic model pair.

    p_match: per-position probability the draft token equals the target
        argmax. p_crit: probability a mismatch is critical. sep/noise: class
        separation and Gaussian noise scale of the hidden vectors.
    mixing: divergence knob for the per-position distributions (0 makes
        drafter and target distributions identical).
    """

    p_match: float = 0.923
    p_crit: float = 0.3
    sep: float = 4.0
    noise: float = 1.0
    d_h_draft: int = 32
    d_h_target: int = 32
    vocab_syn: int = 64
    mixing: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.p_match <= 1.0:
            raise ValueError("p_match must lie in (0, 1]")
        if not 0.0 <= self.p_crit <= 1.0:
            raise ValueError("p_crit must lie in [0, 1]")
        if self.sep < 0 or self.noise <= 0:
            raise ValueError("need sep >= 0 and noise > 0")
        if min(self.d_h_draft, self.d_h_target) < 1:
            raise ValueError("hidden dims must be positive")
        if self.vocab_syn < 2:
            raise ValueError("vocab_syn must be >= 2")
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError("mixing must lie in [0, 1]")


@dataclass
class DraftBlock:
    """Drafter output for one round, sliced from the episode arrays."""

    start: int
    tokens: np.ndarray
    hiddens_draft: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class TargetView:
    """Verifier-side view of a block: k+1 argmax tokens and k hiddens."""

    argmax: np.ndarray
    hiddens_target: np.ndarray


def unit_direction(dim: int) -> np.ndarray:
    """Fixed class-mean direction used for both hidden-vector sides."""
    return np.full(dim, 1.0 / np.sqrt(dim))


class EpisodeOracle:
    """All token-level ground truth for one generation episode.

    ``n_positions`` must cover every position any engine variant can touch
    (prefix + token budget + one overshooting window). Distribution pairs
    for the dense-probability baseline are only materialized when
    ``with_distributions`` is set, since they dominate generation cost.
    """

    def __init__(
        self,
        config: OracleConfig,
        seed: int | list[int],
        n_positions: int,
        with_distributions: bool = False,
    ):
        self.config = config
        self.n_positions = n_positions
        extra = [seed] if isinstance(seed, int) else list(seed)
        rng = np.random.default_rng([config.seed, *extra])
        n = n_positions
        self.mismatch = rng.random(n) >= config.p_match
        self.crit = self.mismatch & (rng.random(n) < config.p_crit)
        self.draft_tokens = rng.integers(0, config.vocab_syn, size=n)
        # A nonzero modular offset guarantees target != draft at mismatches.
        offsets = rng.integers(1, config.vocab_syn, size=n)
        self.target_tokens = np.where(
            self.mismatch,
            (self.draft_tokens + offsets) % config.vocab_syn,
            self.draft_tokens,
        )
        u = self.crit.astype(np.float64)[:, None]
        self.h_draft = config.sep * u * unit_direction(config.d_h_draft)[None, :]
        self.h_draft += config.noise * rng.standard_normal((n, config.d_h_draft))
        self.h_target = config.sep * u * unit_direction(config.d_h_target)[None, :]
        self.h_target += config.noise * rng.standard_normal((n, config.d_h_target))
        self.p_draft: np.ndarray | None = None
        self.p_target: np.ndarray | None = None
        if with_distributions:
            v = config.vocab_syn
            self.p_target = rng.dirichlet(np.ones(v), size=n)
            other = rng.dirichlet(np.ones(v), size=n)
            self.p_draft = (1.0 - config.mixing) * self.p_target + config.mixing * other

    def draft(self, prefix_len: int, k: int) -> DraftBlock:
        """Drafter block of k tokens starting at position ``prefix_len``."""
        if k < 1:
            raise ValueError("block length must be >= 1")
        if prefix_len + k + 1 > self.n_positions:
            raise IndexError("episode oracle ran out of pregenerated positions")
        s = slice(prefix_len, prefix_len + k)
        return DraftBlock(
            start=prefix_len,
            tokens=self.draft_tokens[s],
            hiddens_draft=self.h_draft[s],
        )

    def verify_view(self, block: DraftBlock) -> TargetView:
        """Target-side verification of ``block``: k+1 argmax tokens and hiddens.

        The extra argmax token supports the bonus commit on full acceptance.
        """
        lo, k = block.start, len(block)
        return TargetView(
            argmax=self.target_tokens[lo : lo + k + 1],
            hiddens_target=self.h_target[lo : lo + k],
        )

    def distributions(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-position (drafter, target) distributions over the small vocab."""
        if self.p_draft is None or self.p_target is None:
            raise RuntimeError("oracle was built without distributions")
        return self.p_draft[position], self.p_target[position]


def geometric_accepted_length(p_match: float, k: int) -> float:
    """Closed-form E[accepted length] before the first mismatch: sum a^i, i=1..k."""
    if p_match >= 1.0:
        return float(k)
    a = p_match
    return a * (1.0 - a**k) / (1.0 - a)


def calibrate_p_match(target_aal: float, k: int, tol: float = 1e-9) -> float:
    """Bisect for the per-position match probability hitting a target AAL.

    Solves sum_{i=1..k} a^i = target_aal for a in (0, 1).
    """
    if not 0.0 < target_aal < k:
        raise ValueError(f"target AAL must lie in (0, {k}), got {target_aal}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if geometric_accepted_length(mid, k) < target_aal:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    a = 0.5 * (lo + hi)
    assert abs(geometric_accepted_length(a, k) - target_aal) < 1e-6
    return a

