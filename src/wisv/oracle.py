"""Synthetic drafter/target token source with controllable agreement.

Stands in for the real model pair. Every per-position quantity (mismatch
flag, criticality latent, token IDs, hidden vectors, and, for the
dense-probability baseline, the per-position token distributions and
speculative-sampling draws) is pregenerated for a whole episode, indexed by
absolute token position, in fixed blocks of positions with one seeded
generator per block. Because the draws are keyed to positions rather than
to rounds or to the oracle's length, every engine run over the same episode
sees identical data at every position, whatever its mode, window, threshold
or protocol; this is what makes the threshold-monotonicity and
protocol-equivalence properties exact rather than statistical, and what
pairs the sweep's window sizes.

Hidden vectors follow a linear-Gaussian family: h = sep * u * v + noise,
with u the 0/1 criticality latent and v a fixed unit direction per side.
A Bayes-optimal linear probe on the concatenated hiddens then has a known
error rate, which guarantees (and lets tests verify) that the decision
head has signal to learn.
"""

from __future__ import annotations

import math
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
        for name in ("sep", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sep < 0 or self.noise <= 0:
            raise ValueError("need sep >= 0 and noise > 0")
        if min(self.d_h_draft, self.d_h_target) < 1:
            raise ValueError("hidden dims must be positive")
        if self.vocab_syn < 2:
            raise ValueError("vocab_syn must be >= 2")
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError("mixing must lie in [0, 1]")


def unit_direction(dim: int) -> np.ndarray:
    """Fixed class-mean direction used for both hidden-vector sides."""
    return np.full(dim, 1.0 / np.sqrt(dim))


# Positions per block: each block is drawn from its own generator.
BLOCK = 128


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row i's categorical draw at uniform ``u[i]``, from row i's cumulative sums."""
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def speculative_columns(
    p_draft: np.ndarray, p_target: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Speculative sampling's draft at every position: (draft, accept).

    Row i of the (n, vocab) distributions and the (n, 4) uniforms gives
    position i's draft token y ~ p_draft (at u[i, 0]) and whether it is
    accepted, u[i, 1] < min(1, p_target(y) / p_draft(y)). The token the
    window emits at its fix position is ``speculative_fix``'s, from the
    same row. A decode drafts a position at most once and never drafts a
    bonus position, so one draw per position is exact speculative sampling.
    """
    rows = np.arange(len(u))
    draft = _inverse_cdf(np.cumsum(p_draft, axis=1), u[:, 0])
    accept = u[:, 1] < np.minimum(1.0, p_target[rows, draft] / p_draft[rows, draft])
    return draft, accept


def speculative_fix(
    p_draft: np.ndarray, p_target: np.ndarray, u: np.ndarray, rejected: np.ndarray
) -> np.ndarray:
    """The token speculative sampling emits at each row's fix position.

    Where ``rejected``, the row's draft was rejected, and the token is
    drawn from the normalized residual max(p_target - p_draft, 0), or from
    p_target where that is all zero (at u[i, 2]); elsewhere the window was
    fully accepted, and the bonus token is drawn from p_target (at u[i, 3]).
    Each row's cumulative sums are its own sequential adds, so a row draws
    the same token whichever rows are drawn with it.
    """
    target_cdf = np.cumsum(p_target, axis=1)
    residual_cdf = np.cumsum(np.maximum(p_target - p_draft, 0.0), axis=1)
    total = residual_cdf[:, -1]
    degenerate = total <= 0.0
    residual_cdf[degenerate] = target_cdf[degenerate]
    # The residual is drawn unnormalized: its cumulative sums against u * total.
    residual = _inverse_cdf(residual_cdf, u[:, 2] * np.where(degenerate, 1.0, total))
    return np.where(rejected, residual, _inverse_cdf(target_cdf, u[:, 3]))


class EpisodeOracle:
    """All token-level ground truth for one generation episode, as position columns.

    Entry i of every column belongs to absolute position i. ``n_positions``
    must cover every position an engine variant can touch (prefix + token
    budget + one overshooting window). Block b of ``BLOCK`` positions is
    drawn from the generator seeded ``[config.seed, *seed, b]``: the
    mismatch and criticality uniforms, the draft tokens and target offsets,
    the hidden noise, and only then, ``with_distributions``, the
    distribution pair and the speculative-sampling uniforms. So a
    position's data depends neither on ``n_positions`` nor on
    ``with_distributions``. Without them, ``p_draft``, ``p_target``,
    ``sd_reject``'s ``speculative_columns`` (``spec_draft``, ``spec_accept``)
    and their uniforms ``spec_u`` are None.
    """

    def __init__(
        self,
        config: OracleConfig,
        seed: int | list[int],
        n_positions: int,
        with_distributions: bool = False,
    ):
        self.n_positions = n = n_positions
        extra = [seed] if isinstance(seed, int) else list(seed)
        v, d_d = config.vocab_syn, config.d_h_draft
        draws = []
        for block in range(-(-n // BLOCK)):
            rng = np.random.default_rng([config.seed, *extra, block])
            fields = [rng.random((BLOCK, 2)), rng.integers([0, 1], v, size=(BLOCK, 2)),
                      rng.standard_normal((BLOCK, d_d + config.d_h_target))]
            if with_distributions:
                fields += [rng.dirichlet(np.ones(v), size=(2, BLOCK)).transpose(1, 0, 2),
                           rng.random((BLOCK, 4))]
            draws.append(fields)
        uniforms, tokens, noise, *sampling = (np.concatenate(f)[:n] for f in zip(*draws))
        self.mismatch = uniforms[:, 0] >= config.p_match
        self.crit = self.mismatch & (uniforms[:, 1] < config.p_crit)
        self.draft_tokens = tokens[:, 0]
        # A nonzero modular offset guarantees target != draft at mismatches.
        self.target_tokens = np.where(self.mismatch, tokens.sum(axis=1) % v, self.draft_tokens)
        u = config.sep * self.crit[:, None]
        self.h_draft = u * unit_direction(d_d) + config.noise * noise[:, :d_d]
        self.h_target = u * unit_direction(config.d_h_target) + config.noise * noise[:, d_d:]
        self.p_draft = self.p_target = None
        self.spec_draft = self.spec_accept = self.spec_u = None
        if with_distributions:
            pair, self.spec_u = sampling
            self.p_target = pair[:, 0]
            self.p_draft = (1.0 - config.mixing) * self.p_target + config.mixing * pair[:, 1]
            self.spec_draft, self.spec_accept = speculative_columns(self.p_draft, self.p_target,
                                                                    self.spec_u)


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

