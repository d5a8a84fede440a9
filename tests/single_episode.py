"""One episode through the primitives eval's sweep calls, and the small system and
hand-built oracles that the engine and head tests run it on."""

import numpy as np

from wisv.channel import N_CSI_FEATURES, CsiState, NormalizationBounds
from wisv.compute import FlopsConstants, HardwareProfile, ModelDims
from wisv.engine import (
    EngineConfig,
    Lane,
    SystemModel,
    TraceBatch,
    decide,
    head_screens,
    price_link,
)
from wisv.metrics import episode_totals
from wisv.oracle import EpisodeOracle, OracleConfig
from wisv.wire import WireConfig


def one_episode(system, engine_cfg, oracle, trace, head=None):
    """Decide ``oracle``'s episode as one lane and bill it on ``trace`` as a batch of one.

    The head-verified modes screen with ``head``; without one, ``decide``
    refuses them. Returns the one-lane ``Decisions``, the ``LinkBill`` and
    the episode's ``EpisodeTotals``.
    """
    screen = None
    if engine_cfg.mode.startswith("wisv") and head is not None:
        (screen,) = head_screens(head, oracle, [trace], system.bounds)
    decisions = decide([Lane(engine_cfg, oracle, screen)])
    bill = price_link(system, engine_cfg, decisions, TraceBatch.of([trace]))
    (totals,) = episode_totals(bill)
    return decisions, bill, totals


def small_system():
    system = SystemModel(
        wire=WireConfig(),
        draft_dims=ModelDims(16, 2048, 8192, 128256),
        target_dims=ModelDims(32, 4096, 14336, 128256),
        consts=FlopsConstants(),
        hw_draft=HardwareProfile(10e12, 0.30),
        hw_target=HardwareProfile(150e12, 0.40),
        bounds=NormalizationBounds(),
        head_d_j=256,
    )
    # The deployed head reads the drafter hidden, the target hidden and the CSI.
    assert system.head_d_in == 2048 + 4096 + N_CSI_FEATURES == 6149
    return system


SYSTEM = small_system()
CSI = CsiState(500e6, 500e6, 0.0, 0.0, 0.05)


def oracle_config(**kw):
    base = dict(p_match=0.9, p_crit=0.3, d_h_draft=4, d_h_target=4, seed=17)
    base.update(kw)
    return OracleConfig(**base)


def crafted_oracle(tokens, argmax, crit=None, h_draft=None, h_target=None):
    """Oracle whose window at position 0 holds exactly the given block.

    ``argmax`` has k+1 entries (the last is the bonus token); hiddens are
    (k, d) arrays, zeros when omitted.
    """
    tokens, argmax = np.asarray(tokens), np.asarray(argmax)
    k = len(tokens)
    h_draft = np.zeros((k, 1)) if h_draft is None else np.asarray(h_draft, dtype=float)
    h_target = np.zeros((k, 1)) if h_target is None else np.asarray(h_target, dtype=float)
    cfg = oracle_config(p_match=1.0, d_h_draft=h_draft.shape[1], d_h_target=h_target.shape[1])
    oracle = EpisodeOracle(cfg, seed=0, n_positions=2 * k + 3)
    oracle.draft_tokens[:k] = tokens
    oracle.target_tokens[: k + 1] = argmax
    oracle.mismatch[:k] = tokens != argmax[:k]
    oracle.crit[:k] = np.zeros(k, dtype=bool) if crit is None else crit
    oracle.h_draft[:k] = h_draft
    oracle.h_target[:k] = h_target
    return oracle


def run_one_round(oracle, mode, k, params=None, tau=0.5, csi=CSI):
    """The decisions and bill of exactly one round of the hand-built oracle."""
    eng = EngineConfig(mode=mode, window=k, tau=tau, max_tokens=1, prefix_len=0)
    trace = csi.take(np.zeros(1, dtype=np.int64))  # a one-round trace
    decisions, bill, _ = one_episode(SYSTEM, eng, oracle, trace, params)
    assert decisions.n_rounds == 1
    return decisions, bill
