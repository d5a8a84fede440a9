import math
from dataclasses import replace

import numpy as np
import pytest
from single_episode import (
    CSI,
    SYSTEM,
    crafted_oracle,
    one_episode,
    oracle_config,
    run_one_round,
)

from wisv.channel import (
    N_CSI_FEATURES,
    ChannelConfig,
    CsiState,
    NormalizationBounds,
    effective_rate,
    features,
    generate_trace,
)
from wisv.compute import FlopsConstants, HardwareProfile, exec_time, head_flops, window_flops
from wisv.engine import (
    MODES,
    ROUND_COLUMNS,
    Decisions,
    EngineConfig,
    Lane,
    TraceBatch,
    committed_tokens,
    decide,
    episode_oracle,
    head_screens,
    link_term,
    price_link,
    screen_p,
    select_protocol,
)
from wisv.head import HeadParams, forward_batch, init_params
from wisv.oracle import (
    EpisodeOracle,
    OracleConfig,
    geometric_accepted_length,
    speculative_columns,
    speculative_fix,
)
from wisv.wire import PROTO_DENSE, PROTO_FH, PROTO_SH, PROTO_TOKENS


def static_trace(rate=500e6, rtt=0.05, rounds=300):
    cfg = ChannelConfig(rate_up_bps=rate, rate_down_bps=rate, rtt_s=rtt)
    return generate_trace(cfg, seed=0, rounds=rounds)


def oracle_for(eng, seed=0, **kw):
    """Episode ``seed``'s oracle of ``oracle_config(**kw)``, sized for ``eng`` as eval sizes it."""
    return episode_oracle(oracle_config(**kw), eng, seed, eng.mode == "sd_reject")


class TestLocalize:
    """A greedy round localizes every mismatch of its window and rejects at the first."""

    @staticmethod
    def greedy_round(tokens, argmax):
        decisions, _ = run_one_round(crafted_oracle(tokens, argmax), "sd_greedy", len(tokens))
        return int(decisions.m[0]), int(decisions.reject_pos[0])

    def test_identical_sequences(self):
        assert self.greedy_round([1, 2, 3], [1, 2, 3, 9]) == (0, -1)

    def test_last_index_only(self):
        assert self.greedy_round([1, 2, 3], [1, 2, 9, 9]) == (1, 2)

    def test_reference_case(self):
        assert self.greedy_round([5, 7, 9], [5, 8, 9, 1]) == (1, 1)


class TestSelectProtocol:
    def test_high_rtt_full_hidden(self):
        assert select_protocol(np.array([0.050]), 0.010).tolist() == [PROTO_FH]

    def test_low_rtt_selective(self):
        assert select_protocol(np.array([0.005]), 0.010).tolist() == [PROTO_SH]

    def test_boundary_is_selective(self):
        assert select_protocol(np.array([0.010]), 0.010).tolist() == [PROTO_SH]


def handcrafted_oracle():
    """k=6 block with mismatches at 2 and 5; the head rejects only position 5."""
    k = 6
    tokens = np.array([0, 1, 2, 3, 4, 5])
    argmax = np.array([0, 1, 9, 3, 4, 9, 6])
    crit = np.array([False, False, True, False, False, True])
    h_draft = np.zeros((k, 1))
    h_draft[5, 0] = 10.0  # drives the head's logit high only at position 5
    d_in = 1 + 1 + 5
    w1 = np.zeros((1, d_in))
    w1[0, 0] = 1.0
    params = HeadParams(w1=w1, b1=np.zeros(1), w2=np.array([1.0]), b2=0.0)
    return crafted_oracle(tokens, argmax, crit, h_draft), params


def link_blind(params):
    """``params`` with its CSI input weights zeroed, as the ablation deploys its link-blind head."""
    w1 = params.w1.copy()
    w1[:, -N_CSI_FEATURES:] = 0.0
    return HeadParams(w1=w1, b1=params.b1, w2=params.w2, b2=params.b2)


def screen_on(head, oracle, trace):
    """The head's screen of the oracle's mismatches on one trace."""
    (screen,) = head_screens(head, oracle, [trace], SYSTEM.bounds)
    return screen


def rtt_reading_head(d_h):
    """logit = relu(drafter hidden along the critical direction) - 4 relu(rtt feature) - 1."""
    w1 = np.zeros((2, 2 * d_h + N_CSI_FEATURES))
    w1[0, :d_h] = 1.0 / np.sqrt(d_h)
    w1[1, -1] = 1.0
    return HeadParams(w1=w1, b1=np.zeros(2), w2=np.array([1.0, -4.0]), b2=-1.0)


class TestWisvRound:
    def test_clean_block_full_accept_without_head_time(self):
        params = init_params(4 + 4 + 5, 8, seed=0)
        eng = EngineConfig(mode="wisv_fh", window=10, tau=0.5, max_tokens=10, prefix_len=0)
        oracle = oracle_for(eng, p_match=1.0)
        res, bill, _ = one_episode(SYSTEM, eng, oracle, static_trace(), params)
        assert res.n_rounds == 1
        assert res.accepted[0] == 10 and len(committed_tokens(oracle, res, 0)) == 11
        assert res.m[0] == 0 and bill.head_s[0] == 0.0

    def test_tiny_tau_reduces_to_greedy(self):
        params = init_params(4 + 4 + 5, 8, seed=0)
        screened = 0
        for seed in range(5):
            runs = []
            for mode, tau in (("wisv_fh", 1e-12), ("sd_greedy", 0.5)):
                eng = EngineConfig(mode=mode, window=20, tau=tau, max_tokens=1, prefix_len=0)
                oracle = oracle_for(eng, seed)
                decisions = one_episode(SYSTEM, eng, oracle, static_trace(), params)[0]
                runs.append((decisions, committed_tokens(oracle, decisions, 0)))
            (wisv, wisv_tokens), (greedy, greedy_tokens) = runs
            screened += int(greedy.m[0] > 0)
            np.testing.assert_array_equal(wisv_tokens, greedy_tokens)
            assert wisv.accepted[0] == greedy.accepted[0]
        assert screened > 0  # not vacuous: some window has a mismatch to screen

    def test_selective_acceptance_midblock(self):
        oracle, params = handcrafted_oracle()
        res, _ = run_one_round(oracle, "wisv_fh", 6, params, tau=0.9)
        assert res.m[0] == 2
        assert res.reject_pos[0] == 5
        assert res.accepted[0] == 5
        # The draft kept at 2, corrected at 5.
        assert committed_tokens(oracle, res, 0).tolist() == [0, 1, 2, 3, 4, 9]
        assert res.accepted_critical[0] == 1

    def test_fh_sh_payloads(self):
        oracle, params = handcrafted_oracle()
        fh_decisions, fh = run_one_round(oracle, "wisv_fh", 6, params, tau=0.9)
        sh_decisions, sh = run_one_round(oracle, "wisv_sh", 6, params, tau=0.9)
        np.testing.assert_array_equal(committed_tokens(oracle, fh_decisions, 0),
                                      committed_tokens(oracle, sh_decisions, 0))
        assert fh.proto[0] == PROTO_FH and sh.proto[0] == PROTO_SH
        wire = SYSTEM.wire
        tokens = wire.hdr_up_bits + 6 * wire.b_id
        assert fh.comm.uplink_bits[0] == tokens + 6 * wire.d_h * wire.b_h
        # The token-ID uplink, then a hidden uplink for the two requested positions.
        assert sh.comm.uplink_bits[0] == tokens + wire.hdr_up_bits + 2 * wire.d_h * wire.b_h
        feedback = wire.hdr_down_bits + wire.b_pos + wire.b_id
        assert fh.comm.downlink_bits[0] == feedback
        assert sh.comm.downlink_bits[0] == feedback + wire.hdr_down_bits + 2 * wire.b_pos
        assert sh.comm.rtt_s[0] == pytest.approx(2 * CSI.rtt)

    def test_zeroed_csi_weights_change_nothing_for_csi_blind_head(self):
        oracle, params = handcrafted_oracle()  # head reads only h_draft[0]
        a, _ = run_one_round(oracle, "wisv_fh", 6, params, tau=0.9)
        b, _ = run_one_round(oracle, "wisv_fh", 6, link_blind(params), tau=0.9)
        np.testing.assert_array_equal(committed_tokens(oracle, a, 0),
                                      committed_tokens(oracle, b, 0))
        assert (a.reject_pos[0], a.accepted[0]) == (b.reject_pos[0], b.accepted[0])

    def test_link_blind_head_decides_alike_on_any_link(self):
        eng = EngineConfig(mode="wisv_fh", window=10, tau=0.5, max_tokens=200)
        links = [static_trace(500e6, 0.05), static_trace(20e6, 0.005)]

        def decisions(params, trace):
            oracle = episode_oracle(oracle_config(), eng, 3, False)
            return decide([Lane(eng, oracle, screen_on(params, oracle, trace))])

        head = rtt_reading_head(4)
        aware = [decisions(head, trace) for trace in links]
        assert aware[0].reject_pos.tolist() != aware[1].reject_pos.tolist()  # reads the link
        fast, slow = (decisions(link_blind(head), trace) for trace in links)
        assert fast.m.sum() > 0
        for name in Decisions.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name), err_msg=name)

    def test_unknown_protocol_rejected(self):
        # The protocol follows from the mode; an unknown one never reaches a round.
        with pytest.raises(ValueError):
            EngineConfig(mode="wisv_half_duplex")


class TestGreedyRound:
    def test_clean_block(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=10, prefix_len=0)
        oracle = oracle_for(eng, p_match=1.0)
        res, _, _ = one_episode(SYSTEM, eng, oracle, static_trace())
        assert res.n_rounds == 1
        assert res.accepted[0] == 10 and len(committed_tokens(oracle, res, 0)) == 11

    def test_immediate_rejection(self):
        oracle = crafted_oracle([0, 1, 2, 3, 4, 5], [9, 1, 2, 3, 4, 5, 6])
        res, _ = run_one_round(oracle, "sd_greedy", 6)
        assert res.accepted[0] == 0
        assert committed_tokens(oracle, res, 0).tolist() == [9]

    def test_never_accepts_critical(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=500, prefix_len=0)
        res, _, _ = one_episode(SYSTEM, eng, oracle_for(eng, 3, p_match=0.6, p_crit=1.0),
                                static_trace())
        assert res.m.sum() > 0
        assert not res.accepted_critical.any()

    def test_token_only_payload(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=200, prefix_len=0)
        res, link, _ = one_episode(SYSTEM, eng, oracle_for(eng), static_trace())
        assert res.m.sum() > 0  # mismatches are localized but never screened
        assert np.all(link.proto == PROTO_TOKENS)
        assert np.all(link.comm.uplink_bits == SYSTEM.wire.hdr_up_bits + 10 * SYSTEM.wire.b_id)
        assert np.all(link.head_s == 0.0)

    def test_mean_accepted_length_matches_closed_form(self):
        # ~50k rounds at p_match=0.9: each round starts on fresh positions,
        # so the mean accepted length is sum of 0.9^i, i=1..10.
        k = 10
        eng = EngineConfig(mode="sd_greedy", window=k, max_tokens=380_000, prefix_len=0)
        res, _, totals = one_episode(
            SYSTEM, eng, oracle_for(eng, 4, p_match=0.9, d_h_draft=1, d_h_target=1),
            static_trace())
        assert res.n_rounds >= 45_000
        assert totals.aal == pytest.approx(geometric_accepted_length(0.9, k), rel=0.01)


def reference_window(p_draft, p_target, k, rng):
    """Speculative sampling over one window, token by token, as a per-window sampler draws it.

    Returns (accepted draft tokens, reject position or None, emitted token).
    """

    def sample(p):
        return min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")), len(p) - 1)

    drafted = []
    for i in range(k):
        y = sample(p_draft[i])
        if rng.random() < min(1.0, p_target[i][y] / p_draft[i][y]):
            drafted.append(y)
            continue
        residual = np.maximum(p_target[i] - p_draft[i], 0.0)
        total = residual.sum()
        return drafted, i, sample(p_target[i] if total <= 0.0 else residual / total)
    return drafted, None, sample(p_target[k])


class TestRejectRound:
    """``speculative_columns`` and the ``sd_reject`` scan over its columns."""

    def test_identical_distributions_always_accept(self):
        cfg = oracle_config(mixing=0.0, d_h_draft=1, d_h_target=1)
        oracle = EpisodeOracle(cfg, seed=5, n_positions=40, with_distributions=True)
        assert oracle.spec_accept.all()
        eng = EngineConfig(mode="sd_reject", window=10, max_tokens=1, prefix_len=0)
        got = decide([Lane(eng, oracle)])
        assert got.accepted.tolist() == [10] and got.reject_pos.tolist() == [-1]

    def test_zero_target_mass_always_rejected(self):
        p_draft = np.tile([1.0, 0.0, 0.0, 0.0], (20, 1))
        p_target = np.tile([0.0, 1.0, 0.0, 0.0], (20, 1))
        u = np.random.default_rng(0).random((20, 4))
        draft, accept = speculative_columns(p_draft, p_target, u)
        residual = speculative_fix(p_draft, p_target, u, ~accept)
        assert (draft == 0).all() and not accept.any()
        assert (residual == 1).all()  # residual mass sits entirely on token 1

    def test_degenerate_residual_falls_back_to_target(self):
        p_target = np.array([[0.25, 0.5, 0.25]])
        p_draft = p_target + 1e-15  # the residual max(p_target - p_draft, 0) is all zero
        # Draft y=1, force a reject, then draw 0.5: p_target puts it on
        # token 1, while a 0/0 residual would land on token 0 and an
        # unnormalized zero residual on the last token.
        u = np.array([[0.3, 1.0 - 1e-16, 0.5, 0.5]])
        draft, accept = speculative_columns(p_draft, p_target, u)
        residual = speculative_fix(p_draft, p_target, u, ~accept)
        assert (draft[0], accept[0], residual[0]) == (1, False, 1)

    def test_dense_probability_payload(self):
        cfg = oracle_config(mixing=0.0, d_h_draft=1, d_h_target=1)
        eng = EngineConfig(mode="sd_reject", window=10, max_tokens=1, prefix_len=0)
        _, link, _ = one_episode(SYSTEM, eng, episode_oracle(cfg, eng, 0, True), static_trace())
        wire = SYSTEM.wire
        assert link.proto[0] == PROTO_DENSE
        assert link.comm.uplink_bits[0] == (
            wire.hdr_up_bits + 10 * wire.b_id + 10 * wire.vocab_size * wire.b_prob
        )

    def test_emitted_token_matches_target_distribution(self):
        # Exactness of the accept/residual rule: the token one position emits,
        # the draft if accepted and the residual draw if not, is distributed
        # per p_target (TV oracle at 20k trials).
        cfg = oracle_config(mixing=0.7, d_h_draft=1, d_h_target=1)
        oracle = EpisodeOracle(cfg, seed=6, n_positions=3, with_distributions=True)
        trials = 20_000
        p_draft = np.tile(oracle.p_draft[0], (trials, 1))
        p_target = np.tile(oracle.p_target[0], (trials, 1))
        u = np.random.default_rng(1).random((trials, 4))
        draft, accept = speculative_columns(p_draft, p_target, u)
        residual = speculative_fix(p_draft, p_target, u, np.ones(trials, dtype=bool))
        counts = np.bincount(np.where(accept, draft, residual), minlength=cfg.vocab_syn)
        tv = 0.5 * np.abs(counts / trials - oracle.p_target[0]).sum()
        assert tv < 0.02

    def test_windows_match_per_window_sampler_in_distribution(self):
        # Every sd_reject round is one window of the position-keyed columns. Its
        # accepted length must follow the same law as the per-window sampler
        # run on the same window's distributions: with acceptance rates a_j =
        # sum_y min(p_draft, p_target) at the window's positions, P(i accepted)
        # = a_0 ... a_{i-1} (1 - a_i), and P(k) = a_0 ... a_{k-1}. Both
        # histograms over ~6000 rounds must lie within TV 0.03 of that law.
        k = 4
        cfg = oracle_config(mixing=0.7, vocab_syn=8, d_h_draft=1, d_h_target=1)
        eng = EngineConfig(mode="sd_reject", window=k, max_tokens=15_000, prefix_len=0)
        oracle = episode_oracle(cfg, eng, 8, True)
        got = decide([Lane(eng, oracle)])
        alpha = np.minimum(oracle.p_draft, oracle.p_target).sum(axis=1)
        rng = np.random.default_rng(2)
        expected = np.zeros(k + 1)
        reference = np.zeros(k + 1)
        for start in got.start.tolist():
            a = alpha[start : start + k]
            survive = np.concatenate([[1.0], np.cumprod(a)])
            expected += survive * np.append(1.0 - a, 1.0)
            window = slice(start, start + k + 1)
            drafted, _, _ = reference_window(oracle.p_draft[window], oracle.p_target[window], k,
                                             rng)
            reference[len(drafted)] += 1
        n_rounds = len(got.start)
        assert n_rounds > 5000
        law = expected / n_rounds
        for counts in (np.bincount(got.accepted, minlength=k + 1), reference):
            assert 0.5 * np.abs(counts / n_rounds - law).sum() < 0.03


def reference_round(system, k, prefix, m, proto, csi):
    """One round's bill from scalars: (uplink_s, downlink_s, rtt_s, uplink bits,
    downlink bits, draft_s, verify_s, head_s, total_s).

    The protocol fixes the round's bits each way and its exchanges, written
    out here from the wire fields.
    """
    wire = system.wire
    hidden = wire.d_h * wire.b_h
    uplink = wire.hdr_up_bits + k * wire.b_id  # token IDs
    if proto == PROTO_DENSE:
        uplink += k * wire.vocab_size * wire.b_prob
    elif proto == PROTO_FH:
        uplink += k * hidden
    downlink, exchanges = wire.hdr_down_bits + wire.b_pos + wire.b_id, 1  # feedback
    if proto == PROTO_SH:  # position request and on-demand hidden uplink
        uplink, downlink, exchanges = (uplink + wire.hdr_up_bits + m * hidden,
                                       downlink + wire.hdr_down_bits + m * wire.b_pos, 2)
    up_s, down_s = uplink / effective_rate(csi, "up"), downlink / effective_rate(csi, "down")
    rtt_s = exchanges * csi.rtt
    draft_s = exec_time(window_flops(system.draft_dims, system.consts, prefix, k),
                        system.hw_draft)
    verify_s = exec_time(window_flops(system.target_dims, system.consts, prefix, k),
                         system.hw_target)
    screened = m if proto in (PROTO_FH, PROTO_SH) else 0
    head_s = exec_time(head_flops(system.head_d_in, system.head_d_j, screened), system.hw_target)
    total_s = draft_s + (up_s + down_s + rtt_s) + verify_s + head_s
    return up_s, down_s, rtt_s, uplink, downlink, draft_s, verify_s, head_s, total_s


class TestLedger:
    """``price_link`` against the scalar formula of one round, round by round."""

    @pytest.mark.parametrize("mode", ["sd_greedy", "sd_reject", "wisv_fh", "wisv_sh",
                                      "wisv_adaptive"])
    def test_matches_scalar_bill_exactly(self, mode):
        channel = ChannelConfig(rate_up_bps=500e6, rate_down_bps=500e6, rtt_s=0.05,
                                regime="two-state", alt_rate_up_bps=20e6,
                                alt_rate_down_bps=20e6, alt_rtt_s=0.005, switch_prob=0.3)
        trace = generate_trace(channel, seed=3, rounds=7)  # shorter than the episode: wraps
        params = init_params(4 + 4 + 5, 8, seed=1)
        eng = EngineConfig(mode=mode, window=10, tau=0.6, max_tokens=150, prefix_len=32)
        res, link, totals = one_episode(SYSTEM, eng, oracle_for(eng, 2), trace, params)
        n_trace = len(trace.rtt)
        assert res.n_rounds > n_trace
        prefix, total = eng.prefix_len, 0
        names = ("uplink_s", "downlink_s", "rtt_s", "uplink_bits", "downlink_bits")
        for r in range(res.n_rounds):
            i = r % n_trace  # round r's scalar state, read from the columns
            csi = CsiState(trace.r_up[i], trace.r_down[i], trace.per_up[i], trace.per_down[i],
                           trace.rtt[i])
            ref = reference_round(SYSTEM, 10, prefix, int(res.m[r]), int(link.proto[r]), csi)
            got = (*(getattr(link.comm, name)[r] for name in names), link.draft_s[r],
                   link.verify_s[r], link.head_s[r], link.total_s[r])
            assert got == ref, r
            total += link.total_s[r]
            prefix += int(res.accepted[r]) + 1
        assert totals.latency_s == total
        if mode == "wisv_adaptive":
            assert set(link.proto.tolist()) == {PROTO_FH, PROTO_SH}


    @pytest.mark.parametrize("mode", ["sd_greedy", "wisv_sh", "wisv_adaptive"])
    def test_batch_bills_each_episode_on_its_own_trace(self, mode):
        # Three episodes of different lengths on two-state traces of 7
        # rounds, each shorter than its episode, decided as three lanes of
        # one call: every episode wraps its own trace from its own round 0,
        # and every column of the batch's bill, decision, compute and link,
        # is the episodes' bills as lanes and batches of one, back to back.
        channel = ChannelConfig(rate_up_bps=500e6, rate_down_bps=500e6, rtt_s=0.05,
                                regime="two-state", alt_rate_up_bps=20e6,
                                alt_rate_down_bps=20e6, alt_rtt_s=0.005, switch_prob=0.3)
        params = init_params(4 + 4 + 5, 8, seed=1)
        lanes, traces, singles = [], [], []
        for ep, max_tokens in enumerate((150, 90, 120)):
            eng = EngineConfig(mode=mode, window=10, tau=0.6, max_tokens=max_tokens,
                               prefix_len=32)
            trace = generate_trace(channel, seed=ep, rounds=7)
            oracle = episode_oracle(oracle_config(), eng, ep, False)
            screen = None
            if mode.startswith("wisv"):
                (screen,) = head_screens(params, oracle, [trace], SYSTEM.bounds)
            lanes.append(Lane(eng, oracle, screen))
            traces.append(trace)
            decisions = decide(lanes[-1:])
            assert decisions.n_rounds > 7
            singles.append(price_link(SYSTEM, eng, decisions, TraceBatch.of([trace])))
        batch = decide(lanes)
        link = price_link(SYSTEM, eng, batch, TraceBatch.of(traces))
        assert link.bounds.tolist() == np.cumsum([0] + [r.bounds[-1] for r in singles]).tolist()
        assert len(set(np.diff(link.bounds).tolist())) == 3
        for name in ("start", "m", "reject_pos", "accepted", "accepted_critical", "draft_s",
                     "verify_s", "head_s", "proto", "total_s"):
            np.testing.assert_array_equal(
                getattr(link, name), np.concatenate([getattr(r, name) for r in singles]))
        for name in ("uplink_s", "downlink_s", "rtt_s", "uplink_bits", "downlink_bits"):
            np.testing.assert_array_equal(
                getattr(link.comm, name),
                np.concatenate([getattr(r.comm, name) for r in singles]))
        if mode == "wisv_adaptive":
            assert set(link.proto.tolist()) == {PROTO_FH, PROTO_SH}

    def test_batch_needs_one_trace_per_episode(self):
        trace = generate_trace(ChannelConfig(), seed=0, rounds=4)
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=60, prefix_len=8)
        lane = Lane(eng, EpisodeOracle(oracle_config(), seed=0, n_positions=200))
        with pytest.raises(ValueError, match="a batch of 2 episodes needs as many traces"):
            price_link(SYSTEM, eng, decide([lane, lane]), TraceBatch.of([trace]))

    def test_priced_decisions_bill_only_their_window_and_verifier(self):
        trace = TraceBatch.of([generate_trace(ChannelConfig(), seed=0, rounds=4)])
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=60, prefix_len=8)
        decisions = decide([Lane(eng, EpisodeOracle(oracle_config(), seed=0, n_positions=200))])
        for other in (replace(eng, window=16), replace(eng, mode="wisv_sh")):
            with pytest.raises(ValueError, match="cannot be billed"):
                price_link(SYSTEM, other, decisions, trace)
        bad = replace(decisions, m=np.where(decisions.m == 0, 11, decisions.m))
        with pytest.raises(ValueError, match="0 <= m <= k"):
            price_link(SYSTEM, eng, bad, trace)


def reference_fix(oracle, pos, rejected):
    """The token speculative sampling emits at ``pos``, drawn from that position's row alone.

    A rejection draws from the residual max(p_target - p_draft, 0) at
    uniform 2, unnormalized, or from p_target where the residual is all
    zero; a full accept draws the bonus token from p_target at uniform 3.
    """
    p_draft, p_target, u = oracle.p_draft[pos], oracle.p_target[pos], oracle.spec_u[pos]

    def draw(cdf, x):
        return min(int(np.searchsorted(cdf, x, side="right")), len(cdf) - 1)

    target_cdf = np.cumsum(p_target)
    if not rejected:
        return draw(target_cdf, u[3])
    residual_cdf = np.cumsum(np.maximum(p_target - p_draft, 0.0))
    total = residual_cdf[-1]
    return draw(target_cdf, u[2]) if total <= 0.0 else draw(residual_cdf, u[2] * total)


def reference_decide(engine_cfg, oracle, head_params=None, trace=None, bounds=None):
    """The per-window decision loop: slice each window, localize its mismatches, screen them.

    ``sd_reject`` walks the window's speculative-sampling columns token by
    token and draws its fix token with ``reference_fix``. Returns the
    ``Decisions`` round columns as lists, the committed ``tokens``, the
    ``window`` and the ``mode``.
    """
    mode, k = engine_cfg.mode, engine_cfg.window
    if mode.startswith("wisv"):
        csi_features = features(trace, bounds)
    rows, tokens = [], []
    prefix = engine_cfg.prefix_len
    while prefix < engine_cfg.prefix_len + engine_cfg.max_tokens:
        window = slice(prefix, prefix + k)
        if mode == "sd_reject":
            drafted = oracle.spec_draft[window].tolist()
            accepts = oracle.spec_accept[window].tolist()
            reject_pos = accepts.index(False) if False in accepts else None
            mismatches = [] if reject_pos is None else [reject_pos]
            fix = (reference_fix(oracle, prefix + k, False) if reject_pos is None
                   else reference_fix(oracle, prefix + reject_pos, True))
        else:
            drafted = oracle.draft_tokens[window].tolist()
            argmax = oracle.target_tokens[prefix : prefix + k + 1]
            mismatches = np.nonzero(oracle.draft_tokens[window] != argmax[:k])[0].tolist()
            reject_pos = mismatches[0] if mismatches else None
            if mode.startswith("wisv") and mismatches:
                z = np.concatenate(
                    [
                        oracle.h_draft[window][mismatches],
                        oracle.h_target[window][mismatches],
                        np.tile(csi_features[len(rows) % len(csi_features)],
                                (len(mismatches), 1)),
                    ],
                    axis=1,
                )
                _, p = forward_batch(head_params, z)
                hits = np.flatnonzero(p >= engine_cfg.tau)
                reject_pos = mismatches[hits[0]] if hits.size else None
            fix = argmax[k if reject_pos is None else reject_pos]
        accepted = k if reject_pos is None else reject_pos
        tokens.extend(drafted[:accepted])
        tokens.append(int(fix))
        n_crit = sum(bool(oracle.crit[prefix + i]) for i in mismatches if i < accepted)
        rejected = -1 if reject_pos is None else reject_pos
        rows.append((prefix, len(mismatches), rejected, accepted, n_crit))
        prefix += accepted + 1
    return {**dict(zip(ROUND_COLUMNS, (list(c) for c in zip(*rows)))), "tokens": tokens,
            "window": k, "mode": mode}


def assert_lane_matches(decisions, lane, oracle, ref, msg=None):
    """Lane ``lane`` of ``decisions``, decided on ``oracle``, equals ``reference_decide``'s ``ref``."""
    lo, hi = decisions.bounds[lane], decisions.bounds[lane + 1]
    for name in ROUND_COLUMNS:
        assert getattr(decisions, name)[lo:hi].tolist() == ref[name], (msg, name)
    assert committed_tokens(oracle, decisions, lane).tolist() == ref["tokens"], (msg, "tokens")
    assert (decisions.window[lane], decisions.mode[lane]) == (ref["window"], ref["mode"]), msg


class TestDecide:
    def test_greedy_needs_no_channel(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=150, prefix_len=32)
        oracle = episode_oracle(oracle_config(), eng, 5, False)
        got = decide([Lane(eng, oracle)])
        ref_oracle = oracle_for(eng, 5)
        ref, _, _ = one_episode(SYSTEM, eng, ref_oracle, static_trace())
        for name in ROUND_COLUMNS:
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
        np.testing.assert_array_equal(committed_tokens(oracle, got, 0),
                                      committed_tokens(ref_oracle, ref, 0))

    def test_start_is_each_rounds_prefix(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=150, prefix_len=32)
        got = decide([Lane(eng, episode_oracle(oracle_config(), eng, 5, False))])
        committed = got.accepted + 1
        np.testing.assert_array_equal(got.start, 32 + np.cumsum(committed) - committed)

    def test_head_reads_each_rounds_csi_wrapping_around(self):
        channel = ChannelConfig(regime="sampled", rate_up_range_bps=(20e6, 500e6),
                                rtt_range_s=(0.002, 0.06))
        trace = generate_trace(channel, seed=4, rounds=7)  # every round differs; wraps
        eng = EngineConfig(mode="wisv_sh", window=10, tau=0.3, max_tokens=200)
        oracle = episode_oracle(oracle_config(), eng, 2, False)
        head = rtt_reading_head(4)
        got = decide([Lane(eng, oracle, screen_on(head, oracle, trace))])
        assert_lane_matches(got, 0, oracle, reference_decide(eng, oracle, head, trace,
                                                             SYSTEM.bounds))
        assert np.flatnonzero(got.m > 0).max() >= 7  # screened rounds wrap around the trace
        # Not vacuous: the same trace one round later gives other decisions.
        later = trace.take(np.arange(1, 8))
        moved = decide([Lane(eng, oracle, screen_on(head, oracle, later))])
        assert moved.reject_pos.tolist() != got.reject_pos.tolist()
        assert moved.reject_pos.tolist() == reference_decide(eng, oracle, head, later,
                                                             SYSTEM.bounds)["reject_pos"]

    @pytest.mark.parametrize("regime", ["static", "sampled"])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_per_window_reference_loop(self, mode, regime):
        channel = ChannelConfig(regime=regime, rate_up_range_bps=(20e6, 500e6),
                                rtt_range_s=(0.002, 0.06))
        head = rtt_reading_head(4)
        screened = 0
        for k, ep in ((4, 0), (10, 1), (10, 2), (24, 3)):
            trace = generate_trace(channel, seed=ep, rounds=40)
            eng = EngineConfig(mode=mode, window=k, tau=0.3, max_tokens=200, prefix_len=16)
            oracle = episode_oracle(oracle_config(), eng, ep, mode == "sd_reject")
            screen = screen_on(head, oracle, trace) if mode.startswith("wisv") else None
            got = decide([Lane(eng, oracle, screen)])
            assert_lane_matches(got, 0, oracle,
                                reference_decide(eng, oracle, head, trace, SYSTEM.bounds), (k, ep))
            screened += int((got.m > 0).sum())
        assert screened > 0

    def test_many_lanes_in_one_call_match_the_reference(self):
        # Every mode at windows 1, 4, 10 and 64 and two taus, on a static, a
        # two-state and a sampled trace of each of three episodes, as lanes
        # of one call in shuffled order. Lanes on one episode share its
        # oracle; the head-verified lanes on one trace share its screen.
        channels = [ChannelConfig(rate_up_bps=20e6, rate_down_bps=20e6, rtt_s=0.005),
                    ChannelConfig(rate_up_bps=500e6, rate_down_bps=500e6, rtt_s=0.05,
                                  regime="two-state", alt_rate_up_bps=20e6,
                                  alt_rate_down_bps=20e6, alt_rtt_s=0.005, switch_prob=0.3),
                    ChannelConfig(regime="sampled", rate_up_range_bps=(20e6, 500e6),
                                  rtt_range_s=(0.002, 0.06))]
        head = rtt_reading_head(4)
        widest = EngineConfig(window=64, max_tokens=120, prefix_len=16)
        cases = []
        for ep in range(3):
            oracle = episode_oracle(oracle_config(p_match=0.85), widest, ep, True)
            traces = [generate_trace(channel, seed=ep, rounds=30) for channel in channels]
            screens = head_screens(head, oracle, traces, SYSTEM.bounds)
            for mode in MODES:
                for k in (1, 4, 10, 64):
                    for tau in (0.3, 0.6):
                        eng = replace(widest, mode=mode, window=k, tau=tau)
                        if not mode.startswith("wisv"):
                            if tau == 0.3:
                                cases.append((Lane(eng, oracle), oracle, None))
                            continue
                        cases += [(Lane(eng, oracle, screen), oracle, trace)
                                  for trace, screen in zip(traces, screens)]
        order = np.random.default_rng(7).permutation(len(cases))
        got = decide([cases[i][0] for i in order])
        per_round = 0
        for lane, i in enumerate(order.tolist()):
            (eng, _, screen), oracle, trace = cases[i]
            per_round += screen is not None and screen.p is None
            ref = reference_decide(eng, oracle, head, trace, SYSTEM.bounds)
            assert_lane_matches(got, lane, oracle, ref, (i, eng.mode, eng.window, eng.tau))
        # Episodes x fluctuating traces x head-verified modes x windows x taus:
        # the two-state and sampled screens read each round's link row.
        assert per_round == 3 * 2 * 3 * 4 * 2

    def test_many_lane_calls_refuse_as_one_lane_calls_do(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=60, prefix_len=8)
        fits = EpisodeOracle(oracle_config(), seed=0, n_positions=200)
        short = EpisodeOracle(oracle_config(), seed=1, n_positions=30)
        with pytest.raises(IndexError, match="ran out of pregenerated positions"):
            decide([Lane(eng, fits), Lane(eng, short), Lane(eng, fits)])
        with pytest.raises(ValueError, match="requires a head screen"):
            decide([Lane(eng, fits), Lane(replace(eng, mode="wisv_fh"), fits)])
        with pytest.raises(RuntimeError, match="distributions"):
            decide([Lane(eng, fits), Lane(replace(eng, mode="sd_reject"), fits)])

    def test_screening_needs_a_head_screen(self):
        eng = EngineConfig(mode="wisv_sh", window=10)
        oracle = episode_oracle(oracle_config(), eng, 0, False)
        with pytest.raises(ValueError, match="requires a head screen"):
            decide([Lane(eng, oracle)])

    @pytest.mark.parametrize("missing", ["trace", "bounds"])
    def test_screening_needs_trace_and_bounds(self, missing):
        eng = EngineConfig(mode="wisv_sh", window=10)
        link = {"traces": [static_trace()], "bounds": SYSTEM.bounds}
        link["traces" if missing == "trace" else "bounds"] = None
        oracle = episode_oracle(oracle_config(), eng, 0, False)
        with pytest.raises(ValueError, match="channel trace and normalization bounds"):
            head_screens(init_params(4 + 4 + 5, 8, seed=0), oracle, **link)


class TestHeadScreen:
    @pytest.mark.parametrize("regime", ["static", "sampled"])
    def test_p_matches_forward_batch_on_concatenated_rows(self, regime):
        channel = ChannelConfig(regime=regime, rate_up_range_bps=(20e6, 500e6),
                                rtt_range_s=(0.002, 0.06))
        trace = generate_trace(channel, seed=3, rounds=20)
        eng = EngineConfig(mode="wisv_fh", window=24, max_tokens=200)
        oracle = episode_oracle(oracle_config(), eng, 1, False)
        head = init_params(4 + 4 + 5, 8, seed=1)
        head.b1 = np.linspace(-0.5, 0.5, 8)  # the bias joins the link term
        screen = screen_on(head, oracle, trace)
        assert (screen.p is None) == (regime == "sampled")
        at = np.flatnonzero(oracle.mismatch)
        rows = features(trace, SYSTEM.bounds)
        for r in range(len(rows)):
            z = np.concatenate([oracle.h_draft[at], oracle.h_target[at],
                                np.tile(rows[r], (len(at), 1))], axis=1)
            _, want = forward_batch(head, z)
            got = screen.p if screen.p is not None else screen.round_p(slice(None), r)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_p_is_row_invariant(self):
        # A mismatch's p has the same bits screened alone, with its window, in
        # a batch with other episodes' and the other head's rows, and as the
        # constant column of a link whose every row is this round's.
        sampled = ChannelConfig(regime="sampled", rate_up_range_bps=(20e6, 500e6),
                                rtt_range_s=(0.002, 0.06))
        heads = [init_params(4 + 4 + 5, 8, seed=seed) for seed in (1, 2)]
        for i, head in enumerate(heads):
            head.b1 = np.linspace(-0.5, 0.5, 8) * (i + 1)
        widest = EngineConfig(mode="wisv_fh", window=24, max_tokens=200)
        screens = []  # (head, trace, screen) of each head on each episode's trace
        for ep in range(3):
            oracle = episode_oracle(oracle_config(), widest, ep, False)
            trace = generate_trace(sampled, seed=ep, rounds=20)
            for head in heads:
                screen = screen_on(head, oracle, trace)
                assert screen.p is None and len(screen.hidden) > 10
                screens.append((head, oracle, trace, screen))
        rng = np.random.default_rng(5)
        rows, want = [], []  # each batch row's (hidden, CSI row, head), and its p alone
        for head, oracle, trace, screen in screens:
            n = len(screen.hidden)
            for r in rng.choice(20, size=4, replace=False).tolist():
                whole = screen.round_p(slice(None), r)
                lo = int(rng.integers(0, n - 5))
                window = screen.round_p(slice(lo, lo + 5), r)
                alone = [screen.round_p(slice(i, i + 1), r)[0] for i in range(n)]
                assert (whole == alone).all() and (window == whole[lo:lo + 5]).all()
                # The constant column of a static link at this round's state.
                static = screen_on(head, oracle, trace.take(np.full(7, r)))
                assert (static.p == whole).all()
                for i in rng.choice(n, size=3, replace=False).tolist():
                    rows.append((screen.hidden[i], screen.csi[r], head))
                    want.append(whole[i])
        # One call over the rows of every episode and both heads, in shuffled
        # order, each row with its own head's weights.
        order = rng.permutation(len(rows))
        hidden, csi, row_heads = zip(*(rows[i] for i in order))
        w_csi = np.stack([h.w1[:, -N_CSI_FEATURES:].T for h in row_heads])
        link = link_term(np.array(csi), w_csi, np.stack([h.b1 for h in row_heads]))
        got = screen_p(np.array(hidden), link, np.stack([h.w2 for h in row_heads]),
                       np.array([h.b2 for h in row_heads]))
        assert (got == np.array(want)[order]).all()

    @pytest.mark.parametrize("regime", ["two-state", "sampled"])
    def test_lanes_decide_alike_in_one_call_or_one_call_each(self, regime):
        # Two heads, windows and taus on each of three episodes' fluctuating
        # traces: the batched screens give every lane the decisions it gets alone.
        channel = ChannelConfig(rate_up_bps=500e6, rate_down_bps=500e6, rtt_s=0.05,
                                regime=regime, alt_rate_up_bps=20e6, alt_rate_down_bps=20e6,
                                alt_rtt_s=0.005, switch_prob=0.3)
        if regime == "sampled":
            channel = ChannelConfig(regime="sampled", rate_up_range_bps=(20e6, 500e6),
                                    rtt_range_s=(0.002, 0.06))
        heads = [init_params(4 + 4 + 5, 8, seed=seed) for seed in (1, 2)]
        heads[0].b1 = np.linspace(-0.5, 0.5, 8)
        heads[1].w1[:, -N_CSI_FEATURES:] *= 20.0  # the link moves p across tau
        widest = EngineConfig(mode="wisv_fh", window=24, max_tokens=150, prefix_len=16)
        lanes = []
        for ep in range(3):
            oracle = episode_oracle(oracle_config(p_match=0.8), widest, ep, False)
            trace = generate_trace(channel, seed=ep, rounds=30)
            for head in heads:
                screen = screen_on(head, oracle, trace)
                assert screen.p is None
                lanes += [Lane(replace(widest, window=k, tau=tau), oracle, screen)
                          for k in (4, 10, 24) for tau in (0.3, 0.5, 0.7)]
        together = decide(lanes)
        for lane, alone in enumerate(decide([lane]) for lane in lanes):
            mine = together.lanes(lane, lane + 1)
            for name in ("bounds", *ROUND_COLUMNS):
                assert (getattr(mine, name) == getattr(alone, name)).all(), (lane, name)
            assert (mine.window, mine.mode) == (alone.window, alone.mode)
        # Not vacuous: the heads accept some mismatches and reject others.
        screened = together.m > 0
        assert (together.reject_pos[screened] >= 0).any()
        assert (together.reject_pos[screened] < 0).any()

    def test_constant_link_verdicts_are_shared_across_windows(self):
        head = init_params(4 + 4 + 5, 8, seed=1)
        trace = static_trace(rounds=40)
        widest = EngineConfig(mode="wisv_fh", window=64, max_tokens=200)
        oracle = episode_oracle(oracle_config(), widest, 6, False)
        screen = screen_on(head, oracle, trace)
        assert screen.p is not None
        verdicts: dict = {}  # position -> rejected, per window
        for k in (4, 10, 24, 64):
            eng = EngineConfig(mode="wisv_fh", window=k, tau=0.5, max_tokens=200)
            got = decide([Lane(eng, oracle, screen)])
            assert_lane_matches(got, 0, oracle,
                                reference_decide(eng, oracle, head, trace, SYSTEM.bounds), k)
            for start, reject, accepted in zip(got.start, got.reject_pos, got.accepted):
                for pos in np.flatnonzero(oracle.mismatch[start : start + accepted]) + start:
                    verdicts.setdefault(int(pos), {})[k] = False
                if reject >= 0:
                    verdicts.setdefault(int(start + reject), {})[k] = True
        shared = [v for v in verdicts.values() if len(v) > 1]
        assert {True, False} <= {verdict for v in shared for verdict in v.values()}
        for per_k in shared:
            assert len(set(per_k.values())) == 1, per_k

    def test_link_blind_head_screens_any_link_as_one_column(self):
        channel = ChannelConfig(regime="sampled", rate_up_range_bps=(20e6, 500e6),
                                rtt_range_s=(0.002, 0.06))
        trace = generate_trace(channel, seed=3, rounds=20)
        oracle = episode_oracle(oracle_config(), EngineConfig(window=10), 1, False)
        head = rtt_reading_head(4)
        assert screen_on(head, oracle, trace).p is None
        assert screen_on(link_blind(head), oracle, trace).p is not None


class TestEngineConfig:
    @pytest.mark.parametrize("field", ["window", "max_tokens", "prefix_len"])
    @pytest.mark.parametrize("value", [True, 20.5])
    def test_integer_fields_reject_bools_and_fractions(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EngineConfig(**{field: value})

    def test_numpy_integers_pass(self):
        eng = EngineConfig(window=np.int64(4), max_tokens=np.int64(20), prefix_len=np.int64(0))
        assert eng.window == 4


@pytest.mark.parametrize("cls, field, others", [
    (HardwareProfile, "peak_flops", {"utilization": 0.3}),
    *((FlopsConstants, field, {}) for field in ("c1", "c2", "c3", "c4")),
    (OracleConfig, "sep", {}),
    (OracleConfig, "noise", {}),
    (NormalizationBounds, "rtt_max_s", {}),
    (EngineConfig, "adaptive_rtt_cutoff_s", {}),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_field_refused_by_name(cls, field, others, value):
    # A NaN fails no range check, and an infinity passes a positivity check.
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        cls(**{field: value}, **others)


class TestRunEpisode:
    """Whole episodes, each decided and billed as eval's sweep does it."""

    def test_single_round_when_budget_fits_window(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=10, prefix_len=0)
        res, _, totals = one_episode(SYSTEM, eng, oracle_for(eng, p_match=1.0), static_trace())
        assert res.n_rounds == 1
        assert totals.tokens == 11

    def test_token_conservation(self):
        eng = EngineConfig(mode="sd_greedy", window=10, max_tokens=200, prefix_len=32)
        oracle = oracle_for(eng, 1)
        res, _, totals = one_episode(SYSTEM, eng, oracle, static_trace())
        per_round = np.where(res.reject_pos >= 0, res.accepted + 1, 10 + 1)
        tokens = totals.tokens
        assert tokens == per_round.sum() == len(committed_tokens(oracle, res, 0))
        assert tokens >= 200

    def test_greedy_vs_tiny_tau_wisv_identical(self):
        params = init_params(4 + 4 + 5, 8, seed=0)
        for ep in range(5):
            eng_g = EngineConfig(mode="sd_greedy", window=10, max_tokens=150)
            eng_w = EngineConfig(mode="wisv_fh", window=10, tau=1e-12, max_tokens=150)
            oracle = oracle_for(eng_g, ep)
            g, _, g_totals = one_episode(SYSTEM, eng_g, oracle, static_trace())
            w, _, w_totals = one_episode(SYSTEM, eng_w, oracle, static_trace(), params)
            np.testing.assert_array_equal(committed_tokens(oracle, g, 0),
                                          committed_tokens(oracle, w, 0))
            assert g.n_rounds == w.n_rounds
            assert g_totals.aal == w_totals.aal

    def test_fh_sh_verification_invariance(self):
        params = init_params(4 + 4 + 5, 8, seed=2)
        for ep in range(5):
            fh_cfg = EngineConfig(mode="wisv_fh", window=10, tau=0.6, max_tokens=150)
            sh_cfg = EngineConfig(mode="wisv_sh", window=10, tau=0.6, max_tokens=150)
            oracle = oracle_for(fh_cfg, ep)
            fh, fh_link, _ = one_episode(SYSTEM, fh_cfg, oracle, static_trace(), params)
            sh, sh_link, _ = one_episode(SYSTEM, sh_cfg, oracle, static_trace(), params)
            np.testing.assert_array_equal(committed_tokens(oracle, fh, 0),
                                          committed_tokens(oracle, sh, 0))
            assert fh.n_rounds == sh.n_rounds
            assert np.all(sh_link.comm.uplink_bits
                          <= fh_link.comm.uplink_bits + SYSTEM.wire.hdr_up_bits)

    def test_prefix_dominance_and_round_count_monotone_in_tau(self):
        params = init_params(4 + 4 + 5, 8, seed=3)
        taus = [0.1, 0.4, 0.7, 0.95]
        runs = []
        for tau in taus:
            eng = EngineConfig(mode="wisv_fh", window=10, tau=tau, max_tokens=200)
            runs.append(one_episode(SYSTEM, eng, oracle_for(eng, 11), static_trace(), params))
        decided = [r for r, _, _ in runs]
        rounds = [r.n_rounds for r in decided]
        assert rounds == sorted(rounds, reverse=True)
        # higher AAL must come with fewer rounds at a fixed token budget
        aals = [totals.aal for _, _, totals in runs]
        assert aals == sorted(aals)
        for lo, hi in zip(decided, decided[1:]):
            cum_lo = np.cumsum(lo.accepted + 1)
            cum_hi = np.cumsum(hi.accepted + 1)
            n = min(len(cum_lo), len(cum_hi))
            assert np.all(cum_hi[:n] >= cum_lo[:n])

    def test_accepted_critical_monotone_in_tau(self):
        params = init_params(4 + 4 + 5, 8, seed=3)
        crits = []
        for tau in [0.1, 0.5, 0.9, 0.99]:
            eng = EngineConfig(mode="wisv_fh", window=10, tau=tau, max_tokens=200)
            res, _, _ = one_episode(SYSTEM, eng, oracle_for(eng, 11), static_trace(), params)
            crits.append(int(res.accepted_critical.sum()))
        assert crits == sorted(crits)

    def test_adaptive_selects_fh_on_slow_link(self):
        params = init_params(4 + 4 + 5, 8, seed=0)
        eng = EngineConfig(mode="wisv_adaptive", window=10, tau=0.5, max_tokens=100)
        _, link, _ = one_episode(SYSTEM, eng, oracle_for(eng), static_trace(rtt=0.05), params)
        assert np.all(link.proto == PROTO_FH)

    def test_adaptive_selects_sh_on_fast_link(self):
        params = init_params(4 + 4 + 5, 8, seed=0)
        eng = EngineConfig(mode="wisv_adaptive", window=10, tau=0.5, max_tokens=100)
        _, link, _ = one_episode(SYSTEM, eng, oracle_for(eng), static_trace(rtt=0.005), params)
        assert np.all(link.proto == PROTO_SH)

    def test_wisv_requires_head(self):
        eng = EngineConfig(mode="wisv_fh", window=10)
        with pytest.raises(ValueError, match="head"):
            one_episode(SYSTEM, eng, oracle_for(eng), static_trace())

    def test_seed_determinism(self):
        eng = EngineConfig(mode="sd_reject", window=8, max_tokens=80)
        oracles = oracle_for(eng, 9), oracle_for(eng, 9)
        a, _, a_totals = one_episode(SYSTEM, eng, oracles[0], static_trace())
        b, _, b_totals = one_episode(SYSTEM, eng, oracles[1], static_trace())
        np.testing.assert_array_equal(committed_tokens(oracles[0], a, 0),
                                      committed_tokens(oracles[1], b, 0))
        assert a_totals.latency_s == b_totals.latency_s

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="beam_search")

    def test_no_critical_latents_keep_every_episode_correct(self):
        from wisv.metrics import summarize

        params = init_params(4 + 4 + 5, 8, seed=0)
        results = []
        for ep in range(10):
            eng = EngineConfig(mode="wisv_fh", window=10, tau=0.99, max_tokens=120)
            _, _, totals = one_episode(SYSTEM, eng, oracle_for(eng, ep, p_crit=0.0),
                                       static_trace(), params)
            results.append(totals)
        assert summarize(results)["accuracy_proxy"] == 1.0
