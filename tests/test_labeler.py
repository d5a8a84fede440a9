import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wisv.channel import ChannelConfig, CsiState, NormalizationBounds, features, generate_trace, quality
from wisv.head import sigmoid
from wisv.labeler import (
    Episode,
    RelabelConfig,
    collect_traces,
    lambda_of_csi,
    read_dataset,
    read_traces,
    relabel,
    sample_csi_states,
    smooth,
    soft_policy,
    solve_budget_exact,
    write_dataset,
    write_traces,
)
from wisv.oracle import EpisodeOracle, OracleConfig

BOUNDS = NormalizationBounds()


def brute_force_budget(b, b_smooth, budget):
    """Exhaustive search over all 2^T assignments; the reference optimum."""
    t = len(b)
    best_obj, best_count = None, None
    masks = (np.arange(2**t)[:, None] >> np.arange(t)) & 1
    feasible = np.all(masks <= np.asarray(b), axis=1) & (masks.sum(axis=1) <= budget)
    objs = ((np.asarray(b) - masks) * np.asarray(b_smooth)).sum(axis=1)
    objs[~feasible] = np.inf
    return objs.min()


def toy_episode(base_labels, seed=0):
    """Mismatch columns with the given base labels and random 4-wide hiddens."""
    rng = np.random.default_rng(seed)
    n = len(base_labels)
    t = np.arange(n)
    hiddens = rng.normal(0, 1, (n, 2, 4))  # per mismatch: drafter row, then target row
    return Episode(
        episode_id=0,
        positions=3 * t + 1,
        draft_tokens=t,
        target_tokens=t + 1,
        base_labels=np.asarray(base_labels, dtype=np.int64),
        h_draft=hiddens[:, 0],
        h_target=hiddens[:, 1],
    )


def make_csi(*rates, rtt=0.05):
    """CSI samples at the given rates (500 Mbps if none), one array entry per sample."""
    r = np.array(rates or (500e6,), dtype=np.float64)
    return CsiState(r, r, np.zeros(len(r)), np.zeros(len(r)), np.full(len(r), rtt))


def greedy_replay(oracle_cfg, seed, window=10, max_tokens=256, prefix_len=64):
    """Independent greedy-verification replay: (position, draft, target, label) per mismatch."""
    oracle = EpisodeOracle(oracle_cfg, seed=seed, n_positions=prefix_len + max_tokens + 2 * window + 2)
    rows, pos = [], prefix_len
    while pos < prefix_len + max_tokens:
        draft = oracle.draft_tokens[pos : pos + window]
        hits = np.nonzero(draft != oracle.target_tokens[pos : pos + window])[0]
        if hits.size == 0:
            pos += window + 1
            continue
        at = pos + int(hits[0])
        rows.append((at, oracle.draft_tokens[at], oracle.target_tokens[at], int(oracle.crit[at])))
        pos = at + 1
    return oracle, rows


class TestCollectTraces:
    def test_perfect_drafter_leaves_empty_episodes(self):
        eps = collect_traces(5, OracleConfig(p_match=1.0, d_h_draft=2, d_h_target=3), seed=0)
        assert all(len(ep) == 0 for ep in eps)
        assert all(ep.h_draft.shape == (0, 2) and ep.h_target.shape == (0, 3) for ep in eps)

    def test_matches_reference_greedy_replay(self):
        cfg = OracleConfig(p_match=0.8, d_h_draft=2, d_h_target=3)
        eps = collect_traces(6, cfg, seed=4, window=7, max_tokens=90, prefix_len=5)
        for ep in eps:
            oracle, rows = greedy_replay(cfg, [4, ep.episode_id], window=7, max_tokens=90,
                                         prefix_len=5)
            assert len(rows) > 0
            columns = (ep.positions, ep.draft_tokens, ep.target_tokens, ep.base_labels)
            assert list(zip(*(c.tolist() for c in columns))) == rows
            at = [row[0] for row in rows]
            np.testing.assert_array_equal(ep.h_draft, oracle.h_draft[at])
            np.testing.assert_array_equal(ep.h_target, oracle.h_target[at])

    def test_seed_reproducible(self):
        cfg = OracleConfig(d_h_draft=2, d_h_target=2)
        a = collect_traces(3, cfg, seed=9)
        b = collect_traces(3, cfg, seed=9)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.positions, eb.positions)
            np.testing.assert_array_equal(ea.h_draft, eb.h_draft)

    def test_positions_strictly_increasing(self):
        eps = collect_traces(10, OracleConfig(p_match=0.8, d_h_draft=2, d_h_target=2), seed=1)
        for ep in eps:
            assert np.all(np.diff(ep.positions) > 0)

    def test_base_label_rate_matches_criticality(self):
        cfg = OracleConfig(p_match=0.85, p_crit=0.3, d_h_draft=1, d_h_target=1)
        eps = collect_traces(400, cfg, seed=2)
        labels = np.concatenate([ep.base_labels for ep in eps])
        assert len(labels) >= 10_000
        assert labels.mean() == pytest.approx(0.30, abs=0.01)

    def test_records_carry_disagreeing_tokens(self):
        eps = collect_traces(3, OracleConfig(p_match=0.7, d_h_draft=2, d_h_target=2), seed=3)
        for ep in eps:
            assert len(ep) > 0
            assert np.all(ep.draft_tokens != ep.target_tokens)


class TestSmooth:
    def test_reference_sequence(self):
        np.testing.assert_allclose(
            smooth(np.array([0, 1, 0, 0]), 0.5), [0.5, 1.0, 0.5, 0.25]
        )

    def test_all_zero_convention(self):
        np.testing.assert_array_equal(smooth(np.zeros(5, dtype=int), 0.5), np.zeros(5))

    def test_exactly_one_at_critical(self):
        out = smooth(np.array([1, 0, 0, 1, 0]), 0.3)
        assert out[0] == 1.0 and out[3] == 1.0

    @given(
        b=st.lists(st.integers(0, 1), min_size=1, max_size=20),
        alpha=st.floats(0.05, 0.95),
    )
    def test_output_in_unit_interval(self, b, alpha):
        out = smooth(np.array(b), alpha)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        for t, bt in enumerate(b):
            if bt == 1:
                assert out[t] == 1.0


class TestBudgetSolver:
    def test_reference_case(self):
        b = np.array([1, 1, 1])
        b_smooth = np.array([0.9, 0.5, 0.7])
        a = solve_budget_exact(b, b_smooth, 2)
        np.testing.assert_array_equal(a, [1, 0, 1])
        obj = ((b - a) * b_smooth).sum()
        assert obj == pytest.approx(0.5)
        assert obj == pytest.approx(brute_force_budget(b, b_smooth, 2))

    def test_slack_budget_repairs_everything(self):
        b = np.array([1, 0, 1, 1])
        a = solve_budget_exact(b, smooth(b, 0.5), 10)
        np.testing.assert_array_equal(a, b)

    def test_zero_budget(self):
        b = np.array([1, 1])
        b_smooth = np.array([0.8, 0.6])
        a = solve_budget_exact(b, b_smooth, 0)
        np.testing.assert_array_equal(a, [0, 0])
        assert ((b - a) * b_smooth).sum() == pytest.approx(1.4)

    def test_never_repairs_unimportant(self):
        b = np.array([0, 1, 0])
        a = solve_budget_exact(b, np.array([0.9, 0.1, 0.8]), 3)
        assert np.all(a <= b)

    def test_tie_breaks_to_lowest_index(self):
        b = np.array([1, 1, 1])
        a = solve_budget_exact(b, np.array([0.5, 0.5, 0.5]), 2)
        np.testing.assert_array_equal(a, [1, 1, 0])

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_exhaustive_search(self, data):
        t = data.draw(st.integers(1, 10))
        b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=t, max_size=t)))
        b_smooth = np.array(data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=t, max_size=t)
        ))
        budget = data.draw(st.integers(0, t))
        a = solve_budget_exact(b, b_smooth, budget)
        assert np.all(a <= b) and a.sum() <= budget
        obj = ((b - a) * b_smooth).sum()
        assert obj == pytest.approx(brute_force_budget(b, b_smooth, budget), abs=1e-12)


class TestPolicyMaps:
    def test_soft_policy_gated_by_base_label(self):
        assert soft_policy(0, 0.99, 0.1, 0.1) == 0.0

    def test_soft_policy_midpoint(self):
        assert soft_policy(1, 0.4, 0.4, 0.05) == pytest.approx(0.5)

    def test_soft_policy_reference(self):
        assert soft_policy(1, 0.9, 0.5, 0.1) == pytest.approx(0.9820137900379085, rel=1e-9)

    def test_lambda_endpoints(self):
        assert lambda_of_csi(1.0, 0.8, 0.2) == pytest.approx(0.2)
        assert lambda_of_csi(0.0, 0.8, 0.2) == pytest.approx(0.8)

    def test_lambda_midpoint(self):
        assert lambda_of_csi(0.5, 0.8, 0.2) == pytest.approx(0.5)


class TestRelabel:
    def test_one_way_relaxation(self):
        ep = toy_episode([1, 0, 1, 1, 0, 0, 1])
        rng = np.random.default_rng(0)
        csi = make_csi(20e6, 100e6, 900e6)
        x, labels, sample_ids = relabel(ep, csi, RelabelConfig(), BOUNDS, rng)
        assert len(x) == len(labels) == 3 * 7
        np.testing.assert_array_equal(sample_ids, np.repeat([0, 1, 2], 7))
        assert np.all(labels <= np.tile(ep.base_labels, 3))

    def test_sharp_policy_matches_hard_threshold(self):
        ep = toy_episode([1, 0, 0, 1, 0, 1, 1, 0])
        cfg = RelabelConfig(rho=1e-4)
        csi = make_csi(100e6)
        rng = np.random.default_rng(1)
        _, got, _ = relabel(ep, csi, cfg, BOUNDS, rng)
        q = quality(csi, BOUNDS)[0]
        lam = lambda_of_csi(q, cfg.lambda_hi, cfg.lambda_lo)
        b = ep.base_labels
        hard = b * (smooth(b, cfg.alpha) > lam)
        np.testing.assert_array_equal(got, hard)

    def test_perfect_channel_preserves_labels(self):
        ep = toy_episode([1] * 20)
        cfg = RelabelConfig(lambda_lo=0.0, lambda_hi=0.8)
        csi = make_csi(*[1e9] * 50)
        rng = np.random.default_rng(2)
        _, labels, _ = relabel(ep, csi, cfg, BOUNDS, rng)
        assert labels.mean() > sigmoid(1.0 / cfg.rho) - 0.01  # ~ sigmoid(10)

    def test_seeded_determinism(self):
        ep = toy_episode([1, 0, 1])
        csi = make_csi(50e6)
        a = relabel(ep, csi, RelabelConfig(), BOUNDS, np.random.default_rng(7))
        b = relabel(ep, csi, RelabelConfig(), BOUNDS, np.random.default_rng(7))
        for col_a, col_b in zip(a, b):
            np.testing.assert_array_equal(col_a, col_b)

    def test_stochastic_dominance_in_quality(self):
        ep = toy_episode([1] * 30)
        cfg = RelabelConfig()
        good, poor = make_csi(500e6), make_csi(20e6)
        rng = np.random.default_rng(3)
        n = 2000
        good_counts = np.array(
            [relabel(ep, good, cfg, BOUNDS, rng)[1].sum() for _ in range(n // 30)]
        )
        poor_counts = np.array(
            [relabel(ep, poor, cfg, BOUNDS, rng)[1].sum() for _ in range(n // 30)]
        )
        sem = np.sqrt(good_counts.var(ddof=1) / len(good_counts) + poor_counts.var(ddof=1) / len(poor_counts))
        assert good_counts.mean() - poor_counts.mean() > 3 * sem

    def test_empty_episode_yields_nothing(self):
        rng = np.random.default_rng(0)
        x, labels, sample_ids = relabel(toy_episode([]), make_csi(), RelabelConfig(), BOUNDS,
                                        rng)
        assert len(x) == len(labels) == len(sample_ids) == 0
        assert rng.random() == np.random.default_rng(0).random()  # no draw consumed

    def test_feature_layout(self):
        ep = toy_episode([1])
        x, _, _ = relabel(ep, make_csi(), RelabelConfig(), BOUNDS, np.random.default_rng(0))
        assert x[0].shape == (4 + 4 + 5,)
        np.testing.assert_array_equal(x[0][:4], ep.h_draft[0])
        np.testing.assert_array_equal(x[0][4:8], ep.h_target[0])


    def test_matches_per_sample_reference(self):
        # Reference: one sample at a time, one rng.random(n) per sample. A
        # soft policy (rho = 1) keeps every repair probability near 1/2, so
        # labels follow the order of the draws.
        ep = toy_episode([1] * 10 + [0, 1, 1, 0, 1, 1], seed=4)
        n = len(ep)
        csi = CsiState(np.array([20e6, 80e6, 500e6]), np.array([30e6, 1e9, 40e6]),
                       np.array([0.0, 0.3, 0.1]), np.array([0.2, 0.0, 0.05]),
                       np.array([0.005, 0.05, 0.2]))
        cfg = RelabelConfig(rho=1.0)
        x, labels, sample_ids = relabel(ep, csi, cfg, BOUNDS, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        b_smooth = smooth(ep.base_labels, cfg.alpha)
        for s in range(3):
            state = CsiState(csi.r_up[s], csi.r_down[s], csi.per_up[s], csi.per_down[s],
                             csi.rtt[s])
            lam = lambda_of_csi(quality(state, BOUNDS), cfg.lambda_hi, cfg.lambda_lo)
            pi = soft_policy(ep.base_labels, b_smooth, lam, cfg.rho)
            rows = slice(n * s, n * (s + 1))
            np.testing.assert_array_equal(labels[rows], (rng.random(n) < pi).astype(np.int64))
            np.testing.assert_array_equal(x[rows, :8], np.hstack([ep.h_draft, ep.h_target]))
            np.testing.assert_array_equal(x[rows, 8:], np.tile(features(state, BOUNDS), (n, 1)))
            assert np.all(sample_ids[rows] == s)
        assert 0 < labels.sum() < ep.base_labels.sum() * 3


class TestSampleCsiStates:
    def test_sampled_regime_draws_like_generate_trace(self):
        cfg = ChannelConfig(regime="sampled", rate_up_range_bps=(20e6, 500e6),
                            rtt_range_s=(0.002, 0.06))
        got = sample_csi_states(cfg, 40, np.random.default_rng([3, 0x5C1]))
        ref = generate_trace(cfg, seed=3, rounds=40)
        for name in ("r_up", "r_down", "per_up", "per_down", "rtt"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)

    def test_two_state_picks_with_one_uniform_per_draw(self):
        cfg = ChannelConfig(regime="two-state", alt_rate_up_bps=20e6, alt_rtt_s=0.005,
                            switch_prob=0.01)  # relabeling ignores the switch probability
        got = sample_csi_states(cfg, 50, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        alternate = [rng.random() < 0.5 for _ in range(50)]
        np.testing.assert_array_equal(got.r_up, [20e6 if a else 500e6 for a in alternate])
        np.testing.assert_array_equal(got.rtt, [0.005 if a else 0.05 for a in alternate])
        assert 0 < sum(alternate) < 50

    def test_static_regime_repeats_base_without_drawing(self):
        rng = np.random.default_rng(0)
        got = sample_csi_states(ChannelConfig(rate_up_bps=20e6), 4, rng)
        np.testing.assert_array_equal(got.r_up, [20e6] * 4)
        assert rng.random() == np.random.default_rng(0).random()


class TestFileFormats:
    def test_trace_roundtrip(self, tmp_path):
        cfg = OracleConfig(p_match=0.8, d_h_draft=3, d_h_target=2)
        eps = collect_traces(4, cfg, seed=5)
        path = tmp_path / "traces.jsonl"
        write_traces(path, eps)
        back = read_traces(path, n_episodes=4)
        assert len(back) == 4
        for ea, eb in zip(eps, back):
            assert ea.episode_id == eb.episode_id and len(ea) == len(eb) > 0
            for name in ("positions", "draft_tokens", "target_tokens", "base_labels"):
                np.testing.assert_array_equal(getattr(ea, name), getattr(eb, name))
            np.testing.assert_allclose(ea.h_draft, eb.h_draft)
            np.testing.assert_allclose(ea.h_target, eb.h_target)

    def test_trace_lines_match_json_reference(self, tmp_path):
        cfg = OracleConfig(p_match=0.8, d_h_draft=3, d_h_target=2)
        eps = collect_traces(4, cfg, seed=5)
        # Hidden values whose repr takes an exponent, and a negative zero.
        eps[0].h_draft[0] = [1e-7, -0.0, 1.5e300]
        path = tmp_path / "traces.jsonl"
        write_traces(path, eps)
        reference = ""
        for ep in eps:
            for t in range(len(ep)):
                record = {"episode": ep.episode_id, "index": t,
                          "position": int(ep.positions[t]),
                          "draft_token": int(ep.draft_tokens[t]),
                          "target_token": int(ep.target_tokens[t]),
                          "base_label": int(ep.base_labels[t]),
                          "h_draft": ep.h_draft[t].tolist(), "h_target": ep.h_target[t].tolist()}
                reference += json.dumps(record, separators=(",", ":")) + "\n"
        assert path.read_text() == reference

    @pytest.mark.parametrize("column", ["h_draft", "h_target"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_hidden_value_refused(self, tmp_path, column, bad):
        cfg = OracleConfig(p_match=0.8, d_h_draft=3, d_h_target=2)
        eps = collect_traces(3, cfg, seed=5)
        getattr(eps[2], column)[-1, 0] = bad
        with pytest.raises(ValueError, match=f"trace column '{column}' of episode 2"):
            write_traces(tmp_path / "traces.jsonl", eps)

    def test_episode_without_lines_keeps_hidden_widths(self, tmp_path):
        cfg = OracleConfig(p_match=0.8, d_h_draft=3, d_h_target=2)
        path = tmp_path / "traces.jsonl"
        write_traces(path, collect_traces(1, cfg, seed=5))
        back = read_traces(path, n_episodes=3)
        assert [len(ep) for ep in back][1:] == [0, 0]
        assert back[2].h_draft.shape == (0, 3) and back[2].h_target.shape == (0, 2)
        with pytest.raises(ValueError, match="more episodes"):
            read_traces(path, n_episodes=0)

    def test_trace_write_deterministic(self, tmp_path):
        cfg = OracleConfig(p_match=0.8, d_h_draft=3, d_h_target=2)
        eps = collect_traces(3, cfg, seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_traces(p1, eps)
        write_traces(p2, eps)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (17, 9))
        y = (rng.random(17) < 0.5).astype(float)
        path = tmp_path / "data.bin"
        width, labels = write_dataset(path, [(x[:5], y[:5]), (x[5:], y[5:])])
        assert width == 9
        np.testing.assert_array_equal(labels, y)
        x2, y2 = read_dataset(path)
        # The features are the file's FP32 bytes, viewed in place.
        assert x2.dtype == np.float32 and not x2.flags.writeable
        np.testing.assert_allclose(x2, x, atol=1e-6)
        np.testing.assert_array_equal(y2, y)

    def test_dataset_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "x.bin", [(np.zeros((3, 2)), np.zeros(4))])
        with pytest.raises(ValueError, match="width of the first block"):
            write_dataset(tmp_path / "x.bin", [(np.zeros((3, 2)), np.zeros(3)),
                                               (np.zeros((1, 3)), np.zeros(1))])

    def test_streamed_blocks_match_one_shot_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 10, (40, 7))
        y = rng.integers(0, 2, 40)
        path = tmp_path / "data.bin"
        write_dataset(path, ((x[lo:hi], y[lo:hi]) for lo, hi in [(0, 1), (1, 13), (13, 13), (13, 40)]))
        packed = (b"WSVD" + struct.pack("<II", 40, 7)
                  + x.astype(np.float64).astype("<f4").tobytes()
                  + y.astype(np.float64).astype("<f4").tobytes())
        assert path.read_bytes() == packed

    def test_dataset_cut_inside_header_rejected(self, tmp_path):
        path = tmp_path / "data.bin"
        write_dataset(path, [(np.ones((2, 3)), np.ones(2))])
        whole = path.read_bytes()
        for cut in (5, 11, len(whole) - 4):
            path.write_bytes(whole[:cut])
            with pytest.raises(ValueError, match=rf"truncated dataset {re.escape(str(path))}"):
                read_dataset(path)
