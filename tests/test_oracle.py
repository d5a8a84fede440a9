import numpy as np
import pytest

from wisv.engine import EngineConfig, decide, episode_oracle
from wisv.oracle import (
    BLOCK,
    EpisodeOracle,
    OracleConfig,
    calibrate_p_match,
    geometric_accepted_length,
    unit_direction,
)


def slim_config(**kw):
    """1-dim hiddens keep bulk statistical runs cheap."""
    base = dict(d_h_draft=1, d_h_target=1, seed=5)
    base.update(kw)
    return OracleConfig(**base)


class TestDraft:
    def test_perfect_match_has_no_mismatches(self):
        oracle = EpisodeOracle(slim_config(p_match=1.0), seed=0, n_positions=5000)
        assert not oracle.mismatch.any()
        np.testing.assert_array_equal(oracle.draft_tokens, oracle.target_tokens)

    def test_same_seed_identical_block(self):
        cfg = slim_config()
        a = EpisodeOracle(cfg, seed=3, n_positions=100)
        b = EpisodeOracle(cfg, seed=3, n_positions=100)
        np.testing.assert_array_equal(a.draft_tokens, b.draft_tokens)
        np.testing.assert_array_equal(a.h_draft, b.h_draft)

    def test_different_seed_differs(self):
        cfg = slim_config(p_match=0.5)
        a = EpisodeOracle(cfg, seed=3, n_positions=1000)
        b = EpisodeOracle(cfg, seed=4, n_positions=1000)
        assert not np.array_equal(a.draft_tokens, b.draft_tokens)

    def test_greedy_accepted_length_matches_geometric_sum(self):
        # Monte-Carlo oracle: 1e5 disjoint 10-token windows; the mean index
        # of the first mismatch must match sum_{i=1..10} 0.9^i.
        n_blocks, k = 100_000, 10
        oracle = EpisodeOracle(slim_config(p_match=0.9), seed=0, n_positions=n_blocks * k)
        windows = oracle.mismatch.reshape(n_blocks, k)
        padded = np.concatenate([windows, np.ones((n_blocks, 1), dtype=bool)], axis=1)
        accepted = padded.argmax(axis=1)
        expected = geometric_accepted_length(0.9, k)
        assert expected == pytest.approx(5.8618940391, rel=1e-9)
        assert accepted.mean() == pytest.approx(expected, rel=0.02)

    def test_mismatch_rate_converges(self):
        oracle = EpisodeOracle(slim_config(p_match=0.8), seed=1, n_positions=200_000)
        assert oracle.mismatch.mean() == pytest.approx(0.2, abs=0.005)

    def test_block_bounds_checked(self):
        # A round needs its window and the bonus position after it.
        oracle = EpisodeOracle(slim_config(p_match=1.0), seed=0, n_positions=20)
        fits = EngineConfig(window=9, max_tokens=1, prefix_len=10)
        assert decide(fits, oracle).accepted.tolist() == [9]
        with pytest.raises(IndexError):
            decide(EngineConfig(window=10, max_tokens=1, prefix_len=10), oracle)
        with pytest.raises(ValueError):
            EngineConfig(window=0)


class TestPositionKeying:
    """A position's data depends only on the seeds and the position."""

    FIELDS = ("mismatch", "crit", "draft_tokens", "target_tokens", "h_draft", "h_target")
    SAMPLING = ("p_draft", "p_target", "spec_draft", "spec_accept", "spec_residual", "spec_bonus")

    def test_fields_equal_across_lengths_and_distributions(self):
        cfg = slim_config(p_match=0.6)
        short = EpisodeOracle(cfg, seed=[4, 2], n_positions=3 * BLOCK - 5)
        long = EpisodeOracle(cfg, seed=[4, 2], n_positions=5 * BLOCK + 7, with_distributions=True)
        longer = EpisodeOracle(cfg, seed=[4, 2], n_positions=7 * BLOCK, with_distributions=True)
        n = short.n_positions
        assert len(short.mismatch) == n and len(long.mismatch) == long.n_positions
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(short, name), getattr(long, name)[:n], name)
        for name in self.SAMPLING:
            assert getattr(short, name) is None
            np.testing.assert_array_equal(getattr(long, name),
                                          getattr(longer, name)[: long.n_positions], name)

    def test_one_oracle_serves_every_window(self):
        cfg = slim_config(p_match=0.7)
        oracles = {k: episode_oracle(cfg, EngineConfig(window=k), [4, 0], True) for k in (4, 64)}
        n = oracles[4].n_positions
        assert oracles[64].n_positions > n
        for name in self.FIELDS + self.SAMPLING:
            np.testing.assert_array_equal(getattr(oracles[4], name),
                                          getattr(oracles[64], name)[:n], name)
        # So a k=4 decode on the k=64 oracle decides exactly as on its own.
        for mode in ("sd_greedy", "sd_reject"):
            eng = EngineConfig(mode=mode, window=4)
            a, b = (decide(eng, oracle) for oracle in oracles.values())
            np.testing.assert_array_equal(a.tokens, b.tokens)
            np.testing.assert_array_equal(a.reject_pos, b.reject_pos)


class TestVerifyView:
    def test_target_differs_exactly_at_mismatches(self):
        oracle = EpisodeOracle(slim_config(p_match=0.7), seed=2, n_positions=5000)
        np.testing.assert_array_equal(oracle.draft_tokens != oracle.target_tokens,
                                      oracle.mismatch)

    def test_extra_bonus_token_present(self):
        # A full accept commits the window plus the target token after it.
        oracle = EpisodeOracle(slim_config(p_match=1.0), seed=2, n_positions=100)
        got = decide(EngineConfig(window=10, max_tokens=1, prefix_len=0), oracle)
        np.testing.assert_array_equal(got.tokens, oracle.target_tokens[:11])

    def test_no_critical_when_p_crit_zero(self):
        oracle = EpisodeOracle(slim_config(p_crit=0.0, p_match=0.5), seed=0, n_positions=10_000)
        assert not oracle.crit.any()

    def test_all_mismatches_critical_when_p_crit_one(self):
        oracle = EpisodeOracle(slim_config(p_crit=1.0, p_match=0.5), seed=0, n_positions=10_000)
        np.testing.assert_array_equal(oracle.crit, oracle.mismatch)

    def test_critical_fraction_converges(self):
        oracle = EpisodeOracle(slim_config(p_crit=0.3, p_match=0.5), seed=0, n_positions=40_000)
        frac = oracle.crit[oracle.mismatch].mean()
        assert oracle.mismatch.sum() >= 10_000
        assert frac == pytest.approx(0.30, abs=0.01)

    def test_criticality_only_at_mismatches(self):
        oracle = EpisodeOracle(slim_config(p_crit=0.5, p_match=0.5), seed=0, n_positions=10_000)
        assert not oracle.crit[~oracle.mismatch].any()


class TestHiddenSeparability:
    def test_bayes_probe_accuracy(self):
        # Independent probe: project [h_D; h_T] onto the known class-mean
        # direction and threshold at the midpoint. With sep/noise = 4 the
        # analytic accuracy is Phi(2*sqrt(2)) ~ 0.9977, comfortably >= 0.99.
        cfg = OracleConfig(
            p_match=0.01, p_crit=0.5, sep=4.0, noise=1.0, d_h_draft=16, d_h_target=16, seed=9
        )
        oracle = EpisodeOracle(cfg, seed=0, n_positions=10_000)
        mm = oracle.mismatch
        assert mm.sum() >= 9000
        score = oracle.h_draft[mm] @ unit_direction(16) + oracle.h_target[mm] @ unit_direction(16)
        pred = score > cfg.sep  # midpoint of class means 0 and 2*sep
        accuracy = np.mean(pred == oracle.crit[mm])
        assert accuracy >= 0.99


class TestCalibration:
    def test_small_target_small_p(self):
        assert calibrate_p_match(1e-4, 10) < 1e-3

    def test_reference_target(self):
        a = calibrate_p_match(6.607, 10)
        assert geometric_accepted_length(a, 10) == pytest.approx(6.607, abs=1e-6)

    def test_saturation(self):
        assert calibrate_p_match(9.999, 10) > 0.99

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_p_match(10.0, 10)
        with pytest.raises(ValueError):
            calibrate_p_match(0.0, 10)


class TestDistributions:
    def test_zero_mixing_identical(self):
        cfg = slim_config(mixing=0.0)
        oracle = EpisodeOracle(cfg, seed=0, n_positions=50, with_distributions=True)
        np.testing.assert_array_equal(oracle.p_draft, oracle.p_target)

    def test_normalization(self):
        cfg = slim_config(mixing=0.6)
        oracle = EpisodeOracle(cfg, seed=0, n_positions=200, with_distributions=True)
        assert np.allclose(oracle.p_draft.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(oracle.p_target.sum(axis=1), 1.0, atol=1e-9)

    def test_full_mixing_lowers_acceptance(self):
        # Mean acceptance probability E_y~pD[min(1, pT/pD)] = 1 - TV(pD, pT);
        # report-style calibration check that it is measurably below 1.
        cfg = slim_config(mixing=1.0)
        oracle = EpisodeOracle(cfg, seed=11, n_positions=10_000, with_distributions=True)
        rates = 1.0 - 0.5 * np.abs(oracle.p_draft - oracle.p_target).sum(axis=1)
        assert rates.mean() < 0.9

    def test_missing_distributions_guarded(self):
        oracle = EpisodeOracle(slim_config(), seed=0, n_positions=20)
        assert oracle.p_draft is None and oracle.spec_accept is None
        with pytest.raises(RuntimeError, match="distributions"):
            decide(EngineConfig(mode="sd_reject", window=4, max_tokens=4, prefix_len=0), oracle)


class TestConfigValidation:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            OracleConfig(p_match=0.0)
        with pytest.raises(ValueError):
            OracleConfig(p_crit=1.5)
        with pytest.raises(ValueError):
            OracleConfig(noise=0.0)
