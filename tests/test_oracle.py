import numpy as np
import pytest

from wisv.oracle import (
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
        block = oracle.draft(0, 64)
        np.testing.assert_array_equal(block.tokens, oracle.verify_view(block).argmax[:64])

    def test_same_seed_identical_block(self):
        cfg = slim_config()
        a = EpisodeOracle(cfg, seed=3, n_positions=100).draft(10, 10)
        b = EpisodeOracle(cfg, seed=3, n_positions=100).draft(10, 10)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.hiddens_draft, b.hiddens_draft)

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
        oracle = EpisodeOracle(slim_config(), seed=0, n_positions=20)
        with pytest.raises(IndexError):
            oracle.draft(15, 10)
        with pytest.raises(ValueError):
            oracle.draft(0, 0)


class TestVerifyView:
    def test_target_differs_exactly_at_mismatches(self):
        oracle = EpisodeOracle(slim_config(p_match=0.7), seed=2, n_positions=5000)
        block = oracle.draft(0, 4000)
        view = oracle.verify_view(block)
        diff = block.tokens != view.argmax[:4000]
        np.testing.assert_array_equal(diff, oracle.mismatch[:4000])

    def test_extra_bonus_token_present(self):
        oracle = EpisodeOracle(slim_config(), seed=2, n_positions=100)
        block = oracle.draft(0, 10)
        assert len(oracle.verify_view(block).argmax) == 11

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
        p_d, p_t = oracle.distributions(7)
        np.testing.assert_array_equal(p_d, p_t)

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
        oracle = EpisodeOracle(slim_config(), seed=0, n_positions=10)
        with pytest.raises(RuntimeError):
            oracle.distributions(0)


class TestConfigValidation:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            OracleConfig(p_match=0.0)
        with pytest.raises(ValueError):
            OracleConfig(p_crit=1.5)
        with pytest.raises(ValueError):
            OracleConfig(noise=0.0)
