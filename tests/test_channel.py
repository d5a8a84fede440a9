import numpy as np
import pytest
from hypothesis import given, strategies as st

from wisv.channel import (
    ChannelConfig,
    CsiState,
    NormalizationBounds,
    effective_rate,
    features,
    generate_trace,
    quality,
)

BOUNDS = NormalizationBounds()


def make_state(r_up=500e6, r_down=500e6, per_up=0.0, per_down=0.0, rtt=0.05):
    return CsiState(r_up, r_down, per_up, per_down, rtt)


class TestEffectiveRate:
    def test_zero_error_identity(self):
        assert effective_rate(make_state(r_up=20e6), "up") == 20e6

    def test_half_error_halves_uplink(self):
        assert effective_rate(make_state(r_up=20e6, per_up=0.5), "up") == 10e6

    def test_downlink(self):
        assert effective_rate(make_state(r_down=500e6, per_down=0.1), "down") == pytest.approx(450e6)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            effective_rate(make_state(), "sideways")


class TestCsiStateInvariants:
    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            CsiState(0.0, 1e6, 0.0, 0.0, 0.0)

    def test_rejects_per_of_one(self):
        with pytest.raises(ValueError):
            CsiState(1e6, 1e6, 1.0, 0.0, 0.0)

    def test_rejects_negative_rtt(self):
        with pytest.raises(ValueError):
            CsiState(1e6, 1e6, 0.0, 0.0, -1.0)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("r_down", 0.0, "strictly positive"),
            ("per_up", 1.0, r"\[0, 1\)"),
            ("per_down", -0.1, r"\[0, 1\)"),
            ("rtt", -1e-3, "nonnegative"),
            ("r_up", np.nan, "r_up must be finite"),
            ("r_down", np.inf, "r_down must be finite"),
            ("rtt", np.nan, "rtt must be finite"),
            ("rtt", np.inf, "rtt must be finite"),
        ],
    )
    def test_rejects_bad_entry_of_array_state(self, field, bad, message):
        columns = {"r_up": [1e6] * 3, "r_down": [1e6] * 3, "per_up": [0.0] * 3,
                   "per_down": [0.0] * 3, "rtt": [0.01] * 3}
        CsiState(**{name: np.array(values) for name, values in columns.items()})
        columns[field][1] = bad
        with pytest.raises(ValueError, match=message):
            CsiState(**{name: np.array(values) for name, values in columns.items()})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["r_up", "r_down", "rtt"])
    def test_rejects_non_finite_rate_or_rtt(self, field, bad):
        # NaN fails no comparison, so only a finiteness check refuses it.
        values = {"r_up": 1e6, "r_down": 1e6, "per_up": 0.0, "per_down": 0.0, "rtt": 0.01}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CsiState(**{**values, field: bad})

    def test_take_wraps_and_broadcasts(self):
        trace = CsiState(np.array([1e6, 2e6, 3e6]), np.full(3, 5e6), np.array([0.0, 0.1, 0.2]),
                         np.zeros(3), np.array([0.01, 0.02, 0.03]))
        got = trace.take(np.arange(7))
        np.testing.assert_array_equal(got.r_up, [1e6, 2e6, 3e6, 1e6, 2e6, 3e6, 1e6])
        np.testing.assert_array_equal(got.per_up, [0.0, 0.1, 0.2, 0.0, 0.1, 0.2, 0.0])
        one = make_state(rtt=0.02).take(np.arange(3))  # a scalar state is every round's link
        np.testing.assert_array_equal(one.rtt, [0.02] * 3)


class TestQuality:
    def test_lower_bound(self):
        assert quality(make_state(r_up=BOUNDS.r_min_bps), BOUNDS) == 0.0

    def test_upper_bound(self):
        assert quality(make_state(r_up=BOUNDS.r_max_bps), BOUNDS) == 1.0

    def test_log_midpoint(self):
        # effective 100e6 sits exactly halfway between 10e6 and 1e9 on a log axis
        assert quality(make_state(r_up=100e6), BOUNDS) == pytest.approx(0.5, rel=1e-12)

    def test_per_reduces_quality_through_goodput(self):
        clean = quality(make_state(r_up=100e6), BOUNDS)
        lossy = quality(make_state(r_up=100e6, per_up=0.3), BOUNDS)
        assert lossy < clean

    @given(
        r1=st.floats(10e6, 1e9),
        r2=st.floats(10e6, 1e9),
        per=st.floats(0.0, 0.99),
    )
    def test_monotone_in_uplink_rate(self, r1, r2, per):
        lo, hi = sorted([r1, r2])
        q_lo = quality(make_state(r_up=lo, per_up=per), BOUNDS)
        q_hi = quality(make_state(r_up=hi, per_up=per), BOUNDS)
        assert q_lo <= q_hi
        assert 0.0 <= q_lo <= 1.0

    @given(p1=st.floats(0.0, 0.99), p2=st.floats(0.0, 0.99))
    def test_antitone_in_per(self, p1, p2):
        lo, hi = sorted([p1, p2])
        assert quality(make_state(per_up=hi), BOUNDS) <= quality(make_state(per_up=lo), BOUNDS)


class TestFeatures:
    def test_best_case_saturates(self):
        state = make_state(r_up=BOUNDS.r_max_bps, r_down=BOUNDS.r_max_bps, rtt=0.0)
        np.testing.assert_array_equal(features(state, BOUNDS), [1, 1, 0, 0, 0])

    def test_worst_case(self):
        state = make_state(r_up=BOUNDS.r_min_bps, r_down=BOUNDS.r_min_bps, per_up=0.9,
                           per_down=0.8, rtt=BOUNDS.rtt_max_s)
        np.testing.assert_array_equal(features(state, BOUNDS), [0, 0, 0.9, 0.8, 1])

    def test_per_passes_through_raw(self):
        state = make_state(per_up=0.05)
        assert features(state, BOUNDS)[2] == 0.05

    def test_pure_function(self):
        state = make_state(r_up=123e6, per_up=0.07, rtt=0.017)
        a = features(state, BOUNDS)
        b = features(state, BOUNDS)
        np.testing.assert_array_equal(a, b)

    def test_all_entries_unit_range(self):
        state = make_state(r_up=5e6, r_down=2e9, rtt=1.0)  # beyond bounds both ways
        f = features(state, BOUNDS)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)

    def test_array_state_gives_one_row_per_round(self):
        rounds = [make_state(r_up=r, per_down=p, rtt=t)
                  for r, p, t in ((5e6, 0.0, 0.0), (123e6, 0.2, 0.017), (2e9, 0.5, 1.0))]
        trace = CsiState(*(np.array(column) for column in zip(
            *((s.r_up, s.r_down, s.per_up, s.per_down, s.rtt) for s in rounds))))
        got = features(trace, BOUNDS)
        assert got.shape == (3, 5)
        q = quality(trace, BOUNDS)
        assert q.shape == (3,)
        for r, state in enumerate(rounds):
            np.testing.assert_array_equal(got[r], features(state, BOUNDS))
            assert q[r] == quality(state, BOUNDS)


def columns(state):
    return np.array([state.r_up, state.r_down, state.per_up, state.per_down, state.rtt])


def per_round_replay(config, seed, rounds):
    """Scalar reference: the trace one round at a time, one draw at a time, as (5, rounds)."""
    entropy = [seed] if isinstance(seed, int) else list(seed)
    rng = np.random.default_rng([*entropy, 0x5C1])
    base = [config.rate_up_bps, config.rate_down_bps, config.per_up, config.per_down,
            config.rtt_s]
    alt = [config.alt_rate_up_bps, config.alt_rate_down_bps, config.alt_per_up,
           config.alt_per_down, config.alt_rtt_s]
    alt = [b if a is None else a for b, a in zip(base, alt)]
    spans = [config.rate_up_range_bps, config.rate_down_range_bps, config.per_up_range,
             config.per_down_range, config.rtt_range_s]
    out, in_alt = [], False
    for _ in range(rounds):
        if config.regime == "static":
            out.append(base)
        elif config.regime == "two-state":
            out.append(alt if in_alt else base)
            if rng.random() < config.switch_prob:
                in_alt = not in_alt
        else:
            out.append([b if span is None else float(rng.uniform(*span))
                        for b, span in zip(base, spans)])
    return np.array(out, dtype=np.float64).T


class TestGenerateTrace:
    @pytest.mark.parametrize(
        "config",
        [
            ChannelConfig(rate_up_bps=20e6, rate_down_bps=30e6, per_up=0.1, rtt_s=0.02),
            ChannelConfig(regime="two-state", alt_rate_up_bps=20e6, alt_per_down=0.3,
                          alt_rtt_s=0.005, switch_prob=0.3),
            ChannelConfig(regime="sampled", rate_up_range_bps=(20e6, 500e6), per_up_range=(0.0, 0.2),
                          rtt_range_s=(0.002, 0.06)),
        ],
        ids=lambda config: config.regime,
    )
    @pytest.mark.parametrize("seed", [7, [20240101, 5, 2, 11]], ids=["int", "list"])
    def test_matches_per_round_replay_exactly(self, config, seed):
        got = generate_trace(config, seed=seed, rounds=300)
        np.testing.assert_array_equal(columns(got), per_round_replay(config, seed, 300))

    def test_static_repeats(self):
        cfg = ChannelConfig(rate_up_bps=20e6, rate_down_bps=20e6, rtt_s=0.05)
        trace = generate_trace(cfg, seed=1, rounds=3)
        assert columns(trace).shape == (5, 3)
        np.testing.assert_array_equal(columns(trace), np.tile(columns(cfg.states)[:, :1], 3))

    def test_seed_determinism(self):
        cfg = ChannelConfig(
            regime="sampled",
            rate_up_range_bps=(10e6, 1e9),
            rtt_range_s=(0.0, 0.1),
        )
        t1 = generate_trace(cfg, seed=7, rounds=50)
        t2 = generate_trace(cfg, seed=7, rounds=50)
        np.testing.assert_array_equal(columns(t1), columns(t2))

    def test_two_state_zero_switch_prob_is_constant(self):
        cfg = ChannelConfig(
            regime="two-state", alt_rate_up_bps=20e6, switch_prob=0.0
        )
        trace = generate_trace(cfg, seed=3, rounds=20)
        np.testing.assert_array_equal(columns(trace), np.tile(columns(cfg.states)[:, :1], 20))

    def test_two_state_visits_both(self):
        cfg = ChannelConfig(regime="two-state", alt_rate_up_bps=20e6, switch_prob=0.5)
        trace = generate_trace(cfg, seed=3, rounds=100)
        assert set(trace.r_up.tolist()) == {500e6, 20e6}

    def test_sampled_respects_ranges(self):
        cfg = ChannelConfig(
            regime="sampled",
            rate_up_range_bps=(10e6, 50e6),
            per_up_range=(0.0, 0.2),
        )
        trace = generate_trace(cfg, seed=11, rounds=200)
        assert np.all((10e6 <= trace.r_up) & (trace.r_up <= 50e6))
        assert np.all((0.0 <= trace.per_up) & (trace.per_up <= 0.2))
        assert np.all(trace.r_down == cfg.rate_down_bps)

    def test_invalid_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            generate_trace(ChannelConfig(regime="rayleigh"), seed=0, rounds=1)

    @pytest.mark.parametrize(
        "field, span, message",
        [("rtt_range_s", (-0.01, 0.0), "rtt must be nonnegative"),
         ("per_up_range", (0.9, 1.5), r"packet error rates must lie in \[0, 1\)")],
    )
    def test_sampled_range_outside_domain_raises(self, field, span, message):
        with pytest.raises(ValueError, match=message):
            ChannelConfig(regime="sampled", **{field: span})
        # A config that skipped its own check still yields no impossible state.
        cfg = ChannelConfig(regime="sampled")
        object.__setattr__(cfg, field, span)
        with pytest.raises(ValueError, match=message):
            generate_trace(cfg, seed=0, rounds=200)

    def test_wraparound_indexing(self):
        trace = generate_trace(
            ChannelConfig(regime="sampled", rtt_range_s=(0.0, 0.1)), seed=0, rounds=4
        )
        np.testing.assert_array_equal(columns(trace.take(np.array([6]))), columns(trace)[:, 2:3])
