import numpy as np
import pytest
from hypothesis import given, strategies as st

from wisv.channel import CsiState
from wisv.wire import (
    PROTO_DENSE,
    PROTO_FH,
    PROTO_SH,
    PROTO_TOKENS,
    WireConfig,
    round_comm,
)

DEFAULT = WireConfig()
CODES = (PROTO_TOKENS, PROTO_DENSE, PROTO_FH, PROTO_SH)


def make_csi(rate=500e6, per=0.0, rtt=0.05):
    return CsiState(rate, rate, per, per, rtt)


def fh(cfg, k, csi):
    """One full-hidden round."""
    return round_comm(cfg, k, PROTO_FH, 0, csi)


def sh(cfg, k, m, csi):
    """One selective-hidden round requesting m hidden states."""
    return round_comm(cfg, k, PROTO_SH, m, csi)


def uplink(cfg, k, proto, m=0):
    return round_comm(cfg, k, proto, m, make_csi()).uplink_bits


def downlink(cfg, k, proto, m=0):
    return round_comm(cfg, k, proto, m, make_csi()).downlink_bits


def per_hidden(cfg):
    """Uplink bits of one requested hidden state: SH at m = 1 minus m = 0."""
    return uplink(cfg, 1, PROTO_SH, 1) - uplink(cfg, 1, PROTO_SH, 0)


def second_uplink(cfg, k, m):
    """SH's on-demand hidden uplink: its uplink beyond the token-ID uplink."""
    return uplink(cfg, k, PROTO_SH, m) - uplink(cfg, k, PROTO_TOKENS)


class TestBitFormulas:
    def test_b_id_derived(self):
        assert DEFAULT.b_id == 17
        assert WireConfig(vocab_size=64).b_id == 6
        assert WireConfig(vocab_size=2).b_id == 1

    def test_hidden_bits_default(self):
        assert per_hidden(DEFAULT) == 32768

    def test_hidden_bits_unit(self):
        assert per_hidden(WireConfig(d_h=1, b_h=1)) == 1

    def test_hidden_bits_small_drafter(self):
        assert per_hidden(WireConfig(d_h=896, b_h=16)) == 14336

    def test_feedback_bits_no_header(self):
        for proto in (PROTO_TOKENS, PROTO_DENSE, PROTO_FH):
            assert downlink(WireConfig(hdr_down_bits=0, b_pos=16), 10, proto) == 33

    def test_feedback_bits_minimal(self):
        cfg = WireConfig(vocab_size=2, d_h=1, b_h=0, b_pos=0, b_prob=0, hdr_up_bits=0,
                         hdr_down_bits=0)
        assert downlink(cfg, 1, PROTO_TOKENS) == 1

    def test_feedback_bits_default_header(self):
        for proto in (PROTO_TOKENS, PROTO_DENSE, PROTO_FH):
            assert downlink(DEFAULT, 10, proto) == 353

    def test_fh_uplink_default_window(self):
        assert uplink(DEFAULT, 10, PROTO_FH) == 328170

    def test_fh_uplink_single_token(self):
        expected = DEFAULT.hdr_up_bits + DEFAULT.b_id + DEFAULT.d_h * DEFAULT.b_h
        assert uplink(DEFAULT, 1, PROTO_FH) == expected

    def test_fh_uplink_linear_in_window(self):
        delta = uplink(DEFAULT, 64, PROTO_FH) - uplink(DEFAULT, 32, PROTO_FH)
        assert delta == 32 * (DEFAULT.b_id + DEFAULT.d_h * DEFAULT.b_h)

    def test_window_zero_rejected(self):
        for proto in CODES:
            with pytest.raises(ValueError, match="window must be >= 1"):
                round_comm(DEFAULT, 0, proto, 0, make_csi())

    def test_sh_bits_no_request(self):
        # The token-ID uplink plus an empty hidden uplink's header; the
        # feedback plus an empty position request's header.
        assert uplink(DEFAULT, 10, PROTO_SH, 0) == 2 * DEFAULT.hdr_up_bits + 10 * DEFAULT.b_id
        assert 2 * DEFAULT.hdr_up_bits + 10 * DEFAULT.b_id == 810
        assert downlink(DEFAULT, 10, PROTO_SH, 0) == 353 + DEFAULT.hdr_down_bits == 673

    def test_sh_bits_two_requests(self):
        assert second_uplink(DEFAULT, 10, 2) == 320 + 2 * 32768 == 65856
        assert downlink(DEFAULT, 10, PROTO_SH, 2) == 673 + 2 * DEFAULT.b_pos

    def test_sh_full_request_equals_fh_plus_header(self):
        fh = uplink(DEFAULT, 10, PROTO_FH)
        assert uplink(DEFAULT, 10, PROTO_SH, 10) == fh + DEFAULT.hdr_up_bits

    def test_sh_request_exceeding_window_rejected(self):
        for proto in CODES:
            for m in (-1, 11):
                with pytest.raises(ValueError, match="0 <= m <= k"):
                    round_comm(DEFAULT, 10, proto, m, make_csi())

    def test_reject_uplink_small_vocab(self):
        cfg = WireConfig(vocab_size=64, b_prob=16)
        assert uplink(cfg, 1, PROTO_DENSE) == cfg.hdr_up_bits + 6 + 1024

    def test_reject_uplink_dominates_fh(self):
        bits = uplink(DEFAULT, 10, PROTO_DENSE)
        assert bits == 320 + 170 + 10 * 128256 * 16 == 20521450
        assert bits > 60 * uplink(DEFAULT, 10, PROTO_FH)

    def test_reject_uplink_without_probs_is_token_payload(self):
        cfg = WireConfig(b_prob=0)
        assert uplink(cfg, 7, PROTO_DENSE) == uplink(cfg, 7, PROTO_TOKENS)

    @given(k=st.integers(1, 128), m=st.integers(0, 128))
    def test_sh_uplink_never_exceeds_fh_plus_header(self, k, m):
        if m > k:
            return
        sh_up = uplink(DEFAULT, k, PROTO_SH, m)
        fh_up = uplink(DEFAULT, k, PROTO_FH) + DEFAULT.hdr_up_bits
        assert sh_up <= fh_up
        if m < k:
            assert sh_up < fh_up
        else:
            assert sh_up == fh_up


class TestCommLatency:
    def test_fh_reference_values(self):
        lat = fh(DEFAULT, 10, make_csi(rate=500e6, rtt=0.05))
        assert lat.uplink_bits == 328170
        assert lat.downlink_bits == 353
        assert lat.uplink_s == pytest.approx(6.5634e-4, rel=1e-9)
        assert lat.downlink_s == pytest.approx(7.06e-7, rel=1e-9)
        assert lat.rtt_s == 0.05
        assert lat.total_s == pytest.approx(0.050657046, rel=1e-9)

    def test_total_is_exact_component_sum(self):
        lat = fh(DEFAULT, 10, make_csi())
        assert lat.total_s == lat.uplink_s + lat.downlink_s + lat.rtt_s

    def test_infinite_rate_limit(self):
        lat = fh(DEFAULT, 10, make_csi(rate=1e18, rtt=0.0))
        assert lat.total_s == pytest.approx(0.0, abs=1e-10)

    def test_per_scaling_doubles_uplink(self):
        clean = fh(DEFAULT, 10, make_csi(per=0.0))
        lossy = fh(DEFAULT, 10, make_csi(per=0.5))
        assert lossy.uplink_s == pytest.approx(2.0 * clean.uplink_s, rel=1e-12)

    def test_sh_rtt_counted_twice(self):
        lat = sh(DEFAULT, 10, 2, make_csi(rtt=0.05))
        assert lat.rtt_s == pytest.approx(0.1)

    def test_sh_vs_fh_zero_request_algebra(self):
        # With m=0 and rtt=0, SH differs from FH by dropping the hidden
        # payload and adding one extra header per direction.
        csi = make_csi(rtt=0.0)
        lat_sh = sh(DEFAULT, 10, 0, csi)
        lat_fh = fh(DEFAULT, 10, csi)
        rate = 500e6
        expected = (
            lat_fh.total_s
            - 10 * DEFAULT.d_h * DEFAULT.b_h / rate
            + DEFAULT.hdr_up_bits / rate
            + DEFAULT.hdr_down_bits / rate
        )
        assert lat_sh.total_s == pytest.approx(expected, rel=1e-12)

    def test_sh_second_uplink_term_at_low_rate(self):
        assert second_uplink(DEFAULT, 10, 1) / 20e6 == pytest.approx(1.6544e-3, rel=1e-9)

    def test_latency_linear_in_bits(self):
        csi = make_csi(rtt=0.0)
        token_ids = 10 * DEFAULT.b_id
        one = round_comm(WireConfig(hdr_up_bits=1000 - token_ids), 10, PROTO_TOKENS, 0, csi)
        three = round_comm(WireConfig(hdr_up_bits=3000 - token_ids), 10, PROTO_TOKENS, 0, csi)
        assert (one.uplink_bits, three.uplink_bits) == (1000, 3000)
        assert three.uplink_s == pytest.approx(3.0 * one.uplink_s, rel=1e-12)

    def test_positive_when_any_payload(self):
        lat = sh(DEFAULT, 4, 1, make_csi(rate=1e6, rtt=0.0))
        assert lat.total_s > 0.0

    def test_request_beyond_window_rejected_on_any_protocol(self):
        with pytest.raises(ValueError, match="0 <= m <= k"):
            round_comm(DEFAULT, 4, np.array([PROTO_FH, PROTO_TOKENS]), np.array([0, -1]),
                       make_csi())


class TestCrossoverProperty:
    def test_sh_wins_low_rate_low_rtt(self):
        csi = make_csi(rate=20e6, rtt=0.005)
        assert sh(DEFAULT, 10, 1, csi).total_s < fh(DEFAULT, 10, csi).total_s

    def test_fh_wins_high_rtt(self):
        csi = make_csi(rate=500e6, rtt=0.05)
        assert fh(DEFAULT, 10, csi).total_s < sh(DEFAULT, 10, 1, csi).total_s
