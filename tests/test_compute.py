import numpy as np
import pytest
from hypothesis import given, strategies as st

from wisv.channel import CsiState
from wisv.compute import (
    MODEL_PRESETS,
    FlopsConstants,
    HardwareProfile,
    ModelDims,
    exec_time,
    head_flops,
    per_token_flops,
    round_latency,
    window_flops,
)
from wisv.wire import PROTO_FH, WireConfig, round_comm

LLAMA_1B = ModelDims(layers=16, hidden=2048, ffn=8192, vocab=128256)
LLAMA_8B = ModelDims(layers=32, hidden=4096, ffn=14336, vocab=128256)
CONSTS = FlopsConstants(8, 6, 4, 2)


def summation_oracle(dims, consts, prefix, k):
    """Independent per-token summation the closed form must match."""
    return sum(per_token_flops(dims, consts, prefix + i) for i in range(k))


class TestPerTokenFlops:
    def test_zero_context(self):
        d = LLAMA_1B
        expected = d.layers * (8 * d.hidden**2 + 6 * d.hidden * d.ffn) + 2 * d.hidden * d.vocab
        assert per_token_flops(d, CONSTS, 0) == expected

    def test_context_increment(self):
        base = per_token_flops(LLAMA_1B, CONSTS, 100)
        assert per_token_flops(LLAMA_1B, CONSTS, 101) - base == 16 * 4 * 2048

    def test_reference_value(self):
        assert per_token_flops(LLAMA_1B, CONSTS, 512) == 2739929088

    def test_strictly_increasing_in_context(self):
        values = [per_token_flops(LLAMA_1B, CONSTS, l) for l in range(0, 100, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRoundFlops:
    def test_single_token(self):
        assert window_flops(LLAMA_1B, CONSTS, 100, 1) == per_token_flops(LLAMA_1B, CONSTS, 100)

    def test_context_free_constants(self):
        flat = FlopsConstants(8, 6, 1e-30, 2)  # c3 ~ 0 within positivity constraint
        got = window_flops(LLAMA_1B, flat, 50, 3)
        assert got == pytest.approx(3 * per_token_flops(LLAMA_1B, flat, 50), rel=1e-12)

    def test_matches_summation_oracle(self):
        got = window_flops(LLAMA_1B, CONSTS, 100, 10)
        assert got == pytest.approx(summation_oracle(LLAMA_1B, CONSTS, 100, 10), rel=1e-12)

    def test_verify_matches_summation_oracle_target_dims(self):
        got = window_flops(LLAMA_8B, CONSTS, 100, 10)
        assert got == pytest.approx(summation_oracle(LLAMA_8B, CONSTS, 100, 10), rel=1e-12)

    def test_verify_single_token(self):
        assert window_flops(LLAMA_8B, CONSTS, 7, 1) == per_token_flops(LLAMA_8B, CONSTS, 7)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            window_flops(LLAMA_1B, CONSTS, 0, 0)
        with pytest.raises(ValueError):
            window_flops(LLAMA_8B, CONSTS, 0, 0)

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError, match="prefix length"):
            window_flops(LLAMA_1B, CONSTS, np.array([3, -1]), 4)

    @given(prefix=st.integers(0, 4096), k1=st.integers(1, 64), k2=st.integers(1, 64))
    def test_prefix_additivity(self, prefix, k1, k2):
        whole = window_flops(LLAMA_1B, CONSTS, prefix, k1 + k2)
        split = window_flops(LLAMA_1B, CONSTS, prefix, k1) + window_flops(
            LLAMA_1B, CONSTS, prefix + k1, k2
        )
        assert whole == pytest.approx(split, rel=1e-12)


class TestHeadFlops:
    def test_zero_positions(self):
        assert head_flops(4101, 256, 0) == 0

    def test_reference_value(self):
        assert head_flops(4101, 256, 1) == 2100481

    def test_linear_in_positions(self):
        assert head_flops(4101, 256, 5) == 5 * head_flops(4101, 256, 1)


class TestExecTime:
    def test_zero_flops(self):
        assert exec_time(0.0, HardwareProfile(10e12, 0.3)) == 0.0

    def test_reference_division(self):
        assert exec_time(2.73e9, HardwareProfile(10e12, 0.3)) == pytest.approx(9.1e-4, rel=1e-9)

    def test_halving_utilization_doubles_time(self):
        t1 = exec_time(1e9, HardwareProfile(10e12, 0.4))
        t2 = exec_time(1e9, HardwareProfile(10e12, 0.2))
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)


class TestRoundLatency:
    def test_comm_only(self):
        comm = round_comm(WireConfig(), 10, PROTO_FH, 0, CsiState(500e6, 500e6, 0, 0, 0.05))
        assert round_latency(0.0, comm, 0.0, 0.0) == comm.total_s

    def test_additivity(self):
        comm = round_comm(WireConfig(), 10, PROTO_FH, 0, CsiState(500e6, 500e6, 0, 0, 0.05))
        base = round_latency(0.01, comm, 0.02, 0.003)
        assert round_latency(0.02, comm, 0.02, 0.003) == pytest.approx(base + 0.01, rel=1e-12)

    def test_composed_round_component_sum(self):
        csi = CsiState(500e6, 500e6, 0.0, 0.0, 0.05)
        comm = round_comm(WireConfig(), 10, PROTO_FH, 0, csi)
        hw_d = HardwareProfile(10e12, 0.30)
        hw_t = HardwareProfile(150e12, 0.40)
        t_d = exec_time(window_flops(LLAMA_1B, CONSTS, 64, 10), hw_d)
        t_t = exec_time(window_flops(LLAMA_8B, CONSTS, 64, 10), hw_t)
        t_j = exec_time(head_flops(6149, 256, 2), hw_t)
        total = round_latency(t_d, comm, t_t, t_j)
        parts = (
            t_d + comm.uplink_s + comm.downlink_s + comm.rtt_s + t_t + t_j
        )
        assert total == pytest.approx(parts, rel=1e-12)

    def test_monotone_in_components(self):
        comm = round_comm(WireConfig(), 10, PROTO_FH, 0, CsiState(500e6, 500e6, 0, 0, 0.05))
        assert round_latency(0.02, comm, 0.01, 0.0) > round_latency(0.01, comm, 0.01, 0.0)


class TestPresets:
    def test_both_presets_exist(self):
        assert set(MODEL_PRESETS) == {"llama-1b-8b", "qwen-0.5b-7b"}

    def test_llama_preset_dims(self):
        draft, target = MODEL_PRESETS["llama-1b-8b"]
        assert (draft.hidden, target.hidden) == (2048, 4096)

    def test_qwen_drafter_hidden(self):
        draft, _ = MODEL_PRESETS["qwen-0.5b-7b"]
        assert draft.hidden == 896
