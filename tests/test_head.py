import re

import numpy as np
import pytest

from wisv.channel import CsiState, NormalizationBounds, features
from wisv.engine import EngineConfig
from wisv.head import (
    HeadParams,
    TrainConfig,
    bce_from_logit,
    forward_batch,
    init_params,
    load_params,
    loss_and_grads,
    save_params,
    sigmoid,
    train,
)
from wisv.labeler import Episode, RelabelConfig, relabel
from tests.test_engine import CSI, crafted_oracle, run_one_round


def zero_params(d_in=4, d_j=3):
    return HeadParams(w1=np.zeros((d_j, d_in)), b1=np.zeros(d_j), w2=np.zeros(d_j), b2=0.0)


def separable_dataset(n=200, margin=1.0, seed=0):
    """2-D toy set, classes split on the first coordinate with a clear gap."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x_neg = np.column_stack([rng.uniform(-3.0, -margin / 2, half), rng.normal(0, 1, half)])
    x_pos = np.column_stack([rng.uniform(margin / 2, 3.0, half), rng.normal(0, 1, half)])
    x = np.vstack([x_neg, x_pos])
    y = np.concatenate([np.zeros(half), np.ones(half)])
    return x, y


def one(params, z):
    """(logit, probability) of a single feature vector through the batch pass."""
    s, p = forward_batch(params, z[None, :])
    return float(s[0]), float(p[0])


def logit(p):
    return np.log(p) - np.log1p(-p)


def relabeled_row(h_d, h_t, csi):
    """The head-input row the labeler builds for one mismatch."""
    ep = Episode(0, positions=np.array([0]), draft_tokens=np.array([0]),
                 target_tokens=np.array([1]), base_labels=np.array([1]),
                 h_draft=h_d[None, :], h_target=h_t[None, :])
    one_sample = csi.take(np.zeros(1, dtype=np.int64))
    x, _, _ = relabel(ep, one_sample, RelabelConfig(), NormalizationBounds(),
                      np.random.default_rng(0))
    return x[0]


class TestAssemble:
    """Head input layout [h_draft; h_target; csi], as the labeler assembles it."""

    def test_zeros_through(self):
        # At or below r_min with zero RTT every CSI feature is 0.
        out = relabeled_row(np.zeros(3), np.zeros(4), CsiState(5e6, 5e6, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(out, np.zeros(12))

    def test_length_additivity(self):
        out = relabeled_row(np.ones(2048), np.ones(4096), CSI)
        assert len(out) == 6149

    def test_index_bookkeeping(self):
        h_d = np.arange(8.0)
        h_t = np.arange(100.0, 106.0)
        out = relabeled_row(h_d, h_t, CSI)
        assert out[8 + 3] == h_t[3]
        np.testing.assert_array_equal(out[14:], features(CSI, NormalizationBounds()))


class TestForward:
    def test_zero_params_give_half(self):
        s, p = one(zero_params(), np.ones(4))
        assert s == 0.0 and p == 0.5

    def test_inference_deterministic(self):
        params = init_params(6, 4, seed=1)
        z = np.arange(6.0)
        assert one(params, z) == one(params, z)

    def test_one_dim_toy(self):
        params = HeadParams(w1=np.array([[1.0]]), b1=np.array([0.0]), w2=np.array([2.0]), b2=0.0)
        s, p = one(params, np.array([3.0]))
        assert s == 6.0
        assert p == pytest.approx(0.9975273768433653, rel=1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            one(zero_params(), np.array([1.0, np.nan, 0.0, 0.0]))

    def test_sigmoid_open_interval(self):
        s = sigmoid(np.linspace(-30, 30, 1001))
        assert np.all(s > 0.0) and np.all(s < 1.0)


class TestBceLoss:
    def test_half_probability(self):
        assert bce_from_logit(logit(0.5), 1.0) == pytest.approx(np.log(2.0), rel=1e-12)
        assert bce_from_logit(logit(0.5), 0.0) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_reference_value(self):
        assert bce_from_logit(logit(0.9), 1.0) == pytest.approx(0.10536051565782628, rel=1e-9)

    def test_vanishes_as_p_approaches_label(self):
        assert bce_from_logit(logit(1.0 - 1e-9), 1.0) < 1e-8
        assert bce_from_logit(logit(1e-9), 0.0) < 1e-8

    def test_logit_form_stable_at_extremes(self):
        assert np.isfinite(bce_from_logit(1000.0, 0.0))
        assert bce_from_logit(1000.0, 0.0) == pytest.approx(1000.0)


class TestGradients:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        params = init_params(9, 5, seed=seed)
        x = rng.normal(0, 1, (7, 9))
        y = (rng.random(7) < 0.5).astype(float)
        return params, x, y

    def test_analytic_matches_central_differences(self):
        params, x, y = self._setup(12)
        pre = x @ params.w1.T + params.b1
        assert np.abs(pre).min() > 1e-3  # keep clear of the ReLU kink
        _, grads = loss_and_grads(params, x, y, pos_weight=1.7, weight_decay=1e-3)

        rng = np.random.default_rng(99)
        h = 1e-4
        checks = 0
        for _ in range(10):
            name = rng.choice(["w1", "b1", "w2", "b2"])
            if name == "b2":
                analytic = float(grads["b2"])

                def loss_at(v):
                    shifted = HeadParams(params.w1, params.b1, params.w2, v)
                    return loss_and_grads(shifted, x, y, 1.7, 1e-3)[0]

                numeric = (loss_at(params.b2 + h) - loss_at(params.b2 - h)) / (2 * h)
            else:
                arr = getattr(params, name)
                idx = tuple(rng.integers(0, d) for d in arr.shape)
                analytic = grads[name][idx]
                bumped = {k: getattr(params, k).copy() for k in ("w1", "b1", "w2")}
                bumped[name][idx] += h
                up = loss_and_grads(
                    HeadParams(bumped["w1"], bumped["b1"], bumped["w2"], params.b2),
                    x, y, 1.7, 1e-3,
                )[0]
                bumped[name][idx] -= 2 * h
                down = loss_and_grads(
                    HeadParams(bumped["w1"], bumped["b1"], bumped["w2"], params.b2),
                    x, y, 1.7, 1e-3,
                )[0]
                numeric = (up - down) / (2 * h)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            assert rel < 1e-4, f"{name}: analytic {analytic} vs numeric {numeric}"
            checks += 1
        assert checks == 10


class TestTraining:
    def test_separable_set_learned(self):
        x, y = separable_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=60, batch_size=32, weight_decay=0.0,
                          dropout=0.0, hidden_dim=16, seed=0)
        params, report = train(x, y, cfg)
        assert report.final_train_accuracy >= 0.99

    def test_one_epoch_reduces_loss(self):
        x, y = separable_dataset(seed=4)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=32, dropout=0.0,
                          hidden_dim=16, seed=1)
        params, report = train(x, y, cfg)
        init = init_params(2, 16, seed=1)
        loss0, _ = loss_and_grads(init, x, y, pos_weight=1.0)
        assert report.epoch_losses[-1] < loss0

    def test_loss_nonincreasing_on_separable_set(self):
        x, y = separable_dataset(seed=7)
        cfg = TrainConfig(learning_rate=0.02, epochs=25, batch_size=50, dropout=0.0,
                          hidden_dim=16, seed=2)
        _, report = train(x, y, cfg)
        diffs = np.diff(report.epoch_losses)
        assert np.all(diffs <= 1e-3)

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).normal(0, 1, (50, 3))
        with pytest.raises(ValueError, match="both classes"):
            train(x, np.ones(50), TrainConfig(epochs=1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(np.empty((0, 3)), np.empty(0), TrainConfig(epochs=1))

    def test_class_weight_recomputed(self):
        x, y = separable_dataset()
        y_skew = y.copy()
        y_skew[:150] = 0.0
        cfg = TrainConfig(epochs=1, hidden_dim=4, dropout=0.0, seed=0)
        _, report = train(x, y_skew, cfg)
        assert report.pos_weight == pytest.approx(150 / 50)

    def test_float32_features_train_as_their_float64_copy(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (203, 6)).astype(np.float32)
        y = (x[:, 0] + 0.5 * rng.normal(0, 1, 203) > 0).astype(np.float64)
        # A last batch shorter than the others, and dropout drawing its uniforms.
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=32, dropout=0.2,
                          hidden_dim=8, seed=4)
        p32, r32 = train(x, y, cfg)
        p64, r64 = train(x.astype(np.float64), y, cfg)
        for name in ("w1", "b1", "w2"):
            np.testing.assert_array_equal(getattr(p32, name).view(np.uint64),
                                          getattr(p64, name).view(np.uint64))
        assert np.float64(p32.b2).view(np.uint64) == np.float64(p64.b2).view(np.uint64)
        assert r32.epoch_losses == r64.epoch_losses
        assert r32.final_train_accuracy == r64.final_train_accuracy

    @pytest.mark.parametrize("dropout", [False, True])
    def test_loss_and_grads_match_allocating_reference(self, dropout):
        # The step reuses its buffers; each array op must still be the reference's, bit for bit.
        def reference(params, x, y, pos_weight, weight_decay, mask):
            n = x.shape[0]
            pre = x @ params.w1.T + params.b1
            act = np.maximum(pre, 0.0)
            if mask is not None:
                act = act * mask
            s = act @ params.w2 + params.b2
            p = sigmoid(s)
            loss = float(np.mean(bce_from_logit(s, y, pos_weight)))
            loss += 0.5 * weight_decay * (float(np.sum(params.w1**2)) + float(np.sum(params.w2**2)))
            gs = ((1.0 - y) * p + pos_weight * y * (p - 1.0)) / n
            gact = np.outer(gs, params.w2)
            if mask is not None:
                gact = gact * mask
            gpre = gact * (pre > 0.0)
            return loss, {"w1": gpre.T @ x + weight_decay * params.w1, "b1": gpre.sum(axis=0),
                          "w2": act.T @ gs + weight_decay * params.w2, "b2": np.float64(np.sum(gs))}

        rng = np.random.default_rng(5)
        params = init_params(9, 12, seed=3)
        params.b1[:] = rng.normal(0, 0.3, 12)
        x, y = rng.normal(0, 1, (37, 9)), (rng.random(37) < 0.4).astype(np.float64)
        mask = (rng.random((37, 12)) < 0.8) / 0.8 if dropout else None
        loss, grads = loss_and_grads(params, x, y, 2.5, 1e-3, dropout_mask=mask)
        ref_loss, ref_grads = reference(params, x, y, 2.5, 1e-3, mask)
        assert loss == ref_loss
        for key, value in ref_grads.items():
            np.testing.assert_array_equal(np.asarray(grads[key]).view(np.uint64),
                                          np.asarray(value).view(np.uint64))


def engine_rejects(params, h_d, h_t, tau):
    """The engine's verdict on one mismatch whose head input is [h_d; h_t; CSI]."""
    oracle = crafted_oracle([0], [1, 0], h_draft=[h_d], h_target=[h_t])
    return run_one_round(oracle, "wisv_fh", 1, params, tau=tau).reject_pos[0] == 0


def head_input(h_d, h_t):
    return np.concatenate([h_d, h_t, features(CSI, NormalizationBounds())])


class TestDecide:
    """Reject iff p >= tau, checked through the engine's per-round decision."""

    def test_threshold_floor_always_rejects(self):
        params = init_params(1 + 1 + 5, 3, seed=0)
        assert engine_rejects(params, [1.0], [1.0], tau=1e-12)

    def test_threshold_ceiling_always_accepts(self):
        params = init_params(1 + 1 + 5, 3, seed=0)
        assert not engine_rejects(params, [1.0], [1.0], tau=1.0 - 1e-12)

    def test_boundary_inclusive(self):
        params = init_params(2 + 2 + 5, 3, seed=5)
        h_d, h_t = np.array([0.3, -0.2]), np.array([0.9, 0.1])
        _, p = one(params, head_input(h_d, h_t))
        assert engine_rejects(params, h_d, h_t, tau=p)
        assert not engine_rejects(params, h_d, h_t, tau=min(p + 1e-9, 1 - 1e-12))

    def test_monotone_in_tau(self):
        params = init_params(1 + 1 + 5, 4, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            h_d, h_t = rng.normal(0, 1, 1), rng.normal(0, 1, 1)
            taus = np.linspace(0.01, 0.99, 9)
            decisions = [engine_rejects(params, h_d, h_t, t) for t in taus]
            # once acceptance starts at some tau it never reverts to rejection
            assert decisions == sorted(decisions, reverse=True)

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="wisv_fh", tau=0.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        params = init_params(12, 6, seed=8)
        path = tmp_path / "head.bin"
        save_params(path, params, metadata={"note": "roundtrip"})
        loaded = load_params(path)
        assert loaded.d_in == 12 and loaded.d_j == 6
        np.testing.assert_allclose(loaded.w1, params.w1, rtol=1e-6)
        np.testing.assert_allclose(loaded.w2, params.w2, rtol=1e-6)

    def test_file_bytes_deterministic(self, tmp_path):
        params = init_params(5, 3, seed=1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_params(p1, params)
        save_params(p2, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_params(path)

    def test_truncated_rejected(self, tmp_path):
        params = init_params(5, 3, seed=1)
        path = tmp_path / "h.bin"
        save_params(path, params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_params(path)

    def test_cut_inside_header_rejected(self, tmp_path):
        path = tmp_path / "h.bin"
        save_params(path, init_params(5, 3, seed=1))
        path.write_bytes(path.read_bytes()[:9])
        with pytest.raises(ValueError, match=rf"truncated head file {re.escape(str(path))}"):
            load_params(path)
