import re

import numpy as np
import pytest
from single_episode import CSI, crafted_oracle, run_one_round

from wisv import head
from wisv.channel import CsiState, NormalizationBounds, features
from wisv.engine import EngineConfig
from wisv.head import (
    INFERENCE_CHUNK,
    HeadParams,
    TrainConfig,
    chunked_logits,
    forward_batch,
    init_params,
    load_params,
    loss_and_grads,
    save_params,
    sigmoid,
    train,
)
from wisv.labeler import Episode, RelabelConfig, relabel


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


def bce(s, y):
    """BCE of logit s against label y: the loss of one row through a head whose only nonzero
    parameter is b2 = s."""
    params = HeadParams(w1=np.zeros((1, 1)), b1=np.zeros(1), w2=np.zeros(1), b2=s)
    return loss_and_grads(params, np.zeros((1, 1)), np.array([y]))[0]


def reference_loss_and_grads(params, x, y, pos_weight, weight_decay, mask):
    """The loss and gradients on fresh arrays, ``mask`` an already-scaled dropout mask or None."""
    n = x.shape[0]
    pre = x @ params.w1.T + params.b1
    act = np.maximum(pre, 0.0)
    if mask is not None:
        act = act * mask
    s = act @ params.w2 + params.b2
    e = np.exp(-np.abs(s))
    p = np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    common = np.log1p(np.exp(-np.abs(s)))
    loss_pos = np.maximum(-s, 0.0) + common
    loss_neg = np.maximum(s, 0.0) + common
    loss = float(np.mean(pos_weight * y * loss_pos + (1.0 - y) * loss_neg))
    loss += 0.5 * weight_decay * (float(np.sum(params.w1**2)) + float(np.sum(params.w2**2)))
    gs = ((1.0 - y) * p + pos_weight * y * (p - 1.0)) / n
    gact = np.outer(gs, params.w2)
    if mask is not None:
        gact = gact * mask
    gpre = gact * (pre > 0.0)
    return loss, {"w1": gpre.T @ x + weight_decay * params.w1, "b1": gpre.sum(axis=0),
                  "w2": act.T @ gs + weight_decay * params.w2, "b2": np.float64(np.sum(gs))}


def reference_train(x, y, cfg, rows=None):
    """``train`` on fresh arrays: an ``np.take`` gather, an ``np.divide`` mask, a momentum dict."""
    rows = np.arange(len(y)) if rows is None else rows
    y = np.asarray(y, dtype=np.float64)[rows]
    pos_weight = int(np.sum(y == 0)) / int(np.sum(y == 1))
    params = init_params(x.shape[1], cfg.hidden_dim, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 0x7EA1])
    vel = {"w1": np.zeros_like(params.w1), "b1": np.zeros_like(params.b1),
           "w2": np.zeros_like(params.w2), "b2": np.float64(0.0)}
    keep = 1.0 - cfg.dropout
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(rows))
        total, batches = 0.0, 0
        for lo in range(0, len(rows), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb = np.take(x, rows[idx], axis=0).astype(np.float64)
            mask = None
            if cfg.dropout > 0.0:
                mask = np.divide(rng.random((len(idx), cfg.hidden_dim)) < keep, keep)
            loss, grads = reference_loss_and_grads(params, xb, y[idx], pos_weight,
                                                   cfg.weight_decay, mask)
            vel = {key: cfg.momentum * vel[key] + grads[key] for key in vel}
            params = HeadParams(w1=params.w1 - cfg.learning_rate * vel["w1"],
                                b1=params.b1 - cfg.learning_rate * vel["b1"],
                                w2=params.w2 - cfg.learning_rate * vel["w2"],
                                b2=params.b2 - cfg.learning_rate * float(vel["b2"]))
            total += loss
            batches += 1
        losses.append(total / batches)
    s = chunked_logits(params, x, rows)
    return params, losses, float(np.mean((s >= 0.0) == (y == 1.0)))


def assert_same_bits(params, ref):
    """Every parameter of ``params`` equals that of ``ref`` to the bit."""
    for name in ("w1", "b1", "w2"):
        np.testing.assert_array_equal(getattr(params, name).view(np.uint64),
                                      getattr(ref, name).view(np.uint64))
    assert np.float64(params.b2).view(np.uint64) == np.float64(ref.b2).view(np.uint64)


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
        # At or below r_min_bps with zero RTT every CSI feature is 0.
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


CHUNK = INFERENCE_CHUNK


class TestChunkedLogits:
    """The one multi-row inference pass: ``forward_batch`` on bounded chunks of the rows."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_equals_its_chunks_and_one_call(self, n, dtype, monkeypatch):
        rng = np.random.default_rng(n)
        params = init_params(69, 64, seed=3)
        params.b1[:] = rng.normal(0, 0.1, 64)
        x = rng.normal(0, 1, (n + 5, 69)).astype(dtype)
        rows = rng.integers(0, n + 5, n)  # arbitrary order, repeats and unused rows
        calls = []

        def recording(p, z):
            calls.append(len(z))
            return forward_batch(p, z)

        monkeypatch.setattr(head, "forward_batch", recording)
        s = chunked_logits(params, x, rows)
        starts = range(0, n, CHUNK)
        assert calls == [min(CHUNK, n - lo) for lo in starts]
        assert s.dtype == np.float64 and s.shape == (n,)
        chunks = [forward_batch(params, x[rows[lo : lo + CHUNK]])[0] for lo in starts]
        np.testing.assert_array_equal(s, np.concatenate(chunks))
        one_call = forward_batch(params, x[rows])[0]
        np.testing.assert_allclose(s, one_call, rtol=1e-12, atol=1e-12 * np.abs(one_call).max())

    def test_no_rows(self):
        s = chunked_logits(init_params(3, 2, seed=0), np.ones((4, 3)), np.array([], dtype=np.int64))
        assert s.shape == (0,) and s.dtype == np.float64

    def test_nonfinite_row_in_a_later_chunk_rejected(self):
        x = np.ones((CHUNK + 2, 3))
        x[-1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            chunked_logits(init_params(3, 2, seed=0), x, np.arange(len(x)))


class TestBceLoss:
    def test_half_probability(self):
        assert bce(logit(0.5), 1.0) == pytest.approx(np.log(2.0), rel=1e-12)
        assert bce(logit(0.5), 0.0) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_reference_value(self):
        assert bce(logit(0.9), 1.0) == pytest.approx(0.10536051565782628, rel=1e-9)

    def test_vanishes_as_p_approaches_label(self):
        assert bce(logit(1.0 - 1e-9), 1.0) < 1e-8
        assert bce(logit(1e-9), 0.0) < 1e-8

    def test_logit_form_stable_at_extremes(self):
        assert np.isfinite(bce(1000.0, 0.0))
        assert bce(1000.0, 0.0) == pytest.approx(1000.0)


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
        assert_same_bits(p32, p64)
        assert r32.epoch_losses == r64.epoch_losses
        assert r32.final_train_accuracy == r64.final_train_accuracy

    def test_rows_train_as_their_gathered_copy(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (230, 6)).astype(np.float32)
        y = (x[:, 0] + 0.5 * rng.normal(0, 1, 230) > 0).astype(np.float64)
        rows = rng.permutation(230)[:203]
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=32, dropout=0.2,
                          hidden_dim=8, seed=4)
        p_rows, r_rows = train(x, y, cfg, rows=rows)
        p_copy, r_copy = train(x[rows], y[rows], cfg)
        assert_same_bits(p_rows, p_copy)
        assert r_rows.epoch_losses == r_copy.epoch_losses
        assert r_rows.final_train_accuracy == r_copy.final_train_accuracy
        assert r_rows.pos_weight == r_copy.pos_weight
        with pytest.raises(ValueError, match="training rows nonempty"):
            train(x, y, cfg, rows=rows[:0])

    @pytest.mark.parametrize("dropout", [False, True])
    def test_loss_and_grads_match_allocating_reference(self, dropout):
        # The step reuses its buffers; each array op must still be the reference's, bit for bit.
        rng = np.random.default_rng(5)
        params = init_params(9, 12, seed=3)
        params.b1[:] = rng.normal(0, 0.3, 12)
        x, y = rng.normal(0, 1, (37, 9)), (rng.random(37) < 0.4).astype(np.float64)
        kept = rng.random((37, 12)) < 0.8 if dropout else None
        loss, grads = loss_and_grads(params, x, y, 2.5, 1e-3, kept=kept, keep=0.8)
        mask = np.divide(kept, 0.8) if dropout else None
        ref_loss, ref_grads = reference_loss_and_grads(params, x, y, 2.5, 1e-3, mask)
        assert loss == ref_loss
        for key, value in ref_grads.items():
            np.testing.assert_array_equal(np.asarray(grads[key]).view(np.uint64),
                                          np.asarray(value).view(np.uint64))

    @pytest.mark.parametrize("with_rows", [False, True])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_matches_fresh_array_reference(self, dtype, dropout, with_rows):
        # The whole run, bit for bit: the last batch of each epoch is short (203 = 6 * 32 + 11).
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, (230, 6)).astype(dtype)
        y = (x[:, 0] + 0.5 * rng.normal(0, 1, 230) > 0).astype(np.float64)
        rows = rng.permutation(230)[:203] if with_rows else None
        if not with_rows:
            x, y = x[:203], y[:203]
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=32, weight_decay=1e-3,
                          dropout=dropout, hidden_dim=8, seed=6)
        params, report = train(x, y, cfg, rows=rows)
        ref, ref_losses, ref_accuracy = reference_train(x, y, cfg, rows=rows)
        assert_same_bits(params, ref)
        np.testing.assert_array_equal(np.array(report.epoch_losses).view(np.uint64),
                                      np.array(ref_losses).view(np.uint64))
        assert report.final_train_accuracy == ref_accuracy

    def test_rows_outside_the_dataset_refused_before_training(self, monkeypatch):
        # A clipped gather would train row -1 as row 0 under row -1's label.
        x, y = separable_dataset(n=50)
        steps = []
        monkeypatch.setattr(head._Step, "loss_and_grads", lambda *args: steps.append(args))
        for bad, named in (([0, -1, 3], "[-1]"), ([49, 50, 7, -50], "[50, -50]")):
            with pytest.raises(ValueError, match=re.escape(f"outside [0, 50): {named}")):
                train(x, y, TrainConfig(epochs=1), rows=np.array(bad))
        assert steps == []


def engine_rejects(params, h_d, h_t, tau):
    """The engine's verdict on one mismatch whose head input is [h_d; h_t; CSI]."""
    oracle = crafted_oracle([0], [1, 0], h_draft=[h_d], h_target=[h_t])
    decisions, _ = run_one_round(oracle, "wisv_fh", 1, params, tau=tau)
    return decisions.reject_pos[0] == 0


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
