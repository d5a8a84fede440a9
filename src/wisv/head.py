"""Link-aware rejection head: a two-layer MLP trained from scratch.

Input is the concatenation [drafter hidden; target hidden; CSI features];
output is a rejection probability. Forward pass:

    s = w2 . Dropout(ReLU(W1 z + b1)) + b2,   p = sigmoid(s)

Training draws dropout masks with inverted scaling, so inference
(``forward_batch``) needs no rescale. Training is
plain mini-batch SGD with momentum, weight decay on the weight matrices,
and a positive-class weight for imbalance; gradients are exact
backpropagation, and the BCE loss is always evaluated from the logit.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_MAGIC = b"WSVH"
_VERSION = 1
_HEADER = struct.Struct("<III")


@dataclass
class HeadParams:
    w1: np.ndarray  # (d_j, d_in)
    b1: np.ndarray  # (d_j,)
    w2: np.ndarray  # (d_j,)
    b2: float

    def __post_init__(self) -> None:
        d_j, d_in = self.w1.shape
        if self.b1.shape != (d_j,) or self.w2.shape != (d_j,):
            raise ValueError("inconsistent head parameter shapes")
        for arr in (self.w1, self.b1, self.w2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("head parameters must be finite")

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_j(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 256
    weight_decay: float = 1e-4
    momentum: float = 0.9
    dropout: float = 0.1
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay!r}")


def init_params(d_in: int, d_j: int, seed: int) -> HeadParams:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng([seed, 0x4EAD])
    lim1 = 1.0 / np.sqrt(d_in)
    lim2 = 1.0 / np.sqrt(d_j)
    return HeadParams(
        w1=rng.uniform(-lim1, lim1, size=(d_j, d_in)),
        b1=np.zeros(d_j),
        w2=rng.uniform(-lim2, lim2, size=d_j),
        b2=0.0,
    )


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def forward_batch(params: HeadParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference logits and rejection probabilities for a (n, d_in) feature batch."""
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite feature input")
    act = np.maximum(z @ params.w1.T + params.b1, 0.0)
    s = act @ params.w2 + params.b2
    return s, sigmoid(s)


# Rows per ``forward_batch`` call of a multi-row pass. Each call holds its
# chunk's gather, the float64 cast of it and its activations; every chunk but
# the last has this many rows, so BLAS sees the same large row count per call.
INFERENCE_CHUNK = 256


def chunked_logits(params: HeadParams, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Inference logits of ``x[rows]``, ``INFERENCE_CHUNK`` rows per ``forward_batch`` call.

    Entry i is the logit of row ``rows[i]`` of ``x``, in any row order; only
    one chunk's rows are ever gathered. A one-call ``forward_batch(params,
    x[rows])`` agrees to rounding, but not always to the bit: BLAS may
    split a product differently for a different row count.
    """
    rows = np.asarray(rows)
    s = np.empty(len(rows))
    for lo in range(0, len(rows), INFERENCE_CHUNK):
        chunk = rows[lo : lo + INFERENCE_CHUNK]
        s[lo : lo + len(chunk)] = forward_batch(params, x[chunk])[0]
    return s


def bce_from_logit(s, y, pos_weight: float = 1.0):
    """Elementwise BCE evaluated from the logit (log-sum-exp form)."""
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # softplus(x) = max(x, 0) + log1p(exp(-|x|)); loss is y*softplus(-s) + (1-y)*softplus(s)
    common = np.log1p(np.exp(-np.abs(s)))
    loss_pos = np.maximum(-s, 0.0) + common
    loss_neg = np.maximum(s, 0.0) + common
    return pos_weight * y * loss_pos + (1.0 - y) * loss_neg


class _Step:
    """Buffers for an SGD step on up to ``rows`` rows, allocated once per ``train`` call.

    Fresh batch-size temporaries on every step are given back to the OS and
    page-faulted in again once the heap holds nothing larger; reused
    buffers are not. ``gather`` takes the batch in the features' dtype and
    ``x`` holds it widened to float64; they are one array for float64 input.
    """

    def __init__(self, rows: int, d_in: int, d_j: int, dtype: np.dtype) -> None:
        self.x = np.empty((rows, d_in))
        self.gather = self.x if dtype == np.float64 else np.empty((rows, d_in), dtype=dtype)
        self.pre = np.empty((rows, d_j))
        self.act = np.empty((rows, d_j))
        self.grad = np.empty((rows, d_j))
        self.uniform = np.empty((rows, d_j))
        self.mask = np.empty((rows, d_j))
        self.flags = np.empty((rows, d_j), dtype=bool)
        self.gw1 = np.empty((d_j, d_in))
        self.w1_scratch = np.empty((d_j, d_in))

    def loss_and_grads(
        self,
        params: HeadParams,
        m: int,
        y: np.ndarray,
        pos_weight: float,
        weight_decay: float,
        dropout: bool,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """``loss_and_grads`` on the batch in ``x[:m]``, with ``mask[:m]`` if ``dropout``.

        Every array op is the one a fresh-array evaluation would make, in its
        order, so the results are bit for bit the same; the returned w1
        gradient is ``gw1``, overwritten by the next step.
        """
        x, pre, act, gpre = self.x[:m], self.pre[:m], self.act[:m], self.grad[:m]
        np.matmul(x, params.w1.T, out=pre)
        pre += params.b1
        np.maximum(pre, 0.0, out=act)
        if dropout:
            act *= self.mask[:m]
        s = act @ params.w2 + params.b2
        p = sigmoid(s)

        loss = float(np.mean(bce_from_logit(s, y, pos_weight)))
        w1_sq = float(np.sum(np.square(params.w1, out=self.w1_scratch)))
        loss += 0.5 * weight_decay * (w1_sq + float(np.sum(params.w2**2)))

        # d loss / d s, mean reduction
        gs = ((1.0 - y) * p + pos_weight * y * (p - 1.0)) / m
        gw2 = act.T @ gs + weight_decay * params.w2
        gb2 = float(np.sum(gs))
        np.outer(gs, params.w2, out=gpre)
        if dropout:
            gpre *= self.mask[:m]
        gpre *= np.greater(pre, 0.0, out=self.flags[:m])
        gw1 = np.matmul(gpre.T, x, out=self.gw1)
        gw1 += np.multiply(weight_decay, params.w1, out=self.w1_scratch)
        gb1 = gpre.sum(axis=0)
        return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": np.float64(gb2)}


def loss_and_grads(
    params: HeadParams,
    x: np.ndarray,
    y: np.ndarray,
    pos_weight: float = 1.0,
    weight_decay: float = 0.0,
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean weighted BCE (+ L2 on the weight matrices) and its exact gradients.

    ``dropout_mask``, when given, is the already-scaled multiplicative mask
    applied to the hidden activations; passing None disables dropout, which
    keeps the function deterministic for finite-difference checks. It runs
    the step code ``train`` runs, on buffers of its own.
    """
    step = _Step(x.shape[0], params.d_in, params.d_j, np.dtype(np.float64))
    step.x[:] = x
    if dropout_mask is not None:
        step.mask[:] = dropout_mask
    return step.loss_and_grads(
        params, x.shape[0], np.asarray(y, dtype=np.float64), pos_weight, weight_decay,
        dropout_mask is not None,
    )


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    pos_weight: float = 1.0
    final_train_accuracy: float = 0.0


def train(
    x: np.ndarray, y: np.ndarray, cfg: TrainConfig, rows: np.ndarray | None = None
) -> tuple[HeadParams, TrainReport]:
    """Train a head on (n, d_in) features and 0/1 labels, or on their ``rows`` only.

    Features may be float32 or float64: each batch is gathered and widened
    into one float64 buffer, so float32 features train exactly as their
    float64 copy does. Training on ``rows`` trains exactly as on
    ``x[rows], y[rows]``, without building that copy: each batch gathers
    its rows from ``x``. The positive-class weight is #neg/#pos, recomputed
    from the training rows; a single-class training set is rejected
    because that weight is undefined.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rows = np.arange(len(y)) if rows is None else np.asarray(rows)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or len(rows) == 0:
        raise ValueError("dataset must be an (n, d_in) matrix with n labels, "
                         "and the training rows nonempty")
    y = y[rows]
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training set must contain both classes")
    pos_weight = n_neg / n_pos

    n, d_in = len(rows), x.shape[1]
    params = init_params(d_in, cfg.hidden_dim, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 0x7EA1])
    vel = {
        "w1": np.zeros_like(params.w1),
        "b1": np.zeros_like(params.b1),
        "w2": np.zeros_like(params.w2),
        "b2": np.float64(0.0),
    }
    report = TrainReport(pos_weight=pos_weight)
    keep = 1.0 - cfg.dropout
    dropout = cfg.dropout > 0.0
    step = _Step(min(cfg.batch_size, n), d_in, cfg.hidden_dim, x.dtype)

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            m = len(idx)
            np.take(x, rows[idx], axis=0, out=step.gather[:m])
            if step.gather is not step.x:
                step.x[:m] = step.gather[:m]
            if dropout:
                # The mask is (uniform < keep) / keep, one uniform per hidden unit and row.
                np.less(rng.random(out=step.uniform[:m]), keep, out=step.flags[:m])
                np.divide(step.flags[:m], keep, out=step.mask[:m])
            loss, grads = step.loss_and_grads(
                params, m, y[idx], pos_weight, cfg.weight_decay, dropout
            )
            for key in ("w1", "b1", "w2"):
                vel[key] *= cfg.momentum
                vel[key] += grads[key]
            vel["b2"] = cfg.momentum * vel["b2"] + grads["b2"]
            params.w1 -= np.multiply(cfg.learning_rate, vel["w1"], out=step.w1_scratch)
            params.b1 -= cfg.learning_rate * vel["b1"]
            params.w2 -= cfg.learning_rate * vel["w2"]
            params.b2 -= cfg.learning_rate * float(vel["b2"])
            epoch_loss += loss
            n_batches += 1
        report.epoch_losses.append(epoch_loss / n_batches)

    s = chunked_logits(params, x, rows)
    report.final_train_accuracy = float(np.mean((s >= 0.0) == (y == 1.0)))
    return params, report


def save_params(path: str | Path, params: HeadParams, metadata: dict | None = None) -> None:
    """Write params as little-endian FP32 with a dims header, plus a JSON sidecar."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, params.d_in, params.d_j))
        fh.write(params.w1.astype("<f4").tobytes())
        fh.write(params.b1.astype("<f4").tobytes())
        fh.write(params.w2.astype("<f4").tobytes())
        fh.write(np.float32(params.b2).astype("<f4").tobytes())
    sidecar = {"d_in": params.d_in, "d_j": params.d_j}
    sidecar.update(metadata or {})
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path: str | Path) -> HeadParams:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path} is not a head parameter file")
    start = len(_MAGIC) + _HEADER.size
    if len(raw) < start:
        raise ValueError(f"truncated head file {path}: {len(raw)} bytes, shorter than its header")
    version, d_in, d_j = _HEADER.unpack_from(raw, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"unsupported head file version {version}")
    need = start + 4 * (d_j * d_in + d_j + d_j + 1)
    if len(raw) != need:
        raise ValueError(f"truncated head file {path}: {len(raw)} bytes, expected {need}")
    flat = np.frombuffer(raw, dtype="<f4", offset=start).astype(np.float64)
    w1 = flat[: d_j * d_in].reshape(d_j, d_in)
    b1 = flat[d_j * d_in : d_j * d_in + d_j]
    w2 = flat[d_j * d_in + d_j : d_j * d_in + 2 * d_j]
    b2 = float(flat[-1])
    return HeadParams(w1=w1, b1=b1, w2=w2, b2=b2)
