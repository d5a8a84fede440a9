"""Link-aware rejection head: a two-layer MLP trained from scratch.

Input is the concatenation [drafter hidden; target hidden; CSI features];
output is a rejection probability. Forward pass:

    s = w2 . Dropout(ReLU(W1 z + b1)) + b2,   p = sigmoid(s)

Training draws dropout masks with inverted scaling, so inference
(``forward_batch``) needs no rescale. Training is
plain mini-batch SGD with momentum, weight decay on the weight matrices,
and a positive-class weight for imbalance; gradients are exact
backpropagation, and the BCE loss is always evaluated from the logit.
A training step reuses its buffers and fuses ops only where the fused op
is exact (``_Step`` says why each one is), so it computes bit for bit
what a fresh-array evaluation of these formulas computes.
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


def _logistic(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(-|s|)`` and the numerically stable sigmoid of float64 logits ``s``.

    The training step's BCE reuses the first, so it is computed once.
    """
    e = np.exp(-np.abs(s))
    return e, np.where(s >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    """Numerically stable logistic function."""
    return _logistic(np.asarray(x, dtype=np.float64))[1]


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


def _split(flat: np.ndarray, d_in: int, d_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the w1, b1 and w2 blocks of a flat [w1; b1; w2; b2] vector."""
    n1 = d_j * d_in
    return flat[:n1].reshape(d_j, d_in), flat[n1 : n1 + d_j], flat[n1 + d_j : n1 + 2 * d_j]


class _Step:
    """An SGD step on up to ``rows`` rows, with every buffer allocated once per ``train`` call.

    The parameters ``theta``, their gradient ``grad`` and a ``scratch``
    are flat [w1; b1; w2; b2] vectors, so one momentum update moves all
    four blocks. ``gather`` takes the batch in the
    features' dtype and ``x`` holds it widened to float64; they are one
    array for float64 input. ``gate`` first receives the dropout uniforms
    and ``kept`` their draw. Fresh batch-size temporaries on every step
    would be given back to the OS and page-faulted in again; reused
    buffers are not.

    The step computes bit for bit what a fresh-array evaluation of the
    module's formulas computes (with the already-scaled mask
    ``kept / keep``), because every op it fuses or reorders is exact:

    * ``act`` is ReLU'd in place, and ``act > 0`` is ``pre > 0`` for every
      float, NaN included;
    * the unit gate ``(kept & (pre > 0)) * (1 / keep)`` is 1/keep or +0,
      as are the mask ``kept / keep`` and ``mask * (pre > 0)``. Where the
      gate is 0, ``max(pre, 0)`` is a zero, and a zero times +0 or times
      1/keep keeps its sign, so ``act *= gate`` is ``act *= mask``. ``gpre``
      is multiplied by the gate once in place of the mask and then the 0/1
      flags: a product times 1 is itself, and times +0 is the zero that
      the product times 0 is;
    * ``exp(-|s|)``, ``1 + exp(-|s|)``, ``pos_weight * y`` and ``1 - y``
      are computed once where the formulas use them twice;
    * ``.sum() / m`` is the reduction and division ``np.mean`` makes, and
      ``gs[:, None] * w2`` is the product ``np.outer`` makes;
    * the GEMMs, GEMVs and reductions are the same calls on the same
      operands, only with ``out=`` buffers, and an elementwise op on the
      flat vectors is that op on each block.
    """

    def __init__(self, params: HeadParams, rows: int, dtype: np.dtype) -> None:
        d_in, d_j = params.d_in, params.d_j
        self.theta = np.concatenate([params.w1.ravel(), params.b1, params.w2, [params.b2]])
        self.grad = np.empty_like(self.theta)
        self.scratch = np.empty_like(self.theta)
        self.w1, self.b1, self.w2 = _split(self.theta, d_in, d_j)
        self.gw1, self.gb1, self.gw2 = _split(self.grad, d_in, d_j)
        self.w1_scratch = _split(self.scratch, d_in, d_j)[0]
        self.x = np.empty((rows, d_in))
        self.gather = self.x if dtype == np.float64 else np.empty((rows, d_in), dtype=dtype)
        self.act = np.empty((rows, d_j))
        self.gpre = np.empty((rows, d_j))
        self.gate = np.empty((rows, d_j))
        self.kept = np.empty((rows, d_j), dtype=bool)
        self.live = np.empty((rows, d_j), dtype=bool)

    def loss_and_grads(
        self, m: int, y: np.ndarray, pos_weight: float, weight_decay: float, scale: float | None
    ) -> float:
        """The loss of the batch in ``x[:m]``, leaving its gradient in ``grad``.

        ``scale`` is 1/keep for a dropout whose draw is in ``kept[:m]``, or
        None for no dropout.
        """
        x, act, gpre = self.x[:m], self.act[:m], self.gpre[:m]
        np.matmul(x, self.w1.T, out=act)
        act += self.b1
        np.maximum(act, 0.0, out=act)
        gate = np.greater(act, 0.0, out=self.live[:m])
        if scale is not None:
            gate &= self.kept[:m]
            gate = np.multiply(gate, scale, out=self.gate[:m])
            act *= gate
        s = act @ self.w2
        s += self.theta[-1]
        e, p = _logistic(s)

        # Weighted BCE from the logit: y * softplus(-s) + (1 - y) * softplus(s),
        # with softplus(t) = max(t, 0) + log1p(exp(-|t|)).
        wy, ny = pos_weight * y, 1.0 - y
        common = np.log1p(e)
        bce = wy * (np.maximum(-s, 0.0) + common) + ny * (np.maximum(s, 0.0) + common)
        w1_sq = np.square(self.w1, out=self.w1_scratch).sum()
        loss = float(bce.sum() / m)
        loss += 0.5 * weight_decay * (float(w1_sq) + float(np.square(self.w2).sum()))

        # d loss / d s, mean reduction
        gs = (ny * p + wy * (p - 1.0)) / m
        np.matmul(act.T, gs, out=self.gw2)
        self.gw2 += weight_decay * self.w2
        self.grad[-1] = gs.sum()
        np.multiply(gs[:, None], self.w2, out=gpre)
        gpre *= gate
        np.matmul(gpre.T, x, out=self.gw1)
        self.gw1 += np.multiply(weight_decay, self.w1, out=self.w1_scratch)
        gpre.sum(axis=0, out=self.gb1)
        return loss


def loss_and_grads(
    params: HeadParams,
    x: np.ndarray,
    y: np.ndarray,
    pos_weight: float = 1.0,
    weight_decay: float = 0.0,
    kept: np.ndarray | None = None,
    keep: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean weighted BCE (+ L2 on the weight matrices) and its exact gradients.

    ``kept``, when given, is an (n, d_j) boolean dropout draw: each kept
    hidden unit is scaled by 1/``keep`` and the others are dropped. None
    disables dropout, which keeps the function deterministic for
    finite-difference checks. It runs the step code ``train`` runs, on
    buffers of its own.
    """
    step = _Step(params, x.shape[0], np.dtype(np.float64))
    step.x[:] = x
    if kept is not None:
        step.kept[:] = kept
    loss = step.loss_and_grads(
        x.shape[0], np.asarray(y, dtype=np.float64), pos_weight, weight_decay,
        None if kept is None else 1.0 / keep,
    )
    return loss, {"w1": step.gw1, "b1": step.gb1, "w2": step.gw2, "b2": step.grad[-1]}


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
    its rows from ``x``. A row outside [0, n) is refused before training.
    The positive-class weight is #neg/#pos, recomputed from the training
    rows; a single-class training set is rejected because that weight is
    undefined.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rows = np.arange(len(y)) if rows is None else np.asarray(rows)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or len(rows) == 0:
        raise ValueError("dataset must be an (n, d_in) matrix with n labels, "
                         "and the training rows nonempty")
    outside = rows[(rows < 0) | (rows >= len(y))]
    if len(outside):
        # The batch gather clips an index, so such a row would train under another row's label.
        raise ValueError(f"{len(outside)} training rows lie outside [0, {len(y)}): "
                         f"{outside[:5].tolist()}")
    y = y[rows]
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training set must contain both classes")
    pos_weight = n_neg / n_pos

    n, d_in = len(rows), x.shape[1]
    step = _Step(init_params(d_in, cfg.hidden_dim, cfg.seed), min(cfg.batch_size, n), x.dtype)
    rng = np.random.default_rng([cfg.seed, 0x7EA1])
    vel = np.zeros_like(step.theta)
    report = TrainReport(pos_weight=pos_weight)
    keep = 1.0 - cfg.dropout
    scale = 1.0 / keep if cfg.dropout > 0.0 else None
    starts = range(0, n, cfg.batch_size)

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in starts:
            idx = order[lo : lo + cfg.batch_size]
            m = len(idx)
            # mode="clip" writes straight into ``out``; "raise" would buffer it.
            x.take(rows.take(idx), axis=0, out=step.gather[:m], mode="clip")
            if step.gather is not step.x:
                step.x[:m] = step.gather[:m]
            if scale is not None:
                # One uniform per hidden unit and row; a unit is kept when its uniform < keep.
                np.less(rng.random(out=step.gate[:m]), keep, out=step.kept[:m])
            epoch_loss += step.loss_and_grads(m, y.take(idx), pos_weight, cfg.weight_decay, scale)
            vel *= cfg.momentum
            vel += step.grad
            step.theta -= np.multiply(cfg.learning_rate, vel, out=step.scratch)
        report.epoch_losses.append(epoch_loss / len(starts))

    params = HeadParams(step.w1, step.b1, step.w2, float(step.theta[-1]))
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
    return HeadParams(*_split(flat, d_in, d_j), b2=float(flat[-1]))
