"""Linear probes over frozen patch tokens: segmentation and depth.

Both heads are single linear layers on patch tokens. Predictions made at
the token grid reach full-resolution targets by nearest-neighbor upsampling:
each pixel reads the token whose cell holds it. So the training losses group
by token: one graph per batch over the tokens and per-token target statistics.

The depth head classifies into bins and decodes the expected bin center,
softmax(logits) @ centers, in one op (`autodiff.softmax_expectation`) that
both training and `eval_depth` go through; the logits of a batch come from one
`autodiff.linear` over its tokens flattened to rows. Its training loss is the
scale-invariant log loss applied to those expected depths:

    L = mean(d_i^2) + 0.15 * mean(d_i)^2,  d_i = log(A + eps) - log(B + eps)

with the second term's sign as printed in the reference formula ("paper"),
the classical subtracted form available via sign="classic".

Dense target sidecar: magic ``PALT``, u32 H, u32 W, u8 kind (0 = seg with
u16 class ids, 1 = depth with f32 meters), payload, then the valid mask as
H*W packed bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .alignment import AdamState, adam_step
from .autodiff import Tensor, linear, softmax, softmax_expectation
from .errors import DataError, FormatError

TARGET_MAGIC = b"PALT"
# kind byte = position: name -> (stored dtype, in-memory dtype)
_KINDS = {"seg": ("<u2", np.int64), "depth": ("<f4", np.float64)}

SILOG_EPS = 1e-3
SILOG_LAMBDA = 0.15


# ---------------------------------------------------------------------------
# targets and sidecar I/O
# ---------------------------------------------------------------------------


@dataclass
class DenseTarget:
    """Per-pixel labels (class ids or depth meters) plus a validity mask."""

    values: np.ndarray  # (H, W) int64 for seg, float64 for depth
    valid_mask: np.ndarray  # (H, W) bool

    def __post_init__(self):
        self.valid_mask = np.asarray(self.valid_mask, dtype=bool)
        if self.values.shape != self.valid_mask.shape or self.values.ndim != 2:
            raise DataError(
                f"values {self.values.shape} and mask {self.valid_mask.shape} must be equal 2-D"
            )

    @property
    def n_valid(self) -> int:
        return int(self.valid_mask.sum())


def save_target(target: DenseTarget, path, kind: str) -> int:
    h, w = target.values.shape
    if kind not in _KINDS:
        raise DataError(f"kind must be 'seg' or 'depth', got {kind!r}")
    if kind == "seg" and (target.values.min() < 0 or target.values.max() > 0xFFFF):
        raise DataError("seg class ids must fit in u16")
    payload = target.values.astype(_KINDS[kind][0]).tobytes()
    mask_bits = np.packbits(target.valid_mask.reshape(-1)).tobytes()
    header = struct.pack("<IIB", h, w, list(_KINDS).index(kind))
    blob = TARGET_MAGIC + header + payload + mask_bits
    with open(path, "wb") as f:
        f.write(blob)
    return len(blob)


def load_target(path) -> tuple[DenseTarget, str]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != TARGET_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {TARGET_MAGIC!r}")
    if len(blob) < 13:
        raise FormatError("truncated target header")
    h, w, kind_byte = struct.unpack("<IIB", blob[4:13])
    if kind_byte >= len(_KINDS):
        raise FormatError(f"unknown target kind byte {kind_byte}")
    kind = list(_KINDS)[kind_byte]
    stored, dtype = _KINDS[kind]
    n = h * w
    end = 13 + n * np.dtype(stored).itemsize
    expected = end + (n + 7) // 8
    if len(blob) != expected:
        raise FormatError(f"target file is {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob[13:end], dtype=stored).astype(dtype).reshape(h, w)
    mask = np.unpackbits(np.frombuffer(blob[end:], dtype=np.uint8))[:n]
    return DenseTarget(values=values, valid_mask=mask.astype(bool).reshape(h, w)), kind


# ---------------------------------------------------------------------------
# depth binning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepthBinning:
    d_min: float = 0.001
    d_max: float = 10.0
    n_bins: int = 256

    def __post_init__(self):
        if not 0 < self.d_min < self.d_max:
            raise DataError(f"need 0 < d_min < d_max, got {self.d_min}, {self.d_max}")
        if self.n_bins < 2:
            raise DataError(f"n_bins must be >= 2, got {self.n_bins}")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.d_min, self.d_max, self.n_bins + 1)

    @property
    def centers(self) -> np.ndarray:
        edges = self.edges
        return (edges[:-1] + edges[1:]) / 2.0


def depth_encode(depth: np.ndarray, binning: DepthBinning) -> np.ndarray:
    """Clamp to the bin range and floor each depth into its bin index."""
    depth = np.asarray(depth, dtype=np.float64)
    clamped = np.clip(depth, binning.d_min, binning.d_max)
    width = (binning.d_max - binning.d_min) / binning.n_bins
    idx = np.floor((clamped - binning.d_min) / width)
    return np.clip(idx, 0, binning.n_bins - 1).astype(np.int64)


def depth_decode(probs, binning: DepthBinning):
    """Expected depth under a per-pixel bin distribution (one-hot included);
    accepts numpy arrays or autodiff tensors."""
    if probs.shape[-1] != binning.n_bins:
        raise DataError(f"distribution has {probs.shape[-1]} bins, binning {binning.n_bins}")
    return (probs * binning.centers).sum(axis=-1)


# ---------------------------------------------------------------------------
# losses (one batched graph each; the public ops run it at B = 1)
# ---------------------------------------------------------------------------


def _jaccard_graph(probs: Tensor, onehot: np.ndarray) -> Tensor:
    """Per-image 1 - mean soft-Jaccard over classes present in prediction or target.

    probs: (B, P, C) rows on the simplex; onehot: (B, P, C) constant. An
    image with a pixel always has a present class.
    """
    intersection = (probs * onehot).sum(axis=1)
    return _jaccard_ratio(intersection, (probs + onehot - probs * onehot).sum(axis=1))


def _jaccard_ratio(intersection: Tensor, union: Tensor) -> Tensor:
    """1 - mean intersection / union over the classes (last axis) with a
    nonzero union."""
    active = union.data > 0.0
    # an absent class scores 0 / 1 and is left out of the count
    ratio = intersection / (union + ~active)
    return 1.0 - ratio.sum(axis=1) / active.sum(axis=1)


def jaccard_loss(pred_probs: np.ndarray, target: DenseTarget) -> float:
    """Soft-Jaccard loss over valid pixels; 0 iff hard-correct everywhere."""
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    if pred_probs.shape[:2] != target.values.shape:
        raise DataError(
            f"prediction grid {pred_probs.shape[:2]} != target {target.values.shape}"
        )
    if target.n_valid == 0:
        raise DataError("empty valid mask")
    sums = pred_probs.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise DataError("per-pixel class distributions must sum to 1")
    n_classes = pred_probs.shape[-1]
    probs = pred_probs[target.valid_mask]
    labels = target.values[target.valid_mask]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError("target class id outside prediction's class range")
    onehot = np.eye(n_classes)[labels]
    return float(_jaccard_graph(Tensor(probs[None]), onehot[None]).data[0])


def _silog_graph(pred: Tensor, target, eps: float, lam: float, sign: float) -> Tensor:
    """Per-image SILog of (B, P) depths against (B, P) targets."""
    d = (pred + eps).log() - Tensor(np.log(target + eps))
    n = d.shape[1]
    return (d * d).sum(axis=1) / n + sign * lam * (d.sum(axis=1) / n) ** 2


def silog_loss(
    pred_depth: np.ndarray,
    target: DenseTarget,
    eps: float = SILOG_EPS,
    lam: float = SILOG_LAMBDA,
    sign: str = "paper",
) -> float:
    """Scale-invariant log loss over valid pixels, in meters.

    sign="paper" adds the squared-mean term as printed in the reference
    formula; sign="classic" subtracts it (the traditional form).
    """
    pred_depth = np.asarray(pred_depth, dtype=np.float64)
    if pred_depth.shape != target.values.shape:
        raise DataError(f"prediction {pred_depth.shape} != target {target.values.shape}")
    if target.n_valid == 0:
        raise DataError("empty valid mask")
    pred = pred_depth[target.valid_mask]
    truth = target.values[target.valid_mask].astype(np.float64)
    if np.any(pred < 0) or np.any(truth < 0):
        raise DataError("depths must be >= 0")
    loss = _silog_graph(Tensor(pred[None]), truth[None], eps, lam, _silog_sign(sign))
    return float(loss.data[0])


def _silog_sign(sign: str) -> float:
    if sign == "paper":
        return 1.0
    if sign == "classic":
        return -1.0
    raise DataError(f"sign must be 'paper' or 'classic', got {sign!r}")


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------


@dataclass
class SegHead:
    weight: np.ndarray  # (n_classes, d)
    bias: np.ndarray  # (n_classes,)

    @property
    def n_classes(self) -> int:
        return self.weight.shape[0]


@dataclass
class DepthHead:
    weight: np.ndarray  # (n_bins, d)
    bias: np.ndarray  # (n_bins,)
    binning: DepthBinning = field(default_factory=DepthBinning)

    def __post_init__(self):
        if self.weight.shape[0] != self.binning.n_bins:
            raise DataError(
                f"head has {self.weight.shape[0]} bins, binning {self.binning.n_bins}"
            )


@dataclass
class HeadHyper:
    """Reference presets: lr 3e-4, 10 epochs, batch 16 (seg) or 128 (depth)."""

    lr: float = 3e-4
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:
            raise DataError(f"lr must be > 0, got {self.lr}")
        if not np.isfinite(self.lr):
            raise DataError(f"lr must be finite, got {self.lr}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")


DEPTH_BATCH_SIZE = 128


def _token_index_map(s: int, h: int, w: int) -> np.ndarray:
    """(h*w,) flat token index feeding each target pixel."""
    rows = (np.arange(h) * s) // h
    cols = (np.arange(w) * s) // w
    return (rows[:, None] * s + cols[None, :]).reshape(-1)


def _valid_pixels(features, targets, task: str, n_classes: int | None):
    """Tokens (N, T, d), T = s*s, of the (N, s, s, d) patch grids `features`,
    and for every valid pixel (image by image, row-major) the flat index of its
    token among the N*T and its target value. Targets are checked here, once: a
    non-empty valid mask, seg class ids among the head's classes, finite
    positive depths."""
    if len(features) != len(targets) or not len(features):
        raise DataError("features and targets must be non-empty and parallel")
    try:
        grids = np.asarray(features, dtype=np.float64)
    except ValueError:
        raise DataError("patch grids must all have one (s, s, d) shape") from None
    if grids.ndim != 4 or grids.shape[1] != grids.shape[2]:
        raise DataError(f"patch grids must form one (N, s, s, d) array, got {grids.shape}")
    s = grids.shape[1]
    tokens = grids.reshape(len(grids), s * s, grids.shape[3])
    index, values = [], []
    for i, target in enumerate(targets):
        valid = target.values[target.valid_mask]
        if not valid.size:
            raise DataError("empty valid mask")
        if task == "seg" and (valid.min() < 0 or valid.max() >= n_classes):
            raise DataError(f"target class ids must lie in [0, {n_classes}), the head's classes")
        if task == "depth" and not np.all((valid > 0) & (valid < np.inf)):
            raise DataError("nonpositive or non-finite target depth inside the valid mask")
        h, w = target.values.shape
        index.append(i * s * s + _token_index_map(s, h, w)[target.valid_mask.reshape(-1)])
        values.append(valid)
    return tokens, np.concatenate(index), np.concatenate(values)


def _head_inputs(features, targets, task: str, n_classes: int | None):
    """Tokens (N, T, d) and the checked targets as per-token statistics: seg
    (n,), n (N, T, C) the valid pixels of each class in each token's cell;
    depth (S0, m, V), each (N, T): the valid pixel count, the mean of
    log(target + eps) and the sum of squares about that mean."""
    tokens, index, values = _valid_pixels(features, targets, task, n_classes)
    size = tokens.shape[0] * tokens.shape[1]
    if task == "seg":
        counts = np.bincount(index * n_classes + values, minlength=size * n_classes)
        return tokens, (counts.reshape(*tokens.shape[:2], n_classes),)
    log_truth = np.log(values + SILOG_EPS)
    count = np.bincount(index, minlength=size)
    mean = np.bincount(index, log_truth, minlength=size) / np.maximum(count, 1)
    spread = np.bincount(index, (log_truth - mean[index]) ** 2, minlength=size)
    return tokens, tuple(a.reshape(tokens.shape[:2]) for a in (count, mean, spread))


def _head_loss(task, w: Tensor, b: Tensor, tokens, stats, rows, binning=None, sign=1.0):
    """Mean loss of the images `rows` as one graph over the head's w and b,
    from `_head_inputs`; the per-pixel losses up to float round-off."""
    batch = tokens[rows]
    logits = linear(batch.reshape(-1, batch.shape[2]), w, b)
    if task == "seg":
        probs = softmax(logits).reshape(*batch.shape[:2], -1)
        n = stats[0][rows]
        intersection = (probs * n).sum(axis=1)
        # each valid pixel adds p + onehot - p * onehot to its class's union
        union = (probs * (n.sum(axis=2, keepdims=True) - n)).sum(axis=1) + n.sum(axis=1)
        return _jaccard_ratio(intersection, union).mean()
    count, mean, spread = (column[rows] for column in stats)
    # sum_i d_i^2 = sum_t S0_t (log(a_t + eps) - m_t)^2 + V_t, centered because
    # the uncentered S0 a^2 - 2 a S1 + S2 cancels badly near a fit
    depth = softmax_expectation(logits, binning.centers).reshape(batch.shape[:2])
    offset = (depth + SILOG_EPS).log() - mean
    weighted, n = offset * count, count.sum(axis=1)
    square_sum = (weighted * offset).sum(axis=1) + spread.sum(axis=1)
    return (square_sum / n + sign * SILOG_LAMBDA * (weighted.sum(axis=1) / n) ** 2).mean()


def train_linear_head(
    task: str,
    features: np.ndarray,
    targets: list[DenseTarget],
    hyper: HeadHyper,
    n_classes: int | None = None,
    binning: DepthBinning | None = None,
    silog_sign: str = "paper",
):
    """Fit a linear head on frozen (N, s, s, d) patch features with Adam, one
    graph per batch. Only head parameters move; the features are only read.
    Returns (head, per-epoch mean loss list).
    """
    if task not in ("seg", "depth"):
        raise DataError(f"task must be 'seg' or 'depth', got {task!r}")
    if task == "seg":
        if n_classes is None or n_classes < 2:
            raise DataError("seg head needs n_classes >= 2")
        n_out = n_classes
    else:
        binning = binning or DepthBinning()
        n_out = binning.n_bins
    sign = _silog_sign(silog_sign)
    tokens, stats = _head_inputs(features, targets, task, n_classes)

    rng = np.random.default_rng(hyper.seed)
    params = {
        "weight": rng.normal(scale=0.01, size=(n_out, tokens.shape[2])),
        "bias": np.zeros(n_out),
    }
    adam = AdamState()
    history: list[float] = []
    order_rng = np.random.default_rng(hyper.seed + 1)
    for _ in range(hyper.epochs):
        perm = order_rng.permutation(len(features))
        epoch_sum, count = 0.0, 0
        for start in range(0, len(perm), hyper.batch_size):
            batch = perm[start : start + hyper.batch_size]
            w = Tensor(params["weight"], requires_grad=True)
            b = Tensor(params["bias"], requires_grad=True)
            loss = _head_loss(task, w, b, tokens, stats, batch, binning, sign)
            loss.backward()
            adam_step(params, {"weight": w.grad, "bias": b.grad}, adam, hyper.lr)
            epoch_sum += float(loss.data) * len(batch)
            count += len(batch)
        history.append(epoch_sum / count)

    if task == "seg":
        return SegHead(weight=params["weight"], bias=params["bias"]), history
    return DepthHead(weight=params["weight"], bias=params["bias"], binning=binning), history


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_seg(head: SegHead, features: np.ndarray, targets: list[DenseTarget]) -> dict:
    """mIoU over classes present in target or prediction, plus pixel accuracy."""
    n_classes = head.n_classes
    tokens, index, truth = _valid_pixels(features, targets, "seg", n_classes)
    logits = linear(tokens.reshape(-1, tokens.shape[2]), head.weight, head.bias)
    pixels = truth * n_classes + np.argmax(softmax(logits).data, axis=-1)[index]
    confusion = np.bincount(pixels, minlength=n_classes**2).reshape(n_classes, n_classes)
    present = (confusion.sum(axis=1) + confusion.sum(axis=0)) > 0
    tp = np.diag(confusion)
    denom = confusion.sum(axis=1) + confusion.sum(axis=0) - tp
    iou = tp[present] / denom[present]
    return {
        "miou": float(iou.mean()),
        "pixel_accuracy": float(tp.sum() / confusion.sum()),
    }


DELTA_THRESHOLDS = (1.25, 1.25**2, 1.25**3)


def eval_depth(head: DepthHead, features: np.ndarray, targets: list[DenseTarget]) -> dict:
    """RMSE, AbsRel, log10, and delta-threshold accuracies over valid pixels."""
    tokens, index, b = _valid_pixels(features, targets, "depth", None)
    logits = linear(tokens.reshape(-1, tokens.shape[2]), head.weight, head.bias)
    a = softmax_expectation(logits, head.binning.centers).data[index]
    b = b.astype(np.float64)
    ratio = np.maximum(a / b, b / a)
    return {
        "rmse": float(np.sqrt(((a - b) ** 2).mean())),
        "abs_rel": float((np.abs(a - b) / b).mean()),
        "log10": float(np.abs(np.log10(a) - np.log10(b)).mean()),
        "delta1": float((ratio < DELTA_THRESHOLDS[0]).mean()),
        "delta2": float((ratio < DELTA_THRESHOLDS[1]).mean()),
        "delta3": float((ratio < DELTA_THRESHOLDS[2]).mean()),
    }
