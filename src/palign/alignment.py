"""Alignment objective, optimizer, and training loop.

The objective: for a triplet (ref, x0, x1) with judgment y naming the more
similar variation, push the preferred image at least a margin closer in
cosine distance than the other one:

    loss = max(0, m - (d0 - d1) * ybar),   ybar = 2y - 1

Only low-rank adapter matrices train; everything else stays frozen. Losses
and gradients accumulate in float64 with a fixed summation order so reruns
are bit-reproducible and finite-difference checks are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .backbone import FeatureMode
from .data import TripletManifest
from .errors import DataError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def judgment_sign(y: int) -> int:
    """Map y in {0, 1} to {-1, +1}."""
    if y not in (0, 1):
        raise DataError(f"judgment must be 0 or 1, got {y!r}")
    return 2 * y - 1


def cosine_distance(u, v):
    """1 - cos(u, v); accepts numpy vectors or autodiff tensors.

    Zero-norm inputs are refused outright: silently defining d(0, .) would
    quietly corrupt both training and evaluation.
    """
    if u.shape != v.shape:
        raise DataError(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = ((u * u).sum()) ** 0.5
    nv = ((v * v).sum()) ** 0.5
    if float(nu) == 0.0 or float(nv) == 0.0:
        raise DataError("cosine distance undefined for zero-norm input")
    return 1.0 - (u * v).sum() / (nu * nv)


def alignment_loss(d0: float, d1: float, y: int, m: float) -> float:
    """Hinge on the distance gap; zero iff the preferred image wins by >= m."""
    if m <= 0:
        raise DataError(f"margin must be > 0, got {m}")
    return max(0.0, m - (d0 - d1) * judgment_sign(y))


@dataclass
class AlignmentConfig:
    """Training preset; the defaults are the reference recipe."""

    margin: float = 0.05
    lr: float = 3e-4
    batch_size: int = 16
    epochs: int = 8
    feature_mode: FeatureMode = FeatureMode.CLS_ONLY
    seed: int = 0
    lora_rank: int = 16
    lora_alpha: float = 0.5
    lora_dropout: float = 0.0
    max_steps: int | None = None  # optional cap for step-count ablations

    def __post_init__(self):
        if self.margin <= 0:
            raise DataError(f"margin must be > 0, got {self.margin}")
        if self.lr <= 0:
            raise DataError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise DataError(f"epochs must be >= 0, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise DataError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class TrainState:
    """Optimizer moments plus the best-validation checkpoint seen so far."""

    adam: AdamState = field(default_factory=AdamState)
    best_val_loss: float = float("inf")
    best_snapshot: dict[str, np.ndarray] | None = None

    @property
    def step(self) -> int:
        return self.adam.step

    def consider(self, val_loss: float, snapshot: dict[str, np.ndarray]) -> bool:
        """Record the snapshot iff it strictly improves validation loss."""
        if val_loss < self.best_val_loss:
            self.best_val_loss = val_loss
            self.best_snapshot = snapshot
            return True
        return False


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> AdamState:
    """One bias-corrected Adam update, applied to params in place."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DataError(f"gradient for {name!r} has shape {g.shape}, param {p.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * (g * g)
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def batch_loss_and_grads(
    backbone, batch, config: AlignmentConfig, dropout_rng=None
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean hinge loss over the batch and gradients for adapter parameters.

    Triplets are summed in batch order; features are built once per unique
    id. Margin-satisfied triplets contribute exactly zero gradient.
    """
    batch = list(batch)
    if not batch:
        raise DataError("batch must be non-empty")
    leaves = {name: Tensor(arr, requires_grad=True) for name, arr in backbone.trainable.items()}
    feats: dict[str, Tensor] = {}

    def feat(id: str) -> Tensor:
        if id not in feats:
            feats[id] = backbone.feature_graph(id, config.feature_mode, leaves, dropout_rng)
        return feats[id]

    total = None
    for e in batch:
        d0 = cosine_distance(feat(e.ref), feat(e.x0))
        d1 = cosine_distance(feat(e.ref), feat(e.x1))
        term = (config.margin - (d0 - d1) * float(judgment_sign(e.y))).relu()
        total = term if total is None else total + term
    loss = total / float(len(batch))
    loss.backward()
    grads = {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in leaves.items()
    }
    return float(loss.data), grads


def _cached_features(backbone, manifest: TripletManifest, mode: FeatureMode, feats):
    feats = {} if feats is None else feats
    for e in manifest:
        for id in (e.ref, e.x0, e.x1):
            if id not in feats:
                feats[id] = backbone.feature_np(id, mode)
    return feats


def mean_alignment_loss(
    backbone, manifest: TripletManifest, config: AlignmentConfig, feats=None
) -> float:
    """Mean Eq.-style hinge loss over a manifest with frozen current params.

    `feats` is an optional id -> feature cache for the current params and
    mode; ids it lacks are featurized and added to it.
    """
    if not len(manifest):
        raise DataError("manifest must be non-empty")
    feats = _cached_features(backbone, manifest, config.feature_mode, feats)
    total = 0.0
    for e in manifest:
        d0 = float(cosine_distance(feats[e.ref], feats[e.x0]))
        d1 = float(cosine_distance(feats[e.ref], feats[e.x1]))
        total += alignment_loss(d0, d1, e.y, config.margin)
    return total / len(manifest)


def two_afc_accuracy(backbone, manifest: TripletManifest, mode: FeatureMode, feats=None) -> float:
    """Fraction of triplets whose closer image matches the judgment.

    Exact distance ties earn half credit. `feats` is a feature cache as in
    mean_alignment_loss.
    """
    if not len(manifest):
        raise DataError("manifest must be non-empty")
    feats = _cached_features(backbone, manifest, mode, feats)
    hits = 0.0
    for e in manifest:
        d0 = float(cosine_distance(feats[e.ref], feats[e.x0]))
        d1 = float(cosine_distance(feats[e.ref], feats[e.x1]))
        if d0 == d1:
            hits += 0.5
        elif (d1 < d0) == bool(e.y):
            hits += 1.0
    return hits / len(manifest)


def train_alignment(
    config: AlignmentConfig, backbone, train: TripletManifest, val: TripletManifest
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Adapter fine-tuning with per-epoch validation checkpointing.

    Returns (best adapter snapshot, history). History rows are JSON-ready
    {epoch, train_loss, val_loss, val_2afc}; epoch 0 is the frozen starting
    point (train_loss None). The snapshot with minimum validation loss wins,
    earliest epoch on ties; the backbone is left holding that snapshot.
    """
    if not len(train) or not len(val):
        raise DataError("train and val manifests must be non-empty")
    if config.epochs == 0:
        return backbone.snapshot(), []

    shuffle_rng = np.random.default_rng(config.seed)
    dropout_rng = (
        np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
        if config.lora_dropout > 0
        else None
    )
    state = TrainState()
    entries = list(train)

    def evaluate(epoch: int, train_loss: float | None) -> dict:
        feats: dict[str, np.ndarray] = {}  # the val split, featurized once per pass
        return {
            "epoch": epoch,
            "train_loss": train_loss,
            "val_loss": mean_alignment_loss(backbone, val, config, feats),
            "val_2afc": two_afc_accuracy(backbone, val, config.feature_mode, feats),
        }

    history = [evaluate(0, None)]
    state.consider(history[0]["val_loss"], backbone.snapshot())

    stop = False
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(len(entries))
        epoch_loss_sum = 0.0
        epoch_count = 0
        for start in range(0, len(entries), config.batch_size):
            batch = [entries[i] for i in perm[start : start + config.batch_size]]
            loss, grads = batch_loss_and_grads(backbone, batch, config, dropout_rng)
            adam_step(backbone.trainable, grads, state.adam, config.lr)
            epoch_loss_sum += loss * len(batch)
            epoch_count += len(batch)
            if config.max_steps is not None and state.step >= config.max_steps:
                stop = True
                break
        row = evaluate(epoch, epoch_loss_sum / epoch_count)
        history.append(row)
        state.consider(row["val_loss"], backbone.snapshot())
        if stop:
            break

    backbone.load_trainable(state.best_snapshot)
    return state.best_snapshot, history
