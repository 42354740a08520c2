"""Alignment objective, optimizer, and training loop.

The objective: for a triplet (ref, x0, x1) with judgment y naming the more
similar variation, push the preferred image at least a margin closer in
cosine distance than the other one:

    loss = max(0, m - (d0 - d1) * ybar),   ybar = 2y - 1

Only low-rank adapter matrices train; everything else stays frozen. Each
step is one autodiff graph over its batch: the adapters' graph up to the
batch's feature rows, then one scoring op, `_score_triplets`, whose forward
is numpy and whose backward is the closed-form hinge gradient. The validation
pass runs the same function on constant features, so only its forward runs.
Losses and gradients accumulate in float64 in a fixed order, so reruns are
bit-reproducible and finite differences meaningful.

`AlignmentConfig` holds the optimization settings only. The adapters' rank,
alpha and dropout are the backbone's: training draws LoRA dropout masks from
a stream seeded by `config.seed` whenever the adapters' `dropout_p` is
nonzero.
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
_SCORE_CHUNK = 256  # triplets the val pass scores at once


def judgment_sign(y: int) -> int:
    """Map y in {0, 1} to {-1, +1}."""
    if y not in (0, 1):
        raise DataError(f"judgment must be 0 or 1, got {y!r}")
    return 2 * y - 1


def cosine_distance(u, v):
    """1 - cos(u, v) along the last axis; accepts numpy arrays or autodiff tensors.

    Zero-norm inputs are refused outright: silently defining d(0, .) would
    quietly corrupt both training and evaluation.
    """
    if u.shape != v.shape:
        raise DataError(f"vector shapes differ: {u.shape} vs {v.shape}")
    norms = ((u * u).sum(axis=-1)) ** 0.5 * ((v * v).sum(axis=-1)) ** 0.5
    if (Tensor(norms).data == 0.0).any():
        raise DataError("cosine distance undefined for zero-norm input")
    return 1.0 - (u * v).sum(axis=-1) / norms


def alignment_loss(d0: float, d1: float, y: int, m: float) -> float:
    """Hinge on the distance gap; zero iff the preferred image wins by >= m."""
    if not m > 0:
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
    max_steps: int | None = None  # optional cap for step-count ablations

    def __post_init__(self):
        if not self.margin > 0:
            raise DataError(f"margin must be > 0, got {self.margin}")
        if not self.lr > 0:
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
    # two arrays per parameter, of its shape, that every update reuses for
    # its temporaries
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> AdamState:
    """One bias-corrected Adam update, applied to params in place:

        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g^2,
        p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    in that order of float operations, with every temporary written into the
    state's scratch arrays."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DataError(f"gradient for {name!r} has shape {g.shape}, param {p.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
            state.scratch[name] = (np.empty_like(p), np.empty_like(p))
        m, v = state.m[name], state.v[name]
        update, denom = state.scratch[name]
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=update)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=update), 1 - ADAM_BETA2, out=update)
        np.sqrt(np.divide(v, 1 - ADAM_BETA2**t, out=denom), out=denom)
        denom += ADAM_EPS
        np.multiply(np.divide(m, 1 - ADAM_BETA1**t, out=update), lr, out=update)
        p -= np.divide(update, denom, out=update)
    return state


def _distinct_ids(triplets) -> list[str]:
    """Every id the triplets name, in first-appearance order (ref, x0, x1)."""
    return list(dict.fromkeys(id for e in triplets for id in (e.ref, e.x0, e.x1)))


def _cosine_distance_grads(u, v, g):
    """g times the row-wise gradients of 1 - cos(u, v) with respect to u and
    to v: g / (|u| |v|) * (u.v / |u|^2 * u - v), and the same with u, v swapped."""
    uu, vv = (u * u).sum(axis=-1, keepdims=True), (v * v).sum(axis=-1, keepdims=True)
    uv = (u * v).sum(axis=-1, keepdims=True)
    e = g[:, None] / np.sqrt(uu * vv)
    return e * (uv / uu * u - v), e * (uv / vv * v - u)


def _score_triplets(feats, ids: list[str], triplets, margin: float):
    """Hinge loss (a Tensor) and 2AFC credit (an array) of each triplet, from
    the Tensor `feats` with one row per id of `ids`. The hinge is
    max(0, m - (d0 - d1) * ybar) on cosine distances; the credit is 1 when the
    closer image matches the judgment, 0 when not, and 0.5 on an exact tie.

    One autodiff op: the forward is numpy through `cosine_distance`, and the
    backward (attached only when `feats` needs a gradient) is the closed-form
    gradient through the active hinges, scattered onto the rows of `feats` by
    one incidence-matrix product.
    """
    row = {id: i for i, id in enumerate(ids)}
    # u, v: the (ref, x0) pairs' rows, then the (ref, x1) pairs' rows
    at = np.array([row[getattr(e, f)] for f in ("ref", "ref", "x0", "x1") for e in triplets])
    ybar = np.array([judgment_sign(e.y) for e in triplets], dtype=np.float64)
    u, v = feats.data[at].reshape(2, 2 * len(triplets), -1)
    d0, d1 = np.split(cosine_distance(u, v), 2)
    pre = margin - (d0 - d1) * ybar
    credit = np.where(d0 == d1, 0.5, (d1 < d0) == (ybar > 0))

    def backward(grad):
        # dhinge/dd1 = -dhinge/dd0 = ybar where the hinge is active, else 0
        g = np.where(pre > 0.0, grad * ybar, 0.0)
        gu, gv = _cosine_distance_grads(u, v, np.concatenate([-g, g]))
        incidence = np.zeros((len(ids), len(at)))
        incidence[at, np.arange(len(at))] = 1.0
        return (incidence @ np.concatenate([gu, gv]),)

    return Tensor._from_op(np.maximum(pre, 0.0), (feats,), backward), credit


def batch_loss_and_grads(
    backbone, batch, config: AlignmentConfig, dropout_rng=None
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean hinge loss over the batch and gradients for adapter parameters.

    One graph covers the batch: its distinct ids are featurized together, in
    first-appearance order, and every triplet is scored from those rows.
    Margin-satisfied triplets contribute exactly zero gradient.
    """
    batch = list(batch)
    if not batch:
        raise DataError("batch must be non-empty")
    leaves = {name: Tensor(arr, requires_grad=True) for name, arr in backbone.trainable.items()}
    ids = _distinct_ids(batch)
    feats = backbone.feature_graph(ids, config.feature_mode, leaves, dropout_rng)
    hinge, _ = _score_triplets(feats, ids, batch, config.margin)
    loss = hinge.mean()
    loss.backward()
    grads = {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in leaves.items()
    }
    return float(loss.data), grads


def _score_manifest(backbone, manifest: TripletManifest, mode: FeatureMode, margin, feats):
    """Hinge and credit arrays of _score_triplets over a manifest at the current
    params, each id featurized once through `feature_np` (ids already in the
    cache `feats` are reused). Chunks of triplets bound the stacked copies."""
    if not len(manifest):
        raise DataError("manifest must be non-empty")
    feats = {} if feats is None else feats
    entries, hinges, credits = list(manifest), [], []
    for start in range(0, len(entries), _SCORE_CHUNK):
        chunk = entries[start : start + _SCORE_CHUNK]
        ids = _distinct_ids(chunk)
        for id in ids:
            if id not in feats:
                feats[id] = backbone.feature_np(id, mode)
        rows = Tensor(np.array([feats[id] for id in ids]))
        hinge, credit = _score_triplets(rows, ids, chunk, margin)
        hinges.append(hinge.data)
        credits.append(credit)
    return np.concatenate(hinges), np.concatenate(credits)


def mean_alignment_loss(
    backbone, manifest: TripletManifest, config: AlignmentConfig, feats=None
) -> float:
    """Mean Eq.-style hinge loss over a manifest with frozen current params.

    `feats` is an optional id -> feature cache for the current params and
    mode; ids it lacks are featurized and added to it.
    """
    hinge, _ = _score_manifest(backbone, manifest, config.feature_mode, config.margin, feats)
    return float(hinge.mean())


def two_afc_accuracy(backbone, manifest: TripletManifest, mode: FeatureMode, feats=None) -> float:
    """Fraction of triplets whose closer image matches the judgment.

    Exact distance ties earn half credit. `feats` is a feature cache as in
    mean_alignment_loss.
    """
    _, credit = _score_manifest(backbone, manifest, mode, 1.0, feats)  # credit ignores the margin
    return float(credit.mean())


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
    # the adapters' own dropout_p decides whether this stream is drawn from
    dropout_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    adam = AdamState()
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
    best_loss, best = history[0]["val_loss"], backbone.snapshot()

    stop = False
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(len(entries))
        epoch_loss_sum = 0.0
        epoch_count = 0
        for start in range(0, len(entries), config.batch_size):
            batch = [entries[i] for i in perm[start : start + config.batch_size]]
            loss, grads = batch_loss_and_grads(backbone, batch, config, dropout_rng)
            adam_step(backbone.trainable, grads, adam, config.lr)
            epoch_loss_sum += loss * len(batch)
            epoch_count += len(batch)
            if config.max_steps is not None and adam.step >= config.max_steps:
                stop = True
                break
        row = evaluate(epoch, epoch_loss_sum / epoch_count)
        history.append(row)
        if row["val_loss"] < best_loss:  # strict, so the earliest epoch wins ties
            best_loss, best = row["val_loss"], backbone.snapshot()
        if stop:
            break

    backbone.load_trainable(best)
    return best, history
