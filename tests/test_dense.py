"""Dense-probe losses, binning, head training, metrics, and sidecar I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palign.autodiff import Tensor, softmax
from palign.dense import (
    DenseTarget,
    DepthBinning,
    DepthHead,
    HeadHyper,
    SegHead,
    _head_inputs,
    _head_loss,
    _jaccard_graph,
    _silog_graph,
    _token_index_map,
    depth_decode,
    depth_encode,
    eval_depth,
    eval_seg,
    jaccard_loss,
    load_target,
    save_target,
    silog_loss,
    train_linear_head,
)
from palign.errors import DataError, FormatError


def full_mask(values):
    return DenseTarget(values=values, valid_mask=np.ones_like(values, dtype=bool))


def onehot_probs(labels, n_classes):
    return np.eye(n_classes)[labels]


class TestJaccard:
    def test_perfect_prediction_is_zero(self):
        labels = np.array([[0, 1], [2, 1]])
        probs = onehot_probs(labels, 3)
        assert jaccard_loss(probs, full_mask(labels)) == 0.0

    def test_fully_disjoint_is_one(self):
        target = np.zeros((3, 3), dtype=np.int64)
        pred = onehot_probs(np.ones((3, 3), dtype=np.int64), 3)
        assert jaccard_loss(pred, full_mask(target)) == 1.0

    def test_random_hard_predictions_match_set_oracle(self):
        rng = np.random.default_rng(0)
        n_classes = 3
        target = rng.integers(0, n_classes, size=(8, 8))
        pred_labels = rng.integers(0, n_classes, size=(8, 8))
        loss = jaccard_loss(onehot_probs(pred_labels, n_classes), full_mask(target))

        # set-arithmetic oracle over pixel index sets
        scores = []
        for c in range(n_classes):
            a = {i for i, v in enumerate(target.reshape(-1)) if v == c}
            b = {i for i, v in enumerate(pred_labels.reshape(-1)) if v == c}
            if a | b:
                scores.append(len(a & b) / len(a | b))
        assert loss == pytest.approx(1.0 - np.mean(scores), rel=1e-12)

    def test_symmetry_for_hard_predictions(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, size=(6, 6))
        b = rng.integers(0, 4, size=(6, 6))
        assert jaccard_loss(onehot_probs(a, 4), full_mask(b)) == pytest.approx(
            jaccard_loss(onehot_probs(b, 4), full_mask(a)), rel=1e-12
        )

    def test_masked_pixels_ignored(self):
        target = np.array([[0, 1], [1, 0]])
        mask = np.array([[True, True], [False, False]])
        pred = onehot_probs(np.array([[0, 1], [0, 1]]), 2)  # wrong only where masked
        assert jaccard_loss(pred, DenseTarget(values=target, valid_mask=mask)) == 0.0

    def test_empty_mask_rejected(self):
        target = DenseTarget(values=np.zeros((2, 2), dtype=np.int64),
                             valid_mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(DataError, match="empty valid mask"):
            jaccard_loss(np.ones((2, 2, 1)), target)

    def test_unnormalized_rejected(self):
        target = full_mask(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(DataError, match="sum to 1"):
            jaccard_loss(np.full((2, 2, 2), 0.7), target)

    def test_in_unit_interval_for_soft_predictions(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 5, 4))
        e = np.exp(logits)
        probs = e / e.sum(-1, keepdims=True)
        target = full_mask(rng.integers(0, 4, size=(5, 5)))
        assert 0.0 <= jaccard_loss(probs, target) <= 1.0


class TestSilog:
    def test_identity_zero(self):
        rng = np.random.default_rng(3)
        depth = rng.uniform(1, 9, size=(4, 4))
        assert silog_loss(depth, full_mask(depth)) == 0.0

    def test_constant_log_offset(self):
        # d_i = c everywhere -> c^2 + 0.15 c^2
        target = np.full((3, 3), 2.0)
        pred = np.full((3, 3), 2.0 * np.e)  # log offset of exactly ~1 up to eps
        c = np.log(2.0 * np.e + 1e-3) - np.log(2.0 + 1e-3)
        expected = c * c + 0.15 * c * c
        assert silog_loss(pred, full_mask(target)) == pytest.approx(expected, rel=1e-12)

    def test_scaling_identity(self):
        # the eps inside log perturbs each d_i by ~eps*(k-1)/(k*A); keep
        # depths >> eps so the identity holds to the asserted tolerance
        rng = np.random.default_rng(4)
        depth = rng.uniform(100.0, 800.0, size=(6, 6))
        k = 3.7
        got = silog_loss(k * depth, full_mask(depth))
        assert got == pytest.approx(1.15 * np.log(k) ** 2, abs=1e-4)

    def test_scaling_identity_exact_without_eps(self):
        rng = np.random.default_rng(40)
        depth = rng.uniform(1.0, 8.0, size=(5, 5))
        got = silog_loss(2.0 * depth, full_mask(depth), eps=0.0)
        assert got == pytest.approx(1.15 * np.log(2.0) ** 2, abs=1e-12)

    def test_masked_summation_oracle(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.5, 9, size=(4, 4))
        target = rng.uniform(0.5, 9, size=(4, 4))
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 2] = mask[3, 3] = False
        loss = silog_loss(pred, DenseTarget(values=target, valid_mask=mask))

        # independent two-pass summation over the 13 valid pixels
        ds = []
        for i in range(4):
            for j in range(4):
                if mask[i, j]:
                    ds.append(np.log(pred[i, j] + 1e-3) - np.log(target[i, j] + 1e-3))
        n = len(ds)
        assert n == 13
        first = sum(d * d for d in ds) / n
        second = 0.15 * (sum(ds) / n) ** 2
        assert loss == pytest.approx(first + second, rel=1e-12)

    def test_classic_sign_flag(self):
        rng = np.random.default_rng(6)
        pred = rng.uniform(1, 5, size=(3, 3))
        target = rng.uniform(1, 5, size=(3, 3))
        paper = silog_loss(pred, full_mask(target), sign="paper")
        classic = silog_loss(pred, full_mask(target), sign="classic")
        d = np.log(pred + 1e-3) - np.log(target + 1e-3)
        assert paper - classic == pytest.approx(2 * 0.15 * d.mean() ** 2, rel=1e-9)

    def test_negative_depth_rejected(self):
        target = full_mask(np.ones((2, 2)))
        with pytest.raises(DataError, match=">= 0"):
            silog_loss(np.array([[1.0, -0.5], [1.0, 1.0]]), target)

    def test_empty_mask_rejected(self):
        target = DenseTarget(values=np.ones((2, 2)), valid_mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(DataError, match="empty valid mask"):
            silog_loss(np.ones((2, 2)), target)


class TestBinning:
    def test_center_of_bin_zero(self):
        binning = DepthBinning(d_min=0.1, d_max=10.0, n_bins=256)
        assert depth_encode(np.array([binning.centers[0]]), binning)[0] == 0

    def test_one_hot_decode_last_bin(self):
        binning = DepthBinning(d_min=0.1, d_max=10.0, n_bins=256)
        onehot = np.zeros(256)
        onehot[255] = 1.0
        assert depth_decode(onehot, binning) == pytest.approx(binning.centers[255])

    def test_encode_center_roundtrip_all_bins(self):
        binning = DepthBinning(d_min=0.05, d_max=12.0, n_bins=64)
        idx = depth_encode(binning.centers, binning)
        np.testing.assert_array_equal(idx, np.arange(64))

    def test_roundtrip_error_within_half_bin(self):
        rng = np.random.default_rng(7)
        binning = DepthBinning(d_min=0.1, d_max=10.0, n_bins=256)
        depths = rng.uniform(0.1, 10.0, size=1000)
        idx = depth_encode(depths, binning)
        decoded = binning.centers[idx]
        half_bin = (10.0 - 0.1) / 256 / 2
        assert np.max(np.abs(decoded - depths)) <= half_bin + 1e-12

    def test_monotone_in_depth(self):
        binning = DepthBinning(d_min=0.5, d_max=4.0, n_bins=16)
        depths = np.linspace(0.0, 5.0, 300)  # includes out-of-range clamping
        idx = depth_encode(depths, binning)
        assert np.all(np.diff(idx) >= 0)

    def test_invalid_binning(self):
        with pytest.raises(DataError):
            DepthBinning(d_min=2.0, d_max=1.0)
        with pytest.raises(DataError):
            DepthBinning(n_bins=1)


def planted_seg_world(rng, n_images, s, d, n_classes, margin=0.5, held_out=10):
    """Targets from a planted linear rule; pixels too close to a decision
    boundary are masked invalid so the rule is recoverable exactly."""
    w_star = rng.normal(size=(n_classes, d))
    features, targets = [], []
    for _ in range(n_images + held_out):
        grid = rng.normal(size=(s, s, d))
        logits = grid.reshape(-1, d) @ w_star.T
        labels = np.argmax(logits, axis=-1)
        part = np.partition(logits, -2, axis=-1)
        gap = part[:, -1] - part[:, -2]
        features.append(grid)
        targets.append(
            DenseTarget(values=labels.reshape(s, s), valid_mask=(gap > margin).reshape(s, s))
        )
    return (
        features[:n_images],
        targets[:n_images],
        features[n_images:],
        targets[n_images:],
    )


def batch_and_per_image(task, s=4, d=5, n_out=6):
    """One head batch that mixes 8x8 and 6x10 targets with random masks, as
    (loss, [gW, gb]) from the batched graph, the same from per-image graphs
    (token logits gathered to the valid pixels, softmax per pixel, the B = 1
    loss graph; mean over images), and the mean of the public per-image
    jaccard_loss / silog_loss."""
    rng = np.random.default_rng(30)
    weight, bias = rng.normal(size=(n_out, d)), rng.normal(size=n_out)
    binning = DepthBinning(d_min=0.5, d_max=8.0, n_bins=n_out)
    features, targets = [], []
    for i in range(5):
        h, w = ((8, 8), (6, 10))[i % 2]
        mask = rng.random((h, w)) > 0.3
        mask[0, 0] = True
        values = rng.integers(0, n_out, (h, w)) if task == "seg" else rng.uniform(0.6, 7.5, (h, w))
        features.append(rng.normal(size=(s, s, d)))
        targets.append(DenseTarget(values, mask))

    leaves = [Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)]
    tokens, pixels = _head_inputs(features, targets, task, n_out)
    loss = _head_loss(task, *leaves, tokens, pixels, [3, 0, 4, 1, 2], binning)
    loss.backward()

    oracle = [Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)]
    total, public = 0.0, 0.0
    for feat, target in zip(features, targets):
        h, w = target.values.shape
        token_logits = Tensor(feat.reshape(s * s, d)) @ oracle[0].T + oracle[1]
        mask = target.valid_mask.reshape(-1)
        probs = softmax(token_logits[_token_index_map(s, h, w)][mask], axis=-1)
        truth = target.values.reshape(-1)[mask]
        probs_np = np.exp(token_logits.data - token_logits.data.max(-1, keepdims=True))
        probs_np = (probs_np / probs_np.sum(-1, keepdims=True))[_token_index_map(s, h, w)]
        if task == "seg":
            onehot = np.eye(n_out)[truth][None]
            total = total + _jaccard_graph(probs.reshape(1, len(truth), n_out), onehot)[0]
            public += jaccard_loss(probs_np.reshape(h, w, n_out), target)
        else:
            depth = (probs @ Tensor(binning.centers.reshape(-1, 1))).reshape(1, -1)
            total = total + _silog_graph(depth, truth[None], 1e-3, 0.15, 1.0)[0]
            public += silog_loss((probs_np @ binning.centers).reshape(h, w), target)
    want = total / float(len(features))
    want.backward()
    return (float(loss.data), [t.grad for t in leaves], float(want.data),
            [t.grad for t in oracle], public / len(features))


class TestTrainHead:
    def test_planted_seg_recovery(self):
        rng = np.random.default_rng(8)
        train_x, train_y, test_x, test_y = planted_seg_world(
            rng, n_images=100, s=4, d=8, n_classes=3
        )
        hyper = HeadHyper(lr=0.1, epochs=40, batch_size=16, seed=0)
        head, history = train_linear_head("seg", train_x, train_y, hyper, n_classes=3)
        metrics = eval_seg(head, test_x, test_y)
        assert metrics["pixel_accuracy"] >= 0.99
        assert history[-1] < history[0]

    def test_zero_epochs_returns_initialized_head(self):
        rng = np.random.default_rng(9)
        feats = [rng.normal(size=(2, 2, 4))]
        targets = [full_mask(np.zeros((2, 2), dtype=np.int64))]
        head, history = train_linear_head(
            "seg", feats, targets, HeadHyper(epochs=0), n_classes=2
        )
        assert history == []
        assert head.weight.shape == (2, 4)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_below_one_rejected(self, batch_size):
        with pytest.raises(DataError, match="batch_size must be >= 1"):
            HeadHyper(batch_size=batch_size)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
    def test_nonpositive_lr_rejected(self, lr):
        with pytest.raises(DataError, match="lr must be > 0"):
            HeadHyper(lr=lr)

    def test_infinite_lr_rejected(self):
        with pytest.raises(DataError, match="lr must be finite"):
            HeadHyper(lr=float("inf"))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_training_depth_rejected_before_training(self, bad):
        rng = np.random.default_rng(29)
        depth = rng.uniform(1.0, 5.0, size=(4, 4))
        depth[1, 2] = bad
        targets = [full_mask(rng.uniform(1.0, 5.0, size=(4, 4))), full_mask(depth)]
        with pytest.raises(DataError, match="nonpositive or non-finite target depth"):
            train_linear_head("depth", [rng.normal(size=(2, 2, 3))] * 2, targets, HeadHyper())

    @pytest.mark.parametrize("task", ["seg", "depth"])
    def test_batch_loss_matches_per_image_oracles(self, task):
        loss, grads, want_loss, want_grads, public_mean = batch_and_per_image(task)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert loss == pytest.approx(public_mean, rel=1e-12)
        for g, want in zip(grads, want_grads):
            np.testing.assert_allclose(g, want, rtol=1e-12)

    def test_depth_head_trains(self):
        rng = np.random.default_rng(10)
        binning = DepthBinning(d_min=0.5, d_max=8.0, n_bins=16)
        direction = rng.normal(size=6)
        features, targets = [], []
        for _ in range(40):
            grid = rng.normal(size=(3, 3, 6))
            depth = np.clip(4.0 + grid @ direction, 0.6, 7.5)
            features.append(grid)
            targets.append(full_mask(depth))
        hyper = HeadHyper(lr=0.05, epochs=12, batch_size=8, seed=1)
        head, history = train_linear_head(
            "depth", features[:32], targets[:32], hyper, binning=binning
        )
        metrics = eval_depth(head, features[32:], targets[32:])
        base = DepthHead(
            weight=np.zeros((16, 6)), bias=np.zeros(16), binning=binning
        )
        base_metrics = eval_depth(base, features[32:], targets[32:])
        assert history[-1] < history[0]
        assert metrics["rmse"] < base_metrics["rmse"]

    def test_reference_presets(self):
        hyper = HeadHyper()
        assert hyper.lr == 3e-4
        assert hyper.epochs == 10
        assert hyper.batch_size == 16
        from palign.dense import DEPTH_BATCH_SIZE

        assert DEPTH_BATCH_SIZE == 128

    def test_features_not_modified(self):
        rng = np.random.default_rng(11)
        feats = [rng.normal(size=(2, 2, 3)) for _ in range(4)]
        before = [f.copy() for f in feats]
        targets = [full_mask(rng.integers(0, 2, size=(2, 2))) for _ in range(4)]
        train_linear_head("seg", feats, targets, HeadHyper(epochs=2), n_classes=2)
        for f, b in zip(feats, before):
            np.testing.assert_array_equal(f, b)

    def test_grid_array_and_list_of_grids_train_alike(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(5, 2, 2, 3))
        targets = [full_mask(rng.integers(0, 2, size=(3, 3))) for _ in range(5)]
        hyper = HeadHyper(epochs=2, batch_size=2)
        h1, hist1 = train_linear_head("seg", feats, targets, hyper, n_classes=2)
        h2, hist2 = train_linear_head("seg", list(feats), targets, hyper, n_classes=2)
        np.testing.assert_array_equal(h1.weight, h2.weight)
        assert hist1 == hist2

    @pytest.mark.parametrize(
        "shapes",
        [[(2, 2, 3), (3, 3, 3)], [(2, 2, 3), (2, 2)], [(2, 3, 3), (2, 3, 3)], [(2, 2), (2, 2)]],
        ids=["ragged-side", "ragged-rank", "not-square", "no-channels"],
    )
    def test_grids_not_one_square_array_rejected(self, shapes):
        rng = np.random.default_rng(18)
        targets = [full_mask(np.zeros((2, 2), dtype=np.int64)) for _ in shapes]
        feats = [rng.normal(size=shape) for shape in shapes]
        with pytest.raises(DataError, match="patch grids must"):
            train_linear_head("seg", feats, targets, HeadHyper(epochs=1), n_classes=2)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        feats = [rng.normal(size=(2, 2, 3)) for _ in range(6)]
        targets = [full_mask(rng.integers(0, 3, size=(2, 2))) for _ in range(6)]
        h1, hist1 = train_linear_head("seg", feats, targets, HeadHyper(epochs=3, seed=5), n_classes=3)
        h2, hist2 = train_linear_head("seg", feats, targets, HeadHyper(epochs=3, seed=5), n_classes=3)
        np.testing.assert_array_equal(h1.weight, h2.weight)
        assert hist1 == hist2


def token_loss_world(rng, task, s, shapes, empty_cells, near_fit, d=3, n_out=5):
    """Head parameters, a depth binning, features and targets for the
    per-token loss oracle. Masks are random; with `empty_cells` a random set
    of tokens loses every pixel of its cell, and every image keeps at least one
    valid pixel. Each seg image draws its labels from a random subset of the
    classes, so some classes are absent. With `near_fit`, each depth target is
    the head's own token depth times exp(0.002 z), z standard normal."""
    weight, bias = rng.normal(size=(n_out, d)), rng.normal(size=n_out)
    binning = DepthBinning(d_min=0.5, d_max=8.0, n_bins=n_out)
    features, targets = [], []
    for h, w in shapes:
        grid = rng.normal(size=(s, s, d))
        token = _token_index_map(s, h, w).reshape(h, w)
        mask = rng.random((h, w)) > 0.3
        if empty_cells:
            emptied = rng.choice(s * s, size=rng.integers(1, s * s + 1), replace=False)
            mask &= ~np.isin(token, emptied)
        mask.flat[rng.integers(h * w)] = True
        if task == "seg":
            present = rng.choice(n_out, size=rng.integers(1, n_out + 1), replace=False)
            values = rng.choice(present, size=(h, w))
        elif near_fit:
            logits = grid.reshape(-1, d) @ weight.T + bias
            probs = np.exp(logits - logits.max(-1, keepdims=True))
            token_depth = (probs / probs.sum(-1, keepdims=True)) @ binning.centers
            values = token_depth[token] * np.exp(0.002 * rng.normal(size=(h, w)))
        else:
            values = rng.uniform(0.6, 7.5, (h, w))
        features.append(grid)
        targets.append(DenseTarget(values, mask))
    return weight, bias, binning, features, targets


def per_pixel_oracle(task, weight, bias, binning, features, targets, rows, sign):
    """Mean over images `rows` of the per-pixel loss graphs (`_jaccard_graph`,
    `_silog_graph`) at B = 1, each over its image's valid pixels, and the
    gradients (gW, gb)."""
    leaves = [Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)]
    total = 0.0
    for i in rows:
        grid, target = features[i], targets[i]
        s, d = grid.shape[0], grid.shape[2]
        h, w = target.values.shape
        valid = target.valid_mask.reshape(-1)
        index = _token_index_map(s, h, w)[valid]
        truth = target.values.reshape(-1)[valid]
        probs = softmax(Tensor(grid.reshape(s * s, d)) @ leaves[0].T + leaves[1], axis=-1)
        if task == "seg":
            onehot = np.eye(len(bias))[truth][None]
            total = total + _jaccard_graph(probs[index].reshape(1, *onehot.shape[1:]), onehot)[0]
        else:
            depth = depth_decode(probs, binning)[index].reshape(1, -1)
            total = total + _silog_graph(depth, truth[None], 1e-3, 0.15, sign)[0]
    loss = total / float(len(rows))
    loss.backward()
    return float(loss.data), [t.grad for t in leaves]


class TestTokenLossOracle:
    """`_head_loss` over per-token statistics against per-pixel graphs."""

    @settings(max_examples=80, deadline=None)
    @given(
        task=st.sampled_from(["seg", "depth"]),
        s=st.integers(1, 4),
        shapes=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        empty_cells=st.booleans(),
        near_fit=st.booleans(),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_loss_and_grads_match_per_pixel_graphs(
        self, task, s, shapes, seed, empty_cells, near_fit, sign
    ):
        # near a fit the log offsets are ~0.002 while log targets are ~1: the
        # uncentered n*a^2 - 2*a*S1 + S2 misses the loss there by ~1e-11 or more
        rng = np.random.default_rng(seed)
        weight, bias, binning, features, targets = token_loss_world(
            rng, task, s, shapes, empty_cells, near_fit
        )
        rows = rng.permutation(len(features))
        leaves = [Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)]
        tokens, stats = _head_inputs(features, targets, task, len(bias))
        loss = _head_loss(task, *leaves, tokens, stats, rows, binning, sign)
        loss.backward()
        want, want_grads = per_pixel_oracle(
            task, weight, bias, binning, features, targets, rows, sign
        )
        assert float(loss.data) == pytest.approx(want, rel=1e-12, abs=0.0)
        # relative to the gradient's largest entry, as single entries can cancel
        # to near zero; near a fit the whole gradient is a small sum of terms of
        # both signs, whose rounding (up to ~4e-12 of it, in either form) is
        # relative to the terms
        rtol = 1e-10 if near_fit and task == "depth" else 1e-12
        for leaf, grad in zip(leaves, want_grads):
            assert np.abs(leaf.grad - grad).max() <= rtol * np.abs(grad).max()

    @pytest.mark.parametrize("task", ["seg", "depth"])
    def test_grads_match_finite_differences(self, task):
        rng = np.random.default_rng(31)
        weight, bias, binning, features, targets = token_loss_world(
            rng, task, 3, [(5, 7), (2, 2), (9, 4)], True, False
        )
        tokens, stats = _head_inputs(features, targets, task, len(bias))
        rows = [2, 0, 1]
        leaves = [Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)]
        _head_loss(task, *leaves, tokens, stats, rows, binning).backward()
        params = [weight.copy(), bias.copy()]
        for leaf, param in zip(leaves, params):
            numeric = np.zeros_like(param)
            for i in np.ndindex(param.shape):
                saved, side = param[i], []
                for step in (1e-6, -1e-6):
                    param[i] = saved + step
                    side.append(_head_loss(task, *map(Tensor, params), tokens, stats, rows,
                                           binning).item())
                param[i] = saved
                numeric[i] = (side[0] - side[1]) / 2e-6
            np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-6, atol=1e-9)


class TestEvalSeg:
    def test_perfect(self):
        rng = np.random.default_rng(14)
        head_w = rng.normal(size=(3, 5))
        feats = [rng.normal(size=(4, 4, 5))]
        logits = feats[0].reshape(-1, 5) @ head_w.T
        labels = np.argmax(logits, axis=-1).reshape(4, 4)
        head = SegHead(weight=head_w, bias=np.zeros(3))
        metrics = eval_seg(head, feats, [full_mask(labels)])
        assert metrics == {"miou": 1.0, "pixel_accuracy": 1.0}

    def test_binary_complement_is_zero(self):
        rng = np.random.default_rng(15)
        head_w = rng.normal(size=(2, 4))
        feats = [rng.normal(size=(3, 3, 4))]
        logits = feats[0].reshape(-1, 4) @ head_w.T
        wrong = (1 - np.argmax(logits, axis=-1)).reshape(3, 3)
        head = SegHead(weight=head_w, bias=np.zeros(2))
        metrics = eval_seg(head, feats, [full_mask(wrong)])
        assert metrics == {"miou": 0.0, "pixel_accuracy": 0.0}

    def test_class_id_outside_head_rejected(self):
        rng = np.random.default_rng(17)
        head = SegHead(weight=rng.normal(size=(3, 4)), bias=np.zeros(3))
        labels = np.zeros((2, 2), dtype=np.int64)
        labels[1, 1] = 3
        with pytest.raises(DataError, match="class ids"):
            eval_seg(head, [rng.normal(size=(2, 2, 4))], [full_mask(labels)])

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(16)
        n_classes, s, d = 3, 16, 6
        head = SegHead(weight=rng.normal(size=(n_classes, d)), bias=rng.normal(size=n_classes))
        feats = [rng.normal(size=(s, s, d)) for _ in range(3)]
        targets = [full_mask(rng.integers(0, n_classes, size=(s, s))) for _ in range(3)]
        metrics = eval_seg(head, feats, targets)

        # oracle: explicit confusion counts with python loops
        confusion = np.zeros((n_classes, n_classes), dtype=int)
        for feat, target in zip(feats, targets):
            pred = np.argmax(feat.reshape(-1, d) @ head.weight.T + head.bias, axis=-1)
            for pix in range(s * s):
                confusion[target.values.reshape(-1)[pix], pred[pix]] += 1
        ious = []
        for c in range(n_classes):
            tp = confusion[c, c]
            denom = confusion[c, :].sum() + confusion[:, c].sum() - tp
            if denom > 0:
                ious.append(tp / denom)
        assert metrics["miou"] == pytest.approx(np.mean(ious), rel=1e-12)
        assert metrics["pixel_accuracy"] == pytest.approx(
            np.trace(confusion) / confusion.sum(), rel=1e-12
        )

    def test_pixel_order_invariance(self):
        # metrics computed from a confusion matrix cannot depend on pixel order;
        # verify by permuting image order
        rng = np.random.default_rng(17)
        head = SegHead(weight=rng.normal(size=(2, 3)), bias=np.zeros(2))
        feats = [rng.normal(size=(2, 2, 3)) for _ in range(4)]
        targets = [full_mask(rng.integers(0, 2, size=(2, 2))) for _ in range(4)]
        m1 = eval_seg(head, feats, targets)
        m2 = eval_seg(head, feats[::-1], targets[::-1])
        assert m1 == m2


class TestEvalDepth:
    def make_head(self, rng, d=5, n_bins=32):
        binning = DepthBinning(d_min=0.5, d_max=8.0, n_bins=n_bins)
        return DepthHead(
            weight=rng.normal(size=(n_bins, d)), bias=rng.normal(size=n_bins), binning=binning
        )

    def test_perfect_prediction(self):
        rng = np.random.default_rng(18)
        head = self.make_head(rng)
        feats = [rng.normal(size=(3, 3, 5))]
        logits = feats[0].reshape(-1, 5) @ head.weight.T + head.bias
        e = np.exp(logits - logits.max(-1, keepdims=True))
        depth = ((e / e.sum(-1, keepdims=True)) @ head.binning.centers).reshape(3, 3)
        metrics = eval_depth(head, feats, [full_mask(depth)])
        assert metrics["rmse"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["abs_rel"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["log10"] == pytest.approx(0.0, abs=1e-12)
        assert (metrics["delta1"], metrics["delta2"], metrics["delta3"]) == (1.0, 1.0, 1.0)

    def test_boundary_ratio_is_strict(self):
        # prediction exactly 1.25x the target: delta1 misses, delta2 hits
        binning = DepthBinning(d_min=0.5, d_max=8.0, n_bins=4)
        head = DepthHead(weight=np.zeros((4, 2)), bias=np.array([100.0, 0, 0, 0]), binning=binning)
        feats = [np.zeros((1, 1, 2))]
        pred = binning.centers[0]
        target = full_mask(np.array([[pred / 1.25]]))
        metrics = eval_depth(head, feats, [target])
        assert metrics["delta1"] == 0.0
        assert metrics["delta2"] == 1.0

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(19)
        head = self.make_head(rng)
        feats = [rng.normal(size=(4, 4, 5)) for _ in range(2)]
        targets = [full_mask(rng.uniform(1.0, 7.0, size=(6, 6))) for _ in range(2)]
        metrics = eval_depth(head, feats, targets)

        # per-pixel oracle with explicit loops
        diffs, rels, logs, ratios = [], [], [], []
        for feat, target in zip(feats, targets):
            logits = feat.reshape(-1, 5) @ head.weight.T + head.bias
            e = np.exp(logits - logits.max(-1, keepdims=True))
            probs = e / e.sum(-1, keepdims=True)
            depth_tokens = probs @ head.binning.centers
            for i in range(6):
                for j in range(6):
                    token = (i * 4) // 6 * 4 + (j * 4) // 6
                    a, b = depth_tokens[token], target.values[i, j]
                    diffs.append((a - b) ** 2)
                    rels.append(abs(a - b) / b)
                    logs.append(abs(np.log10(a) - np.log10(b)))
                    ratios.append(max(a / b, b / a))
        assert metrics["rmse"] == pytest.approx(np.sqrt(np.mean(diffs)), rel=1e-12)
        assert metrics["abs_rel"] == pytest.approx(np.mean(rels), rel=1e-12)
        assert metrics["log10"] == pytest.approx(np.mean(logs), rel=1e-12)
        for k, thr in enumerate([1.25, 1.25**2, 1.25**3], start=1):
            assert metrics[f"delta{k}"] == pytest.approx(np.mean(np.array(ratios) < thr), rel=1e-12)

    def test_nonpositive_target_rejected(self):
        rng = np.random.default_rng(20)
        head = self.make_head(rng)
        target = full_mask(np.array([[1.0, 0.0]] * 2))
        with pytest.raises(DataError, match="nonpositive"):
            eval_depth(head, [rng.normal(size=(2, 2, 5))], [target])


class TestTargetSidecar:
    def test_seg_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        target = DenseTarget(
            values=rng.integers(0, 5, size=(7, 9)),
            valid_mask=rng.random((7, 9)) > 0.3,
        )
        path = tmp_path / "t.palt"
        save_target(target, path, "seg")
        loaded, kind = load_target(path)
        assert kind == "seg"
        np.testing.assert_array_equal(loaded.values, target.values)
        np.testing.assert_array_equal(loaded.valid_mask, target.valid_mask)

    def test_depth_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        depth = rng.uniform(0.5, 9.0, size=(5, 4)).astype(np.float32).astype(np.float64)
        target = DenseTarget(values=depth, valid_mask=np.ones((5, 4), dtype=bool))
        path = tmp_path / "d.palt"
        save_target(target, path, "depth")
        loaded, kind = load_target(path)
        assert kind == "depth"
        np.testing.assert_array_equal(loaded.values, depth)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.palt"
        path.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_target(path)

    def test_unknown_kind_byte(self, tmp_path):
        target = DenseTarget(values=np.zeros((4, 4), dtype=np.int64),
                             valid_mask=np.ones((4, 4), dtype=bool))
        path = tmp_path / "t.palt"
        save_target(target, path, "seg")
        blob = bytearray(path.read_bytes())
        blob[12] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unknown target kind"):
            load_target(path)

    def test_truncation(self, tmp_path):
        target = DenseTarget(values=np.zeros((4, 4), dtype=np.int64),
                             valid_mask=np.ones((4, 4), dtype=bool))
        path = tmp_path / "t.palt"
        save_target(target, path, "seg")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="bytes"):
            load_target(path)
