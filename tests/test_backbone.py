"""Backbone features, LoRA math, the toy encoder, and adapter checkpoints."""

import struct
import tracemalloc

import numpy as np
import pytest

from palign.alignment import AlignmentConfig, batch_loss_and_grads, cosine_distance
from palign.autodiff import Tensor
from palign.backbone import (
    FeatureMode,
    LoraAdapter,
    StoreBackbone,
    ToyEncoder,
    ToyEncoderBackbone,
    ToyEncoderConfig,
    ToyEncoderParams,
    _lora_apply,
    load_adapters,
    lora_effective_weight,
    save_adapters,
)
from palign.data import EmbeddingStore, TripletEntry
from palign.errors import DataError, FormatError


def make_store(d=4, s=0, n=3, seed=0):
    rng = np.random.default_rng(seed)
    cls, patch = np.empty((n, d)), np.empty((n, s, s, d))
    for i in range(n):
        if s:
            patch[i] = rng.normal(size=(s, s, d))
        cls[i] = rng.normal(size=d)
    return EmbeddingStore([f"img{i}" for i in range(n)], cls, patch if s else None)


def stored_rows(store, id, mode):
    """The stored rows a store backbone starts from: (1, d) CLS, or (2, d)
    CLS and patch mean, upcast from float32 by hand."""
    row = store.row(id)
    rows = [store.cls[row].astype(np.float64)]
    if mode is FeatureMode.CLS_PLUS_POOLED_PATCH:
        rows.append(store.patch[row].astype(np.float64).mean(axis=(0, 1)))
    return np.stack(rows)


class TestLookup:
    """The store backbone's frozen lookup: stored rows, upcast to float64."""

    def test_returns_stored_values(self):
        store = EmbeddingStore(["a"], np.array([[1.0, 0.0]], dtype=np.float32))
        feat = StoreBackbone(store, rank=1).feature_np("a", FeatureMode.CLS_ONLY)
        assert feat.dtype == np.float64
        np.testing.assert_array_equal(feat, [1.0, 0.0])
        assert store.patch is None and store.patch_side == 0

    def test_missing_id(self):
        bb = StoreBackbone(make_store(d=2), rank=1)
        for mode in FeatureMode:
            with pytest.raises(DataError, match="unknown record id 'nope'"):
                bb.feature_np("nope", mode)

    def test_patch_shape(self):
        store = make_store(d=5, s=4, n=1)
        assert store.patch.shape == (1, 4, 4, 5) and store.patch.dtype == np.float32
        feat = StoreBackbone(store, rank=2).feature_np("img0", FeatureMode.CLS_PLUS_POOLED_PATCH)
        assert feat.dtype == np.float64
        np.testing.assert_array_equal(
            feat, stored_rows(store, "img0", FeatureMode.CLS_PLUS_POOLED_PATCH).reshape(-1)
        )


class TestLoraEffectiveWeight:
    def test_zero_update_is_identity_on_base(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(6, 5))
        adapter = LoraAdapter.create(d_in=5, d_out=6, rank=2, alpha=1.0, rng=rng)
        np.testing.assert_array_equal(lora_effective_weight(base, adapter), base)

    def test_direct_product(self):
        base = np.zeros((2, 2))
        adapter = LoraAdapter(
            a=np.array([[3.0, 0.0]]), b=np.array([[2.0], [0.0]]), rank=1, alpha=1.0
        )
        np.testing.assert_array_equal(
            lora_effective_weight(base, adapter), [[6.0, 0.0], [0.0, 0.0]]
        )

    def test_random_case_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(8, 8))
        a = rng.normal(size=(3, 8))
        b = rng.normal(size=(8, 3))
        adapter = LoraAdapter(a=a, b=b, rank=3, alpha=0.5)
        # dense oracle: explicit loops over the definition
        expected = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                acc = base[i, j]
                for k in range(3):
                    acc += (0.5 / 3) * b[i, k] * a[k, j]
                expected[i, j] = acc
        np.testing.assert_allclose(lora_effective_weight(base, adapter), expected, rtol=1e-12)

    def test_base_unmodified(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(4, 4))
        before = base.copy()
        adapter = LoraAdapter(a=rng.normal(size=(2, 4)), b=rng.normal(size=(4, 2)), rank=2, alpha=1.0)
        lora_effective_weight(base, adapter)
        np.testing.assert_array_equal(base, before)

    def test_shape_mismatch(self):
        adapter = LoraAdapter(a=np.zeros((2, 3)), b=np.zeros((4, 2)), rank=2, alpha=1.0)
        with pytest.raises(DataError, match="shape"):
            lora_effective_weight(np.zeros((4, 5)), adapter)

    def test_invalid_dropout(self):
        with pytest.raises(DataError):
            LoraAdapter(a=np.zeros((1, 2)), b=np.zeros((2, 1)), rank=1, alpha=1.0, dropout_p=1.0)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_create_rejects_rank_below_one(self, rank):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="rank must be >= 1"):
            LoraAdapter.create(d_in=4, d_out=4, rank=rank, alpha=1.0, rng=rng)


    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_nonpositive_alpha_rejected(self, alpha):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="alpha must be > 0"):
            LoraAdapter.create(d_in=4, d_out=4, rank=2, alpha=alpha, rng=rng)

    def test_infinite_alpha_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="alpha must be finite"):
            LoraAdapter.create(d_in=4, d_out=4, rank=2, alpha=float("inf"), rng=rng)


def one_record(cls, patch=None) -> StoreBackbone:
    """A store backbone over the single record "a" at B = 0, where the adapter
    is the exact identity, so features are the assembled stored rows."""
    patch = None if patch is None else np.asarray(patch)[None]
    return StoreBackbone(EmbeddingStore(["a"], np.asarray(cls)[None], patch), rank=1)


class TestAssemble:
    def test_constant_patch(self):
        bb = one_record([1.0, 2.0], np.tile(np.array([3.0, 4.0]), (2, 2, 1)))
        np.testing.assert_array_equal(
            bb.feature_np("a", FeatureMode.CLS_PLUS_POOLED_PATCH), [1, 2, 3, 4]
        )

    def test_mean_of_grid(self):
        bb = one_record([5.0], [[[0.0], [2.0]], [[4.0], [6.0]]])
        np.testing.assert_array_equal(
            bb.feature_np("a", FeatureMode.CLS_PLUS_POOLED_PATCH), [5.0, 3.0]
        )

    def test_cls_only_verbatim(self):
        bb = one_record([7.0, -1.0], np.ones((2, 2, 2)))
        np.testing.assert_array_equal(bb.feature_np("a", FeatureMode.CLS_ONLY), [7, -1])

    def test_patch_mode_requires_patch(self):
        with pytest.raises(DataError, match="needs patch tokens"):
            one_record(np.ones(2)).feature_np("a", FeatureMode.CLS_PLUS_POOLED_PATCH)

    def test_concat_layout(self):
        rng = np.random.default_rng(3)
        bb = one_record(rng.normal(size=6), rng.normal(size=(3, 3, 6)))
        out = bb.feature_np("a", FeatureMode.CLS_PLUS_POOLED_PATCH)
        assert out.shape == (12,)
        np.testing.assert_array_equal(out[:6], bb.store.cls[0])


def toy_params(seed=0, **overrides):
    defaults = dict(d_model=16, n_layers=2, n_heads=2, d_in=3, s=2, lora_rank=2)
    defaults.update(overrides)
    return ToyEncoderParams.random(ToyEncoderConfig(**defaults), seed=seed)


def adapter_leaves(params, requires_grad=False):
    leaves = {}
    for name, adapter in params.adapters.items():
        leaves[f"{name}.a"] = Tensor(adapter.a, requires_grad=requires_grad)
        leaves[f"{name}.b"] = Tensor(adapter.b, requires_grad=requires_grad)
    return leaves


def toy_backbone(params, x):
    """A toy-encoder backbone over the single record "a" whose input grid is x
    (float32, as a store holds it)."""
    store = EmbeddingStore(["a"], np.zeros((1, params.config.d_in)), np.asarray(x)[None])
    return ToyEncoderBackbone(store, params)


def float32_input(rng, params):
    cfg = params.config
    return rng.normal(size=(cfg.s, cfg.s, cfg.d_in)).astype(np.float32).astype(np.float64)


def independent_forward(params, x):
    """Independent oracle: the encoder's (s*s + 1, d) output tokens for one
    input, recomputed with raw numpy and the dense adapted q/v weights."""
    cfg = params.config

    def ln(t):
        mu = t.mean(-1, keepdims=True)
        var = ((t - mu) ** 2).mean(-1, keepdims=True)
        return (t - mu) / np.sqrt(var + 1e-6)

    toks = x.reshape(-1, cfg.d_in) @ params.patch_embed + params.pos_embed
    toks = np.vstack([params.cls_seed, toks])
    n, d, heads = toks.shape[0], cfg.d_model, cfg.n_heads
    dk = d // heads
    for i, layer in enumerate(params.layers):
        wq = lora_effective_weight(layer.wq, params.adapters[f"layer{i}.q"])
        wv = lora_effective_weight(layer.wv, params.adapters[f"layer{i}.v"])
        h = ln(toks)
        q = (h @ wq.T).reshape(n, heads, dk).transpose(1, 0, 2)
        k = (h @ layer.wk.T).reshape(n, heads, dk).transpose(1, 0, 2)
        v = (h @ wv.T).reshape(n, heads, dk).transpose(1, 0, 2)
        s = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
        e = np.exp(s - s.max(-1, keepdims=True))
        attn = e / e.sum(-1, keepdims=True)
        toks = toks + (attn @ v).transpose(1, 0, 2).reshape(n, d) @ layer.wo.T
        h2 = ln(toks)
        g = h2 @ layer.w1.T
        g = 0.5 * g * (1 + np.tanh(np.sqrt(2 / np.pi) * (g + 0.044715 * g**3)))
        toks = toks + g @ layer.w2.T
    return ln(toks)


class TestToyEncoder:
    def test_deterministic(self):
        params = toy_params()
        bb = toy_backbone(params, float32_input(np.random.default_rng(1), params))
        f1 = bb.feature_np("a", FeatureMode.CLS_PLUS_POOLED_PATCH)
        f2 = bb.feature_np("a", FeatureMode.CLS_PLUS_POOLED_PATCH)
        np.testing.assert_array_equal(f1, f2)

    def test_output_shapes(self):
        params = toy_params()
        enc = ToyEncoder(params)
        cls, patch = enc.forward_graph(np.zeros((1, 2, 2, 3)), adapter_leaves(params))
        assert cls.shape == (1, 16)
        assert patch.shape == (1, 2, 2, 16)

    def test_zero_adapters_match_independent_frozen_forward(self):
        params = toy_params(seed=4)
        x = float32_input(np.random.default_rng(9), params)
        toks = independent_forward(params, x)
        cls, patch = ToyEncoder(params).forward_graph(x[None], adapter_leaves(params))
        np.testing.assert_allclose(cls.data[0], toks[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(patch.data[0].reshape(-1, 16), toks[1:], rtol=1e-12, atol=1e-12)
        feat = toy_backbone(params, x).feature_np("a", FeatureMode.CLS_ONLY)
        np.testing.assert_allclose(feat, toks[0], rtol=1e-12, atol=1e-12)

    def test_graph_matches_numpy_with_nonzero_adapters(self):
        # the training path (gradient-carrying leaves) and the numpy path
        # (feature_np, on constant leaves) both against the raw-numpy oracle
        params = toy_params(seed=5)
        rng = np.random.default_rng(6)
        for adapter in params.adapters.values():
            adapter.b[...] = rng.normal(scale=0.3, size=adapter.b.shape)
            adapter.a[...] = rng.normal(scale=0.3, size=adapter.a.shape)
        x = float32_input(rng, params)
        toks = independent_forward(params, x)
        cls_g, patch_g = ToyEncoder(params).forward_graph(x[None], adapter_leaves(params, True))
        np.testing.assert_allclose(cls_g.data[0], toks[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            patch_g.data[0].reshape(-1, 16), toks[1:], rtol=1e-12, atol=1e-12
        )
        feat = toy_backbone(params, x).feature_np("a", FeatureMode.CLS_PLUS_POOLED_PATCH)
        expected = np.concatenate([toks[0], toks[1:].mean(axis=0)])
        np.testing.assert_allclose(feat, expected, rtol=1e-12, atol=1e-12)

    def test_batch_matches_single_inputs(self):
        params = toy_params(seed=7)
        rng = np.random.default_rng(8)
        for adapter in params.adapters.values():
            adapter.b[...] = rng.normal(scale=0.3, size=adapter.b.shape)
        enc = ToyEncoder(params)
        leaves = adapter_leaves(params, True)
        xs = rng.normal(size=(3, 2, 2, 3))
        cls, patch = enc.forward_graph(xs, leaves)
        assert cls.shape == (3, 16) and patch.shape == (3, 2, 2, 16)
        for i in range(3):
            cls_i, patch_i = enc.forward_graph(xs[i : i + 1], leaves)
            np.testing.assert_allclose(cls.data[i], cls_i.data[0], rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(patch.data[i], patch_i.data[0], rtol=1e-13, atol=1e-15)

    def test_input_shape_mismatch(self):
        params = toy_params()
        with pytest.raises(DataError, match="input shape"):
            ToyEncoder(params).forward_graph(np.zeros((1, 3, 3, 3)), adapter_leaves(params))


def dense_oracle(store, adapter, id, mode):
    """Features through the d x d adapted weight I + (alpha/r) * B @ A."""
    w = lora_effective_weight(np.eye(store.dim), adapter)
    return (stored_rows(store, id, mode) @ w.T).reshape(-1)


def per_triplet_step(bb, batch, cfg, dropout_rng=None):
    """Oracle for batch_loss_and_grads on a store backbone: one small graph per
    id (`_lora_apply` on Tensors, its dropout mask folded into A and drawn in
    first-appearance order) and one cosine-distance hinge per triplet, summed
    in batch order."""
    leaves = {k: Tensor(v, requires_grad=True) for k, v in bb.trainable.items()}
    p, feats = bb.adapter.dropout_p, {}

    def feat(id):
        if id not in feats:
            a = leaves["proj.a"]
            if dropout_rng is not None:
                a = a * Tensor((dropout_rng.random((1, bb.store.dim)) >= p) / (1.0 - p))
            rows = Tensor(stored_rows(bb.store, id, cfg.feature_mode))
            feats[id] = _lora_apply(rows, a, leaves["proj.b"], bb.adapter.scale).reshape(-1)
        return feats[id]

    total = 0.0
    for e in batch:
        gap = cosine_distance(feat(e.ref), feat(e.x0)) - cosine_distance(feat(e.ref), feat(e.x1))
        total = total + (cfg.margin - gap * float(2 * e.y - 1)).relu()
    loss = total / float(len(batch))
    loss.backward()
    return float(loss.data), {k: leaf.grad for k, leaf in leaves.items()}


class TestStoreBackbone:
    def test_zero_init_reproduces_lookup(self):
        store = make_store(d=6, s=2)
        bb = StoreBackbone(store, rank=3, alpha=0.5, seed=1)
        feat = bb.feature_np("img1", FeatureMode.CLS_PLUS_POOLED_PATCH)
        expected = stored_rows(store, "img1", FeatureMode.CLS_PLUS_POOLED_PATCH).reshape(-1)
        np.testing.assert_array_equal(feat, expected)

    def test_graph_matches_numpy(self):
        # one op order on both paths, and both equal the dense oracle
        store = make_store(d=6, s=2, seed=2)
        bb = StoreBackbone(store, rank=3, alpha=0.7, seed=3)
        rng = np.random.default_rng(4)
        bb.adapter.b[...] = rng.normal(size=bb.adapter.b.shape)
        leaves = {k: Tensor(v, requires_grad=True) for k, v in bb.trainable.items()}
        for mode in FeatureMode:
            graph = bb.feature_graph(store.ids, mode, leaves).data
            for id, graph_row in zip(store.ids, graph, strict=True):
                feat = bb.feature_np(id, mode)
                np.testing.assert_array_equal(graph_row, feat)
                expected = dense_oracle(store, bb.adapter, id, mode)
                np.testing.assert_allclose(feat, expected, rtol=1e-12)

    def test_dropout_masks_a_once_per_id(self):
        # one mask over input dims per id, shared by the CLS and pooled rows
        p, d = 0.3, 6
        store = make_store(d=d, s=2, seed=8)
        bb = StoreBackbone(store, rank=3, alpha=0.5, dropout_p=p, seed=9)
        bb.adapter.b[...] = np.random.default_rng(10).normal(size=bb.adapter.b.shape)
        leaves = {k: Tensor(v, requires_grad=True) for k, v in bb.trainable.items()}
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        dropped = 0
        graph = bb.feature_graph(store.ids, FeatureMode.CLS_PLUS_POOLED_PATCH, leaves, rng).data
        for id, got in zip(store.ids, graph, strict=True):
            mask = (oracle_rng.random(d) >= p) / (1.0 - p)
            dropped += int((mask == 0).sum())
            masked = LoraAdapter(a=bb.adapter.a * mask, b=bb.adapter.b, rank=3, alpha=0.5)
            expected = dense_oracle(store, masked, id, FeatureMode.CLS_PLUS_POOLED_PATCH)
            np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert dropped > 0

    def test_adapt_applies_the_adapted_weight_per_token(self):
        store = make_store(d=5, s=3, seed=14)
        bb = StoreBackbone(store, rank=2, seed=15)
        grid = store.patch[0].astype(np.float64)
        np.testing.assert_array_equal(bb.adapt(grid), grid)  # B = 0: exact identity
        bb.adapter.b[...] = np.random.default_rng(16).normal(size=bb.adapter.b.shape)
        w = lora_effective_weight(np.eye(5), bb.adapter)
        np.testing.assert_allclose(bb.adapt(grid), grid @ w.T, rtol=1e-12)

    @pytest.mark.parametrize("s,d", [(2, 16), (4, 64)])
    def test_adapt_of_stacked_grids_is_per_grid_adapt_bit_for_bit(self, s, d):
        # the dense evals adapt every image's grid in one product
        store = make_store(d=d, s=s, n=7, seed=17)
        bb = StoreBackbone(store, rank=3, seed=18)
        bb.adapter.b[...] = np.random.default_rng(19).normal(size=bb.adapter.b.shape)
        grids = store.patch[[5, 0, 3]].astype(np.float64)
        want = np.stack([bb.adapt(grid) for grid in grids])
        np.testing.assert_array_equal(bb.adapt(grids), want)

    def test_step_memory_below_one_dense_weight(self):
        # a 16-triplet step at d=768 never holds a d x d float64 matrix
        d = 768
        store = make_store(d=d, n=48, seed=12)
        bb = StoreBackbone(store, seed=13)
        bb.adapter.b[...] = np.random.default_rng(14).normal(scale=0.1, size=bb.adapter.b.shape)
        batch = [
            TripletEntry(f"img{3 * i}", f"img{3 * i + 1}", f"img{3 * i + 2}", i % 2)
            for i in range(16)
        ]
        tracemalloc.start()
        try:
            batch_loss_and_grads(bb, batch, AlignmentConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8

    @pytest.mark.parametrize("mode", list(FeatureMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_batch_step_matches_per_triplet_graphs(self, mode, dropout_p):
        store = make_store(d=6, s=2, n=8, seed=21)
        bb = StoreBackbone(store, rank=3, alpha=0.7, dropout_p=dropout_p, seed=22)
        bb.adapter.b[...] = np.random.default_rng(23).normal(scale=0.5, size=bb.adapter.b.shape)
        # ids repeat within the batch, in the same role and across roles, and
        # first appear out of store order
        batch = [
            TripletEntry(*(f"img{i}" for i in ids), y)
            for ids, y in (((5, 1, 2), 1), ((1, 0, 3), 0), ((2, 4, 1), 1), ((0, 6, 7), 0),
                           ((5, 7, 0), 0))
        ]
        cfg = AlignmentConfig(margin=0.5, feature_mode=mode)
        rngs = [np.random.default_rng(24) if dropout_p else None for _ in range(2)]
        loss, grads = batch_loss_and_grads(bb, batch, cfg, rngs[0])
        want_loss, want = per_triplet_step(bb, batch, cfg, rngs[1])
        assert want_loss > 0.0
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for name, g in want.items():
            assert np.abs(g).max() > 0.0
            np.testing.assert_allclose(grads[name], g, rtol=1e-12)

    def test_all_inactive_batch_has_zero_gradient(self):
        store = make_store(d=6, s=2, n=6, seed=25)
        bb = StoreBackbone(store, rank=3, seed=26)
        bb.adapter.b[...] = np.random.default_rng(27).normal(scale=0.5, size=bb.adapter.b.shape)
        feats = {id: bb.feature_np(id, FeatureMode.CLS_ONLY) for id in store.ids}
        batch, gaps = [], []
        for ref, x0, x1 in ((0, 1, 2), (1, 2, 3), (0, 3, 1), (4, 5, 0)):
            ref, x0, x1 = (f"img{i}" for i in (ref, x0, x1))
            d0, d1 = (cosine_distance(feats[ref], feats[x]) for x in (x0, x1))
            batch.append(TripletEntry(ref, x0, x1, int(d0 > d1)))  # the closer one wins
            gaps.append(abs(d0 - d1))
        loss, grads = batch_loss_and_grads(bb, batch, AlignmentConfig(margin=0.5 * min(gaps)))
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 7])
    def test_pool_is_per_id_pooling_bit_for_bit(self, s):
        store = make_store(d=5, s=s, n=9, seed=30 + s)
        bb = StoreBackbone(store, seed=s)
        pool = bb._pooled()
        for i in range(len(store)):
            # one record's grid upcast, then averaged: the per-id form
            per_id = store.patch[[i]].astype(np.float64).mean(axis=(1, 2))[0]
            np.testing.assert_array_equal(pool[i], per_id)
        assert bb._pooled() is pool  # pooled once per backbone

    @pytest.mark.parametrize("d", [6, 64])
    def test_feature_np_is_feature_graph_of_one_id(self, d):
        store = make_store(d=d, s=3, n=5, seed=36)
        bb = StoreBackbone(store, rank=3, alpha=0.7, seed=37)
        bb.adapter.b[...] = np.random.default_rng(38).normal(size=bb.adapter.b.shape)
        leaves = {k: Tensor(v) for k, v in bb.trainable.items()}
        for mode in FeatureMode:
            for id in store.ids:
                graph = bb.feature_graph([id], mode, leaves).data[0]
                np.testing.assert_array_equal(bb.feature_np(id, mode), graph)

    def test_patch_mode_without_patches(self):
        store = make_store(d=4, s=0)
        bb = StoreBackbone(store)
        with pytest.raises(DataError):
            bb.feature_np("img0", FeatureMode.CLS_PLUS_POOLED_PATCH)

    def test_snapshot_restore(self):
        store = make_store()
        bb = StoreBackbone(store, rank=2)
        snap = bb.snapshot()
        bb.adapter.b += 1.0
        assert not np.array_equal(bb.adapter.b, snap["proj.b"])
        bb.load_trainable(snap)
        np.testing.assert_array_equal(bb.adapter.b, snap["proj.b"])


class TestToyEncoderBackbone:
    def test_layout_checked(self):
        store = make_store(d=4, s=3)
        with pytest.raises(DataError, match="layout"):
            ToyEncoderBackbone(store, toy_params())  # expects d_in=3, s=2

    def test_feature_modes(self):
        store = make_store(d=3, s=2, seed=8)
        bb = ToyEncoderBackbone(store, toy_params(seed=8))
        cls = bb.feature_np("img0", FeatureMode.CLS_ONLY)
        both = bb.feature_np("img0", FeatureMode.CLS_PLUS_POOLED_PATCH)
        assert cls.shape == (16,)
        assert both.shape == (32,)
        np.testing.assert_array_equal(both[:16], cls)


class TestAdapterCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        named = {
            "layer0.q.a": rng.normal(size=(2, 8)).astype(np.float32).astype(np.float64),
            "layer0.q.b": rng.normal(size=(8, 2)).astype(np.float32).astype(np.float64),
        }
        path = tmp_path / "ckpt.pala"
        save_adapters(named, path)
        loaded = load_adapters(path)
        assert set(loaded) == set(named)
        for k in named:
            np.testing.assert_array_equal(loaded[k], named[k])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pala"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_adapters(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.pala"
        save_adapters({"m": np.ones((3, 3))}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_adapters(path)

    def test_lying_shape_header(self, tmp_path):
        path = tmp_path / "lie.pala"
        save_adapters({"m": np.ones((2, 2))}, path)
        raw = bytearray(path.read_bytes())
        raw[21:29] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)  # rows, cols of "m"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            load_adapters(path)

    def test_non_utf8_name(self, tmp_path):
        path = tmp_path / "name.pala"
        save_adapters({"mn": np.ones((1, 1))}, path)
        raw = bytearray(path.read_bytes())
        raw[20:22] = b"\xff\xfe"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            load_adapters(path)

    def test_backbone_checkpoint_cycle(self, tmp_path):
        store = make_store(d=4)
        bb = StoreBackbone(store, rank=2, seed=0)
        rng = np.random.default_rng(1)
        bb.adapter.b[...] = rng.normal(size=bb.adapter.b.shape)
        path = tmp_path / "bb.pala"
        save_adapters(bb.snapshot(), path)
        bb2 = StoreBackbone(store, rank=2, seed=99)
        bb2.load_trainable(load_adapters(path))
        # f32 checkpoint precision
        np.testing.assert_allclose(bb2.adapter.b, bb.adapter.b, rtol=1e-7)
