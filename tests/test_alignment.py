"""Loss identities, gradient checks against finite differences, Adam, training."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palign.alignment import (
    _SCORE_CHUNK,
    _distinct_ids,
    _score_triplets,
    AdamState,
    AlignmentConfig,
    adam_step,
    alignment_loss,
    batch_loss_and_grads,
    cosine_distance,
    judgment_sign,
    mean_alignment_loss,
    train_alignment,
    two_afc_accuracy,
)
from palign.autodiff import Tensor
from palign.backbone import (
    FeatureMode,
    StoreBackbone,
    ToyEncoderBackbone,
    ToyEncoderConfig,
    ToyEncoderParams,
)
from palign.cli import OPTIONS
from palign.data import (
    EmbeddingStore,
    SyntheticFactorSpec,
    TripletEntry,
    TripletManifest,
    make_synthetic_nights,
    split_manifest,
)
from palign.errors import DataError


class TestCosineDistance:
    def test_identical_directions(self):
        assert cosine_distance(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 0.0

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_antipodal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(2.0)

    def test_zero_norm_refused(self):
        with pytest.raises(DataError, match="zero-norm"):
            cosine_distance(np.zeros(3), np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            cosine_distance(np.ones(3), np.ones(4))

    def test_tensor_path_matches_numpy(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=8), rng.normal(size=8)
        d_np = cosine_distance(u, v)
        d_t = cosine_distance(Tensor(u), Tensor(v))
        assert float(d_t) == pytest.approx(d_np, rel=1e-14)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        st.floats(0.1, 100.0),
    )
    def test_scale_invariance(self, values, scale):
        u = np.array(values)
        if np.linalg.norm(u) < 1e-6:
            return
        v = np.roll(u, 1) + 0.5
        if np.linalg.norm(v) < 1e-6:
            return
        assert cosine_distance(u * scale, v) == pytest.approx(cosine_distance(u, v), abs=1e-9)


class TestAlignmentLoss:
    def test_margin_satisfied(self):
        # x1 preferred and 0.8 closer: hinge is flat
        assert alignment_loss(0.9, 0.1, y=1, m=0.05) == 0.0

    def test_equal_distances_give_margin(self):
        assert alignment_loss(0.4, 0.4, y=0, m=0.05) == 0.05
        assert alignment_loss(0.4, 0.4, y=1, m=0.05) == 0.05

    def test_direct_evaluation(self):
        assert alignment_loss(0.10, 0.13, y=1, m=0.05) == pytest.approx(0.08)

    def test_sign_mapping(self):
        assert judgment_sign(0) == -1
        assert judgment_sign(1) == 1
        with pytest.raises(DataError):
            judgment_sign(2)

    def test_bad_margin(self):
        with pytest.raises(DataError):
            alignment_loss(0.1, 0.2, 0, m=0.0)

    @given(
        st.floats(0, 2), st.floats(0, 2), st.integers(0, 1), st.floats(0.001, 1.0)
    )
    def test_bounds(self, d0, d1, y, m):
        loss = alignment_loss(d0, d1, y, m)
        assert 0.0 <= loss <= m + 2.0

    @given(st.floats(0, 2), st.floats(0, 2), st.integers(0, 1), st.floats(0.001, 1.0))
    def test_label_flip_symmetry(self, d0, d1, y, m):
        assert alignment_loss(d0, d1, y, m) == alignment_loss(d1, d0, 1 - y, m)


def store_of(vectors: dict[str, np.ndarray], s=0, patches=None) -> EmbeddingStore:
    cls = [np.asarray(v, dtype=np.float32) for v in vectors.values()]
    patch = np.stack([patches[id] for id in vectors]) if patches else None
    return EmbeddingStore(list(vectors), np.stack(cls), patch)


class TestBatchLossAndGrads:
    def test_flat_region_zero_gradients(self):
        # distances already satisfy the margin by a wide margin
        store = store_of({"r": [1, 0, 0], "a": [1, 0.01, 0], "b": [-1, 0.5, 0]})
        bb = StoreBackbone(store, rank=2, seed=0)
        batch = [TripletEntry("r", "a", "b", y=0)]
        cfg = AlignmentConfig(margin=0.05)
        loss, grads = batch_loss_and_grads(bb, batch, cfg)
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_zero_init_matches_frozen_distances(self):
        rng = np.random.default_rng(1)
        store = store_of({k: rng.normal(size=4) for k in ("r", "a", "b")})
        bb = StoreBackbone(store, rank=2, seed=5)
        cfg = AlignmentConfig(margin=0.05)
        loss, _ = batch_loss_and_grads(bb, [TripletEntry("r", "a", "b", 1)], cfg)
        r, a, b = store.cls.astype(float)
        d0 = cosine_distance(r, a)
        d1 = cosine_distance(r, b)
        assert loss == pytest.approx(alignment_loss(d0, d1, 1, 0.05), rel=1e-12)

    def test_empty_batch(self):
        store = store_of({"r": [1.0, 0.0]})
        bb = StoreBackbone(store)
        with pytest.raises(DataError):
            batch_loss_and_grads(bb, [], AlignmentConfig())

    def test_unresolvable_id(self):
        store = store_of({"r": [1.0, 0.0], "a": [0.0, 1.0]})
        bb = StoreBackbone(store)
        with pytest.raises(DataError, match="unknown"):
            batch_loss_and_grads(bb, [TripletEntry("r", "a", "zzz", 0)], AlignmentConfig())


def fd_check_gradients(backbone, batch, cfg, h=1e-5, rtol=1e-4, zero_floor=1e-10):
    """Central finite differences through the numpy featurization path."""

    def loss_now():
        feats = {}
        total = 0.0
        for e in batch:
            for id in (e.ref, e.x0, e.x1):
                if id not in feats:
                    feats[id] = backbone.feature_np(id, cfg.feature_mode)
            d0 = float(cosine_distance(feats[e.ref], feats[e.x0]))
            d1 = float(cosine_distance(feats[e.ref], feats[e.x1]))
            total += alignment_loss(d0, d1, e.y, cfg.margin)
        return total / len(batch)

    _, grads = batch_loss_and_grads(backbone, batch, cfg)
    worst = 0.0
    for name, param in backbone.trainable.items():
        flat = param.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_now()
            flat[i] = orig - h
            down = loss_now()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(gflat[i]), abs(numeric))
            if denom < zero_floor:
                continue
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    assert worst < rtol, f"worst gradient relative error {worst}"
    return worst


def randomize_adapters(backbone, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    for arr in backbone.trainable.values():
        arr[...] = rng.normal(scale=scale, size=arr.shape)


class TestGradientOracle:
    def test_store_backbone_cls_mode(self):
        rng = np.random.default_rng(2)
        store = store_of({f"v{i}": rng.normal(size=5) for i in range(9)})
        bb = StoreBackbone(store, rank=2, alpha=0.7, seed=3)
        randomize_adapters(bb, seed=4)
        batch = [
            TripletEntry("v0", "v1", "v2", 1),
            TripletEntry("v3", "v4", "v5", 0),
            TripletEntry("v6", "v7", "v8", 1),
        ]
        fd_check_gradients(bb, batch, AlignmentConfig(margin=0.3))

    def test_store_backbone_patch_mode(self):
        rng = np.random.default_rng(5)
        patches = {f"v{i}": rng.normal(size=(2, 2, 4)).astype(np.float32) for i in range(6)}
        store = store_of({f"v{i}": rng.normal(size=4) for i in range(6)}, s=2, patches=patches)
        bb = StoreBackbone(store, rank=2, seed=6)
        randomize_adapters(bb, seed=7)
        batch = [TripletEntry("v0", "v1", "v2", 0), TripletEntry("v3", "v4", "v5", 1)]
        fd_check_gradients(
            bb, batch, AlignmentConfig(margin=0.3, feature_mode=FeatureMode.CLS_PLUS_POOLED_PATCH)
        )

    def test_toy_encoder_small(self):
        rng = np.random.default_rng(8)
        cfg_enc = ToyEncoderConfig(
            d_model=8, n_layers=2, n_heads=2, d_in=3, s=2, lora_rank=2
        )
        params = ToyEncoderParams.random(cfg_enc, seed=9)
        cls, patch = [], []
        for i in range(6):
            cls.append(rng.normal(size=3))
            patch.append(rng.normal(size=(2, 2, 3)))
        store = EmbeddingStore([f"v{i}" for i in range(6)], np.stack(cls), np.stack(patch))
        bb = ToyEncoderBackbone(store, params)
        randomize_adapters(bb, seed=10)
        batch = [TripletEntry("v0", "v1", "v2", 1), TripletEntry("v3", "v4", "v5", 0)]
        fd_check_gradients(
            bb, batch, AlignmentConfig(margin=0.3, feature_mode=FeatureMode.CLS_PLUS_POOLED_PATCH)
        )


def composite_scores(feats, ids, triplets, margin):
    """Oracle for _score_triplets: one small graph per triplet, cosine_distance
    on Tensor rows of `feats` and then relu; the credit from the same distances."""
    row = {id: i for i, id in enumerate(ids)}
    hinges, credits = [], []
    for e in triplets:
        u, a, b = (feats[row[id]] for id in (e.ref, e.x0, e.x1))
        d0, d1 = cosine_distance(u, a), cosine_distance(u, b)
        hinges.append((margin - (d0 - d1) * float(judgment_sign(e.y))).relu())
        credits.append(0.5 if d0.data == d1.data else float((d1.data < d0.data) == (e.y == 1)))
    return hinges, np.array(credits)


def score_with(score, bb, triplets, mode, margin):
    """Per-triplet hinges, mean loss, credit and adapter gradients of the
    scoring function `score` over a store backbone's features of the triplets."""
    leaves = {k: Tensor(v, requires_grad=True) for k, v in bb.trainable.items()}
    ids = _distinct_ids(triplets)
    hinge, credit = score(bb.feature_graph(ids, mode, leaves), ids, triplets, margin)
    if isinstance(hinge, Tensor):
        per_triplet, loss = hinge.data, hinge.mean()
    else:
        per_triplet, loss = np.array([h.data for h in hinge]), sum(hinge) / float(len(hinge))
    loss.backward()
    return per_triplet, float(loss.data), credit, {k: leaf.grad for k, leaf in leaves.items()}


def assert_scores_match_composite(bb, triplets, mode, margin):
    got = score_with(_score_triplets, bb, triplets, mode, margin)
    want = score_with(composite_scores, bb, triplets, mode, margin)
    np.testing.assert_array_equal(got[0], want[0])  # hinges, bit for bit
    assert got[1] == pytest.approx(want[1], rel=1e-12)
    np.testing.assert_array_equal(got[2], want[2])  # credit
    for name, g in want[3].items():
        # atol: a gradient that cancels to zero (a tie) leaves ~1e-19 of round-off
        np.testing.assert_allclose(got[3][name], g, rtol=1e-12, atol=1e-14)
    return got


@st.composite
def scoring_cases(draw):
    """A small store backbone with nonzero adapters and a batch over it: ids
    repeat across triplets, and with `tie` record v1 is a copy of v0 and one
    triplet compares the two, an exact distance tie."""
    n, d = draw(st.integers(3, 7)), draw(st.sampled_from([2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls, patch = rng.normal(size=(n, d)), rng.normal(size=(n, 2, 2, d))
    tie = draw(st.booleans())
    if tie:
        cls[1], patch[1] = cls[0], patch[0]
    bb = StoreBackbone(EmbeddingStore([f"v{i}" for i in range(n)], cls, patch), rank=2, alpha=0.7)
    bb.adapter.b[...] = rng.normal(scale=0.5, size=bb.adapter.b.shape)
    picks = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    batch = draw(st.lists(st.tuples(picks, st.integers(0, 1)), min_size=1, max_size=8))
    if tie:
        batch.append(([2, 0, 1], draw(st.integers(0, 1))))
    triplets = [TripletEntry(*(f"v{i}" for i in ids), y) for ids, y in batch]
    return bb, triplets, draw(st.sampled_from(list(FeatureMode))), draw(st.floats(0.01, 2.0)), tie


class TestScoringOp:
    @settings(deadline=None)
    @given(scoring_cases())
    def test_matches_composite_per_triplet_graphs(self, case):
        bb, triplets, mode, margin, tie = case
        _, _, credit, _ = assert_scores_match_composite(bb, triplets, mode, margin)
        if tie:
            assert credit[-1] == 0.5

    @pytest.mark.parametrize("mode", list(FeatureMode), ids=lambda m: m.value)
    def test_matches_composite_at_paper_width(self, mode):
        rng = np.random.default_rng(40)
        n, d = 12, 768
        store = EmbeddingStore([f"v{i}" for i in range(n)], rng.normal(size=(n, d)),
                               rng.normal(size=(n, 2, 2, d)))
        bb = StoreBackbone(store, rank=4, seed=41)
        bb.adapter.b[...] = rng.normal(scale=0.2, size=bb.adapter.b.shape)
        triplets = [
            TripletEntry(*(f"v{i}" for i in rng.choice(n, 3, replace=False)), int(rng.integers(2)))
            for _ in range(16)
        ]
        _, loss, _, grads = assert_scores_match_composite(bb, triplets, mode, margin=0.5)
        assert loss > 0.0 and all(np.abs(g).max() > 0.0 for g in grads.values())

    def test_all_inactive_batch_has_exactly_zero_gradient(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 4))
        ids = [f"v{i}" for i in range(5)]
        triplets, gaps = [], []
        for r, a, b in ((0, 1, 2), (1, 2, 3), (0, 3, 1), (4, 0, 2)):
            d0, d1 = cosine_distance(x[r], x[a]), cosine_distance(x[r], x[b])
            triplets.append(TripletEntry(ids[r], ids[a], ids[b], int(d0 > d1)))
            gaps.append(abs(d0 - d1))
        feats = Tensor(x, requires_grad=True)
        hinge, _ = _score_triplets(feats, ids, triplets, 0.5 * min(gaps))
        hinge.sum().backward()
        np.testing.assert_array_equal(hinge.data, 0.0)
        np.testing.assert_array_equal(feats.grad, 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(6, 5))
        ids = [f"v{i}" for i in range(6)]
        triplets = [
            TripletEntry(*(ids[i] for i in t), y)
            for t, y in (((0, 1, 2), 1), ((1, 0, 3), 0), ((2, 4, 1), 1), ((5, 3, 0), 0))
        ]
        w = rng.uniform(0.5, 1.5, size=len(triplets))

        def loss(arr):
            hinge, _ = _score_triplets(arr, ids, triplets, 1.0)
            return (hinge * Tensor(w)).sum()

        feats = Tensor(x, requires_grad=True)
        loss(feats).backward()
        assert np.abs(feats.grad).max() > 0.0
        h, numeric = 1e-6, np.zeros_like(x)
        for i in np.ndindex(x.shape):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (loss(Tensor(up)).item() - loss(Tensor(down)).item()) / (2 * h)
        np.testing.assert_allclose(feats.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_constant_features_attach_no_backward(self):
        x = np.random.default_rng(44).normal(size=(3, 4))
        triplets = [TripletEntry("a", "b", "c", 1)]
        hinge, _ = _score_triplets(Tensor(x), ["a", "b", "c"], triplets, 0.5)
        assert not hinge.requires_grad and hinge._backward is None

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_zero_norm_refused(self, requires_grad):
        x = np.random.default_rng(45).normal(size=(3, 4))
        x[2] = 0.0
        feats = Tensor(x, requires_grad=requires_grad)
        with pytest.raises(DataError, match="zero-norm"):
            _score_triplets(feats, ["a", "b", "c"], [TripletEntry("a", "b", "c", 1)], 0.5)


class TestAdam:
    def test_zero_gradient_fresh_state_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState()
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_moments_decay_on_zero_gradient(self):
        params = {"w": np.array([1.0])}
        state = AdamState()
        adam_step(params, {"w": np.array([2.0])}, state, lr=0.0)
        m_before = state.m["w"].copy()
        adam_step(params, {"w": np.array([0.0])}, state, lr=0.0)
        np.testing.assert_allclose(state.m["w"], 0.9 * m_before)

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.array([0.0])}
        adam_step(params, {"w": np.array([3.0])}, AdamState(), lr=0.01)
        assert abs(params["w"][0] + 0.01) < 1e-6  # moved by ~lr against the gradient

    def test_quadratic_descent_matches_scalar_recurrence(self):
        # oracle: run the textbook recurrence with plain floats
        w_ref, m, v = 1.0, 0.0, 0.0
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        for t in range(1, 101):
            g = 2 * w_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert abs(w_ref) < 0.1

        params = {"w": np.array([1.0])}
        state = AdamState()
        for _ in range(100):
            adam_step(params, {"w": 2 * params["w"]}, state, lr=0.1)
        assert params["w"][0] == pytest.approx(w_ref, rel=1e-12)
        assert abs(params["w"][0]) < 0.1

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState(), lr=0.1)

    @pytest.mark.parametrize("shape", [(256, 64), (16, 64)])
    def test_in_place_update_is_the_formula_bit_for_bit(self, shape):
        # oracle: the update written with a fresh array per temporary
        rng = np.random.default_rng(46)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-4
        params = {"w": rng.normal(size=shape), "b": rng.normal(size=shape[:1])}
        want = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros_like(p) for name, p in params.items()}
        v = {name: np.zeros_like(p) for name, p in params.items()}
        state = AdamState()
        for t in range(1, 51):
            # gradients spanning many magnitudes, some exactly zero
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-12, 3, p.shape)
                     * (rng.random(p.shape) > 0.1) for name, p in params.items()}
            given = {name: g.copy() for name, g in grads.items()}
            adam_step(params, grads, state, lr)
            for name, g in grads.items():
                m[name] *= b1
                m[name] += (1 - b1) * g
                v[name] *= b2
                v[name] += (1 - b2) * (g * g)
                m_hat = m[name] / (1 - b1**t)
                v_hat = v[name] / (1 - b2**t)
                want[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
                np.testing.assert_array_equal(params[name], want[name])
                np.testing.assert_array_equal(state.m[name], m[name])
                np.testing.assert_array_equal(state.v[name], v[name])
                np.testing.assert_array_equal(g, given[name])
        assert state.step == 50


def manifest_from(entries):
    return TripletManifest(entries=entries)


class TestTwoAfc:
    def test_single_triplet_correct(self):
        store = store_of({"r": [1, 0], "a": [1, 0.1], "b": [0, 1]})
        bb = StoreBackbone(store)
        m = manifest_from([TripletEntry("r", "a", "b", 0)])
        assert two_afc_accuracy(bb, m, FeatureMode.CLS_ONLY) == 1.0

    def test_tie_counts_half(self):
        store = store_of({"r": [1, 0], "a": [0, 1], "b": [0, 1.5]})  # both orthogonal to r
        bb = StoreBackbone(store)
        m = manifest_from([TripletEntry("r", "a", "b", 0)])
        assert two_afc_accuracy(bb, m, FeatureMode.CLS_ONLY) == 0.5

    def test_null_distribution(self):
        # Monte Carlo under the null: random embeddings, random labels
        rng = np.random.default_rng(12)
        n = 10_000
        ids, cls, entries = [], [], []
        for i in range(n):
            for suffix in ("r", "a", "b"):
                ids.append(f"t{i}{suffix}")
                cls.append(rng.normal(size=8))
            entries.append(
                TripletEntry(f"t{i}r", f"t{i}a", f"t{i}b", int(rng.integers(2)))
            )
        bb = StoreBackbone(EmbeddingStore(ids, np.stack(cls)))
        acc = two_afc_accuracy(bb, manifest_from(entries), FeatureMode.CLS_ONLY)
        assert abs(acc - 0.5) <= 0.02

    def test_holds_one_chunk_of_features_at_a_time(self):
        # without a caller's cache, features live for one chunk of triplets, so
        # the peak is a few chunks' worth whatever the manifest's length; the
        # whole manifest's 9,000 features would be 9.2 MB, nearly 12 chunks
        n, d = 3_000, 128
        rng = np.random.default_rng(14)
        ids = [f"i{k}" for k in range(3 * n)]
        bb = StoreBackbone(EmbeddingStore(ids, rng.normal(size=(3 * n, d)).astype(np.float32)))
        manifest = manifest_from([TripletEntry(*ids[3 * k : 3 * k + 3], k % 2) for k in range(n)])
        tracemalloc.start()
        try:
            two_afc_accuracy(bb, manifest, FeatureMode.CLS_ONLY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = 3 * _SCORE_CHUNK * d * 8
        assert peak < 6 * chunk_bytes, (peak, chunk_bytes)

    def test_scale_invariance_bit_identical(self):
        rng = np.random.default_rng(13)
        vectors = {f"v{i}": rng.normal(size=6) for i in range(30)}
        entries = [
            TripletEntry(f"v{3 * i}", f"v{3 * i + 1}", f"v{3 * i + 2}", int(rng.integers(2)))
            for i in range(10)
        ]
        acc1 = two_afc_accuracy(
            StoreBackbone(store_of(vectors)), manifest_from(entries), FeatureMode.CLS_ONLY
        )
        scaled = {k: 7.3 * v for k, v in vectors.items()}
        acc2 = two_afc_accuracy(
            StoreBackbone(store_of(scaled)), manifest_from(entries), FeatureMode.CLS_ONLY
        )
        assert acc1 == acc2

    def test_val_pass_over_several_chunks_matches_per_triplet_loop(self):
        rng = np.random.default_rng(31)
        vectors = {f"v{i}": rng.normal(size=5) for i in range(40)}
        vectors["v2"] = vectors["v1"]
        store = store_of(vectors)
        bb = StoreBackbone(store, rank=2, seed=1)
        bb.adapter.b[...] = rng.normal(scale=0.5, size=bb.adapter.b.shape)
        entries = [
            TripletEntry(*(f"v{i}" for i in rng.choice(40, 3, replace=False)), int(rng.integers(2)))
            for _ in range(2 * _SCORE_CHUNK + 7)
        ]
        entries.append(TripletEntry("v0", "v1", "v2", 1))  # an exact tie
        feats = {id: bb.feature_np(id, FeatureMode.CLS_ONLY) for id in store.ids}
        losses, credits = [], []
        for e in entries:
            d0, d1 = (cosine_distance(feats[e.ref], feats[x]) for x in (e.x0, e.x1))
            losses.append(alignment_loss(d0, d1, e.y, 0.2))
            credits.append(0.5 if d0 == d1 else float((d1 < d0) == bool(e.y)))
        cfg = AlignmentConfig(margin=0.2)
        assert mean_alignment_loss(bb, manifest_from(entries), cfg) == pytest.approx(
            np.mean(losses), rel=1e-12
        )
        assert two_afc_accuracy(bb, manifest_from(entries), cfg.feature_mode) == np.mean(credits)


class TestTrainAlignment:
    def world(self, n=200, seed=1, noise=0.0):
        spec = SyntheticFactorSpec(
            n_triplets=n, d=32, factor_count=8, noise_sigma=noise, seed=seed
        )
        store, manifest, _ = make_synthetic_nights(spec)
        train, val, _ = split_manifest(manifest, (0.8, 0.15, 0.05), seed=seed)
        return store, train, val

    def test_zero_epochs_returns_initial(self):
        store, train, val = self.world(n=30)
        bb = StoreBackbone(store, rank=4, seed=0)
        before = bb.snapshot()
        snap, history = train_alignment(AlignmentConfig(epochs=0), bb, train, val)
        assert history == []
        for k in before:
            np.testing.assert_array_equal(snap[k], before[k])

    def test_epoch0_reports_frozen_metrics(self):
        store, train, val = self.world(n=60)
        bb = StoreBackbone(store, rank=4, seed=0)
        cfg = AlignmentConfig(epochs=1, seed=3)
        frozen_loss = mean_alignment_loss(bb, val, cfg)
        frozen_acc = two_afc_accuracy(bb, val, cfg.feature_mode)
        _, history = train_alignment(cfg, bb, train, val)
        assert history[0]["epoch"] == 0
        assert history[0]["train_loss"] is None
        assert history[0]["val_loss"] == frozen_loss
        assert history[0]["val_2afc"] == frozen_acc

    def test_val_pass_featurizes_each_id_once(self):
        store, train, val = self.world(n=60)
        bb = StoreBackbone(store, rank=4, seed=0)
        calls = []
        feature_np = bb.feature_np
        bb.feature_np = lambda id, mode: calls.append(id) or feature_np(id, mode)
        train_alignment(AlignmentConfig(epochs=1, seed=3), bb, train, val)
        val_ids = sorted({id for e in val for id in (e.ref, e.x0, e.x1)})
        assert sorted(calls) == sorted(val_ids * 2)  # the passes at epochs 0 and 1

    def test_best_checkpoint_is_min_val_loss(self):
        store, train, val = self.world(n=120, seed=5)
        bb = StoreBackbone(store, rank=8, seed=2)
        cfg = AlignmentConfig(epochs=3, seed=4)
        snap, history = train_alignment(cfg, bb, train, val)
        best = min(h["val_loss"] for h in history)
        # backbone holds the best snapshot: re-evaluating must reproduce it
        assert mean_alignment_loss(bb, val, cfg) == pytest.approx(best, rel=1e-12)

    def test_deterministic_history(self):
        store, train, val = self.world(n=80, seed=7)
        cfg = AlignmentConfig(epochs=2, seed=11)
        _, h1 = train_alignment(cfg, StoreBackbone(store, rank=4, seed=1), train, val)
        _, h2 = train_alignment(cfg, StoreBackbone(store, rank=4, seed=1), train, val)
        assert h1 == h2

    @pytest.mark.parametrize("field", ["margin", "lr"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_margin_and_lr_rejected(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be > 0"):
            AlignmentConfig(**{field: value})

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one_rejected(self, max_steps):
        with pytest.raises(DataError, match="max_steps must be >= 1"):
            AlignmentConfig(max_steps=max_steps)

    def test_backbone_dropout_applies_under_default_config(self):
        store, train, val = self.world(n=200, seed=4)
        snaps = {}
        for p in (0.0, 0.3):
            bb = StoreBackbone(store, rank=4, dropout_p=p, seed=1)
            snaps[p], history = train_alignment(AlignmentConfig(epochs=2, seed=3), bb, train, val)
            assert min(history, key=lambda h: h["val_loss"])["epoch"] > 0
        assert not np.array_equal(snaps[0.0]["proj.b"], snaps[0.3]["proj.b"])
        assert not np.array_equal(snaps[0.0]["proj.a"], snaps[0.3]["proj.a"])

    def test_max_steps_cuts_training(self):
        store, train, val = self.world(n=100, seed=8)
        bb = StoreBackbone(store, rank=4, seed=1)
        cfg = AlignmentConfig(epochs=4, seed=2, max_steps=3)
        _, history = train_alignment(cfg, bb, train, val)
        assert len(history) == 2  # epoch 0 + the truncated first epoch

    def test_separable_toy_encoder_learns(self, monkeypatch):
        # noise-free wide-gap world (variations differ 2-4x in radius, no
        # contested near-ties); the encoder consumes raw patch grids
        import palign.data as data_mod

        monkeypatch.setattr(data_mod, "_PERT_BASE", (0.10, 0.20))
        monkeypatch.setattr(data_mod, "_PERT_RATIO", (2.0, 4.0))
        monkeypatch.setattr(data_mod, "_CONTESTED_FRAC", 0.0)
        spec = SyntheticFactorSpec(
            n_triplets=400, d=8, s=2, factor_count=4, noise_sigma=0.0, seed=21
        )
        store, manifest, _ = make_synthetic_nights(spec)
        train, val, _ = split_manifest(manifest, (0.8, 0.15, 0.05), seed=2)
        enc_cfg = ToyEncoderConfig(
            d_model=32, n_layers=2, n_heads=2, d_in=8, s=2, lora_rank=8, lora_alpha=0.5
        )
        bb = ToyEncoderBackbone(store, ToyEncoderParams.random(enc_cfg, seed=3))
        cfg = AlignmentConfig(margin=0.05, lr=1e-2, batch_size=16, epochs=5, seed=5)
        _, history = train_alignment(cfg, bb, train, val)
        assert history[0]["val_2afc"] < max(h["val_2afc"] for h in history)
        assert max(h["val_2afc"] for h in history) >= 0.95

    def test_reference_preset(self):
        cfg = AlignmentConfig()
        assert cfg.margin == 0.05
        assert cfg.lr == 3e-4
        assert cfg.batch_size == 16
        assert cfg.epochs == 8
        # the LoRA settings live on the backbone, and the CLI passes its own
        adapter = StoreBackbone(store_of({"a": [1.0, 0.0]})).adapter
        assert (adapter.rank, adapter.alpha, adapter.dropout_p) == (16, 0.5, 0.0)
        for key, options in OPTIONS.items():
            if key == "synth":
                continue
            defaults = {opt.name: opt.default for opt in options}
            assert defaults["lora_rank"] == 16
            assert defaults["lora_alpha"] == 0.5
            if not key.startswith("eval"):  # eval never trains, so takes no dropout
                assert defaults["lora_dropout"] == 0.0
