"""Acceptance suite: one test per criterion, printed pass lines included.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 needs real instance-retrieval embeddings and is skipped
unless PALIGN_DEEPFASHION2_DIR points at a directory containing store.paln,
labels.csv, and queries.txt.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from palign.alignment import (
    AlignmentConfig,
    alignment_loss,
    batch_loss_and_grads,
    cosine_distance,
    train_alignment,
    two_afc_accuracy,
)
from palign.autodiff import Tensor
from palign.backbone import (
    FeatureMode,
    LoraAdapter,
    StoreBackbone,
    ToyEncoderBackbone,
    ToyEncoderConfig,
    ToyEncoderParams,
    lora_effective_weight,
)
from palign.cli import main
from palign.data import (
    EmbeddingStore,
    SyntheticFactorSpec,
    TripletEntry,
    TripletManifest,
    generate_world,
    make_class_triplets,
    make_synthetic_nights,
    split_manifest,
)
from palign.dense import (
    DenseTarget,
    DepthBinning,
    DepthHead,
    SegHead,
    depth_decode,
    eval_depth,
    eval_seg,
    jaccard_loss,
    silog_loss,
)
from palign.retrieval import CountDataset, build_index, knn_count_eval, query_topk, recall_at_k


def ok(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {text}: PASS")


def full_mask(values):
    return DenseTarget(values=values, valid_mask=np.ones_like(values, dtype=bool))


def test_criterion_1_gradient_correctness():
    """Adapter gradients match central finite differences on the toy encoder."""
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    enc_cfg = ToyEncoderConfig(d_model=64, n_layers=2, n_heads=4, d_in=8, s=4, lora_rank=4)
    params = ToyEncoderParams.random(enc_cfg, seed=101)
    cls, patch = [], []
    for i in range(12):
        cls.append(rng.normal(size=8))
        patch.append(rng.normal(size=(4, 4, 8)))
    store = EmbeddingStore([f"v{i}" for i in range(12)], np.stack(cls), np.stack(patch))
    backbone = ToyEncoderBackbone(store, params)
    # a random encoder means random nonzero adapters, so no gradient is
    # trivially zero and every entry carries signal
    for arr in backbone.trainable.values():
        arr[...] = rng.normal(scale=0.1, size=arr.shape)
    batch = [
        TripletEntry("v0", "v1", "v2", 1),
        TripletEntry("v3", "v4", "v5", 0),
        TripletEntry("v6", "v7", "v8", 1),
        TripletEntry("v9", "v10", "v11", 0),
    ]
    cfg = AlignmentConfig(margin=0.3, feature_mode=FeatureMode.CLS_PLUS_POOLED_PATCH)

    ids = [id for e in batch for id in (e.ref, e.x0, e.x1)]
    xs = store.patch[[store.row(id) for id in ids]].astype(np.float64)

    def loss_now():
        # one vectorized forward over every id, on constant leaves holding the
        # current adapters; CLS + pooled patch, as the mode asks
        leaves = {name: Tensor(arr) for name, arr in backbone.trainable.items()}
        cls, patch = (t.data for t in backbone.encoder.forward_graph(xs, leaves))
        feats = dict(zip(ids, np.concatenate([cls, patch.mean(axis=(1, 2))], axis=1)))
        total = 0.0
        for e in batch:
            d0 = float(cosine_distance(feats[e.ref], feats[e.x0]))
            d1 = float(cosine_distance(feats[e.ref], feats[e.x1]))
            total += alignment_loss(d0, d1, e.y, cfg.margin)
        return total / len(batch)

    _, grads = batch_loss_and_grads(backbone, batch, cfg)
    h = 1e-5
    n_checked = 0
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
            if denom < 1e-10:
                continue  # both sides are numerically zero
            worst = max(worst, abs(gflat[i] - numeric) / denom)
            n_checked += 1
    elapsed = time.monotonic() - t0
    assert n_checked > 1500  # 2048 entries minus numerically-zero ones
    assert worst < 1e-4, f"worst relative error {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    ok(1, f"gradients match finite differences (worst rel err {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_2_alignment_learning():
    """Reference preset lifts val 2AFC from <0.80 to >=0.95 within 5 epochs."""
    t0 = time.monotonic()
    spec = SyntheticFactorSpec(n_triplets=2000, d=64, factor_count=8, noise_sigma=0.0, seed=1)
    store, manifest, _ = make_synthetic_nights(spec)
    train, val, _ = split_manifest(manifest, (0.8, 0.1, 0.1), seed=1)
    backbone = StoreBackbone(store, rank=16, alpha=0.5, seed=1)
    frozen = two_afc_accuracy(backbone, val, FeatureMode.CLS_ONLY)
    cfg = AlignmentConfig(margin=0.05, lr=3e-4, batch_size=16, epochs=5, seed=1)
    _, history = train_alignment(cfg, backbone, train, val)
    best = max(h["val_2afc"] for h in history)
    elapsed = time.monotonic() - t0
    assert frozen < 0.80, f"frozen baseline {frozen}"
    assert best >= 0.95, f"best val 2AFC {best}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    ok(2, f"alignment learning (frozen {frozen:.3f} -> best {best:.3f}, {elapsed:.0f}s)")


def test_criterion_3_loss_identities():
    # equal distances give exactly the margin
    for m in (0.05, 0.3, 1.0):
        assert alignment_loss(0.4, 0.4, 0, m) == m
        assert alignment_loss(0.4, 0.4, 1, m) == m
    # silog identities; depths >= 1 m and >> eps so the eps perturbation
    # sits below the 1e-6 tolerance
    rng = np.random.default_rng(102)
    depth = rng.uniform(3000.0, 9000.0, size=(8, 8))
    assert silog_loss(depth, full_mask(depth)) == 0.0
    for k in (2.0, 3.7):
        got = silog_loss(k * depth, full_mask(depth))
        assert abs(got - 1.15 * np.log(k) ** 2) < 1e-6
    # perfect segmentation
    labels = rng.integers(0, 4, size=(6, 6))
    assert jaccard_loss(np.eye(4)[labels], full_mask(labels)) == 0.0
    ok(3, "loss identities (hinge margin, silog 1.15*(log k)^2, jaccard perfect = 0)")


def test_criterion_4_oracle_equivalences():
    rng = np.random.default_rng(103)

    # query_topk vs full sort, 1000 gallery items
    vectors = rng.normal(size=(1000, 16))
    ids = [f"g{i}" for i in range(1000)]
    index = build_index(vectors, ids)
    q = rng.normal(size=16)
    got = [id for id, _ in query_topk(index, q, k=25)]
    qn = q / np.linalg.norm(q)
    sims = [(float((v / np.linalg.norm(v)) @ qn), i) for i, v in enumerate(vectors)]
    expected = [ids[i] for _, i in sorted(sims, key=lambda t: (-t[0], t[1]))[:25]]
    assert got == expected

    # knn_count_eval k-selection vs brute-force LOO over the reference grid
    counts = np.repeat(np.arange(1, 11), 20)
    thetas = 0.15 * counts + 0.01 * rng.normal(size=200)
    cvecs = np.stack([np.cos(thetas), np.sin(thetas), 0.05 * rng.normal(size=200)], axis=1)
    train = CountDataset(ids=[f"t{i}" for i in range(150)], counts=counts[:150], vectors=cvecs[:150])
    test = CountDataset(ids=[f"e{i}" for i in range(50)], counts=counts[150:], vectors=cvecs[150:])
    ks = [1, 3, 5, 10]
    out = knn_count_eval(train, test, ks=ks)
    unit = [v / np.linalg.norm(v) for v in train.vectors]
    loo = {}
    for k in ks:
        correct = 0
        for i in range(len(train)):
            sims = [(float(unit[i] @ unit[j]), j) for j in range(len(train)) if j != i]
            sims.sort(key=lambda t: (-t[0], t[1]))
            neigh = [train.counts[j] for _, j in sims[:k]]
            values, freq = np.unique(neigh, return_counts=True)
            modes = values[freq == freq.max()]
            pred = int(modes[0]) if len(modes) == 1 else int(np.floor(np.mean(neigh) + 0.5))
            correct += pred == train.counts[i]
        loo[k] = correct / len(train)
    best = max(loo.values())
    assert out["chosen_k"] == min(k for k in ks if loo[k] == best)
    for k in ks:
        assert abs(out["loo_accuracy"][str(k)] - loo[k]) <= 1e-12

    # eval_seg vs confusion-matrix oracle
    head = SegHead(weight=rng.normal(size=(3, 6)), bias=rng.normal(size=3))
    feats = [rng.normal(size=(8, 8, 6)) for _ in range(4)]
    targets = [full_mask(rng.integers(0, 3, size=(8, 8))) for _ in range(4)]
    metrics = eval_seg(head, feats, targets)
    confusion = np.zeros((3, 3), dtype=int)
    for feat, target in zip(feats, targets):
        pred = np.argmax(feat.reshape(-1, 6) @ head.weight.T + head.bias, axis=-1)
        for pix in range(64):
            confusion[target.values.reshape(-1)[pix], pred[pix]] += 1
    ious = []
    for c in range(3):
        denom = confusion[c, :].sum() + confusion[:, c].sum() - confusion[c, c]
        if denom > 0:
            ious.append(confusion[c, c] / denom)
    assert abs(metrics["miou"] - np.mean(ious)) <= 1e-12
    assert abs(metrics["pixel_accuracy"] - np.trace(confusion) / confusion.sum()) <= 1e-12

    # eval_depth vs per-pixel oracle
    binning = DepthBinning(d_min=0.5, d_max=8.0, n_bins=32)
    dhead = DepthHead(weight=rng.normal(size=(32, 6)), bias=rng.normal(size=32), binning=binning)
    dfeats = [rng.normal(size=(4, 4, 6)) for _ in range(3)]
    dtargets = [full_mask(rng.uniform(1.0, 7.0, size=(4, 4))) for _ in range(3)]
    dmetrics = eval_depth(dhead, dfeats, dtargets)
    diffs, rels, logs, ratios = [], [], [], []
    for feat, target in zip(dfeats, dtargets):
        logits = feat.reshape(-1, 6) @ dhead.weight.T + dhead.bias
        e = np.exp(logits - logits.max(-1, keepdims=True))
        depth = depth_decode(e / e.sum(-1, keepdims=True), binning)
        for pix in range(16):
            a, b = depth[pix], target.values.reshape(-1)[pix]
            diffs.append((a - b) ** 2)
            rels.append(abs(a - b) / b)
            logs.append(abs(np.log10(a) - np.log10(b)))
            ratios.append(max(a / b, b / a))
    assert abs(dmetrics["rmse"] - np.sqrt(np.mean(diffs))) <= 1e-12
    assert abs(dmetrics["abs_rel"] - np.mean(rels)) <= 1e-12
    assert abs(dmetrics["log10"] - np.mean(logs)) <= 1e-12
    for idx, thr in enumerate((1.25, 1.25**2, 1.25**3), start=1):
        assert dmetrics[f"delta{idx}"] == np.mean(np.asarray(ratios) < thr)

    # lora_effective_weight vs explicit dense oracle
    base = rng.normal(size=(12, 10))
    adapter = LoraAdapter(
        a=rng.normal(size=(4, 10)), b=rng.normal(size=(12, 4)), rank=4, alpha=0.7
    )
    got_w = lora_effective_weight(base, adapter)
    expected_w = np.empty((12, 10))
    for i in range(12):
        for j in range(10):
            acc = base[i, j]
            for k in range(4):
                acc += (0.7 / 4) * adapter.b[i, k] * adapter.a[k, j]
            expected_w[i, j] = acc
    assert np.max(np.abs(got_w - expected_w)) <= 1e-12
    ok(4, "oracle equivalences (top-k, LOO k-selection, seg, depth, LoRA)")


def test_criterion_5_scale_invariance():
    rng = np.random.default_rng(104)
    scale = 7.3
    vectors = {f"v{i}": rng.normal(size=12) for i in range(120)}
    entries = [
        TripletEntry(f"v{3 * i}", f"v{3 * i + 1}", f"v{3 * i + 2}", int(rng.integers(2)))
        for i in range(40)
    ]
    manifest = TripletManifest(entries=entries)

    def make_store(mult):
        cls = [(mult * v).astype(np.float32) for v in vectors.values()]
        return EmbeddingStore(list(vectors), np.stack(cls))

    afc = []
    topk_seqs = []
    recall_rates = []
    chosen_ks = []
    for mult in (1.0, scale):
        store = make_store(mult)
        backbone = StoreBackbone(store, seed=0)
        afc.append(two_afc_accuracy(backbone, manifest, FeatureMode.CLS_ONLY))
        ids = list(vectors)
        mat = store.cls.astype(np.float64)
        index = build_index(mat, ids)
        seqs = []
        for qi in range(10):
            q = mat[qi]
            seqs.append(tuple(id for id, _ in query_topk(index, q, k=15, exclude={ids[qi]})))
        topk_seqs.append(seqs)
        queries = {ids[i]: mat[i] for i in range(20)}
        truth = {ids[i]: {ids[(i + 7) % 120]} for i in range(20)}
        recall_rates.append(recall_at_k(index, queries, truth, ks=[1, 5, 10]).rates)
        counts = np.arange(120) % 6
        train = CountDataset(ids=ids[:90], counts=counts[:90], vectors=mat[:90])
        test = CountDataset(ids=ids[90:], counts=counts[90:], vectors=mat[90:])
        chosen_ks.append(knn_count_eval(train, test)["chosen_k"])

    assert afc[0] == afc[1]
    assert topk_seqs[0] == topk_seqs[1]
    assert recall_rates[0] == recall_rates[1]
    assert chosen_ks[0] == chosen_ks[1]
    ok(5, f"scale invariance under x{scale} (2AFC, top-k ids, recall, chosen_k)")


def test_criterion_6_ablation_direction():
    """Mid-level triplet training beats class-boundary training on retrieval."""
    t0 = time.monotonic()
    spec = SyntheticFactorSpec(n_triplets=2000, d=64, factor_count=8, noise_sigma=0.0, seed=11)
    world = generate_world(spec, n_instances=250)
    mode = FeatureMode.CLS_ONLY

    def recall1(backbone):
        gal_ids = [i for i in world.instance_labels if not i.endswith("_qry")]
        index = build_index(
            np.stack([backbone.feature_np(i, mode) for i in gal_ids]), gal_ids
        )
        queries = {q: backbone.feature_np(q, mode) for q in world.query_ids}
        lab = world.instance_labels
        truth = {q: {g for g in gal_ids if lab[g] == lab[q]} for q in world.query_ids}
        return recall_at_k(index, queries, truth, ks=[1]).rates[1]

    def train_on(manifest):
        backbone = StoreBackbone(world.store, rank=16, alpha=0.5, seed=3)
        train, val, _ = split_manifest(manifest, (0.9, 0.05, 0.05), seed=4)
        train_alignment(AlignmentConfig(epochs=8, seed=5), backbone, train, val)
        return recall1(backbone)

    r_mid = train_on(world.manifest)  # 2000-triplet budget
    class_manifest = make_class_triplets(world.class_labels, n=2000, seed=6)
    r_class = train_on(class_manifest)  # same budget, same settings
    elapsed = time.monotonic() - t0
    gap = (r_mid - r_class) * 100
    assert gap >= 5.0, f"mid {r_mid:.3f} vs class {r_class:.3f} (gap {gap:.1f}pt)"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    ok(6, f"ablation direction (mid {r_mid:.3f} > class {r_class:.3f} by {gap:.1f}pt, {elapsed:.0f}s)")


def test_criterion_7_command_determinism(tmp_path):
    """The same flags and seed rerun in place reproduce every report byte."""

    def canonical(out_dir):
        report = json.loads((Path(out_dir) / "report.json").read_text())
        report.pop("wall_time_s")
        return json.dumps(report, sort_keys=True).encode()

    base = tmp_path
    commands = [
        [
            "synth", "--out", str(base / "w"), "--n", "200", "--d", "24",
            "--factors", "6", "--seed", "9", "--instances", "40",
        ],
        [
            "align", "--store", str(base / "w" / "store.paln"),
            "--manifest", str(base / "w" / "triplets.csv"),
            "--out", str(base / "a"), "--epochs", "1", "--seed", "5",
        ],
        [
            "eval", "retrieval", "--store", str(base / "w" / "store.paln"),
            "--labels", str(base / "w" / "instance_labels.csv"),
            "--queries", str(base / "w" / "queries.txt"),
            "--adapters", str(base / "a" / "adapters.pala"),
            "--ks", "1,3", "--out", str(base / "r"),
        ],
    ]
    snapshots = []
    for run_idx in range(2):
        for argv in commands:
            assert main(argv) == 0
        snapshots.append(
            {
                "reports": [canonical(base / sub) for sub in ("w", "a", "r")],
                "history": (base / "a" / "history.jsonl").read_bytes(),
                "store": (base / "w" / "store.paln").read_bytes(),
                "adapters": (base / "a" / "adapters.pala").read_bytes(),
            }
        )
    assert snapshots[0] == snapshots[1]
    ok(7, "byte-identical reports across in-place reruns (synth, align, eval)")


DF2_ENV = "PALIGN_DEEPFASHION2_DIR"


@pytest.mark.skipif(DF2_ENV not in os.environ, reason=f"{DF2_ENV} not set")
def test_criterion_8_paper_scale_hook(tmp_path):
    """Real instance-retrieval embeddings reproduce the reference recalls."""
    base = Path(os.environ[DF2_ENV])
    out = tmp_path / "df2"
    assert main([
        "eval", "retrieval", "--store", str(base / "store.paln"),
        "--labels", str(base / "labels.csv"),
        "--queries", str(base / "queries.txt"),
        "--ks", "1,3,5", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    recall = report["metrics"]["recall"]
    reference = {"1": 8.02, "3": 12.15, "5": 14.44}
    for k, expected in reference.items():
        got = 100.0 * recall[k]
        assert abs(got - expected) <= 1.0, f"top-{k}: {got:.2f} vs {expected}"
    ok(8, "paper-scale retrieval hook within +/-1.0 point")
