"""Output checks made apart from the program.

Nothing here imports palign. The store and adapter files are parsed from
their documented byte layouts, features are rebuilt with plain numpy
(W = I + (alpha/r) * B @ A), and each reported figure is recomputed by brute
force and compared with the figure in the command's report.json. Where the
program and the recomputation could rank a near-tie differently (adapters are
saved as float32, sums run in another order), the allowed difference is the
share of cases that sit within a small tolerance of a tie, and no more.

Every check function returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

TIE_DIST = 1e-5  # cosine-distance gap below which a 2AFC call may flip
TIE_SIM = 1e-9  # similarity gap below which a ranking may reorder
LOSS_TOL = 1e-5  # hinge loss difference allowed by float32 adapters


# ---------------------------------------------------------------------------
# independent file readers
# ---------------------------------------------------------------------------


class Store:
    """Records of a .paln file: ids in file order, CLS rows and patch grids."""

    def __init__(self, path):
        data = Path(path).read_bytes()
        if data[:4] != b"PALN":
            raise ValueError(f"{path}: not a PALN store")
        _version, d, s, count = struct.unpack_from("<IIIQ", data, 4)
        off = 24
        per_record = d + s * s * d
        self.ids: list[str] = []
        values = np.empty((count, per_record), dtype=np.float32)
        for i in range(count):
            (id_len,) = struct.unpack_from("<I", data, off)
            off += 4
            self.ids.append(data[off : off + id_len].decode("utf-8"))
            off += id_len
            values[i] = np.frombuffer(data, dtype="<f4", count=per_record, offset=off)
            off += 4 * per_record
        self.d, self.s = d, s
        self.row = {id: i for i, id in enumerate(self.ids)}
        self.cls = values[:, :d].astype(np.float64)
        self.patch = values[:, d:].reshape(count, s, s, d) if s else None

    def features(self, ids, w: np.ndarray, mode: str = "cls") -> np.ndarray:
        rows = [self.row[id] for id in ids]
        out = self.cls[rows] @ w.T
        if mode == "patch":
            pooled = self.patch[rows].astype(np.float64).mean(axis=(1, 2))
            out = np.concatenate([out, pooled @ w.T], axis=1)
        return out


def read_adapters(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != b"PALA":
        raise ValueError(f"{path}: not a PALA adapter file")
    _version, count = struct.unpack_from("<IQ", data, 4)
    off = 16
    out = {}
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, off)
        name = data[off + 4 : off + 4 + n].decode("utf-8")
        off += 4 + n
        rows, cols = struct.unpack_from("<II", data, off)
        off += 8
        mat = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=off)
        out[name] = mat.astype(np.float64).reshape(rows, cols)
        off += 4 * rows * cols
    return out


def adapted_weight(path, rank: int, alpha: float) -> np.ndarray:
    named = read_adapters(path)
    b, a = named["proj.b"], named["proj.a"]
    return np.eye(b.shape[0]) + (alpha / rank) * (b @ a)


def read_triplets(path) -> list[tuple[str, str, str, int]]:
    lines = Path(path).read_text().splitlines()[1:]
    return [(r, x0, x1, int(y)) for r, x0, x1, y in (line.split(",") for line in lines if line)]


def read_labels(path) -> dict[str, str]:
    lines = Path(path).read_text().splitlines()[1:]
    return dict(line.split(",", 1) for line in lines if line)


def read_report(out_dir) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())["metrics"]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _differs(name: str, got: float, want: float, tol: float) -> list[str]:
    if not math.isfinite(got) or abs(got - want) > tol + 1e-12:
        return [f"{name}: report says {got!r}, recomputed {want!r} (tolerance {tol:.3g})"]
    return []


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def two_afc(store: Store, triplets, w, mode, margin):
    """(2AFC accuracy, mean hinge loss, near-tie share) of triplets under W."""
    ids = sorted({id for t in triplets for id in t[:3]})
    pos = {id: i for i, id in enumerate(ids)}
    f = _unit_rows(store.features(ids, w, mode))
    ref = f[[pos[t[0]] for t in triplets]]
    d0 = 1.0 - (ref * f[[pos[t[1]] for t in triplets]]).sum(axis=1)
    d1 = 1.0 - (ref * f[[pos[t[2]] for t in triplets]]).sum(axis=1)
    y = np.array([t[3] for t in triplets])
    hits = np.where(d0 == d1, 0.5, ((d1 < d0) == (y == 1)).astype(float))
    loss = np.maximum(0.0, margin - (d0 - d1) * (2 * y - 1))
    return hits.mean(), loss.mean(), float((np.abs(d0 - d1) < TIE_DIST).mean())


def check_align(out_dir, store: Store, val_path, w, mode, margin, expect_gain: bool) -> list[str]:
    """Val 2AFC and val loss under the saved adapters' W, frozen 2AFC, history order."""
    report = read_report(out_dir)
    val = read_triplets(val_path)
    fails = []
    if report["n_val"] != len(val):
        fails.append(f"align: n_val {report['n_val']} but the val manifest has {len(val)}")
    acc, loss, ties = two_afc(store, val, w, mode, margin)
    fails += _differs("align best_val_2afc", report["best_val_2afc"], acc, ties)
    fails += _differs("align best_val_loss", report["best_val_loss"], loss, LOSS_TOL)
    frozen, _, frozen_ties = two_afc(store, val, np.eye(store.d), mode, margin)
    fails += _differs("align frozen_val_2afc", report["frozen_val_2afc"], frozen, frozen_ties)

    history = [json.loads(line) for line in (Path(out_dir) / "history.jsonl").read_text().splitlines()]
    best = [h for h in history if h["epoch"] == report["best_epoch"]]
    if not best or best[0]["val_loss"] > history[0]["val_loss"]:
        fails.append("align: best epoch's val_loss is above epoch 0's")
    if expect_gain and not acc >= frozen:
        fails.append(f"align: aligned val 2AFC {acc} below frozen {frozen}")
    return fails


# ---------------------------------------------------------------------------
# retrieval, rag, count, probe
# ---------------------------------------------------------------------------


def _gallery(store: Store, labels, queries):
    qset = set(queries)
    return [id for id in store.ids if id in labels and id not in qset]


def _rankings(store, w, mode, queries, gallery):
    """Per query: gallery indices by falling cosine (stable), and sorted sims."""
    sims = _unit_rows(store.features(queries, w, mode)) @ _unit_rows(
        store.features(gallery, w, mode)
    ).T
    order = np.argsort(-sims, axis=1, kind="stable")
    return order, np.take_along_axis(sims, order, axis=1)


def _near_tie(sorted_sims: np.ndarray, upto: int) -> np.ndarray:
    """Rows whose first `upto + 1` ranked sims hold a near-tie."""
    head = sorted_sims[:, : upto + 1]
    return (np.abs(np.diff(head, axis=1)) < TIE_SIM).any(axis=1)


def check_retrieval(out_dir, store, w, mode, labels_path, queries_path) -> list[str]:
    """recall@k by a brute-force Q x N ranking, and recall monotone in k."""
    report = read_report(out_dir)
    labels = read_labels(labels_path)
    queries = Path(queries_path).read_text().split()
    gallery = _gallery(store, labels, queries)
    order, sorted_sims = _rankings(store, w, mode, queries, gallery)
    names = {label: i for i, label in enumerate(sorted(set(labels.values())))}
    gallery_codes = np.array([names[labels[id]] for id in gallery])
    query_codes = np.array([names[labels[q]] for q in queries])
    truth = gallery_codes[order] == query_codes[:, None]
    ks = sorted(int(k) for k in report["recall"])
    ties = _near_tie(sorted_sims, max(ks)).mean()
    fails = []
    for k in ks:
        recall = truth[:, :k].any(axis=1).mean()
        fails += _differs(f"retrieval recall@{k}", report["recall"][str(k)], recall, ties)
    rates = [report["recall"][str(k)] for k in ks]
    if any(b < a for a, b in zip(rates, rates[1:])):
        fails.append(f"retrieval: recall decreases as k grows: {rates}")
    if report["n_queries"] != len(queries):
        fails.append(f"retrieval: n_queries {report['n_queries']} != {len(queries)}")
    return fails


def _majority(labels_in_order: list[str]) -> str:
    """Most frequent label; ties go to the most similar example among them."""
    tally: dict[str, int] = {}
    for label in labels_in_order:
        tally[label] = tally.get(label, 0) + 1
    top = max(tally.values())
    return next(label for label in labels_in_order if tally[label] == top)


def check_rag(out_dir, store, w, mode, labels_path, queries_path, k: int) -> list[str]:
    """Bundles and accuracy by a brute-force Q x N ranking, query excluded."""
    report = read_report(out_dir)
    labels = read_labels(labels_path)
    queries = Path(queries_path).read_text().split()
    gallery = _gallery(store, labels, queries)
    order, sorted_sims = _rankings(store, w, mode, queries, gallery)
    tied = _near_tie(sorted_sims, k)
    bundles = json.loads((Path(out_dir) / "bundles.json").read_text())
    fails = []
    correct = 0
    for qi, q in enumerate(queries):
        top = [gallery[j] for j in order[qi] if gallery[j] != q][:k]
        correct += _majority([labels[id] for id in top]) == labels[q]
        got = [ex["id"] for ex in bundles[qi]["examples"]]
        if bundles[qi]["query"] != q or (got != top and not tied[qi]):
            fails.append(f"rag: bundle of {q!r} is {got}, recomputed {top}")
    fails += _differs("rag accuracy", report["accuracy"], correct / len(queries), tied.mean())
    return fails[:5]


def _knn_count(sorted_counts: np.ndarray) -> int:
    values, freq = np.unique(sorted_counts, return_counts=True)
    modes = values[freq == freq.max()]
    return int(modes[0]) if len(modes) == 1 else int(np.floor(sorted_counts.mean() + 0.5))


def check_count(out_dir, store, w, mode, train_path, test_path) -> list[str]:
    """Count MAE at the reported chosen_k, and chosen_k's own tie rule."""
    report = read_report(out_dir)
    train, test = read_labels(train_path), read_labels(test_path)
    train_ids = [id for id in store.ids if id in train]
    test_ids = [id for id in store.ids if id in test]
    k = report["chosen_k"]
    order, sorted_sims = _rankings(store, w, mode, test_ids, train_ids)
    counts = np.array([int(train[id]) for id in train_ids])
    preds = np.array([_knn_count(counts[row[:k]]) for row in order])
    truth = np.array([int(test[id]) for id in test_ids])
    fails = _differs(
        "count mae", report["mae"], float(np.abs(preds - truth).mean()),
        _near_tie(sorted_sims, k).mean() * (counts.max() - counts.min()),
    )
    loo = {int(kk): v for kk, v in report["loo_accuracy"].items()}
    if k != min(kk for kk, v in loo.items() if v == max(loo.values())):
        fails.append(f"count: chosen_k {k} is not the smallest k at the best LOO accuracy {loo}")
    return fails


def check_probe(out_dir) -> list[str]:
    """best_c is the smallest C among those tied at the top CV accuracy."""
    report = read_report(out_dir)
    cv = {float(c): v for c, v in report["cv_accuracy"].items()}
    best = max(cv.values())
    fails = []
    if report["best_c"] != min(c for c, v in cv.items() if v == best):
        fails.append(f"probe: best_c {report['best_c']} is not the smallest C at CV accuracy {best}")
    if not 0.0 <= report["val_accuracy"] <= 1.0:
        fails.append(f"probe: val_accuracy {report['val_accuracy']} outside [0, 1]")
    return fails


# ---------------------------------------------------------------------------
# dense heads
# ---------------------------------------------------------------------------


def _finite(name, metrics: dict) -> list[str]:
    bad = [k for k, v in metrics.items() if isinstance(v, float) and not math.isfinite(v)]
    return [f"{name}: non-finite {bad}"] if bad else []


def check_seg(out_dir, majority_rate: float) -> list[str]:
    """Pixel accuracy above the test targets' majority-class rate; finite."""
    report = read_report(out_dir)
    fails = _finite("seg", report)
    if not report["pixel_accuracy"] > majority_rate:
        fails.append(
            f"seg: pixel accuracy {report['pixel_accuracy']} not above the majority rate {majority_rate}"
        )
    if not 0.0 <= report["miou"] <= 1.0:
        fails.append(f"seg: miou {report['miou']} outside [0, 1]")
    return fails


def check_depth(out_dir) -> list[str]:
    """delta1 <= delta2 <= delta3 and every metric finite."""
    report = read_report(out_dir)
    fails = _finite("depth", report)
    if not report["delta1"] <= report["delta2"] <= report["delta3"]:
        fails.append(
            f"depth: deltas out of order {report['delta1']}, {report['delta2']}, {report['delta3']}"
        )
    return fails
