"""Exact-search oracles, counting, RAG selection, and the linear probe."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palign.errors import DataError
from palign.retrieval import (
    CountDataset,
    _fit_logistic,
    _vote,
    _stratified_folds,
    ProbeConfig,
    PromptBundle,
    build_index,
    evaluate_rag,
    knn_count_eval,
    linear_probe_classify,
    majority_label_oracle,
    query_topk,
    recall_at_k,
    select_rag_examples,
)


class TestBuildIndex:
    def test_unit_vectors_unchanged(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        index = build_index(v, ["a", "b"])
        np.testing.assert_array_equal(index.matrix, v)

    def test_normalization(self):
        index = build_index(np.array([[3.0, 4.0]]), ["a"])
        np.testing.assert_allclose(index.matrix, [[0.6, 0.8]])

    def test_zero_vector_names_id(self):
        with pytest.raises(DataError, match="bad_row"):
            build_index(np.array([[1.0, 0.0], [0.0, 0.0]]), ["ok", "bad_row"])

    def test_duplicate_ids(self):
        with pytest.raises(DataError, match="unique"):
            build_index(np.eye(2), ["x", "x"])


class TestQueryTopk:
    def test_exact_match_first(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(20, 8))
        index = build_index(vectors, [f"g{i}" for i in range(20)])
        top = query_topk(index, vectors[7], k=3)
        assert top[0][0] == "g7"
        assert top[0][1] == pytest.approx(1.0)

    def test_k_larger_than_gallery(self):
        index = build_index(np.eye(3), ["a", "b", "c"])
        top = query_topk(index, np.array([1.0, 0.1, 0.0]), k=10)
        assert len(top) == 3
        assert top[0][0] == "a"

    def test_full_sort_oracle(self):
        # oracle: rank the entire gallery by explicitly computed cosine
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(500, 16))
        ids = [f"v{i}" for i in range(500)]
        index = build_index(vectors, ids)
        q = rng.normal(size=16)
        got = [id for id, _ in query_topk(index, q, k=10)]

        qn = q / np.linalg.norm(q)
        sims = [(float((v / np.linalg.norm(v)) @ qn), i) for i, v in enumerate(vectors)]
        expected = [ids[i] for _, i in sorted(sims, key=lambda t: (-t[0], t[1]))[:10]]
        assert got == expected

    def test_exclusion(self):
        index = build_index(np.eye(4), list("abcd"))
        top = query_topk(index, np.array([1.0, 0, 0, 0]), k=4, exclude={"a"})
        assert [id for id, _ in top][0] != "a"
        assert len(top) == 3

    def test_tie_break_by_insertion_order(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        index = build_index(v, ["first", "second", "other"])
        top = query_topk(index, np.array([1.0, 0.0]), k=2)
        assert [id for id, _ in top] == ["first", "second"]

    def test_zero_query(self):
        index = build_index(np.eye(2), ["a", "b"])
        with pytest.raises(DataError, match="zero-norm"):
            query_topk(index, np.zeros(2), k=1)

    def test_scale_invariance_of_ranking(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(50, 6))
        ids = [f"v{i}" for i in range(50)]
        q = rng.normal(size=6)
        a = query_topk(build_index(vectors, ids), q, k=10)
        b = query_topk(build_index(vectors * 7.3, ids), q * 7.3, k=10)
        assert [x[0] for x in a] == [x[0] for x in b]


def tied_gallery(rng, n=60, d=4):
    """A gallery whose rows repeat a few directions, so rankings are full of ties."""
    vectors = rng.integers(-1, 2, size=(n // 4, d)).astype(np.float64)
    vectors[np.all(vectors == 0, axis=1)] = 1.0
    vectors = np.concatenate([vectors] * 4)[rng.permutation(n)]
    ids = [f"g{i}" for i in range(n)]
    return build_index(vectors, ids), ids, vectors


def oracle_ranking(index, q, skip=()):
    """Gallery ids by decreasing cosine, ties by insertion order, `skip` left out:
    a full sort of (-similarity, row) pairs."""
    sims = index.matrix @ (q / np.linalg.norm(q))
    pairs = sorted((-s, i) for i, s in enumerate(sims) if index.ids[i] not in skip)
    return [index.ids[i] for _, i in pairs]


class TestRecall:
    def make_index(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(30, 8))
        return build_index(vectors, [f"g{i}" for i in range(30)]), vectors

    def test_truth_is_top1(self):
        index, vectors = self.make_index()
        report = recall_at_k(index, {"q": vectors[4]}, {"q": {"g4"}}, ks=[1, 3, 5])
        assert report.rates == {1: 1.0, 3: 1.0, 5: 1.0}

    def test_truth_absent(self):
        index, vectors = self.make_index()
        report = recall_at_k(index, {"q": vectors[0]}, {"q": {"missing"}}, ks=[1, 5])
        assert report.rates == {1: 0.0, 5: 0.0}

    def test_rates_monotone_in_k(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(100, 8))
        index = build_index(vectors, [f"g{i}" for i in range(100)])
        queries = {f"q{i}": rng.normal(size=8) for i in range(40)}
        truth = {q: {f"g{rng.integers(100)}"} for q in queries}
        report = recall_at_k(index, queries, truth, ks=[1, 3, 5, 10, 50])
        rates = [report.rates[k] for k in report.ks]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_empty_truth_rejected(self):
        index, vectors = self.make_index()
        with pytest.raises(DataError, match="empty ground-truth"):
            recall_at_k(index, {"q": vectors[0]}, {"q": set()}, ks=[1])

    def test_query_in_gallery_excluded(self):
        index, vectors = self.make_index()
        report = recall_at_k(index, {"g4": vectors[4]}, {"g4": {"g5"}}, ks=[1])
        top = query_topk(index, vectors[4], k=1, exclude={"g4"})
        assert report.rates[1] == (1.0 if top[0][0] == "g5" else 0.0)

    def test_hits_match_a_full_sort_oracle(self):
        index, ids, vectors = tied_gallery(np.random.default_rng(5))
        queries = {ids[i]: vectors[i] for i in range(0, 60, 3)}  # in the gallery
        queries |= {f"q{i}": vectors[i] + 0.5 for i in range(10)}  # not in it
        truth = {q: {ids[(7 * i) % 60], ids[(11 * i + 1) % 60]} for i, q in enumerate(queries)}
        ks = [1, 2, 5, 10]
        report = recall_at_k(index, queries, truth, ks=ks)
        expected = {k: 0 for k in ks}
        for qid, vec in queries.items():
            ranked = oracle_ranking(index, vec, skip={qid})
            for k in ks:
                expected[k] += any(t in ranked[:k] for t in truth[qid])
        assert report.hits == expected


def direction_coded_counts(rng, n_per_count=20, counts=range(1, 11), noise=0.01):
    """Counts encoded as directions on an arc; cosine neighbors share counts."""
    ids, labels, vectors = [], [], []
    for c in counts:
        theta = 0.15 * c
        for j in range(n_per_count):
            vec = np.array(
                [np.cos(theta), np.sin(theta), 0.0]
            ) + noise * rng.normal(size=3)
            ids.append(f"c{c}_{j}")
            labels.append(c)
            vectors.append(vec)
    return ids, np.array(labels), np.stack(vectors)


def knn_loo_oracle(vectors, counts, ks):
    """Brute-force leave-one-out accuracy per k, python loops throughout."""
    n = len(counts)
    unit = [v / np.linalg.norm(v) for v in vectors]
    acc = {}
    for k in ks:
        correct = 0
        for i in range(n):
            sims = [(float(unit[i] @ unit[j]), j) for j in range(n) if j != i]
            sims.sort(key=lambda t: (-t[0], t[1]))
            neigh = [counts[j] for _, j in sims[:k]]
            values, freq = np.unique(neigh, return_counts=True)
            modes = values[freq == freq.max()]
            pred = int(modes[0]) if len(modes) == 1 else int(np.floor(np.mean(neigh) + 0.5))
            correct += pred == counts[i]
        acc[k] = correct / n
    return acc


def reference_majority_count(neighbor_counts: np.ndarray) -> int:
    """The per-row vote that `_vote` replaced: most frequent count; on a tie,
    the mean count rounded half-up."""
    values, freq = np.unique(neighbor_counts, return_counts=True)
    top = freq.max()
    modes = values[freq == top]
    if len(modes) == 1:
        return int(modes[0])
    return int(np.floor(neighbor_counts.mean() + 0.5))


def reference_knn_predict(sims_row: np.ndarray, counts: np.ndarray, k: int) -> int:
    order = np.argsort(-sims_row, kind="stable")[:k]
    return reference_majority_count(counts[order])


def reference_knn_count_eval(train: CountDataset, test: CountDataset, ks) -> dict:
    """knn_count_eval as it was before its vote took all rows at once: one
    sort and one vote per row and k."""
    ks = sorted(set(int(k) for k in ks))
    index = build_index(train.vectors, train.ids)
    train_sims = index.matrix @ index.matrix.T
    np.fill_diagonal(train_sims, -np.inf)
    loo_accuracy = {}
    for k in ks:
        correct = sum(
            reference_knn_predict(train_sims[i], train.counts, k) == train.counts[i]
            for i in range(len(train))
        )
        loo_accuracy[k] = correct / len(train)
    best = max(loo_accuracy.values())
    chosen_k = min(k for k in ks if loo_accuracy[k] == best)
    test_norms = np.linalg.norm(test.vectors, axis=1, keepdims=True)
    test_sims = (test.vectors / test_norms) @ index.matrix.T
    preds = np.array(
        [reference_knn_predict(test_sims[i], train.counts, chosen_k) for i in range(len(test))]
    )
    err = preds - test.counts
    return {
        "chosen_k": chosen_k,
        "loo_accuracy": {str(k): loo_accuracy[k] for k in ks},
        "mae": float(np.abs(err).mean()),
        "rmse": float(np.sqrt((err.astype(np.float64) ** 2).mean())),
    }


def tie_heavy_counts(rng, n: int, d: int, values) -> CountDataset:
    """Small-integer vectors, so many cosine similarities tie exactly, with
    counts drawn from `values`."""
    vectors = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    vectors[~vectors.any(axis=1), 0] = 1.0  # no zero-norm rows
    counts = rng.choice(np.asarray(values), size=n)
    return CountDataset(ids=[f"x{i}" for i in range(n)], counts=counts, vectors=vectors)


class TestKnnVoteOracle:
    """knn_count_eval's array vote against the per-row vote it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 30),
        d=st.integers(1, 3),
        values=st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**16),
    )
    def test_report_matches_reference(self, data, n, d, values, seed):
        rng = np.random.default_rng(seed)
        train = tie_heavy_counts(rng, n, d, values)
        test = tie_heavy_counts(rng, data.draw(st.integers(1, 8)), d, values)
        ks = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
        assert knn_count_eval(train, test, ks) == reference_knn_count_eval(train, test, ks)

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 12),
        values=st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**16),
    )
    def test_vote_matches_reference_with_negative_counts(self, k, values, seed):
        # rows of 1-3 distinct counts, negative ones too: the tie mean rounds
        # half-up, toward +inf, for every sign
        rng = np.random.default_rng(seed)
        counts = rng.choice(np.asarray(values), size=20)
        neighbors = rng.integers(0, 20, size=(16, k))
        expected = [reference_majority_count(counts[row]) for row in neighbors]
        assert _vote(counts, neighbors).tolist() == expected

    def test_every_k_up_to_n_minus_one(self):
        rng = np.random.default_rng(3)
        train = tie_heavy_counts(rng, 12, 2, [1, 2, 3])
        test = tie_heavy_counts(rng, 5, 2, [1, 2, 3])
        ks = range(1, 12)
        assert knn_count_eval(train, test, ks) == reference_knn_count_eval(train, test, ks)

    def test_largest_k_memory_is_linear_in_n_times_k(self):
        # n=1,500 and k=1,499: an (n, k, k) equality cube would take 3.4 GB;
        # the (n, n) similarities and rankings alone take 18 MB each
        rng = np.random.default_rng(4)
        train = tie_heavy_counts(rng, 1500, 3, [0, 1, 2])
        test = tie_heavy_counts(rng, 10, 3, [0, 1, 2])
        tracemalloc.start()
        try:
            out = knn_count_eval(train, test, ks=[1, 1499])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert out == reference_knn_count_eval(train, test, ks=[1, 1499])


class TestKnnCount:
    def test_identical_item_k1(self):
        train = CountDataset(
            ids=["a", "b"], counts=[7, 3], vectors=np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        test = CountDataset(ids=["q"], counts=[7], vectors=np.array([[1.0, 0.0]]))
        out = knn_count_eval(train, test, ks=[1])
        assert out["chosen_k"] == 1
        assert out["mae"] == 0.0 and out["rmse"] == 0.0

    def test_constant_train_counts(self):
        rng = np.random.default_rng(5)
        train = CountDataset(
            ids=[f"t{i}" for i in range(10)],
            counts=[4] * 10,
            vectors=rng.normal(size=(10, 4)),
        )
        test = CountDataset(
            ids=["q1", "q2"], counts=[1, 9], vectors=rng.normal(size=(2, 4))
        )
        out = knn_count_eval(train, test, ks=[1, 3])
        assert out["mae"] == pytest.approx(np.mean([abs(1 - 4), abs(9 - 4)]))

    def test_direction_coded_counts_and_oracle(self):
        rng = np.random.default_rng(6)
        ids, counts, vectors = direction_coded_counts(rng)
        split = rng.permutation(len(ids))
        tr, te = split[:150], split[150:]
        train = CountDataset(
            ids=[ids[i] for i in tr], counts=counts[tr], vectors=vectors[tr]
        )
        test = CountDataset(
            ids=[ids[i] for i in te], counts=counts[te], vectors=vectors[te]
        )
        ks = [1, 3, 5, 10]
        out = knn_count_eval(train, test, ks=ks)
        assert out["mae"] < 0.1

        oracle_acc = knn_loo_oracle(train.vectors, train.counts, ks)
        best = max(oracle_acc.values())
        oracle_k = min(k for k in ks if oracle_acc[k] == best)
        assert out["chosen_k"] == oracle_k
        for k in ks:
            assert out["loo_accuracy"][str(k)] == pytest.approx(oracle_acc[k])

    def test_scale_invariance_of_chosen_k(self):
        rng = np.random.default_rng(7)
        ids, counts, vectors = direction_coded_counts(rng, n_per_count=8)
        train = CountDataset(ids=ids, counts=counts, vectors=vectors)
        test = CountDataset(ids=["q"], counts=[5], vectors=vectors[40:41] + 0.001)
        a = knn_count_eval(train, test)
        scaled_train = CountDataset(ids=ids, counts=counts, vectors=vectors * 7.3)
        b = knn_count_eval(scaled_train, test)
        assert a["chosen_k"] == b["chosen_k"]
        assert a["mae"] == b["mae"]

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_leave_one_out_range(self, k):
        # with 4 train items, k = 4 would let the held-out item vote for itself
        train = CountDataset(ids=list("abcd"), counts=[1, 1, 2, 2], vectors=np.eye(4))
        test = CountDataset(ids=["q"], counts=[1], vectors=np.ones((1, 4)))
        assert knn_count_eval(train, test, ks=[1, 3])["chosen_k"] in (1, 3)
        with pytest.raises(DataError, match=r"k must be in \[1, 3\]"):
            knn_count_eval(train, test, ks=[1, k])

    def test_empty_split(self):
        train = CountDataset(ids=["a"], counts=[1], vectors=np.array([[1.0]]))
        with pytest.raises(DataError):
            knn_count_eval(train, CountDataset(ids=[], counts=[], vectors=np.zeros((0, 1))))


class TestRagSelection:
    def make_world(self):
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(10, 6))
        ids = [f"g{i}" for i in range(10)]
        labels = {id: ("even" if i % 2 == 0 else "odd") for i, id in enumerate(ids)}
        return build_index(vectors, ids), vectors, labels

    def test_exactly_k_items(self):
        index = build_index(np.eye(3), ["a", "b", "c"])
        labels = {"a": "x", "b": "y", "c": "z"}
        bundle = select_rag_examples(index, "q", np.array([1.0, 0.5, 0.2]), labels, k=3)
        assert [e["id"] for e in bundle.examples] == ["a", "b", "c"]
        scores = [e["score"] for e in bundle.examples]
        assert scores == sorted(scores, reverse=True)

    def test_query_excluded_from_own_bundle(self):
        index, vectors, labels = self.make_world()
        bundle = select_rag_examples(index, "g4", vectors[4], labels, k=3)
        assert all(e["id"] != "g4" for e in bundle.examples)

    def test_insufficient_labeled_gallery(self):
        index = build_index(np.eye(3), ["a", "b", "c"])
        with pytest.raises(DataError, match="labeled"):
            select_rag_examples(index, "q", np.ones(3), {"a": "x", "b": "y"}, k=3)

    def test_unlabeled_items_never_selected(self):
        index, vectors, labels = self.make_world()
        partial = {k: v for k, v in labels.items() if k not in ("g0", "g1")}
        bundle = select_rag_examples(index, "q", vectors[0], partial, k=3)
        assert all(e["id"] not in ("g0", "g1") for e in bundle.examples)

    def test_bundles_match_a_full_sort_oracle(self):
        index, ids, vectors = tied_gallery(np.random.default_rng(6))
        labels = {id: f"l{i % 3}" for i, id in enumerate(ids) if i % 5}  # some unlabeled
        queries = {ids[i]: vectors[i] for i in range(0, 60, 4)}  # labeled and unlabeled
        queries |= {f"q{i}": vectors[i] + 0.5 for i in range(10)}
        result = evaluate_rag(index, labels, queries, {q: "l0" for q in queries}, k=4)
        unlabeled = {id for id in ids if id not in labels}
        for bundle, (qid, vec) in zip(result["bundles"], queries.items()):
            expected = oracle_ranking(index, vec, skip=unlabeled | {qid})[:4]
            assert bundle.query == qid
            assert [e["id"] for e in bundle.examples] == expected
            assert bundle == select_rag_examples(index, qid, vec, labels, k=4)

    def test_majority_oracle_tie_break(self):
        bundle = PromptBundle(
            query="q",
            examples=[
                {"id": "a", "label": "cat", "score": 0.9},
                {"id": "b", "label": "dog", "score": 0.8},
                {"id": "c", "label": "dog", "score": 0.7},
                {"id": "d", "label": "cat", "score": 0.6},
            ],
        )
        assert majority_label_oracle(bundle) == "cat"  # tie, most similar wins

    def test_aligned_space_beats_scrambled(self):
        # clustered latents plus one class-independent nuisance coordinate;
        # the base space amplifies the nuisance, the aligned space mutes it
        rng = np.random.default_rng(9)
        f = 6
        centers = rng.normal(size=(4, f))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        latents, labels_list = [], []
        for i in range(160):
            k = int(rng.integers(4))
            z = centers[k] + 0.22 * rng.normal(size=f)
            latents.append(z / np.linalg.norm(z))
            labels_list.append(f"cls{k}")
        latents = np.stack(latents)
        nuisance = rng.normal(size=(160, 3))
        aligned_vecs = np.hstack([latents, 0.1 * nuisance])
        base_vecs = np.hstack([latents, 2.5 * nuisance])

        ids = [f"p{i}" for i in range(160)]
        gal, qry = np.arange(80), np.arange(80, 160)
        labels = {ids[i]: labels_list[i] for i in gal}
        qlabels = {ids[i]: labels_list[i] for i in qry}

        def accuracy(space):
            index = build_index(space[gal], [ids[i] for i in gal])
            queries = {ids[i]: space[i] for i in qry}
            return evaluate_rag(index, labels, queries, qlabels, k=3)["accuracy"]

        acc_aligned, acc_base = accuracy(aligned_vecs), accuracy(base_vecs)
        assert acc_aligned >= acc_base + 0.15


def blobs(rng, n_per_class, n_classes, d, spread=0.3):
    centers = rng.normal(size=(n_classes, d)) * 3.0
    xs, ys = [], []
    for k in range(n_classes):
        xs.append(centers[k] + spread * rng.normal(size=(n_per_class, d)))
        ys.append(np.full(n_per_class, k))
    return np.concatenate(xs), np.concatenate(ys)


class TestLinearProbe:
    def test_separable_blobs(self):
        rng = np.random.default_rng(10)
        x, y = blobs(rng, 60, 2, 6)
        perm = rng.permutation(len(y))
        x, y = x[perm], y[perm]
        result = linear_probe_classify(
            x[:80], y[:80], x[80:], y[80:], ProbeConfig(folds=5, seed=1)
        )
        assert result.val_accuracy >= 0.99

    def test_null_labels(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(700, 8))
        y = rng.integers(0, 2, size=700)
        result = linear_probe_classify(
            x[:200], y[:200], x[200:], y[200:], ProbeConfig(folds=5, max_iter=150, seed=2)
        )
        assert abs(result.val_accuracy - 0.5) <= 0.05

    def test_reference_c_grid(self):
        cfg = ProbeConfig()
        assert cfg.c_grid == (1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
        assert cfg.folds == 10

    def test_tie_goes_to_smaller_c(self):
        rng = np.random.default_rng(12)
        x, y = blobs(rng, 40, 2, 4, spread=0.1)  # trivially separable: all c tie
        result = linear_probe_classify(
            x, y, x[:10], y[:10], ProbeConfig(c_grid=(1.0, 10.0, 100.0), folds=4, seed=3)
        )
        ties = {c for c, acc in result.cv_accuracy.items() if acc == max(result.cv_accuracy.values())}
        assert result.best_c == min(ties)

    def test_class_smaller_than_folds_rejected(self):
        x = np.random.default_rng(13).normal(size=(12, 3))
        y = np.array([0] * 9 + [1] * 3)
        with pytest.raises(DataError, match="training members"):
            linear_probe_classify(x, y, x, y, ProbeConfig(folds=5))

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"max_iter": -1}, "max_iter must be >= 0, got -1"),
            ({"grad_tol": 0.0}, "grad_tol must be > 0, got 0.0"),
            ({"grad_tol": float("nan")}, "grad_tol must be > 0, got nan"),
            ({"grad_tol": float("inf")}, "grad_tol must be finite, got inf"),
            ({"c_grid": (float("nan"),)}, "c_grid must be non-empty and positive"),
            ({"c_grid": (1.0, float("inf"))}, r"c_grid values must be finite, got \(1.0, inf\)"),
        ],
        ids=["max-iter-neg", "grad-tol-0", "grad-tol-nan", "grad-tol-inf", "c-nan", "c-inf"],
    )
    def test_bad_settings_rejected(self, fields, message):
        with pytest.raises(DataError, match=message):
            ProbeConfig(**fields)

    def test_empty_train_rejected(self):
        x = np.random.default_rng(13).normal(size=(4, 3))
        y = np.array([0, 0, 1, 1])
        with pytest.raises(DataError, match="non-empty"):
            linear_probe_classify(x[:0], y[:0], x, y, ProbeConfig(folds=2))

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        x, y = blobs(rng, 30, 3, 5, spread=1.0)
        cfg = ProbeConfig(c_grid=(1.0, 10.0), folds=3, seed=7, max_iter=100)
        r1 = linear_probe_classify(x[:60], y[:60], x[60:], y[60:], cfg)
        r2 = linear_probe_classify(x[:60], y[:60], x[60:], y[60:], cfg)
        assert r1 == r2


def probe_objective(x, y, n_classes, c, w, b):
    """The probe's objective and its gradient norm, written out apart from the solver."""
    n = len(y)
    lam = 1.0 / (c * n)
    z = x @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    probs = np.exp(z - log_norm[:, None])
    diff = probs - np.eye(n_classes)[y]
    gw = diff.T @ x / n + lam * w
    gb = diff.mean(axis=0)
    value = (log_norm - z[np.arange(n), y]).mean() + 0.5 * lam * (w**2).sum()
    return value, np.sqrt((gw**2).sum() + (gb**2).sum())


def gradient_descent_reference(x, y, n_classes, c, steps=20_000):
    """Plain gradient descent at step 1/L, L a bound on the objective's curvature."""
    n, d = x.shape
    lam = 1.0 / (c * n)
    xa = np.hstack([x, np.ones((n, 1))])
    # softmax curvature is at most 1/2 per unit of the data's second moment
    lipschitz = 0.5 * np.linalg.eigvalsh(xa.T @ xa / n).max() + lam
    w, b = np.zeros((n_classes, d)), np.zeros(n_classes)
    onehot = np.eye(n_classes)[y]
    for _ in range(steps):
        z = x @ w.T + b
        z -= z.max(axis=1, keepdims=True)
        probs = np.exp(z)
        probs /= probs.sum(axis=1, keepdims=True)
        diff = probs - onehot
        w = w - (diff.T @ x / n + lam * w) / lipschitz
        b = b - diff.mean(axis=0) / lipschitz
    return w, b


def predict(w, b, x):
    return np.argmax(x @ w.T + b, axis=1)


class TestProbeSolver:
    @pytest.mark.parametrize("spread", [0.3, 2.5], ids=["separable", "noisy"])
    def test_every_fit_meets_the_gradient_tolerance(self, spread):
        rng = np.random.default_rng(20)
        x, y = blobs(rng, 30, 3, 5, spread=spread)
        cfg = ProbeConfig()
        fit = None
        for c in cfg.c_grid:
            for init in (None, fit):
                w, b = _fit_logistic(x, y, 3, c, cfg, init=init)
                assert probe_objective(x, y, 3, c, w, b)[1] < cfg.grad_tol, (c, init is None)
            fit = (w, b)

    @pytest.mark.parametrize("c", [1.0, 10.0])
    def test_agrees_with_gradient_descent(self, c):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(60, 3))  # three overlapping classes of a noisy linear rule
        y = (x @ rng.normal(size=(3, 3)) + rng.normal(size=(60, 3))).argmax(axis=1)
        w, b = _fit_logistic(x, y, 3, c, ProbeConfig())
        w_ref, b_ref = gradient_descent_reference(x, y, 3, c)
        value, _ = probe_objective(x, y, 3, c, w, b)
        value_ref, gnorm_ref = probe_objective(x, y, 3, c, w_ref, b_ref)
        assert gnorm_ref < 1e-9  # the reference itself converged
        assert abs(value - value_ref) < 1e-8
        grid = rng.normal(size=(500, 3)) * 4.0
        np.testing.assert_array_equal(predict(w, b, x), predict(w_ref, b_ref, x))
        np.testing.assert_array_equal(predict(w, b, grid), predict(w_ref, b_ref, grid))

    def test_warm_and_cold_starts_predict_alike(self):
        rng = np.random.default_rng(22)
        x, y = blobs(rng, 25, 3, 6, spread=2.0)
        cfg = ProbeConfig(folds=5, seed=4)
        assignment = _stratified_folds(y, cfg.folds, np.random.default_rng(cfg.seed))
        for fold in range(cfg.folds):
            held = assignment == fold
            warm = None
            for c in cfg.c_grid:
                warm = _fit_logistic(x[~held], y[~held], 3, c, cfg, init=warm)
                cold = _fit_logistic(x[~held], y[~held], 3, c, cfg)
                np.testing.assert_array_equal(predict(*warm, x[held]), predict(*cold, x[held]))

    def test_step_cap_raises(self):
        rng = np.random.default_rng(23)
        x, y = blobs(rng, 20, 2, 4, spread=1.0)
        with pytest.raises(DataError, match=r"probe fit at C=1 did not converge: gradient norm"):
            linear_probe_classify(x, y, x, y, ProbeConfig(c_grid=(1.0,), folds=2, max_iter=1))

    def test_class_absent_from_train_converges(self):
        rng = np.random.default_rng(24)
        x, y = blobs(rng, 30, 3, 4, spread=1.0)
        train = y < 2  # class 2 shows up in val only
        cfg = ProbeConfig(c_grid=(1.0, 100.0, 1e4), folds=3, seed=5)
        result = linear_probe_classify(x[train], y[train], x, y, cfg)
        assert result.val_accuracy <= 2 / 3 + 1e-12  # no fit predicts the absent class
        w, b = _fit_logistic(x[train], y[train], 3, 1e4, cfg)
        assert probe_objective(x[train], y[train], 3, 1e4, w, b)[1] < cfg.grad_tol
        assert np.all(predict(w, b, x) != 2)


@st.composite
def fold_problems(draw):
    """Blob problems of 2-5 classes split into 2-10 folds; with `absent`, the
    solver gets one class more than the labels hold."""
    present = draw(st.integers(2, 4))
    absent = draw(st.booleans())
    folds = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x, y = blobs(rng, folds + draw(st.integers(0, 8)), present, draw(st.integers(2, 8)),
                 spread=draw(st.sampled_from([0.3, 1.0, 2.5])))
    held = _stratified_folds(y, folds, rng) == np.arange(folds)[:, None]
    return x, y, present + absent, held


class TestBatchedFolds:
    """One batched solve of every fold against F = 1 fits of the same rows."""

    @settings(max_examples=25, deadline=None)
    @given(fold_problems())
    def test_each_fold_is_a_converged_single_fit(self, problem):
        x, y, k, held = problem
        cfg = ProbeConfig()
        fit = None
        for c in (1.0, 1e2, 1e4):  # each batch warm-started from the previous C's
            init = fit
            w, b = fit = _fit_logistic(x, y, k, c, cfg, init=init, held=held)
            for f, out in enumerate(held):
                rows = ~out
                value, gnorm = probe_objective(x[rows], y[rows], k, c, w[:, f], b[:, f])
                assert gnorm < cfg.grad_tol
                start = None if init is None else (init[0][:, f], init[1][:, f])
                w1, b1 = _fit_logistic(x[rows], y[rows], k, c, cfg, init=start)
                value1, gnorm1 = probe_objective(x[rows], y[rows], k, c, w1, b1)
                # the gradient tolerance fixes the objective only up to what
                # convexity gives, f(a) - f(b) <= |grad f(a)| |a - b|: along
                # flat directions (large C, a class absent) the two may stop
                # a Newton step apart, up to ~1e-7 apart in objective
                dist = np.sqrt(((w[:, f] - w1) ** 2).sum() + ((b[:, f] - b1) ** 2).sum())
                assert abs(value - value1) <= max(gnorm, gnorm1) * dist + 1e-12
                if c <= 1e2:  # at C = 1e4 that gap can flip a held row's class
                    np.testing.assert_array_equal(
                        predict(w[:, f], b[:, f], x[out]), predict(w1, b1, x[out])
                    )

    @settings(max_examples=25, deadline=None)
    @given(fold_problems(), st.integers(0, 2))
    def test_step_cap_names_the_worst_fold(self, problem, max_iter):
        x, y, k, held = problem
        cfg = ProbeConfig(max_iter=max_iter)
        norms = []
        for out in held:
            try:
                _fit_logistic(x[~out], y[~out], k, 1e4, cfg)
            except DataError as exc:
                norms.append(float(str(exc).split("gradient norm ")[1].split()[0]))
        if not norms:
            _fit_logistic(x, y, k, 1e4, cfg, held=held)
            return
        message = (f"probe fit at C=10000 did not converge: gradient norm {max(norms):.3g} "
                   f"after {max_iter} Newton steps")
        with pytest.raises(DataError) as info:
            _fit_logistic(x, y, k, 1e4, cfg, held=held)
        assert str(info.value) == message
