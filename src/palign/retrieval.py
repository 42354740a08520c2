"""Exact cosine retrieval and the retrieval-flavored evaluations.

Everything here is brute force on purpose: galleries are small enough that
an exact index (unit-normalized matrix, full dot products) is both the
simplest and the most trustworthy implementation. Ties in any ranking break
toward earlier insertion order so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "CosineIndex",
    "RecallReport",
    "CountDataset",
    "PromptBundle",
    "ProbeConfig",
    "ProbeResult",
    "build_index",
    "query_topk",
    "recall_at_k",
    "knn_count_eval",
    "select_rag_examples",
    "majority_label_oracle",
    "evaluate_rag",
    "linear_probe_classify",
]


@dataclass
class CosineIndex:
    """Immutable gallery of unit-normalized vectors plus aligned ids."""

    matrix: np.ndarray  # (n, d), rows unit norm
    ids: list[str]

    def __len__(self) -> int:
        return len(self.ids)


def build_index(vectors, ids) -> CosineIndex:
    ids = list(ids)
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise DataError(f"need one row per id: matrix {matrix.shape}, {len(ids)} ids")
    if len(set(ids)) != len(ids):
        raise DataError("gallery ids must be unique")
    norms = np.linalg.norm(matrix, axis=1)
    for i, n in enumerate(norms):
        if n == 0.0:
            raise DataError(f"zero-norm gallery vector for id {ids[i]!r}")
    return CosineIndex(matrix=matrix / norms[:, None], ids=ids)


def query_topk(
    index: CosineIndex, q: np.ndarray, k: int, exclude: set[str] | None = None
) -> list[tuple[str, float]]:
    """Exact top-k by cosine similarity; ties go to earlier insertion order."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    q = np.asarray(q, dtype=np.float64)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise DataError("zero-norm query vector")
    sims = index.matrix @ (q / qn)
    if exclude:
        keep = np.fromiter((id not in exclude for id in index.ids), dtype=bool, count=len(index))
        candidates = np.nonzero(keep)[0]
    else:
        candidates = np.arange(len(index))
    # stable sort on negated similarity preserves insertion order among ties
    order = candidates[np.argsort(-sims[candidates], kind="stable")]
    return [(index.ids[i], float(sims[i])) for i in order[:k]]


@dataclass
class RecallReport:
    ks: list[int]
    hits: dict[int, int]
    n_queries: int

    @property
    def rates(self) -> dict[int, float]:
        return {k: self.hits[k] / self.n_queries for k in self.ks}

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "recall": {str(k): self.hits[k] / self.n_queries for k in self.ks},
        }


def recall_at_k(
    index: CosineIndex,
    queries: dict[str, np.ndarray],
    ground_truth: dict[str, set[str]],
    ks,
) -> RecallReport:
    """A query scores a hit at k iff any of its truth ids is in the top-k.

    Queries present in the gallery are excluded from their own rankings.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise DataError("ks must be non-empty")
    if ks[0] < 1:
        raise DataError(f"k must be >= 1, got {ks[0]}")
    if not queries:
        raise DataError("queries must be non-empty")
    hits = {k: 0 for k in ks}
    k_max = max(ks)
    for qid, vec in queries.items():
        truth = ground_truth.get(qid)
        if not truth:
            raise DataError(f"query {qid!r} has an empty ground-truth set")
        top = query_topk(index, vec, k_max, exclude={qid})
        top_ids = [id for id, _ in top]
        for k in ks:
            if any(t in top_ids[:k] for t in truth):
                hits[k] += 1
    return RecallReport(ks=ks, hits=hits, n_queries=len(queries))


# ---------------------------------------------------------------------------
# kNN counting
# ---------------------------------------------------------------------------


@dataclass
class CountDataset:
    """Embeddings with integer count labels."""

    ids: list[str]
    counts: np.ndarray  # (n,) integers >= 0
    vectors: np.ndarray  # (n, d)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if len(self.ids) != len(self.counts) or len(self.ids) != len(self.vectors):
            raise DataError("ids, counts, and vectors must have equal length")
        if np.any(self.counts < 0):
            raise DataError("counts must be >= 0")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_store(cls, store, labels: dict[str, str], featurize) -> "CountDataset":
        ids = [id for id in store.ids if id in labels]
        if not ids:
            raise DataError("no labeled ids found in the store")
        try:
            counts = np.array([int(labels[id]) for id in ids])
        except ValueError as exc:
            raise DataError(f"count labels must be integers: {exc}") from None
        vectors = np.stack([featurize(id) for id in ids])
        return cls(ids=ids, counts=counts, vectors=vectors)


def _ranked(sims: np.ndarray) -> np.ndarray:
    """Each row's columns, most similar first, ties in column order: the
    stable argsort of the negated row. Negates `sims` in place."""
    return np.argsort(np.negative(sims, out=sims), axis=1, kind="stable")


def _vote(counts: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """The count each row of the (n, k) index array `neighbors` votes for: the
    most frequent of its neighbours' counts; when several tie as most frequent,
    the mean of all k counts rounded half-up.

    Each row's k counts are sorted and read off as runs of equal values, so
    memory stays O(n*k). The mean is taken over the sorted counts: integer
    sums are exact in float64, so the order does not change it.
    """
    votes = counts[neighbors]
    votes.sort(axis=1)
    n, k = votes.shape
    # int32 halves the (n, k) position array; k < n_train, far below 2**31
    pos = np.arange(k, dtype=np.int32)
    new_run = np.ones((n, k), dtype=bool)
    np.not_equal(votes[:, 1:], votes[:, :-1], out=new_run[:, 1:])
    # run_len[i, j]: the counts of row i up to position j that equal votes[i, j]
    run_len = np.where(new_run, pos, np.int32(0))
    np.maximum.accumulate(run_len, axis=1, out=run_len)
    np.subtract(pos + 1, run_len, out=run_len)
    rows = np.arange(n)
    last = run_len.argmax(axis=1)  # the end of the first longest run
    longest = run_len[rows, last]
    # a run of length L reaches each of 1..L once, so this counts the modes
    n_modes = np.count_nonzero(run_len == longest[:, None], axis=1)
    tie = np.floor(votes.mean(axis=1) + 0.5).astype(np.int64)
    return np.where(n_modes == 1, votes[rows, last], tie)


def knn_count_eval(train: CountDataset, test: CountDataset, ks=(1, 3, 5, 10)) -> dict:
    """Count prediction by k-nearest-neighbor vote over cosine similarity.

    k is selected by leave-one-out classification accuracy on the train
    split (smallest k wins ties) and then scored on the test split. Each
    similarity matrix is sorted once; the votes for every row and k are
    then taken as arrays.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise DataError("ks must be non-empty")
    if not len(train) or not len(test):
        raise DataError("train and test splits must be non-empty")
    for k in ks:
        # the leave-one-out vote must not reach the held-out item itself
        if not 1 <= k <= len(train) - 1:
            raise DataError(
                f"k must be in [1, {len(train) - 1}] for {len(train)} train items, got {k}"
            )
    index = build_index(train.vectors, train.ids)
    train_sims = index.matrix @ index.matrix.T
    np.fill_diagonal(train_sims, -np.inf)  # leave-one-out
    ranked = _ranked(train_sims)
    del train_sims  # frees n**2 floats before the (n, k) votes

    loo_accuracy = {}
    for k in ks:
        correct = np.count_nonzero(_vote(train.counts, ranked[:, :k]) == train.counts)
        loo_accuracy[k] = int(correct) / len(train)
    best = max(loo_accuracy.values())
    chosen_k = min(k for k in ks if loo_accuracy[k] == best)

    test_norms = np.linalg.norm(test.vectors, axis=1, keepdims=True)
    if np.any(test_norms == 0.0):
        bad = test.ids[int(np.argmin(test_norms))]
        raise DataError(f"zero-norm test vector for id {bad!r}")
    test_sims = (test.vectors / test_norms) @ index.matrix.T
    preds = _vote(train.counts, _ranked(test_sims)[:, :chosen_k])
    err = preds - test.counts
    return {
        "chosen_k": chosen_k,
        "loo_accuracy": {str(k): loo_accuracy[k] for k in ks},
        "mae": float(np.abs(err).mean()),
        "rmse": float(np.sqrt((err.astype(np.float64) ** 2).mean())),
    }


# ---------------------------------------------------------------------------
# retrieval-augmented prompting
# ---------------------------------------------------------------------------


@dataclass
class PromptBundle:
    """Nearest labeled examples for one query, most similar first."""

    query: str
    examples: list[dict]  # {"id", "label", "score"}

    def to_dict(self) -> dict:
        return {"query": self.query, "examples": self.examples}


def select_rag_examples(
    index: CosineIndex, query_id: str, query_vec: np.ndarray, labels: dict[str, str], k: int = 3
) -> PromptBundle:
    """Pick the query's k nearest labeled gallery items, excluding itself."""
    labeled = set(labels)
    pool = [id for id in index.ids if id in labeled and id != query_id]
    if len(pool) < k:
        raise DataError(f"need at least {k} labeled gallery items, have {len(pool)}")
    exclude = {id for id in index.ids if id not in labeled} | {query_id}
    top = query_topk(index, query_vec, k, exclude=exclude)
    examples = [{"id": id, "label": labels[id], "score": score} for id, score in top]
    return PromptBundle(query=query_id, examples=examples)


def majority_label_oracle(bundle: PromptBundle) -> str:
    """Stand-in for a downstream predictor: majority label of the examples,
    ties resolved toward the most similar example carrying a tied label."""
    tally: dict[str, int] = {}
    for ex in bundle.examples:
        tally[ex["label"]] = tally.get(ex["label"], 0) + 1
    top = max(tally.values())
    tied = {label for label, c in tally.items() if c == top}
    for ex in bundle.examples:  # examples are ordered most similar first
        if ex["label"] in tied:
            return ex["label"]
    raise AssertionError("unreachable: bundle has no examples")


def evaluate_rag(
    index: CosineIndex,
    gallery_labels: dict[str, str],
    queries: dict[str, np.ndarray],
    query_labels: dict[str, str],
    k: int = 3,
) -> dict:
    """Classification accuracy of `majority_label_oracle` fed retrieved example
    bundles."""
    if not queries:
        raise DataError("queries must be non-empty")
    bundles = []
    correct = 0
    for qid, vec in queries.items():
        bundle = select_rag_examples(index, qid, vec, gallery_labels, k)
        bundles.append(bundle)
        if majority_label_oracle(bundle) == query_labels[qid]:
            correct += 1
    return {"accuracy": correct / len(queries), "bundles": bundles}


# ---------------------------------------------------------------------------
# linear probe (multinomial logistic regression)
# ---------------------------------------------------------------------------


@dataclass
class ProbeConfig:
    """Settings of `linear_probe_classify`.

    Every fit minimizes mean NLL + lambda/2 * ||W||^2 with lambda = 1/(C n)
    and the bias unpenalized, by Newton-CG until the gradient norm is below
    `grad_tol`. Within each fold the fits walk `c_grid` upward, each
    warm-started from the previous C's solution. `max_iter` caps the Newton
    steps of one fit; a fit that reaches the cap raises DataError rather than
    return a truncated iterate.
    """

    c_grid: tuple = (1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    folds: int = 10
    max_iter: int = 300
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not self.c_grid or any(c <= 0 for c in self.c_grid):
            raise DataError("c_grid must be non-empty and positive")
        if self.folds < 2:
            raise DataError("folds must be >= 2")


@dataclass
class ProbeResult:
    best_c: float
    val_accuracy: float
    cv_accuracy: dict[float, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "best_c": self.best_c,
            "val_accuracy": self.val_accuracy,
            "cv_accuracy": {str(c): v for c, v in self.cv_accuracy.items()},
        }


# CG stops once its residual is below this share of the gradient norm, as in liblinear
CG_FORCING = 0.1


def _fit_logistic(
    x: np.ndarray, y: np.ndarray, n_classes: int, c: float, cfg: ProbeConfig, init=None
):
    """Newton-CG on the L2-regularized multinomial logistic objective (bias
    unpenalized), from `init` = (W, b) or from zero, to a gradient norm below
    `cfg.grad_tol`.

    Each Newton direction solves H s = -g by conjugate gradients on
    Hessian-vector products, with no dense Hessian, then a backtracking line
    search takes the step. H is singular along "add one constant to every
    bias"; CG started from the gradient stays in H's range, so it needs no
    special handling. Raises DataError after `cfg.max_iter` Newton steps, or
    when the line search finds no decrease.
    """
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])  # the bias is the last column of theta
    onehot = np.eye(n_classes)[y]
    penalty = np.full(d + 1, 1.0 / (c * n))
    penalty[-1] = 0.0
    if init is None:
        theta = np.zeros((n_classes, d + 1))
    else:
        theta = np.hstack([init[0], init[1][:, None]])
    rows = np.arange(n)

    def objective(theta):
        """Objective value and softmax probabilities at theta."""
        z = xa @ theta.T
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        norm = e.sum(axis=1)
        nll = (np.log(norm) - z[rows, y]).mean()
        return nll + 0.5 * (penalty * theta**2).sum(), e / norm[:, None]

    def hess_vec(probs, v):
        pz = probs * (xa @ v.T)
        r = pz - probs * pz.sum(axis=1, keepdims=True)
        return r.T @ xa / n + penalty * v

    f, probs = objective(theta)
    for newton_steps in range(cfg.max_iter + 1):
        grad = (probs - onehot).T @ xa / n + penalty * theta
        gnorm = np.sqrt((grad**2).sum())
        if gnorm < cfg.grad_tol:
            return theta[:, :d], theta[:, d]
        if newton_steps == cfg.max_iter:
            break
        step = np.zeros_like(theta)
        resid = -grad
        direction = resid.copy()
        rr = (resid**2).sum()
        for _ in range(theta.size):
            hd = hess_vec(probs, direction)
            curvature = (direction * hd).sum()
            if curvature <= 0.0:
                break
            alpha = rr / curvature
            step += alpha * direction
            resid -= alpha * hd
            rr_next = (resid**2).sum()
            if np.sqrt(rr_next) <= CG_FORCING * gnorm:
                break
            direction = resid + (rr_next / rr) * direction
            rr = rr_next
        slope = (grad * step).sum()
        t = 1.0
        while t > 1e-10:
            f_new, probs_new = objective(theta + t * step)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        theta = theta + t * step
        f, probs = f_new, probs_new
    raise DataError(
        f"probe fit at C={c:g} did not converge: gradient norm {gnorm:.3g} "
        f"after {newton_steps} Newton steps"
    )


def _predict_logistic(w, b, x):
    return np.argmax(x @ w.T + b, axis=1)


def _stratified_folds(y: np.ndarray, folds: int, rng) -> np.ndarray:
    """Fold assignment per sample, class-balanced, seeded."""
    assignment = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        idx = idx[rng.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def linear_probe_classify(
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: ProbeConfig,
) -> ProbeResult:
    """Cross-validated c search, then a full-train fit scored on validation.

    Within each fold the fits walk the C grid in ascending order, each
    warm-started from the previous solution; the full-train fit at the chosen
    C starts from zero. Ties in cross-validation accuracy resolve toward the
    smaller c.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if not len(train_y) or not len(val_y):
        raise DataError("probe train and val sets must be non-empty")
    classes = np.unique(np.concatenate([train_y, val_y]))
    n_classes = int(classes.max()) + 1
    if len(classes) < 2:
        raise DataError("probe needs at least 2 classes")
    counts = np.bincount(train_y, minlength=n_classes)
    smallest = counts[counts > 0].min()
    if smallest < config.folds:
        raise DataError(
            f"every class needs >= {config.folds} training members, smallest has {smallest}"
        )

    rng = np.random.default_rng(config.seed)
    assignment = _stratified_folds(train_y, config.folds, rng)
    # each fold walks the grid upward, every fit starting from the previous C's solution
    correct = dict.fromkeys(sorted(set(config.c_grid)), 0)
    for fold in range(config.folds):
        held = assignment == fold
        fit = None
        for c in correct:
            fit = _fit_logistic(train_x[~held], train_y[~held], n_classes, c, config, init=fit)
            correct[c] += int((_predict_logistic(*fit, train_x[held]) == train_y[held]).sum())
    cv_accuracy = {c: correct[c] / len(train_y) for c in config.c_grid}

    best = max(cv_accuracy.values())
    best_c = min(c for c in config.c_grid if cv_accuracy[c] == best)
    w, b = _fit_logistic(train_x, train_y, n_classes, best_c, config)
    val_accuracy = float((_predict_logistic(w, b, val_x) == val_y).mean())
    return ProbeResult(best_c=best_c, val_accuracy=val_accuracy, cv_accuracy=cv_accuracy)
