"""Span tracing of palign's public functions, installed from outside the package.

A `Tracer` replaces selected functions and methods of the palign modules with
wrappers that record one span per call: name, start, end, parent span and a
few call attributes. Spans stay in memory until the run ends. Nothing inside
palign is edited; every module that imported a wrapped function by name gets
the wrapper in its namespace too, so `palign.cli.load_store` is traced the same
as `palign.data.load_store`.

`layer_metrics` turns the spans of a run into the per-layer figures the
benchmark reports; `span_summary` gives count, total and self time per span
name. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# Calls of batch_loss_and_grads, counted per train_alignment call, whose
# allocation peak is taken with tracemalloc. The first step is left out as a
# warm-up; sampled steps are also left out of the step time median, since
# tracemalloc slows them down.
PEAK_SAMPLED_STEPS = (1, 2)


def _n(args, kwargs, pos, key):
    value = kwargs.get(key, args[pos] if len(args) > pos else None)
    return len(value) if value is not None else None


# (module, attribute path, span name, attributes taken from the call)
TARGETS = [
    ("palign.data", "generate_world", "data.generate_world", None),
    ("palign.data", "save_store", "data.save_store", None),
    ("palign.data", "load_store", "data.load_store", None),
    ("palign.data", "load_manifest", "data.load_manifest", None),
    ("palign.backbone", "StoreBackbone.feature_np", "backbone.feature_np",
     lambda a, k: {"id": a[1]}),
    ("palign.backbone", "load_adapters", "backbone.load_adapters", None),
    ("palign.alignment", "train_alignment", "alignment.train_alignment", None),
    ("palign.alignment", "batch_loss_and_grads", "alignment.batch_loss_and_grads", None),
    ("palign.alignment", "adam_step", "alignment.adam_step", None),
    ("palign.alignment", "mean_alignment_loss", "alignment.mean_alignment_loss", None),
    ("palign.alignment", "two_afc_accuracy", "alignment.two_afc_accuracy", None),
    ("palign.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("palign.retrieval", "build_index", "retrieval.build_index", None),
    ("palign.retrieval", "recall_at_k", "retrieval.recall_at_k",
     lambda a, k: {"n": _n(a, k, 1, "queries")}),
    ("palign.retrieval", "evaluate_rag", "retrieval.evaluate_rag",
     lambda a, k: {"n": _n(a, k, 2, "queries")}),
    ("palign.retrieval", "knn_count_eval", "retrieval.knn_count_eval", None),
    ("palign.retrieval", "linear_probe_classify", "retrieval.linear_probe_classify", None),
    # private, but the only place a single probe fit can be timed from outside
    ("palign.retrieval", "_fit_logistic", "retrieval.fit_logistic", None),
    ("palign.dense", "load_target", "dense.load_target", None),
    ("palign.dense", "train_linear_head", "dense.train_linear_head",
     lambda a, k: {"task": a[0], "epochs": a[3].epochs}),
    ("palign.dense", "eval_seg", "dense.eval_seg", None),
    ("palign.dense", "eval_depth", "dense.eval_depth", None),
]


class Tracer:
    """In-memory span recorder; `install` wraps TARGETS, `uninstall` undoes it."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._steps_in_training = 0

    # ---- recording ----------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else None
            if name == "alignment.train_alignment":
                tracer._steps_in_training = 0
            sample_peak = False
            if name == "alignment.batch_loss_and_grads":
                sample_peak = tracer._steps_in_training in PEAK_SAMPLED_STEPS
                tracer._steps_in_training += 1
                if sample_peak:
                    tracemalloc.start()
            index = tracer.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if sample_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.spans[index][4] = {"peak_bytes": peak}

        return wrapper

    def install(self) -> None:
        import palign.cli  # noqa: F401  (loads every palign module)

        for module_name, path, name, attrs_of in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, attrs_of))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name, attrs_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "palign" or mod_name.startswith("palign."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    The program is single-threaded, so children never overlap and their
    durations add up to the time they cover.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def span_summary(spans: list[list]) -> dict:
    """{name: {count, total_s, self_s}} over all spans."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        row = out.setdefault(s[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += self_s
    return out


def _ancestor_names(spans, index):
    names = set()
    parent = spans[index][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer figures of one traced run.

    Counts are per round. Times are medians per call unless the name says
    otherwise. Spans named `cli.*` and `setup` are opened by the benchmark
    itself around each command and set-up repetition. A layer the workload
    never reaches yields no entry.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def med(name, scale=1.0, keep=None):
        idx = [i for i in by_name.get(name, []) if keep is None or keep(i)]
        return statistics.median(dur(i) for i in idx) * scale if idx else None

    def total(name, keep=None):
        return sum(dur(i) for i in by_name.get(name, []) if keep is None or keep(i))

    def count(name, keep=None):
        return sum(1 for i in by_name.get(name, []) if keep is None or keep(i))

    def in_rounds(i):
        return "setup" not in _ancestor_names(spans, i)

    def in_training(i):
        return "alignment.train_alignment" in _ancestor_names(spans, i)

    def unsampled(i):
        return not (spans[i][4] and "peak_bytes" in spans[i][4])

    m: dict[str, float | None] = {}
    m["data.generate_world_s"] = med("data.generate_world")
    m["data.save_store_s"] = med("data.save_store")
    m["data.load_store_s"] = med("data.load_store", keep=in_rounds)
    m["data.load_store_calls"] = count("data.load_store", keep=in_rounds) / rounds
    m["data.load_manifest_s"] = total("data.load_manifest", keep=in_rounds) / rounds

    feature = [i for i in by_name.get("backbone.feature_np", []) if in_rounds(i)]
    m["backbone.feature_np_us"] = med("backbone.feature_np", 1e6, keep=in_rounds)
    m["backbone.feature_np_calls"] = len(feature) / rounds
    # waste ratio: calls over distinct ids, an id counted once per stretch of
    # unchanged adapters (spans are in start order; each Adam step opens a new
    # stretch, and no stretch crosses a command since every command starts
    # with its own adapters)
    stretch, seen = 0, set()
    for i, span in enumerate(spans):
        if span[0] == "alignment.adam_step" or span[0].startswith("cli."):
            stretch += 1
        elif span[0] == "backbone.feature_np" and in_rounds(i):
            seen.add((stretch, span[4]["id"]))
    m["backbone.feature_calls_per_id"] = len(feature) / len(seen) if seen else None
    m["backbone.load_adapters_ms"] = med("backbone.load_adapters", 1e3, keep=in_rounds)

    m["alignment.step_ms"] = med(
        "alignment.batch_loss_and_grads", 1e3, keep=lambda i: in_rounds(i) and unsampled(i)
    )
    m["alignment.steps"] = count("alignment.batch_loss_and_grads", keep=in_rounds) / rounds
    peaks = [
        spans[i][4]["peak_bytes"]
        for i in by_name.get("alignment.batch_loss_and_grads", [])
        if not unsampled(i)
    ]
    m["alignment.step_peak_mb"] = max(peaks) / 1e6 if peaks else None
    m["alignment.adam_us"] = med("alignment.adam_step", 1e6, keep=in_training)
    passes = count("alignment.mean_alignment_loss", keep=in_training)
    if passes:
        val_time = total("alignment.mean_alignment_loss", keep=in_training) + total(
            "alignment.two_afc_accuracy", keep=in_training
        )
        m["alignment.val_pass_s"] = val_time / passes

    m["autodiff.backward_ms"] = med("autodiff.backward", 1e3, keep=in_rounds)
    m["autodiff.backward_calls"] = count("autodiff.backward", keep=in_rounds) / rounds

    m["retrieval.build_index_ms"] = med("retrieval.build_index", 1e3, keep=in_rounds)
    for name, metric in (("retrieval.recall_at_k", "retrieval.recall_query_ms"),
                         ("retrieval.evaluate_rag", "retrieval.rag_query_ms")):
        idx = by_name.get(name, [])
        queries = sum(spans[i][4]["n"] for i in idx)
        if queries:
            m[metric] = sum(dur(i) for i in idx) / queries * 1e3
    if by_name.get("retrieval.knn_count_eval"):
        m["retrieval.knn_count_s"] = total("retrieval.knn_count_eval") / rounds
    if by_name.get("retrieval.linear_probe_classify"):
        m["retrieval.probe_s"] = total("retrieval.linear_probe_classify") / rounds
        m["retrieval.probe_fits"] = count("retrieval.fit_logistic") / rounds
        m["retrieval.probe_fit_ms"] = med("retrieval.fit_logistic", 1e3)

    m["dense.load_target_ms"] = med("dense.load_target", 1e3)
    for task in ("seg", "depth"):
        heads = [i for i in by_name.get("dense.train_linear_head", [])
                 if spans[i][4]["task"] == task and spans[i][4]["epochs"]]
        if heads:
            m[f"dense.{task}_epoch_s"] = statistics.median(
                dur(i) / spans[i][4]["epochs"] for i in heads
            )
    m["dense.eval_seg_ms"] = med("dense.eval_seg", 1e3)
    m["dense.eval_depth_ms"] = med("dense.eval_depth", 1e3)

    for name in sorted(by_name):
        if name.startswith("cli."):
            m[f"{name}_s"] = total(name) / rounds
    return {k: v for k, v in m.items() if v is not None}
