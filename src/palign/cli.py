"""Command-line pipeline: dataset synthesis, alignment, and evaluations.

Every command writes, under --out: report.json (config, config hash, seed,
metrics, wall time), resolved_config.json, optional metrics.csv, and its
own artifacts (stores, manifests, adapter checkpoints, history). Reports
are byte-reproducible given identical flags and seed, except the wall_time_s
field.

Each parser's settings are declared once, in OPTIONS, and every eval task
is a parser of its own: the argparse flags and the --config file loader are
both built from that table, so a value means the same whether it comes from
a flag or a file, and a setting the task does not read is an error.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .alignment import AlignmentConfig, train_alignment, two_afc_accuracy
from .backbone import FeatureMode, StoreBackbone, load_adapters, save_adapters
from .data import (
    SyntheticFactorSpec,
    TripletManifest,
    generate_world,
    load_labels,
    load_manifest,
    load_store,
    read_text,
    save_labels,
    save_manifest,
    save_store,
    split_manifest,
)
from .dense import (
    DEPTH_BATCH_SIZE,
    DepthBinning,
    HeadHyper,
    eval_depth,
    eval_seg,
    load_target,
    train_linear_head,
)
from .errors import DataError, PalignError
from .retrieval import (
    CountDataset,
    ProbeConfig,
    build_index,
    evaluate_rag,
    knn_count_eval,
    linear_probe_classify,
    recall_at_k,
)

# ---------------------------------------------------------------------------
# option declarations
# ---------------------------------------------------------------------------


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _floats(text: str) -> list[float]:
    return [finite(tok) for tok in text.split(",") if tok]


# Integer settings are parsed as positive or nonnegative and float settings as
# finite, so an out-of-range value, NaN or infinity is a bad value. List-valued
# settings stay text in the config, as reports record them; their parsers only
# check that the text splits into numbers. Parser names carry no underscore
# because argparse quotes them in usage errors.


def finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def int_list(text: str) -> str:
    if not _ints(text):
        raise ValueError("empty list")
    return text


def float_list(text: str) -> str:
    if not _floats(text):
        raise ValueError("empty list")
    return text


def float_pair(text: str) -> str:
    if len(_floats(text)) != 2:
        raise ValueError("need two values")
    return text


def boolean(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("1", "true", "yes")


@dataclass(frozen=True)
class Option:
    """One setting: flag --name (underscores as dashes), config key name.

    `parse` turns the text of a flag or a config-file value into the value;
    it raises ValueError on bad text. A `boolean` option is a bare flag.
    """

    name: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    choices: tuple[str, ...] = ()

    @property
    def flag(self) -> str:
        return _flag(self.name)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


_SEED = Option("seed", nonnegative, 0, "random seed")
_CSV = Option("csv", boolean, False, "also write metrics.csv")
_FEATURE_MODE = Option("feature_mode", str, "cls", "CLS, or CLS + pooled patches", ("cls", "patch"))
_LORA = (
    Option("lora_rank", positive, 16, "adapter rank r"),
    Option("lora_alpha", finite, 0.5, "adapter scale alpha (update is alpha/r * B @ A)"),
)
_LR = Option("lr", finite, 3e-4, "Adam learning rate")
_BATCH = Option("batch", positive, 16, "triplets per step")
_EPOCHS = Option("epochs", nonnegative, 8, "training epochs")
_VAL_FRAC = Option("val_frac", finite, 0.1, "share of triplets held out for val (and for test)")
_KS = Option("ks", int_list, "1,3,5", "comma-separated k values")
_MARGIN = Option("margin", finite, 0.05, "hinge margin m")
_TRAIN = (_MARGIN, _LR, _BATCH, _EPOCHS, _FEATURE_MODE, _SEED, *_LORA, _VAL_FRAC, _CSV,
          Option("lora_dropout", finite, 0.0, "adapter input dropout"))
# every eval task takes these; seg and depth read no --feature-mode
_EVAL = (
    _FEATURE_MODE, _SEED, *_LORA, Option("adapters", str, None, "adapter checkpoint to apply"), _CSV
)
_HEAD = (
    replace(_LR, help="dense-head learning rate"),
    replace(_EPOCHS, default=10, help="dense-head epochs"),
    replace(_BATCH, default=None, help="dense-head images per step (seg 16, depth 128)"),
    Option("train_frac", finite, 0.8, "share of dense images used to train the head"),
)

# one table per parser; an eval task is the parser "eval <task>"
OPTIONS: dict[str, tuple[Option, ...]] = {
    "synth": (
        Option("n", positive, 1000, "number of triplets"),
        Option("d", positive, 64, "embedding dimension"),
        Option("s", nonnegative, 0, "patch grid side (0 = none)"),
        Option("factors", positive, 8, "latent factor count"),
        Option("noise", finite, 0.0, "embedding noise (relative)"),
        Option("instances", nonnegative, 200, "held-out retrieval instances"),
        _SEED,
        _CSV,
    ),
    "align": (*_TRAIN, Option("max_steps", positive, None, "stop after this many steps")),
    "eval retrieval": (*_EVAL, _KS),
    "eval count": (*_EVAL, _KS),
    "eval rag": (*_EVAL, Option("k", positive, 3, "examples per RAG bundle")),
    "eval probe": (
        *_EVAL,
        Option("c_grid", float_list, "1,10,100,1000,10000,100000,1000000", "probe C values"),
        Option("folds", positive, 10, "probe cross-validation folds"),
        replace(_VAL_FRAC, default=0.2, help="share of labeled ids held out by the probe"),
    ),
    "eval seg": (*_EVAL, *_HEAD),
    "eval depth": (
        *_EVAL,
        *_HEAD,
        Option("bins", positive, 256, "depth bins"),
        Option("depth_range", float_pair, "0.001,10", "d_min,d_max in meters"),
        Option("silog_sign", str, "paper", "SILog loss sign convention", ("paper", "classic")),
    ),
    "ablate": (
        *_TRAIN,
        Option("budget", positive, 13_900, "triplet budget per dataset"),
        Option("steps", int_list, None, "comma-separated step counts to ablate"),
        Option("tasks", str, "retrieval", "comma-separated tasks: retrieval, afc"),
        _KS,
    ),
}


def _load_config_file(path: str, options) -> dict:
    """Flat key=value file, each value parsed like its flag; unknown keys are rejected."""
    by_name = {opt.name: opt for opt in options}
    out = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        opt = by_name.get(key.replace("-", "_"))
        if opt is None:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[opt.name] = opt.parse(raw)
            if opt.choices and out[opt.name] not in opt.choices:
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad value {raw!r} for {opt.name}") from None
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Flag > config file > default, for every option of the parser that ran."""
    from_file = _load_config_file(args.config, args.options) if args.config else {}
    resolved = {}
    for opt in args.options:
        flag = getattr(args, opt.name)
        resolved[opt.name] = flag if flag is not None else from_file.get(opt.name, opt.default)
    return resolved


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_report(out_dir: Path, command: str, config: dict, metrics: dict, t0: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": config.get("seed"),
        "metrics": metrics,
        "wall_time_s": round(time.time() - t0, 3),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (out_dir / "resolved_config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n"
    )
    if config.get("csv"):
        rows = ["metric,value"]
        for key, value in sorted(_flatten(metrics).items()):
            rows.append(f"{key},{value}")
        (out_dir / "metrics.csv").write_text("\n".join(rows) + "\n")


def _flatten(metrics: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in metrics.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, (int, float, str)):
            flat[name] = value
    return flat


def _backbone_for(store, config: dict) -> StoreBackbone:
    """The config's adapter; eval configs set no dropout, as eval never trains."""
    bb = StoreBackbone(
        store,
        rank=config["lora_rank"],
        alpha=config["lora_alpha"],
        dropout_p=config.get("lora_dropout", 0.0),
        seed=config["seed"],
    )
    if config.get("adapters"):
        bb.load_trainable(load_adapters(config["adapters"]))
    return bb


def _featurizer(store, config: dict):
    bb = _backbone_for(store, config)
    mode = FeatureMode(config["feature_mode"])
    return lambda id: bb.feature_np(id, mode)


def _read_id_list(path: str) -> list[str]:
    ids = [line.strip() for line in read_text(path).splitlines()]
    return [id for id in ids if id]


def _manifest_ids(*manifests: TripletManifest) -> set[str]:
    return {id for m in manifests for e in m for id in (e.ref, e.x0, e.x1)}


def _labeled_queries(labels_path, queries_path) -> tuple[dict[str, str], list[str]]:
    """The labels and the query ids; every query must carry a label, so the
    labels name every id a retrieval eval reads."""
    labels = load_labels(labels_path)
    query_ids = _read_id_list(queries_path)
    for q in query_ids:
        if q not in labels:
            raise DataError(f"query {q!r} has no label")
    return labels, query_ids


def _gallery_and_queries(featurize, ids, labels, query_ids, labels_path):
    """Index of the labeled non-query ids, in the order of `ids`, and the
    query features."""
    skip = set(query_ids)
    gallery = [id for id in ids if id in labels and id not in skip]
    if not gallery:
        raise DataError(f"no labeled gallery ids outside the queries in {labels_path}")
    index = build_index(np.stack([featurize(id) for id in gallery]), gallery)
    queries = {q: featurize(q) for q in query_ids}
    return index, queries


def _truth_sets(gallery, labels, query_ids) -> dict[str, set[str]]:
    """Each query's gallery ids of its own label; the gallery is grouped by
    label once, so this is O(gallery + queries)."""
    by_label: dict[str, set[str]] = {}
    for g in gallery:
        by_label.setdefault(labels[g], set()).add(g)
    return {q: by_label.get(labels[q], set()) for q in query_ids}


def _recall(featurize, ids, labels, query_ids, labels_path, ks: str) -> dict:
    index, queries = _gallery_and_queries(featurize, ids, labels, query_ids, labels_path)
    truth = _truth_sets(index.ids, labels, queries)
    return recall_at_k(index, queries, truth, ks=_ints(ks)).to_dict()


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args, config) -> int:
    t0 = time.time()
    if config["factors"] < 3:
        # with two, the generator gives up on nearly every world, and only
        # after thousands of draws
        raise DataError(f"--factors must be >= 3, got {config['factors']}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = SyntheticFactorSpec(
        n_triplets=config["n"],
        d=config["d"],
        s=config["s"],
        factor_count=config["factors"],
        noise_sigma=config["noise"],
        seed=config["seed"],
    )
    world = generate_world(spec, n_instances=config["instances"])
    save_store(world.store, out / "store.paln")
    save_manifest(world.manifest, out / "triplets.csv")
    save_labels(world.class_labels, out / "class_labels.csv")
    save_labels(world.instance_labels, out / "instance_labels.csv")
    (out / "queries.txt").write_text("".join(f"{q}\n" for q in world.query_ids))

    frozen = StoreBackbone(world.store, seed=config["seed"])
    embedding_2afc = two_afc_accuracy(frozen, world.manifest, FeatureMode.CLS_ONLY)
    metrics = {
        "n_triplets": len(world.manifest),
        "n_records": len(world.store),
        "n_instances": len(world.query_ids),
        "latent_agreement": world.latent_agreement,
        "embedding_2afc": embedding_2afc,
    }
    _write_report(out, "synth", config, metrics, t0)
    return 0


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def _align_config(config: dict) -> AlignmentConfig:
    return AlignmentConfig(
        margin=config["margin"],
        lr=config["lr"],
        batch_size=config["batch"],
        epochs=config["epochs"],
        feature_mode=FeatureMode(config["feature_mode"]),
        seed=config["seed"],
        max_steps=config.get("max_steps"),
    )


def _split(manifest: TripletManifest, config: dict):
    frac = config["val_frac"]
    if not 0.0 < frac < 0.5:
        raise DataError(f"--val-frac must be in (0, 0.5), got {frac}")
    train, val, _ = split_manifest(manifest, (1.0 - 2 * frac, frac, frac), seed=config["seed"])
    return train, val


def cmd_align(args, config) -> int:
    t0 = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(args.manifest)
    if args.val_manifest:
        train, val = manifest, load_manifest(args.val_manifest)
    else:
        train, val = _split(manifest, config)
    store = load_store(args.store, _manifest_ids(train, val))
    cfg = _align_config(config)
    backbone = _backbone_for(store, config)
    snapshot, history = train_alignment(cfg, backbone, train, val)
    save_adapters(snapshot, out / "adapters.pala")
    with open(out / "history.jsonl", "w") as f:
        for row in history:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    best = min(history, key=lambda h: h["val_loss"]) if history else None
    metrics = {
        "n_train": len(train),
        "n_val": len(val),
        "epochs_run": history[-1]["epoch"] if history else 0,
        "best_epoch": best["epoch"] if best else None,
        "best_val_loss": best["val_loss"] if best else None,
        "best_val_2afc": best["val_2afc"] if best else None,
        "frozen_val_2afc": history[0]["val_2afc"] if history else None,
    }
    _write_report(out, "align", config, metrics, t0)
    return 0


# ---------------------------------------------------------------------------
# eval subcommands
# ---------------------------------------------------------------------------


def _eval_retrieval(args, config) -> dict:
    labels, query_ids = _labeled_queries(args.labels, args.queries)
    store = load_store(args.store, labels)
    featurize = _featurizer(store, config)
    return _recall(featurize, store.ids, labels, query_ids, args.labels, config["ks"])


def _eval_count(args, config) -> dict:
    train_labels, test_labels = load_labels(args.train_labels), load_labels(args.test_labels)
    store = load_store(args.store, [*train_labels, *test_labels])
    featurize = _featurizer(store, config)
    train = CountDataset.from_store(store, train_labels, featurize)
    test = CountDataset.from_store(store, test_labels, featurize)
    return knn_count_eval(train, test, ks=_ints(config["ks"]))


def _dense_inputs(args, config):
    """The adapted (N, s, s, d) patch grids of the ids with a target, in store
    order, and their targets, which must all be of the task's kind."""
    target_dir = Path(args.targets)
    # an id's target is an entry of the directory itself, so an id such as
    # "../x" cannot name a file outside it
    entries = set(os.listdir(target_dir))
    ids = [name.removesuffix(".palt") for name in entries if name.endswith(".palt")]
    store = load_store(args.store, ids)
    if store.patch_side == 0:
        raise DataError("dense evaluation needs a store with patch grids (s > 0)")
    backbone = _backbone_for(store, config)
    rows, targets = [], []
    for row, id in enumerate(store.ids):
        name = f"{id}.palt"
        if name not in entries:
            continue
        target, kind = load_target(target_dir / name)
        if kind != args.task:
            raise DataError(f"eval {args.task} needs {args.task} targets, found {kind} in {name}")
        rows.append(row)
        targets.append(target)
    if not targets:
        raise DataError(f"no <id>.palt targets found in {target_dir}")
    return backbone.adapt(store.patch[rows].astype(np.float64)), targets


def _split_counts(n: int, train_frac: float, seed: int):
    perm = np.random.default_rng(seed).permutation(n)
    n_train = max(1, min(n - 1, int(round(train_frac * n))))
    return perm[:n_train], perm[n_train:]


def _eval_dense(args, config) -> dict:
    """A linear seg or depth head (args.task) on the patch tokens."""
    if not 0.0 < config["train_frac"] < 1.0:
        raise DataError(f"--train-frac must be in (0, 1), got {config['train_frac']}")
    features, targets = _dense_inputs(args, config)
    if args.task == "seg":
        # valid pixels only: an ignore label such as 255 names no class
        head = {"n_classes": max(int(t.values[t.valid_mask].max(initial=0)) for t in targets) + 1}
    else:
        lo, hi = _floats(config["depth_range"])
        binning = DepthBinning(d_min=lo, d_max=hi, n_bins=config["bins"])
        head = {"binning": binning, "silog_sign": config["silog_sign"]}
    tr, te = _split_counts(len(features), config["train_frac"], config["seed"])
    batch = config["batch"]
    if batch is None:
        batch = HeadHyper.batch_size if args.task == "seg" else DEPTH_BATCH_SIZE
    hyper = HeadHyper(
        lr=config["lr"],
        epochs=config["epochs"],
        batch_size=batch,
        seed=config["seed"],
    )
    trained, history = train_linear_head(
        args.task, features[tr], [targets[i] for i in tr], hyper, **head
    )
    score = eval_seg if args.task == "seg" else eval_depth
    metrics = score(trained, features[te], [targets[i] for i in te])
    metrics["final_train_loss"] = history[-1] if history else None
    metrics["n_train_images"] = len(tr)
    metrics["n_test_images"] = len(te)
    return metrics


def _probe_config(config: dict) -> ProbeConfig:
    """The probe's settings, checked; they read no data, so they are checked
    before any input is read."""
    frac = config["val_frac"]
    if not 0.0 < frac < 1.0:
        raise DataError(f"--val-frac must be in (0, 1), got {frac}")
    return ProbeConfig(
        c_grid=tuple(_floats(config["c_grid"])),
        folds=config["folds"],
        seed=config["seed"],
    )


def _eval_probe(args, config) -> dict:
    probe_cfg = _probe_config(config)
    labels = load_labels(args.labels)
    store = load_store(args.store, labels)
    featurize = _featurizer(store, config)
    ids = [id for id in store.ids if id in labels]
    if not ids:
        raise DataError("no labeled ids found in the store")
    names = sorted(set(labels[id] for id in ids))
    name_to_idx = {n: i for i, n in enumerate(names)}
    x = np.stack([featurize(id) for id in ids])
    y = np.array([name_to_idx[labels[id]] for id in ids])
    rng = np.random.default_rng(config["seed"])
    perm = rng.permutation(len(ids))
    n_val = max(1, int(round(config["val_frac"] * len(ids))))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    result = linear_probe_classify(x[train_idx], y[train_idx], x[val_idx], y[val_idx], probe_cfg)
    out = result.to_dict()
    out["n_train"] = len(train_idx)
    out["n_val"] = len(val_idx)
    return out


def _eval_rag(args, config) -> dict:
    labels, query_ids = _labeled_queries(args.labels, args.queries)
    store = load_store(args.store, labels)
    featurize = _featurizer(store, config)
    index, queries = _gallery_and_queries(featurize, store.ids, labels, query_ids, args.labels)
    gallery_labels = {id: labels[id] for id in index.ids}
    query_labels = {q: labels[q] for q in queries}
    result = evaluate_rag(index, gallery_labels, queries, query_labels, k=config["k"])
    bundles_path = Path(args.out) / "bundles.json"
    bundles_path.parent.mkdir(parents=True, exist_ok=True)
    bundles_path.write_text(
        json.dumps([b.to_dict() for b in result["bundles"]], indent=2, sort_keys=True) + "\n"
    )
    return {"accuracy": result["accuracy"], "n_queries": len(queries), "k": config["k"]}


# each task's runner, which reads its inputs and then the store rows they
# name, and the input flags it cannot run without
_EVAL_RUNNERS = {
    "retrieval": (_eval_retrieval, ("labels", "queries")),
    "count": (_eval_count, ("train_labels", "test_labels")),
    "seg": (_eval_dense, ("targets",)),
    "depth": (_eval_dense, ("targets",)),
    "probe": (_eval_probe, ("labels",)),
    "rag": (_eval_rag, ("labels", "queries")),
}
_INPUT_HELP = {
    "labels": "id,label CSV",
    "queries": "text file with one query id per line",
    "train_labels": "count labels for the train split",
    "test_labels": "count labels for the test split",
    "targets": "directory of <id>.palt dense targets",
}


def cmd_eval(args, config) -> int:
    t0 = time.time()
    runner, inputs = _EVAL_RUNNERS[args.task]
    missing = [_flag(name) for name in inputs if getattr(args, name) is None]
    if missing:
        raise DataError(f"eval {args.task} needs {' and '.join(missing)}")
    metrics = runner(args, config)
    _write_report(Path(args.out), f"eval.{args.task}", config, metrics, t0)
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


# each ablation task and the input flags it needs
_ABLATE_INPUTS = {"retrieval": ("eval_labels", "eval_queries"), "afc": ("eval_manifest",)}


def _ablate_eval(task, backbone, args, config, labels, query_ids, afc_manifest) -> dict:
    mode = FeatureMode(config["feature_mode"])
    if task == "retrieval":
        report = _recall(
            lambda id: backbone.feature_np(id, mode),
            backbone.store.ids,
            labels,
            query_ids,
            args.eval_labels,
            config["ks"],
        )
        return report["recall"]
    return {"2afc": two_afc_accuracy(backbone, afc_manifest, mode)}


def cmd_ablate(args, config) -> int:
    t0 = time.time()
    out = Path(args.out)
    datasets = []
    for spec in args.dataset:
        if "=" not in spec or ":" not in spec.split("=", 1)[1]:
            raise DataError(f"--dataset must be name=STORE:MANIFEST, got {spec!r}")
        name, paths = spec.split("=", 1)
        store_path, manifest_path = paths.split(":", 1)
        datasets.append((name, store_path, manifest_path))
    tasks = [t for t in config["tasks"].split(",") if t]
    for task in tasks:
        if task not in _ABLATE_INPUTS:
            raise DataError(f"unsupported ablation task {task!r} (use retrieval, afc)")
        inputs = _ABLATE_INPUTS[task]
        if not all(getattr(args, name) for name in inputs):
            raise DataError(f"{task} task needs {' and '.join(map(_flag, inputs))}")
    if "retrieval" in tasks:
        lowest = min(_ints(config["ks"]))  # int_list lets no empty list through
        if lowest < 1:
            raise DataError(f"k must be >= 1, got {lowest}")
    step_counts = _ints(config["steps"]) if config["steps"] else [None]
    labels, query_ids = {}, []
    if "retrieval" in tasks:
        labels, query_ids = _labeled_queries(args.eval_labels, args.eval_queries)
    afc_manifest = load_manifest(args.eval_manifest) if "afc" in tasks else TripletManifest()
    # the ids the evals read, from --eval-store or else from each dataset's store
    eval_ids = _manifest_ids(afc_manifest) | labels.keys()
    eval_store = load_store(args.eval_store, eval_ids) if args.eval_store else None

    rows = []
    for name, store_path, manifest_path in datasets:
        manifest = load_manifest(manifest_path)
        if len(manifest) < config["budget"]:
            raise DataError(
                f"dataset {name!r} has {len(manifest)} triplets, budget needs {config['budget']}"
            )
        rng = np.random.default_rng(config["seed"])
        picks = rng.permutation(len(manifest))[: config["budget"]]
        budgeted = TripletManifest(entries=[manifest.entries[i] for i in picks])
        train, val = _split(budgeted, config)
        store = load_store(
            store_path, _manifest_ids(train, val) | (set() if eval_store else eval_ids)
        )
        for steps in step_counts:
            backbone = _backbone_for(store, config)
            snapshot, _ = train_alignment(
                _align_config({**config, "max_steps": steps}), backbone, train, val
            )
            target = backbone
            if eval_store is not None:
                target = _backbone_for(eval_store, config)
                target.load_trainable(snapshot)
            row = {"dataset": name, "steps": steps if steps is not None else "full"}
            for task in tasks:
                row[task] = _ablate_eval(
                    task, target, args, config, labels, query_ids, afc_manifest
                )
            rows.append(row)
    _write_report(out, "ablate", config, {"rows": rows}, t0)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_options(p: argparse.ArgumentParser, key: str) -> None:
    """--out, --config and one flag per option of OPTIONS[key]; every flag
    defaults to None so that _resolve can tell a flag given from one left out."""
    p.add_argument("--out", required=True, help="output directory for artifacts and report")
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.set_defaults(options=OPTIONS[key])
    for opt in OPTIONS[key]:
        if opt.parse is boolean:
            p.add_argument(opt.flag, dest=opt.name, action="store_const", const=True, help=opt.help)
        else:
            p.add_argument(
                opt.flag,
                dest=opt.name,
                type=opt.parse,
                choices=opt.choices or None,
                help=f"{opt.help} (default: {opt.default})",
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palign",
        description="perceptual-alignment engine: triplet fine-tuning and evaluations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic triplet world")
    _add_options(p, "synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("align", help="train alignment adapters on triplets")
    _add_options(p, "align")
    p.add_argument("--store", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest", dest="val_manifest")
    p.set_defaults(func=cmd_align)

    tasks = sub.add_parser("eval", help="run one evaluation protocol").add_subparsers(
        dest="task", required=True
    )
    for task, (_, inputs) in _EVAL_RUNNERS.items():
        p = tasks.add_parser(task)
        _add_options(p, f"eval {task}")
        p.add_argument("--store", required=True)
        for name in inputs:
            p.add_argument(_flag(name), dest=name, help=_INPUT_HELP[name])
        p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="compare adapters trained on different datasets")
    _add_options(p, "ablate")
    p.add_argument(
        "--dataset",
        action="append",
        required=True,
        help="name=STORE:MANIFEST (repeatable)",
    )
    p.add_argument("--eval-store", dest="eval_store")
    for name in ("eval_labels", "eval_queries", "eval_manifest"):
        p.add_argument(_flag(name), dest=name)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _resolve(args))
    except (PalignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
