"""The benchmark's three workloads: inputs, commands and output checks.

Each workload builds its inputs from the seed alone: a synthetic palign world
plus the benchmark's own split manifests, label files and dense targets. It
then names the `palign` commands of one round and checks their outputs with
the recomputations in `checks.py`. `tiny=True` shrinks every size so that
all three workloads and their checks finish within seconds.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

import checks

LORA_RANK = 16
LORA_ALPHA = 0.5
MARGIN = 0.05


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def _write_triplets(rows, path: Path) -> None:
    path.write_text("ref,x0,x1,y\n" + "".join(f"{r},{a},{b},{y}\n" for r, a, b, y in rows))


def _write_labels(labels: dict[str, str], path: Path) -> None:
    path.write_text("id,label\n" + "".join(f"{k},{v}\n" for k, v in labels.items()))


def _write_target(path: Path, values: np.ndarray, valid: np.ndarray, kind: str) -> None:
    """A .palt sidecar: magic, u32 H, u32 W, u8 kind, payload, packed valid bits."""
    h, w = values.shape
    payload = values.astype("<u2" if kind == "seg" else "<f4").tobytes()
    header = b"PALT" + struct.pack("<IIB", h, w, 0 if kind == "seg" else 1)
    path.write_bytes(header + payload + np.packbits(valid.reshape(-1)).tobytes())


class Workload:
    """One workload at one size; subclasses set the world's sizes in
    __init__ and fill in prepare, commands and check."""

    name = ""
    setup_reps = 3  # set-up repetitions; setup_s reports their median
    d = 64
    s = 0
    feature_mode = "cls"
    n: int
    instances: int
    # train and val triplets drawn from the world's n; training sets are kept
    # small so that one round takes seconds and a run's medians cover several
    n_train: int
    n_val: int

    def synthesize(self, world: Path, seed: int) -> None:
        """The files `palign synth` writes, made by the same library calls.

        The command itself is not run: its report scores every manifest
        triplet through per-id featurization, which at d=768 takes about a
        minute (90 s at n=10,000) and would dwarf the timed rounds.
        """
        from palign.data import (
            SyntheticFactorSpec, generate_world, save_labels, save_manifest, save_store,
        )

        world.mkdir(parents=True)
        spec = SyntheticFactorSpec(n_triplets=self.n, d=self.d, s=self.s, factor_count=8, seed=seed)
        w = generate_world(spec, n_instances=self.instances)
        save_store(w.store, world / "store.paln")
        save_manifest(w.manifest, world / "triplets.csv")
        save_labels(w.class_labels, world / "class_labels.csv")
        save_labels(w.instance_labels, world / "instance_labels.csv")
        (world / "queries.txt").write_text("".join(f"{q}\n" for q in w.query_ids))

    def prepare(self, world: Path, seed: int) -> None:
        """Write the benchmark's own files next to the synth world."""
        raise NotImplementedError

    def commands(self, world: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, world: Path, out: Path, seed: int) -> list[str]:
        raise NotImplementedError

    # ---- shared pieces ------------------------------------------------------

    def split(self, world: Path, seed: int) -> None:
        """train.csv (self.n_train rows) and val.csv (self.n_val rows) from a seeded permutation."""
        rows = checks.read_triplets(world / "triplets.csv")
        perm = _rng(seed, 1).permutation(len(rows))
        n_train, n_val = self.n_train, self.n_val
        _write_triplets([rows[i] for i in perm[:n_train]], world / "train.csv")
        _write_triplets([rows[i] for i in perm[n_train : n_train + n_val]], world / "val.csv")

    def align_argv(self, world: Path, out: Path, seed: int, extra: list[str]) -> list[str]:
        return [
            "align", "--store", str(world / "store.paln"), "--manifest", str(world / "train.csv"),
            "--val-manifest", str(world / "val.csv"), "--out", str(out / "align"),
            "--seed", str(seed), "--feature-mode", self.feature_mode,
            "--margin", str(MARGIN), "--lora-rank", str(LORA_RANK),
            "--lora-alpha", str(LORA_ALPHA), *extra,
        ]

    def eval_argv(self, task: str, world: Path, out: Path, seed: int, extra: list[str]) -> list[str]:
        return [
            "eval", task, "--store", str(world / "store.paln"),
            "--adapters", str(out / "align" / "adapters.pala"), "--out", str(out / f"eval_{task}"),
            "--seed", str(seed), "--feature-mode", self.feature_mode,
            "--lora-rank", str(LORA_RANK), "--lora-alpha", str(LORA_ALPHA), *extra,
        ]

    def retrieval_argvs(self, world: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
        labels = ["--labels", str(world / "instance_labels.csv"),
                  "--queries", str(world / "queries.txt")]
        return [
            ("eval_retrieval", self.eval_argv("retrieval", world, out, seed, [*labels, "--ks", "1,3,5,10"])),
            ("eval_rag", self.eval_argv("rag", world, out, seed, [*labels, "--k", "3"])),
        ]

    def check_align_and_store(self, world: Path, out: Path, expect_gain: bool):
        store = checks.Store(world / "store.paln")
        w = checks.adapted_weight(out / "align" / "adapters.pala", LORA_RANK, LORA_ALPHA)
        fails = checks.check_align(
            out / "align", store, world / "val.csv", w, self.feature_mode, MARGIN, expect_gain
        )
        return store, w, fails

    def check_retrieval_and_rag(self, store, w, world: Path, out: Path) -> list[str]:
        labels, queries = world / "instance_labels.csv", world / "queries.txt"
        return checks.check_retrieval(
            out / "eval_retrieval", store, w, self.feature_mode, labels, queries
        ) + checks.check_rag(out / "eval_rag", store, w, self.feature_mode, labels, queries, 3)


PROBE_CLASSES = 5


class DeskAlign(Workload):
    """Desk scale, CLS only: align at the reference preset, then three evals."""

    name = "desk_align"

    def __init__(self, tiny: bool = False):
        self.n = 300 if tiny else 2000
        self.instances = 20 if tiny else 200
        self.n_train = 240 if tiny else 320
        self.n_val = 30 if tiny else 200
        self.epochs = 2 if tiny else 8
        self.probe_ids = 120 if tiny else 150
        self.probe = ["--c-grid", "1,100", "--folds", "3"] if tiny else []

    def prepare(self, world, seed):
        """Splits, plus probe labels planted as a linear rule of the raw CLS rows.

        Classes are argmax(x @ R) for a seeded R, redrawn until every class
        holds a tenth of the probed ids. The classes stay linearly separable
        under any invertible adapter W, so with C >= 10 every fit runs to the
        probe's iteration cap and the probe's work does not depend on the seed.
        """
        self.split(world, seed)
        store = checks.Store(world / "store.paln")
        rng = _rng(seed, 4)
        rows = np.sort(rng.choice(len(store.ids), self.probe_ids, replace=False))
        while True:
            classes = (store.cls[rows] @ rng.normal(size=(self.d, PROBE_CLASSES))).argmax(axis=1)
            if np.bincount(classes, minlength=PROBE_CLASSES).min() >= len(rows) / 10:
                break
        _write_labels({store.ids[r]: f"k{c}" for r, c in zip(rows, classes)},
                      world / "probe_labels.csv")

    def commands(self, world, out, seed):
        return [
            ("align", self.align_argv(world, out, seed, ["--epochs", str(self.epochs)])),
            *self.retrieval_argvs(world, out, seed),
            ("eval_probe", self.eval_argv(
                "probe", world, out, seed, ["--labels", str(world / "probe_labels.csv"), *self.probe]
            )),
        ]

    def check(self, world, out, seed):
        store, w, fails = self.check_align_and_store(world, out, expect_gain=True)
        return (fails + self.check_retrieval_and_rag(store, w, world, out)
                + checks.check_probe(out / "eval_probe"))


class WideStore(Workload):
    """Paper width (d=768) over a large store: capped align, then three evals."""

    name = "wide_store"
    setup_reps = 2  # one set-up takes 6–8 s; a third would not fit the time budget

    def __init__(self, tiny: bool = False):
        self.n = 200 if tiny else 7000
        self.d = 96 if tiny else 768
        self.instances = 20 if tiny else 100
        self.max_steps = 2
        self.n_train = 160 if tiny else 5600
        self.n_val = 20 if tiny else 40
        self.n_count = (60, 20) if tiny else (300, 100)

    def prepare(self, world, seed):
        self.split(world, seed)
        classes = checks.read_labels(world / "class_labels.csv")
        refs = list(classes)
        pick = _rng(seed, 2).permutation(len(refs))
        n_train, n_test = self.n_count
        counts = {id: str(int(classes[id][1:])) for id in refs}  # "c07" -> 7
        _write_labels({refs[i]: counts[refs[i]] for i in pick[:n_train]}, world / "count_train.csv")
        _write_labels({refs[i]: counts[refs[i]] for i in pick[n_train : n_train + n_test]},
                      world / "count_test.csv")

    def commands(self, world, out, seed):
        return [
            ("align", self.align_argv(world, out, seed, ["--max-steps", str(self.max_steps)])),
            *self.retrieval_argvs(world, out, seed),
            ("eval_count", self.eval_argv("count", world, out, seed, [
                "--train-labels", str(world / "count_train.csv"),
                "--test-labels", str(world / "count_test.csv"), "--ks", "1,3,5,10",
            ])),
        ]

    def check(self, world, out, seed):
        store, w, fails = self.check_align_and_store(world, out, expect_gain=False)
        return (fails + self.check_retrieval_and_rag(store, w, world, out)
                + checks.check_count(out / "eval_count", store, w, self.feature_mode,
                                     world / "count_train.csv", world / "count_test.csv"))


# dense targets: a planted linear rule of the raw patch tokens, drawn at twice
# the token grid so nearest upsampling of token predictions can be exact
SEG_CLASSES = 4
TARGET_SCALE = 2
INVALID_FRAC = 0.05
HEAD_TRAIN_FRAC = 0.8  # the eval commands' default --train-frac


class PatchDense(Workload):
    """Patch-grid world: align in patch mode, then the seg and depth heads."""

    name = "patch_dense"
    s = 4
    feature_mode = "patch"

    def __init__(self, tiny: bool = False):
        self.n = 150 if tiny else 1500
        self.instances = 10 if tiny else 100
        self.n_train = 120 if tiny else 200
        self.n_val = 15 if tiny else 150
        self.epochs = 1 if tiny else 8
        self.images = 24 if tiny else 150
        # batch 16 for both heads: at the default depth batch of 128 the peak
        # RSS and evals_s varied twice as much from run to run
        self.head = ["--lr", "0.01", "--epochs", "2" if tiny else "10", "--batch", "16"]

    def prepare(self, world, seed):
        self.split(world, seed)
        store = checks.Store(world / "store.paln")
        rng = _rng(seed, 3)
        ids = [store.ids[i] for i in np.sort(rng.choice(len(store.ids), self.images, replace=False))]
        tokens = store.patch[[store.row[id] for id in ids]].astype(np.float64)  # (n, s, s, d)
        seg = (tokens @ rng.normal(size=(self.d, SEG_CLASSES))).argmax(axis=-1)
        proj = tokens @ rng.normal(size=self.d)
        depth = np.clip(3.0 + 1.5 * proj / proj.std(), 0.2, 9.5)
        up = np.ones((TARGET_SCALE, TARGET_SCALE), dtype=int)
        for kind, values in (("seg", seg), ("depth", depth)):
            (world / kind).mkdir(exist_ok=True)
            for id, grid in zip(ids, values):
                full = np.kron(grid, up)
                valid = rng.random(full.shape) >= INVALID_FRAC
                valid.flat[0] = True
                _write_target(world / kind / f"{id}.palt", full, valid, kind)

    def commands(self, world, out, seed):
        return [
            ("align", self.align_argv(world, out, seed, ["--epochs", str(self.epochs)])),
            ("eval_seg", self.eval_argv("seg", world, out, seed,
                                        ["--targets", str(world / "seg"), *self.head])),
            ("eval_depth", self.eval_argv("depth", world, out, seed,
                                          ["--targets", str(world / "depth"), *self.head])),
        ]

    def test_majority_rate(self, world: Path, seed: int) -> float:
        """Majority-class share of valid pixels over the seg head's test images.

        Images are taken in store order, and the test split is the tail of the
        seeded permutation the eval commands document for --train-frac.
        """
        store = checks.Store(world / "store.paln")
        paths = [world / "seg" / f"{id}.palt" for id in store.ids]
        paths = [p for p in paths if p.exists()]
        n = len(paths)
        n_train = max(1, min(n - 1, int(round(HEAD_TRAIN_FRAC * n))))
        test = np.random.default_rng(seed).permutation(n)[n_train:]
        labels = []
        for i in test:
            blob = paths[i].read_bytes()
            h, w, _ = struct.unpack_from("<IIB", blob, 4)
            values = np.frombuffer(blob, dtype="<u2", count=h * w, offset=13)
            valid = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=13 + 2 * h * w))
            labels.append(values[valid[: h * w].astype(bool)])
        return float(np.bincount(np.concatenate(labels)).max() / sum(map(len, labels)))

    def check(self, world, out, seed):
        _, _, fails = self.check_align_and_store(world, out, expect_gain=False)
        return (fails + checks.check_seg(out / "eval_seg", self.test_majority_rate(world, seed))
                + checks.check_depth(out / "eval_depth"))


WORKLOADS = {"desk_align": DeskAlign, "wide_store": WideStore, "patch_dense": PatchDense}
