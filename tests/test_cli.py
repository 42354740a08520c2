"""End-to-end command tests: files, determinism, presets, exit codes."""

import contextlib
import io
import json
import struct
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palign import cli
from palign.backbone import save_adapters
from palign.cli import main
from palign.data import (
    EmbeddingStore,
    load_labels,
    load_manifest,
    load_store,
    make_class_triplets,
    save_labels,
    save_manifest,
    save_store,
)
from palign.dense import DenseTarget, load_target, save_target
from palign.errors import DataError


def run(*argv) -> int:
    return main([str(a) for a in argv])


def report_of(out_dir) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())


def canonical_report_bytes(out_dir) -> bytes:
    report = report_of(out_dir)
    report.pop("wall_time_s")
    return json.dumps(report, sort_keys=True).encode()


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = run(
        "synth", "--out", out, "--n", 300, "--d", 32, "--factors", 6,
        "--noise", 0, "--seed", 3, "--instances", 50,
    )
    assert code == 0
    return out


class TestSynth:
    def test_outputs_load_back(self, world_dir):
        store = load_store(world_dir / "store.paln")
        manifest = load_manifest(world_dir / "triplets.csv")
        assert len(manifest) == 300
        assert len(store) == 300 * 3 + 50 * 3
        labels = load_labels(world_dir / "class_labels.csv")
        assert len(labels) == 300

    def test_ground_truth_agreement_field(self, world_dir):
        metrics = report_of(world_dir)["metrics"]
        assert metrics["latent_agreement"] == 1.0
        assert 0.5 < metrics["embedding_2afc"] < 1.0

    def test_byte_identical_rerun(self, tmp_path, world_dir):
        out2 = tmp_path / "again"
        assert run(
            "synth", "--out", out2, "--n", 300, "--d", 32, "--factors", 6,
            "--noise", 0, "--seed", 3, "--instances", 50,
        ) == 0
        assert (out2 / "store.paln").read_bytes() == (world_dir / "store.paln").read_bytes()
        assert (out2 / "triplets.csv").read_bytes() == (world_dir / "triplets.csv").read_bytes()
        assert canonical_report_bytes(out2) == canonical_report_bytes(world_dir)


class TestAlign:
    def test_defaults_echo_reference_preset(self, world_dir, tmp_path):
        out = tmp_path / "align"
        assert run(
            "align", "--store", world_dir / "store.paln",
            "--manifest", world_dir / "triplets.csv",
            "--out", out, "--epochs", 1, "--seed", 1,
        ) == 0
        config = report_of(out)["config"]
        assert config["margin"] == 0.05
        assert config["lr"] == 3e-4
        assert config["batch"] == 16
        assert config["lora_rank"] == 16
        assert config["lora_alpha"] == 0.5
        assert config["lora_dropout"] == 0.0

    def test_rerun_identical_history(self, world_dir, tmp_path):
        outs = []
        for name in ("h1", "h2"):
            out = tmp_path / name
            assert run(
                "align", "--store", world_dir / "store.paln",
                "--manifest", world_dir / "triplets.csv",
                "--out", out, "--epochs", 2, "--seed", 7,
            ) == 0
            outs.append(out)
        assert (outs[0] / "history.jsonl").read_bytes() == (outs[1] / "history.jsonl").read_bytes()
        assert (outs[0] / "adapters.pala").read_bytes() == (outs[1] / "adapters.pala").read_bytes()
        assert canonical_report_bytes(outs[0]) == canonical_report_bytes(outs[1])

    def test_patch_mode(self, tmp_path):
        world = tmp_path / "pw"
        assert run(
            "synth", "--out", world, "--n", 60, "--d", 16, "--s", 2,
            "--factors", 4, "--seed", 5, "--instances", 0,
        ) == 0
        out = tmp_path / "palign"
        assert run(
            "align", "--store", world / "store.paln", "--manifest", world / "triplets.csv",
            "--out", out, "--epochs", 1, "--feature-mode", "patch", "--seed", 2,
        ) == 0
        assert report_of(out)["config"]["feature_mode"] == "patch"

    def test_history_schema(self, world_dir, tmp_path):
        out = tmp_path / "hist"
        run(
            "align", "--store", world_dir / "store.paln",
            "--manifest", world_dir / "triplets.csv", "--out", out,
            "--epochs", 1, "--seed", 1,
        )
        rows = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1]
        assert set(rows[1]) == {"epoch", "train_loss", "val_loss", "val_2afc"}


class TestEval:
    def test_retrieval_schema(self, world_dir, tmp_path):
        out = tmp_path / "ret"
        assert run(
            "eval", "retrieval", "--store", world_dir / "store.paln",
            "--labels", world_dir / "instance_labels.csv",
            "--queries", world_dir / "queries.txt",
            "--ks", "1,3,5", "--out", out,
        ) == 0
        metrics = report_of(out)["metrics"]
        assert set(metrics["recall"]) == {"1", "3", "5"}
        rates = [metrics["recall"][k] for k in ("1", "3", "5")]
        assert rates == sorted(rates)

    def test_count_schema(self, world_dir, tmp_path):
        # reuse instance labels as fake integer counts
        labels = load_labels(world_dir / "instance_labels.csv")
        ids = sorted(labels)
        rng = np.random.default_rng(0)
        counts = {id: str(int(rng.integers(1, 6))) for id in ids}
        train_csv = tmp_path / "tr.csv"
        test_csv = tmp_path / "te.csv"
        half = len(ids) // 2
        with open(train_csv, "w") as f:
            f.write("id,label\n")
            f.writelines(f"{id},{counts[id]}\n" for id in ids[:half])
        with open(test_csv, "w") as f:
            f.write("id,label\n")
            f.writelines(f"{id},{counts[id]}\n" for id in ids[half:])
        out = tmp_path / "count"
        assert run(
            "eval", "count", "--store", world_dir / "store.paln",
            "--train-labels", train_csv, "--test-labels", test_csv,
            "--ks", "1,3,5,10", "--out", out,
        ) == 0
        metrics = report_of(out)["metrics"]
        assert {"chosen_k", "mae", "rmse"} <= set(metrics)
        assert metrics["chosen_k"] in (1, 3, 5, 10)

    def test_unknown_subcommand_exits_2(self, world_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("eval", "nonsense", "--store", world_dir / "store.paln", "--out", tmp_path / "x")
        assert excinfo.value.code == 2

    def test_missing_file_exits_1(self, tmp_path):
        assert run(
            "eval", "retrieval", "--store", tmp_path / "missing.paln",
            "--labels", tmp_path / "l.csv", "--queries", tmp_path / "q.txt",
            "--out", tmp_path / "o",
        ) == 1

    def test_rag_emits_bundles(self, world_dir, tmp_path):
        out = tmp_path / "rag"
        assert run(
            "eval", "rag", "--store", world_dir / "store.paln",
            "--labels", world_dir / "class_labels.csv",
            "--queries", _write_ids(tmp_path, load_labels(world_dir / "class_labels.csv")),
            "--out", out, "--k", 3,
        ) == 0
        bundles = json.loads((out / "bundles.json").read_text())
        assert len(bundles) == 5
        for bundle in bundles:
            assert len(bundle["examples"]) == 3
            assert bundle["query"] not in {e["id"] for e in bundle["examples"]}

    def test_determinism_of_reports(self, world_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(
                "eval", "retrieval", "--store", world_dir / "store.paln",
                "--labels", world_dir / "instance_labels.csv",
                "--queries", world_dir / "queries.txt", "--ks", "1,3", "--out", out,
            )
            outs.append(out)
        assert canonical_report_bytes(outs[0]) == canonical_report_bytes(outs[1])


def _write_ids(tmp_path, labels, n=5):
    path = tmp_path / "rag_queries.txt"
    ids = sorted(labels)[:n]
    path.write_text("".join(f"{i}\n" for i in ids))
    return path


class TestValFracGuard:
    def test_out_of_range_val_frac(self, world_dir, tmp_path):
        code = run(
            "align", "--store", world_dir / "store.paln",
            "--manifest", world_dir / "triplets.csv",
            "--out", tmp_path / "v", "--val-frac", 0.5, "--epochs", 1,
        )
        assert code == 1


class TestConfigFile:
    def test_file_value_used_and_flag_overrides(self, world_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nlr=0.001\n")
        out = tmp_path / "c1"
        assert run(
            "align", "--store", world_dir / "store.paln",
            "--manifest", world_dir / "triplets.csv",
            "--out", out, "--config", cfg, "--seed", 1, "--lr", 0.002,
        ) == 0
        config = report_of(out)["config"]
        assert config["epochs"] == 1  # from file
        assert config["lr"] == 0.002  # flag wins

    def test_unknown_key_rejected(self, world_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grumble=3\n")
        assert run(
            "align", "--store", world_dir / "store.paln",
            "--manifest", world_dir / "triplets.csv",
            "--out", tmp_path / "c2", "--config", cfg,
        ) == 1


class TestAblate:
    def test_matrix_report_and_determinism(self, world_dir, tmp_path):
        labels = load_labels(world_dir / "class_labels.csv")
        class_manifest = make_class_triplets(labels, n=300, seed=9)
        manifest_path = tmp_path / "class.csv"
        save_manifest(class_manifest, manifest_path)
        out = tmp_path / "ab"
        store = world_dir / "store.paln"
        code = run(
            "ablate",
            "--dataset", f"mid={store}:{world_dir / 'triplets.csv'}",
            "--dataset", f"mid2={store}:{world_dir / 'triplets.csv'}",
            "--dataset", f"class={store}:{manifest_path}",
            "--tasks", "retrieval,afc",
            "--budget", 200, "--epochs", 1, "--seed", 4,
            "--eval-labels", world_dir / "instance_labels.csv",
            "--eval-queries", world_dir / "queries.txt",
            "--eval-manifest", world_dir / "triplets.csv",
            "--ks", "1,3",
            "--out", out,
        )
        assert code == 0
        rows = report_of(out)["metrics"]["rows"]
        assert [r["dataset"] for r in rows] == ["mid", "mid2", "class"]
        # identical dataset listed twice gives identical metric rows
        assert {k: v for k, v in rows[0].items() if k != "dataset"} == {
            k: v for k, v in rows[1].items() if k != "dataset"
        }
        for row in rows:
            assert set(row["retrieval"]) == {"1", "3"}
            assert "2afc" in row["afc"]

    def test_budget_shortfall(self, world_dir, tmp_path):
        code = run(
            "ablate",
            "--dataset", f"mid={world_dir / 'store.paln'}:{world_dir / 'triplets.csv'}",
            "--tasks", "afc", "--budget", 100000,
            "--eval-manifest", world_dir / "triplets.csv",
            "--out", tmp_path / "ab2",
        )
        assert code == 1

    def test_step_counts(self, world_dir, tmp_path):
        out = tmp_path / "steps"
        code = run(
            "ablate",
            "--dataset", f"mid={world_dir / 'store.paln'}:{world_dir / 'triplets.csv'}",
            "--tasks", "afc", "--budget", 200, "--epochs", 2, "--steps", "3,6",
            "--eval-manifest", world_dir / "triplets.csv",
            "--out", out, "--seed", 2,
        )
        assert code == 0
        rows = report_of(out)["metrics"]["rows"]
        assert [r["steps"] for r in rows] == [3, 6]


def run_captured(capsys, *argv) -> tuple[int, str]:
    """Exit code and stderr of one command; argparse usage errors exit via SystemExit."""
    try:
        code = run(*argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


EVAL_TASKS = ("retrieval", "rag", "probe", "count", "seg", "depth")
# required non-option arguments per parser; parsing does not open the files
BASE_ARGV = {
    "synth": ["synth", "--out", "o"],
    "align": ["align", "--out", "o", "--store", "s.paln", "--manifest", "m.csv"],
    **{f"eval {task}": ["eval", task, "--out", "o", "--store", "s.paln"] for task in EVAL_TASKS},
    "ablate": ["ablate", "--out", "o", "--dataset", "a=s.paln:m.csv"],
}
SAMPLE_TEXT = {
    cli.positive: "7",
    cli.nonnegative: "7",
    cli.finite: "0.375",
    str: "x",
    cli.int_list: "2,4",
    cli.float_list: "0.5,2",
    cli.float_pair: "0.5,20",
    cli.boolean: "true",
}


def resolved(argv) -> dict:
    return cli._resolve(cli.build_parser().parse_args([str(a) for a in argv]))


@pytest.mark.parametrize(
    "command,name",
    sorted({(key.split()[0], opt.name) for key, options in cli.OPTIONS.items() for opt in options}),
)
def test_config_file_value_resolves_like_its_flag(command, name, tmp_path):
    """On every parser of the command (each eval task) that takes the setting."""
    cases = [
        (key, opt) for key, options in cli.OPTIONS.items() if key.split()[0] == command
        for opt in options if opt.name == name
    ]
    assert cases
    for key, option in cases:
        text = option.choices[-1] if option.choices else SAMPLE_TEXT[option.parse]
        flag = [option.flag] if option.parse is cli.boolean else [option.flag, text]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option.name}={text}\n")
        from_flag = resolved(BASE_ARGV[key] + flag)
        from_file = resolved(BASE_ARGV[key] + ["--config", cfg])
        assert from_flag[option.name] != option.default
        assert json.dumps(from_file, sort_keys=True) == json.dumps(from_flag, sort_keys=True)


def test_max_steps_from_config_file_runs_like_flag(world_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_steps=3\n")
    outs = {}
    for name, extra in (("file", ["--config", cfg]), ("flag", ["--max-steps", 3])):
        outs[name] = tmp_path / name
        assert run(
            "align", "--store", world_dir / "store.paln",
            "--manifest", world_dir / "triplets.csv",
            "--out", outs[name], "--epochs", 1, "--seed", 1, *extra,
        ) == 0
    config = (outs["file"] / "resolved_config.json").read_bytes()
    assert config == (outs["flag"] / "resolved_config.json").read_bytes()
    assert report_of(outs["file"])["config"]["max_steps"] == 3


@pytest.mark.parametrize(
    "case,lines,extra,expected",
    [
        ("config epochs", "epochs=abc", [], 1),
        ("config csv", "csv=maybe", [], 1),
        ("config choice", "feature_mode=grid", [], 1),
        ("config threads", "threads=4", [], 1),
        ("config binary", b"\xff\xfe=\x00", [], 1),
        ("flag epochs", "", ["--epochs", "abc"], 2),
        ("flag threads", "", ["--threads", 4], 2),
    ],
)
def test_bad_align_settings_fail_clean(world_dir, tmp_path, capsys, case, lines, extra, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(lines if isinstance(lines, bytes) else (lines + "\n").encode())
    code, err = run_captured(
        capsys, "align", "--store", world_dir / "store.paln",
        "--manifest", world_dir / "triplets.csv",
        "--out", tmp_path / "o", "--config", cfg, *extra,
    )
    assert code == expected
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "task,extra",
    [
        ("retrieval", ["--ks", "a,b"]),
        ("depth", ["--depth-range", "1,2,3"]),
        ("probe", ["--c-grid", ","]),
        # a setting the task does not read
        ("retrieval", ["--bins", "8"]),
        ("seg", ["--ks", "1"]),
        ("rag", ["--lora-dropout", "0.5"]),
    ],
)
def test_bad_eval_flags_fail_clean(world_dir, tmp_path, capsys, task, extra):
    code, err = run_captured(
        capsys, "eval", task, "--store", world_dir / "store.paln",
        "--out", tmp_path / "o", *extra,
    )
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_unlabeled_query_fails_clean(world_dir, tmp_path, capsys):
    # a stored record that the instance labels do not cover
    unlabeled = load_manifest(world_dir / "triplets.csv").entries[0].ref
    queries = tmp_path / "queries.txt"
    queries.write_text((world_dir / "queries.txt").read_text() + f"{unlabeled}\n")
    store = world_dir / "store.paln"
    labels = world_dir / "instance_labels.csv"
    commands = [
        ["eval", task, "--store", store, "--labels", labels, "--queries", queries]
        for task in ("retrieval", "rag")
    ]
    commands.append([
        "ablate", "--dataset", f"mid={store}:{world_dir / 'triplets.csv'}",
        "--tasks", "retrieval", "--budget", 50, "--epochs", 1, "--steps", 1,
        "--eval-labels", labels, "--eval-queries", queries,
    ])
    for i, argv in enumerate(commands):
        code, err = run_captured(capsys, *argv, "--out", tmp_path / f"o{i}")
        assert code == 1, argv[:2]
        assert f"error: query {unlabeled!r} has no label" in err
        assert "Traceback" not in err


def test_empty_gallery_fails_clean(world_dir, tmp_path, capsys):
    labels = world_dir / "instance_labels.csv"
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(f"{id}\n" for id in load_labels(labels)))
    code, err = run_captured(
        capsys, "eval", "retrieval", "--store", world_dir / "store.paln",
        "--labels", labels, "--queries", queries, "--out", tmp_path / "o",
    )
    assert code == 1
    assert "error: no labeled gallery ids" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "task,missing",
    [
        ("retrieval", "--labels and --queries"),
        ("rag", "--labels and --queries"),
        ("probe", "--labels"),
        ("count", "--train-labels and --test-labels"),
        ("seg", "--targets"),
        ("depth", "--targets"),
    ],
)
def test_eval_without_input_flags_fails_clean(world_dir, tmp_path, capsys, task, missing):
    code, err = run_captured(
        capsys, "eval", task, "--store", world_dir / "store.paln", "--out", tmp_path / "o"
    )
    assert code == 1
    assert f"error: eval {task} needs {missing}" in err
    assert "Traceback" not in err


def _lying_adapters(path):
    save_adapters({"proj.a": np.ones((2, 2))}, path)
    raw = bytearray(path.read_bytes())
    raw[26:34] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)  # rows, cols of "proj.a"
    path.write_bytes(bytes(raw))


def _non_utf8_store(path):
    save_store(EmbeddingStore(["xy"], np.ones((1, 2))), path)
    raw = bytearray(path.read_bytes())
    raw[28:30] = b"\xff\xfe"  # the id bytes
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "case,expected",
    [("lying .pala shape", "truncated adapter file"), ("non-UTF-8 .paln id", "not UTF-8")],
)
def test_bad_binary_files_fail_clean(world_dir, tmp_path, capsys, case, expected):
    store, extra = world_dir / "store.paln", []
    if case.endswith("shape"):
        extra = ["--adapters", tmp_path / "bad.pala"]
        _lying_adapters(tmp_path / "bad.pala")
    else:
        store = tmp_path / "bad.paln"
        _non_utf8_store(store)
    code, err = run_captured(
        capsys, "eval", "retrieval", "--store", store,
        "--labels", world_dir / "instance_labels.csv", "--queries", world_dir / "queries.txt",
        "--out", tmp_path / "o", *extra,
    )
    assert code == 1
    assert "error:" in err and expected in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """A 40-triplet d=8, s=2 world with inputs for every command and eval task."""
    w = tmp_path_factory.mktemp("tiny")
    assert run(
        "synth", "--out", w, "--n", 40, "--d", 8, "--s", 2, "--factors", 4,
        "--instances", 6, "--seed", 1,
    ) == 0
    ids = load_store(w / "store.paln").ids
    save_labels({id: str(i % 3 + 1) for i, id in enumerate(ids[:20])}, w / "count_train.csv")
    save_labels({id: str(i % 3 + 1) for i, id in enumerate(ids[20:30])}, w / "count_test.csv")
    save_labels({id: "ab"[i % 2] for i, id in enumerate(ids[:24])}, w / "probe_labels.csv")
    rng = np.random.default_rng(0)
    for kind, draw in (("seg", lambda: rng.integers(0, 3, (4, 4))),
                       ("depth", lambda: rng.uniform(1.0, 5.0, (4, 4)))):
        (w / kind).mkdir()
        for id in ids[:12]:
            save_target(DenseTarget(draw(), np.ones((4, 4))), w / kind / f"{id}.palt", kind)
    return w


def tiny_argv(w: Path, command: str, task: str | None = None) -> list:
    """A command line that runs to completion on `tiny_world`, without --out."""
    store, manifest = w / "store.paln", w / "triplets.csv"
    if command == "synth":
        return ["synth", "--n", 30, "--d", 8, "--s", 2, "--factors", 4, "--instances", 4]
    if command == "align":
        return ["align", "--store", store, "--manifest", manifest, "--epochs", 1, "--lora-rank", 2]
    if command == "ablate":
        return [
            "ablate", "--dataset", f"a={store}:{manifest}", "--tasks", "afc",
            "--eval-manifest", manifest, "--budget", 40, "--epochs", 1, "--lora-rank", 2,
        ]
    inputs = {
        "retrieval": ["--labels", w / "instance_labels.csv", "--queries", w / "queries.txt"],
        "rag": ["--labels", w / "instance_labels.csv", "--queries", w / "queries.txt"],
        "probe": ["--labels", w / "probe_labels.csv", "--folds", 2, "--c-grid", 1],
        "count": [
            "--train-labels", w / "count_train.csv", "--test-labels", w / "count_test.csv",
            "--ks", "1,3",
        ],
        "seg": ["--targets", w / "seg", "--epochs", 1],
        "depth": ["--targets", w / "depth", "--epochs", 1, "--bins", 8],
    }
    return ["eval", task, "--store", store, "--lora-rank", 2, *inputs[task]]


TINY_COMMANDS = [("synth", None), ("align", None), ("ablate", None)] + [
    ("eval", task) for task in EVAL_TASKS
]


@pytest.mark.parametrize("command,task", TINY_COMMANDS, ids=lambda x: x or "")
def test_int_options_at_zero_and_minus_one_fail_clean(tiny_world, tmp_path, capsys, command, task):
    base = tiny_argv(tiny_world, command, task)
    code, err = run_captured(capsys, *base, "--out", tmp_path / "base")
    assert code == 0, err
    for opt in cli.OPTIONS[command if task is None else f"eval {task}"]:
        if opt.parse not in (cli.positive, cli.nonnegative):
            continue
        for value in (-1, 0):
            out = tmp_path / f"{opt.name}{value}"
            code, err = run_captured(capsys, *base, "--out", out, opt.flag, value)
            lines = err.strip().splitlines()
            assert code == 0 or (lines and "error:" in lines[-1]), (opt.flag, value, code, err)
            assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,task,extra,expected,message",
    [
        ("align", None, ["--seed", -1], 2, "invalid nonnegative value"),
        ("synth", None, ["--seed", -1], 2, "invalid nonnegative value"),
        ("eval", "retrieval", ["--lora-rank", -1], 2, "invalid positive value"),
        ("align", None, ["--lora-rank", -1], 2, "invalid positive value"),
        ("eval", "seg", ["--batch", -1], 2, "invalid positive value"),
        ("eval", "depth", ["--batch", 0], 2, "invalid positive value"),
        ("eval", "seg", ["--config", "batch=0"], 1, "bad value '0' for batch"),
        ("eval", "count", ["--ks", "0"], 1, "k must be in [1, 19] for 20 train items, got 0"),
        ("eval", "count", ["--ks", "1,19,20"], 1, "k must be in [1, 19]"),
        ("eval", "retrieval", ["--ks=-2,1"], 1, "k must be >= 1, got -2"),
        ("eval", "retrieval", ["--config", "ks=1,-3"], 1, "k must be >= 1, got -3"),
        ("eval", "retrieval", ["--config", "bins=8"], 1, "unknown config key 'bins'"),
        ("eval", "probe", ["--val-frac", 1.0], 1, "--val-frac must be in (0, 1), got 1.0"),
        ("align", None, ["--max-steps", 0], 2, "invalid positive value"),
        ("align", None, ["--config", "max_steps=0"], 1, "bad value '0' for max_steps"),
        ("ablate", None, ["--steps", "0,3"], 1, "max_steps must be >= 1, got 0"),
        ("align", None, ["--lr", "nan"], 2, "invalid finite value: 'nan'"),
        ("align", None, ["--margin", "nan"], 2, "invalid finite value: 'nan'"),
        ("align", None, ["--lora-alpha", "inf"], 2, "invalid finite value: 'inf'"),
        ("synth", None, ["--noise", "nan"], 2, "invalid finite value: 'nan'"),
        ("eval", "depth", ["--lr", "inf"], 2, "invalid finite value: 'inf'"),
        ("eval", "depth", ["--depth-range", "0.1,inf"], 2, "invalid float_pair value"),
        ("eval", "probe", ["--c-grid", "1,nan"], 2, "invalid float_list value"),
        ("align", None, ["--config", "lr=nan"], 1, "bad value 'nan' for lr"),
    ],
    ids=[
        "align-seed", "synth-seed", "eval-lora-rank", "align-lora-rank", "seg-batch-neg",
        "depth-batch-0", "seg-config-batch-0", "count-k-0", "count-k-n-train",
        "retrieval-k-neg", "retrieval-config-k-neg", "retrieval-config-bins",
        "probe-val-frac-1", "align-max-steps-0", "align-config-max-steps-0", "ablate-steps-0",
        "align-lr-nan", "align-margin-nan", "align-alpha-inf", "synth-noise-nan",
        "depth-lr-inf", "depth-range-inf", "probe-c-grid-nan", "align-config-lr-nan",
    ],
)
def test_out_of_range_settings_fail_clean(
    tiny_world, tmp_path, capsys, command, task, extra, expected, message
):
    if extra[0] == "--config":
        (tmp_path / "run.cfg").write_text(extra[1] + "\n")
        extra = ["--config", tmp_path / "run.cfg"]
    code, err = run_captured(
        capsys, *tiny_argv(tiny_world, command, task), *extra, "--out", tmp_path / "o"
    )
    lines = err.strip().splitlines()
    assert code == expected, err
    assert "error:" in lines[-1] and message in lines[-1]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--val-frac", 1.0], "--val-frac must be in (0, 1), got 1.0"),
        (["--c-grid", "0,1"], "c_grid must be non-empty and positive"),
        (["--folds", 1], "folds must be >= 2"),
    ],
    ids=["val-frac-1", "c-grid-0", "folds-1"],
)
def test_probe_settings_checked_before_the_store_loads(
    tiny_world, tmp_path, capsys, monkeypatch, extra, message
):
    def fail(*args, **kwargs):
        raise AssertionError("store loaded before the probe settings were checked")

    monkeypatch.setattr(cli, "load_store", fail)
    code, err = run_captured(
        capsys, *tiny_argv(tiny_world, "eval", "probe"), *extra, "--out", tmp_path / "o"
    )
    assert code == 1
    assert err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("factors", [1, 2])
def test_synth_refuses_unrealizable_factor_counts(tmp_path, capsys, monkeypatch, factors):
    def fail(*args, **kwargs):
        raise AssertionError("world generated before --factors was checked")

    monkeypatch.setattr(cli, "generate_world", fail)
    code, err = run_captured(capsys, "synth", "--factors", factors, "--out", tmp_path / "o")
    assert code == 1
    assert err.strip().splitlines() == [f"error: --factors must be >= 3, got {factors}"]
    assert not (tmp_path / "o").exists()


def test_probe_fit_that_does_not_converge_fails_clean(tiny_world, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProbeConfig", partial(cli.ProbeConfig, max_iter=1))
    code, err = run_captured(
        capsys, *tiny_argv(tiny_world, "eval", "probe"), "--out", tmp_path / "o"
    )
    lines = err.strip().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: probe fit at C=1 did not converge")



@pytest.mark.parametrize(
    "command,task,extra,message",
    [
        ("align", None, ["--lora-alpha", 0], "alpha must be > 0, got 0.0"),
        ("ablate", None, ["--lora-alpha", -1], "alpha must be > 0, got -1.0"),
        ("eval", "retrieval", ["--lora-alpha", 0], "alpha must be > 0, got 0.0"),
        ("eval", "seg", ["--lr", 0], "lr must be > 0, got 0.0"),
        ("eval", "depth", ["--lr", -1], "lr must be > 0, got -1.0"),
        ("eval", "seg", ["--train-frac", -1], "--train-frac must be in (0, 1), got -1.0"),
        ("eval", "depth", ["--train-frac", 0], "--train-frac must be in (0, 1), got 0.0"),
        ("eval", "seg", ["--train-frac", 1], "--train-frac must be in (0, 1), got 1.0"),
    ],
    ids=[
        "align-alpha-0", "ablate-alpha-neg", "eval-alpha-0", "seg-lr-0", "depth-lr-neg",
        "seg-train-frac-neg", "depth-train-frac-0", "seg-train-frac-1",
    ],
)
def test_out_of_range_floats_fail_clean(
    tiny_world, tmp_path, capsys, command, task, extra, message
):
    code, err = run_captured(
        capsys, *tiny_argv(tiny_world, command, task), *extra, "--out", tmp_path / "o"
    )
    assert code == 1
    assert err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("bad", [0.0, float("nan")], ids=["zero", "nan"])
def test_bad_training_depth_fails_clean(tiny_world, tmp_path, capsys, bad):
    # one image of the head's training split gets a bad depth inside its mask
    src = tiny_world / "depth"
    ids = [id for id in load_store(tiny_world / "store.paln").ids if (src / f"{id}.palt").exists()]
    train, _ = cli._split_counts(len(ids), 0.8, 0)
    targets = tmp_path / "depth"
    targets.mkdir()
    for i, id in enumerate(ids):
        target, _ = load_target(src / f"{id}.palt")
        if i == train[0]:
            target.values[1, 2] = bad
        save_target(target, targets / f"{id}.palt", "depth")
    argv = [*tiny_argv(tiny_world, "eval", "depth"), "--targets", targets, "--out", tmp_path / "o"]
    code, err = run_captured(capsys, *argv)
    assert code == 1
    assert err.strip().splitlines() == [
        "error: nonpositive or non-finite target depth inside the valid mask"
    ]


def test_probe_labels_naming_no_store_id_fail_clean(tiny_world, tmp_path, capsys):
    save_labels({"nowhere1": "a", "nowhere2": "b"}, tmp_path / "labels.csv")
    argv = [*tiny_argv(tiny_world, "eval", "probe"), "--labels", tmp_path / "labels.csv"]
    code, err = run_captured(capsys, *argv, "--out", tmp_path / "o")
    assert code == 1
    assert err.strip().splitlines() == ["error: no labeled ids found in the store"]


def test_lying_store_count_fails_clean(world_dir, tmp_path, capsys):
    bad = tmp_path / "bad.paln"
    bad.write_bytes(b"PALN" + struct.pack("<IIIQ", 1, 1, 0, 2**40) + bytes(6))
    code, err = run_captured(
        capsys, "eval", "retrieval", "--store", bad,
        "--labels", world_dir / "instance_labels.csv", "--queries", world_dir / "queries.txt",
        "--out", tmp_path / "o",
    )
    assert code == 1
    assert err.strip().splitlines()[-1].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--manifest", "--labels", "--queries"])
def test_non_utf8_text_inputs_fail_clean(world_dir, tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"id,label\n\xff\n")
    store, labels = world_dir / "store.paln", world_dir / "instance_labels.csv"
    queries = world_dir / "queries.txt"
    argv = {
        "--manifest": ["align", "--store", store, "--manifest", bad, "--epochs", 1],
        "--labels": ["eval", "retrieval", "--store", store, "--labels", bad, "--queries", queries],
        "--queries": ["eval", "retrieval", "--store", store, "--labels", labels, "--queries", bad],
    }[flag]
    code, err = run_captured(capsys, *argv, "--out", tmp_path / "o")
    assert code == 1
    assert err.strip().splitlines()[-1].startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in err


def _masked_seg_targets(w: Path, out: Path, fill=None, empty=None) -> Path:
    """tiny_world's seg targets with about a third of each image's pixels
    masked out. Masked pixels hold `fill`, or keep their class when it is None;
    the image at index `empty` loses its whole mask."""
    rng = np.random.default_rng(1)
    out.mkdir()
    for i, path in enumerate(sorted((w / "seg").iterdir())):
        target, _ = load_target(path)
        mask = rng.random(target.values.shape) > 0.3
        mask[0, 0] = True
        if i == empty:
            mask[...] = False
        values = target.values.copy()
        if fill is not None:
            values[~mask] = fill
        save_target(DenseTarget(values, mask), out / path.name, "seg")
    return out


def test_seg_head_ignores_labels_of_masked_pixels(tiny_world, tmp_path):
    metrics = []
    for fill in (None, 255):  # 255: a common ignore label
        targets = _masked_seg_targets(tiny_world, tmp_path / f"seg-{fill}", fill)
        out = tmp_path / f"out-{fill}"
        assert run(*tiny_argv(tiny_world, "eval", "seg"), "--targets", targets, "--out", out) == 0
        metrics.append(report_of(out)["metrics"])
    assert metrics[0] == metrics[1]


def test_seg_image_with_empty_mask_fails_clean(tiny_world, tmp_path, capsys):
    targets = _masked_seg_targets(tiny_world, tmp_path / "seg", empty=0)
    argv = [*tiny_argv(tiny_world, "eval", "seg"), "--targets", targets, "--out", tmp_path / "o"]
    code, err = run_captured(capsys, *argv)
    assert code == 1
    assert err.strip().splitlines() == ["error: empty valid mask"]



def test_dense_targets_stay_inside_targets_dir(tmp_path, capsys):
    # a store id "../outside" must not reach outside.palt beside --targets
    rng = np.random.default_rng(2)
    ids = ["../outside", "a", "b", "c"]
    store = tmp_path / "store.paln"
    save_store(EmbeddingStore(ids, rng.normal(size=(4, 8)), rng.normal(size=(4, 2, 2, 8))), store)
    targets = tmp_path / "targets"
    targets.mkdir()
    for path in (tmp_path / "outside.palt", *(targets / f"{id}.palt" for id in ids[1:])):
        save_target(DenseTarget(rng.integers(0, 3, (4, 4)), np.ones((4, 4))), path, "seg")
    argv = ["eval", "seg", "--store", store, "--lora-rank", 2, "--epochs", 1]
    assert run(*argv, "--targets", targets, "--out", tmp_path / "o") == 0
    metrics = report_of(tmp_path / "o")["metrics"]
    assert metrics["n_train_images"] + metrics["n_test_images"] == 3
    # a missing or non-directory --targets still fails clean
    for bad in (tmp_path / "missing", tmp_path / "outside.palt"):
        code, err = run_captured(capsys, *argv, "--targets", bad, "--out", tmp_path / "o2")
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("task,other", [("seg", "depth"), ("depth", "seg")])
def test_dense_targets_of_the_other_kind_fail_clean(tiny_world, tmp_path, capsys, task, other):
    argv = [*tiny_argv(tiny_world, "eval", task), "--targets", tiny_world / other]
    code, err = run_captured(capsys, *argv, "--out", tmp_path / "o")
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: eval {task} needs {task} targets, found {other} in ")
    assert not (tmp_path / "o" / "report.json").exists()


def test_csv_lists_every_report_metric(tiny_world, tmp_path):
    out = tmp_path / "o"
    assert run(*tiny_argv(tiny_world, "eval", "retrieval"), "--csv", "--out", out) == 0
    metrics = report_of(out)["metrics"]
    flat = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    assert len(flat) > 3 and not any(isinstance(v, dict) for v in flat.values())
    want = ["metric,value", *(f"{k},{flat[k]}" for k in sorted(flat))]
    assert (out / "metrics.csv").read_text() == "\n".join(want) + "\n"


# every eval task's settings beyond --feature-mode, --seed, --lora-rank,
# --lora-alpha, --adapters and --csv
EVAL_OWN_SETTINGS = {
    "retrieval": {"ks"},
    "count": {"ks"},
    "rag": {"k"},
    "probe": {"c_grid", "folds", "val_frac"},
    "seg": {"lr", "epochs", "batch", "train_frac"},
    "depth": {"lr", "epochs", "batch", "train_frac", "bins", "depth_range", "silog_sign"},
}


@pytest.mark.parametrize("task", EVAL_TASKS)
def test_eval_report_config_holds_only_the_task_settings(tiny_world, tmp_path, task):
    out = tmp_path / "o"
    assert run(*tiny_argv(tiny_world, "eval", task), "--out", out) == 0
    names = {opt.name for opt in cli.OPTIONS[f"eval {task}"]}
    common = {"feature_mode", "seed", "lora_rank", "lora_alpha", "adapters", "csv"}
    assert names == common | EVAL_OWN_SETTINGS[task]
    assert set(report_of(out)["config"]) == names
    assert set(json.loads((out / "resolved_config.json").read_text())) == names


@pytest.mark.parametrize(
    "tasks,message",
    [
        ("foo", "unsupported ablation task 'foo' (use retrieval, afc)"),
        ("retrieval", "retrieval task needs --eval-labels and --eval-queries"),
        ("afc", "afc task needs --eval-manifest"),
    ],
    ids=["unknown", "retrieval", "afc"],
)
def test_ablate_checks_tasks_before_loading_or_training(
    tiny_world, tmp_path, capsys, monkeypatch, tasks, message
):
    def fail(*args, **kwargs):
        raise AssertionError("called before the ablation tasks were checked")

    monkeypatch.setattr(cli, "load_store", fail)
    monkeypatch.setattr(cli, "train_alignment", fail)
    dataset = f"a={tiny_world / 'store.paln'}:{tiny_world / 'triplets.csv'}"
    code, err = run_captured(
        capsys, "ablate", "--dataset", dataset, "--tasks", tasks, "--budget", 40,
        "--epochs", 1, "--out", tmp_path / "o",
    )
    assert code == 1
    assert err.strip().splitlines() == [f"error: {message}"]


def test_ablate_checks_ks_before_loading_or_training(tiny_world, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("called before --ks was checked")

    monkeypatch.setattr(cli, "load_store", fail)
    monkeypatch.setattr(cli, "train_alignment", fail)
    dataset = f"a={tiny_world / 'store.paln'}:{tiny_world / 'triplets.csv'}"
    code, err = run_captured(
        capsys, "ablate", "--dataset", dataset, "--tasks", "retrieval", "--budget", 40,
        "--epochs", 1, "--eval-labels", tiny_world / "instance_labels.csv",
        "--eval-queries", tiny_world / "queries.txt", "--ks", "0", "--out", tmp_path / "o",
    )
    assert code == 1
    assert err.strip().splitlines() == ["error: k must be >= 1, got 0"]


def test_ablate_loads_its_eval_manifest_once(tiny_world, tmp_path, monkeypatch):
    eval_manifest = tmp_path / "eval.csv"
    eval_manifest.write_bytes((tiny_world / "triplets.csv").read_bytes())
    loads = []

    def counting_load(path):
        loads.append(Path(path))
        return load_manifest(path)

    monkeypatch.setattr(cli, "load_manifest", counting_load)
    store, manifest = tiny_world / "store.paln", tiny_world / "triplets.csv"
    assert run(
        "ablate", "--dataset", f"a={store}:{manifest}", "--dataset", f"b={store}:{manifest}",
        "--tasks", "afc", "--eval-manifest", eval_manifest, "--steps", "1,2,3",
        "--budget", 40, "--epochs", 1, "--lora-rank", 2, "--out", tmp_path / "o",
    ) == 0
    assert loads.count(eval_manifest) == 1
    assert len(report_of(tmp_path / "o")["metrics"]["rows"]) == 6


@settings(max_examples=100, deadline=None)
@given(
    gallery=st.lists(st.text("abc", min_size=1, max_size=3), unique=True, max_size=30),
    query_ids=st.lists(st.text("xyz", min_size=1, max_size=3), unique=True, max_size=10),
    data=st.data(),
)
def test_truth_sets_are_the_gallery_scan(gallery, query_ids, data):
    label = st.sampled_from("pqrs")
    labels = {id: data.draw(label) for id in [*gallery, *query_ids]}
    expected = {q: {g for g in gallery if labels[g] == labels[q]} for q in query_ids}
    assert cli._truth_sets(gallery, labels, query_ids) == expected


def test_query_whose_label_has_no_gallery_id_fails():
    labels = {"g1": "a", "g2": "b", "q1": "a", "q2": "c"}
    with pytest.raises(DataError, match="^query 'q2' has an empty ground-truth set$"):
        cli._recall(
            lambda id: np.ones(2), ["g1", "g2", "q1", "q2"], labels, ["q1", "q2"], "l.csv", "1"
        )


def _outputs(out: Path) -> dict:
    """Every file under out by relative path; report.json without wall_time_s."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = (
                canonical_report_bytes(path.parent) if path.name == "report.json"
                else path.read_bytes()
            )
    return files


@pytest.mark.parametrize("command,task", TINY_COMMANDS[1:], ids=lambda x: x or "")
def test_commands_read_only_their_rows_and_report_as_from_the_whole_store(
    tiny_world, tmp_path, monkeypatch, command, task
):
    whole = len(load_store(tiny_world / "store.paln"))
    argv = tiny_argv(tiny_world, command, task)
    if command == "eval":
        assert run(*tiny_argv(tiny_world, "align"), "--out", tmp_path / "a") == 0
        argv += ["--adapters", tmp_path / "a" / "adapters.pala"]
    read = []

    def recorded(path, ids=None):
        store = load_store(path, ids)
        read.append(len(store))
        return store

    monkeypatch.setattr(cli, "load_store", recorded)
    assert run(*argv, "--out", tmp_path / "rows") == 0
    assert read and all(n < whole for n in read), read
    monkeypatch.setattr(cli, "load_store", lambda path, ids=None: load_store(path))
    assert run(*argv, "--out", tmp_path / "whole") == 0
    assert _outputs(tmp_path / "rows") == _outputs(tmp_path / "whole")


STORE_COMMANDS = [("align", None)] + [("eval", task) for task in EVAL_TASKS]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    command=st.sampled_from(STORE_COMMANDS),
    kind=st.sampled_from(["truncate", "flip", "count", "id length"]),
)
def test_bad_store_fails_clean_in_every_command(
    tiny_world, tmp_path_factory, data, command, kind
):
    # a truncated or lying store exits 1; a bit-flipped one may still load, and
    # a command that reads no flipped row may succeed; none ends in a traceback
    good = tiny_world / "store.paln"
    raw = bytearray(good.read_bytes())
    if kind == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)) :]
    elif kind == "flip":
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)):
            raw[bit // 8] ^= 1 << (bit % 8)
    elif kind == "count":
        count = data.draw(st.integers(0, 2**64 - 1).filter(lambda c: c != len(load_store(good))))
        raw[16:24] = struct.pack("<Q", count)
    else:
        at = 24
        store = load_store(good)
        for id in store.ids[: data.draw(st.integers(0, len(store) - 1))]:
            at += 4 + len(id.encode()) + 4 * store.dim * (1 + store.patch_side**2)
        (id_len,) = struct.unpack("<I", raw[at : at + 4])
        lie = data.draw(st.integers(0, 2**32 - 1).filter(lambda n: n != id_len))
        raw[at : at + 4] = struct.pack("<I", lie)
    out = tmp_path_factory.mktemp("bad")
    (out / "store.paln").write_bytes(bytes(raw))
    argv = [out / "store.paln" if a == good else a for a in tiny_argv(tiny_world, *command)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(*argv, "--out", out / "o")
    lines = err.getvalue().splitlines()
    assert code in ((0, 1) if kind == "flip" else (1,)), (code, lines)
    if code:
        assert lines and lines[-1].startswith("error: "), lines

