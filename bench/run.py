#!/usr/bin/env python3
"""palign benchmark: three workloads timed end to end, checked, and traced.

    python3 bench/run.py --workload desk_align --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all        # each workload in its own process
    python3 bench/run.py --selftest            # tiny sizes, checks and corrupted reports

One run sets up the workload's inputs from --seed (several times when cheap,
reporting the median), then runs whole rounds of its palign commands through
`palign.cli.main` in this process for about --seconds, checking every round's
outputs with recomputations made apart from the program. The last line of
standard output is one JSON object: correct, attempted and failed command
counts, and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names. A fuller record, with the git SHA and
the numpy/BLAS configuration, goes to bench/runs/. See bench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()
# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"


def load_palign():
    """Import palign.cli from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "palign" / "cli.py").is_file():
        print(f"error: no palign sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import palign.cli

    if Path(palign.cli.__file__).resolve().parent != src / "palign":
        print(f"error: palign imported from {palign.cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return palign.cli


def run_command(cli, argv: list[str]) -> bool:
    """One palign command in this process; False on a nonzero exit or a crash."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    if code != 0:
        print(f"command failed with exit {code}: palign {' '.join(argv)}", file=sys.stderr)
    return code == 0


def set_up(wl, work: Path, seed: int, tracer) -> tuple[Path, list[float]]:
    """The synthetic world plus the workload's own files, wl.setup_reps times."""
    times = []
    world = None
    for rep in range(wl.setup_reps):
        previous, world = world, work / f"setup{rep}"
        span = tracer.open("setup") if tracer else None
        t0 = time.perf_counter()
        wl.synthesize(world, seed)
        wl.prepare(world, seed)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
        if previous:
            shutil.rmtree(previous)
    return world, times


def run_round(cli, wl, world: Path, out: Path, seed: int, tracer) -> dict:
    """Every command of one round, timed one by one."""
    timings, failed = {}, 0
    t_round = time.perf_counter()
    for name, argv in wl.commands(world, out, seed):
        span = tracer.open(f"cli.{name}") if tracer else None
        t0 = time.perf_counter()
        failed += not run_command(cli, argv)
        timings[name] = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
    return {
        "commands": timings,
        "failed": failed,
        "align_s": timings["align"],
        "evals_s": sum(t for name, t in timings.items() if name.startswith("eval_")),
        "pipeline_s": time.perf_counter() - t_round,
    }


def check_round(wl, world: Path, out: Path, seed: int) -> list[str]:
    try:
        return wl.check(world, out, seed)
    except Exception as exc:  # a missing file or key in an output is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_workload(cli, wl, seed: int, seconds: float, tracer, import_s: float) -> dict:
    """Set up, then whole rounds while the next one is expected to fit in `seconds`."""
    work = RUNS / f"{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        world, setup_times = set_up(wl, work, seed, tracer)
        rounds, problems = [], []
        window = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out = work / f"round{len(rounds)}"
            result = run_round(cli, wl, world, out, seed, tracer)
            if result["failed"] == 0:
                problems += check_round(wl, world, out, seed)
            shutil.rmtree(out, ignore_errors=True)
            rounds.append(result)
            elapsed = time.perf_counter() - window
            if elapsed + (time.perf_counter() - t0) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        **{k: statistics.median(r[k] for r in rounds) for k in ("align_s", "evals_s", "pipeline_s")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return {
        "correct": not problems,
        "attempted": sum(len(r["commands"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "problems": problems,
        "rounds": rounds,
        "setup_times": setup_times,
        "import_s": import_s,
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main_one(args) -> int:
    cli = load_palign()
    import spans
    import workloads

    import_s = time.perf_counter() - _START
    spec = benchmark_spec()
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    result = run_workload(cli, wl, args.seed, args.seconds, tracer, import_s)
    rounds = len(result["rounds"])

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, **provenance(), **result}
    if tracer:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer.spans, rounds)
        record["layer_metrics"] = layers
        record["span_summary"] = spans.span_summary(tracer.spans)
        record["spans"] = tracer.spans
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = result["metrics"]
    RUNS.mkdir(exist_ok=True)
    suffix = "-tiny" if args.tiny else ""
    (RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: run produced no value for {missing}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {rounds} round(s), {result['attempted']} commands "
          f"attempted, {result['failed']} failed, checks {'pass' if result['correct'] else 'FAIL'}")
    for name, value in sorted(values.items()):
        print(f"  {name:34s} {value:.6g}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _one_case(value, n):
    """Move a rate by one case out of n, staying inside [0, 1]."""
    return value - 1.0 / n if value >= 1.0 / n else value + 1.0 / n


# (report dir, metric path, corruption) per workload; each must fail the checks
CORRUPTIONS = {
    "desk_align": [
        ("align", ("best_val_2afc",), lambda v, m: _one_case(v, m["n_val"])),
        ("eval_retrieval", ("recall", "1"), lambda v, m: _one_case(v, m["n_queries"])),
        ("eval_probe", ("best_c",), lambda v, m: v * 10.0),
    ],
    "wide_store": [
        ("align", ("best_val_loss",), lambda v, m: v * 1.01),
        ("eval_rag", ("accuracy",), lambda v, m: _one_case(v, m["n_queries"])),
        ("eval_count", ("mae",), lambda v, m: v + 0.05),  # one case of the 20 tiny test ids
    ],
    "patch_dense": [
        ("align", ("frozen_val_2afc",), lambda v, m: _one_case(v, m["n_val"])),
        ("eval_seg", ("pixel_accuracy",), lambda v, m: 0.0),
        ("eval_depth", ("delta2",), lambda v, m: m["delta1"] - 1e-3),
    ],
}


def selftest(cli) -> int:
    """Tiny workloads, traced: untouched outputs pass, each corrupted one fails."""
    import spans
    import workloads

    spec = benchmark_spec()
    ok = True

    def say(passed: bool, text: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {text}")

    for name, make in workloads.WORKLOADS.items():
        wl = make(tiny=True)
        work = RUNS / f"selftest-{name}-{os.getpid()}"
        tracer = spans.Tracer()
        tracer.install()
        try:
            world, _ = set_up(wl, work, 1, tracer)
            out = work / "round0"
            result = run_round(cli, wl, world, out, 1, tracer)
            tracer.uninstall()
            say(result["failed"] == 0, f"{name}: every command exits 0")
            problems = check_round(wl, world, out, 1)
            say(not problems, f"{name}: checks pass on the program's outputs {problems or ''}")
            layers = spans.layer_metrics(tracer.spans, 1)
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
            say(not missing, f"{name}: traced round yields every per-layer metric {missing or ''}")
            for report_dir, key, corrupt in CORRUPTIONS[name]:
                path = out / report_dir / "report.json"
                original = path.read_text()
                doc = json.loads(original)
                holder = doc["metrics"]
                for part in key[:-1]:
                    holder = holder[part]
                holder[key[-1]] = corrupt(holder[key[-1]], doc["metrics"])
                path.write_text(json.dumps(doc))
                caught = check_round(wl, world, out, 1)
                path.write_text(original)
                say(bool(caught), f"{name}: corrupted {report_dir} {'.'.join(key)} is caught")
        finally:
            tracer.uninstall()
            shutil.rmtree(work, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main_all(args) -> int:
    """Every workload, each in a fresh process so peak RSS stays its own."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="desk_align, wide_store, patch_dense or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input size")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny workloads: checks must pass, then fail on corrupted reports")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(load_palign())
    if args.workload == "all":
        return main_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
