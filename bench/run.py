#!/usr/bin/env python3
"""fairlens benchmark: one workload, timed end to end or per layer, checked.

Usage (from the root of a fairlens source tree):

    python3 bench/run.py --workload run-mlp --seed 1 --seconds 35 --trace 0

Workloads (see README.md in this directory for why each exists):

    run-mlp    fairlens run, logit+mlp, 7000-row recidivism stand-in
    run-zoo    fairlens run, knn+rf+tree+nb+logit, same stand-in
    audit-val  fairlens audit, 2 x 200k-row prediction files, validation
               column selects the thresholds

The inputs are generated from --seed before anything is timed. Each round
runs one fairlens command through `fairlens.cli.main` in a fresh
interpreter, single-process (`--jobs 1`) with BLAS pinned to one thread.
Rounds repeat until another would end past --seconds; every run makes at
least two, so each run also checks that the rounds wrote identical
bundle.json bytes. The first round's bundle is checked in full (checks.py).

--trace 0 reports wall_s, setup_s and peak_rss_mb (medians). --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
of the traced rounds (medians) and trace.overhead_s. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Attempted and failed count (dataset, feature, seed) cells. Work files go
to .bench_out/<workload>/ in the current directory.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads here or in any child: thread count changes
# both timing and, through the MLP matmuls, the bundle bytes
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
# set-up probes (fresh-interpreter imports): two before the first round and,
# after every round, one per SETUP_PROBE_EVERY_S seconds of that round, so
# the median samples the machine's speed over the whole run as wall_s does
SETUP_PROBES_BEFORE = 2
SETUP_PROBE_EVERY_S = 4.0
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "run" or "audit"
    rows: int
    models: str = ""
    folds: int = 3
    draws: int = 1
    validation_share: float = 0.2


WORKLOADS = {w.name: w for w in (
    Workload("run-mlp", "run", 7000, "logit,mlp", folds=3, draws=1),
    Workload("run-zoo", "run", 7000, "knn,rf,tree,nb,logit", folds=3, draws=1),
    Workload("audit-val", "audit", 200_000, validation_share=0.2),
)}
CELLS_PER_ROUND = 2  # one seed x two protected features, on every workload


@dataclass
class Prepared:
    argv: list[str]                  # fairlens arguments, without --out
    check: Callable[[dict], None]    # raises checks.CheckFailed


def prepare(workload: Workload, seed: int, work: Path) -> Prepared:
    """Generate the workload's inputs from seed; nothing here is timed."""
    if workload.command == "run":
        spec = inputs.write_recidivism(work, workload.rows, seed)
        argv = ["run", "--datasets", str(spec), "--seeds", "1",
                "--folds", str(workload.folds),
                "--draws", str(workload.draws),
                "--models", workload.models, "--jobs", "1"]
        return Prepared(argv, checks.check_run_bundle)
    data = inputs.AuditInputs(workload.rows, seed, workload.validation_share)
    argv = ["audit"]
    for name, path in data.write(work):
        argv += ["--predictions", f"{name}={path}"]
    argv += ["--features", ",".join(inputs.AUDIT_FEATURES),
             "--validation-column", inputs.VALIDATION_COLUMN]
    return Prepared(argv, lambda bundle: checks.check_audit_bundle(bundle, data))


def run_child(src: Path, round_dir: Path, argv: list[str],
              traced: bool = False) -> dict:
    """Run child.py once in a fresh round_dir; return its result JSON."""
    shutil.rmtree(round_dir, ignore_errors=True)
    round_dir.mkdir(parents=True)
    result_path = round_dir / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           "1" if traced else "0", str(src), *argv]
    if argv:
        cmd += ["--out", str(round_dir / "out")]
    with open(round_dir / "log.txt", "w", encoding="utf-8") as log:
        # children inherit the BLAS pins set in os.environ above
        proc = subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not result_path.is_file():
        tail = (round_dir / "log.txt").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"child exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure_setup(src: Path, work: Path, count: int) -> list[float]:
    """Import times of fairlens.cli in `count` fresh interpreters."""
    return [run_child(src, work / "setup", [])["setup_s"]
            for _ in range(count)]


@dataclass
class Round:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    sha256: str | None
    bundle: dict | None
    failed_cells: int
    layers: dict | None


def run_round(src: Path, round_dir: Path, argv: list[str],
              traced: bool) -> Round:
    result = run_child(src, round_dir, argv, traced)
    out = round_dir / "out"
    if result["exit_code"] not in (0, 1):
        raise checks.CheckFailed(
            f"fairlens exited {result['exit_code']}; see {round_dir}/log.txt")
    bundle_path = out / "bundle.json"
    bundle = sha = None
    if bundle_path.is_file():
        raw = bundle_path.read_bytes()
        sha = hashlib.sha256(raw).hexdigest()
        bundle = json.loads(raw)
    failed = CELLS_PER_ROUND - checks.cell_count(bundle)
    # exit 1 and failures.json mean failed cells; anything else is a fault
    if (result["exit_code"] == 1) != (out / "failures.json").is_file() \
            or (failed > 0) != (result["exit_code"] == 1):
        raise checks.CheckFailed(
            f"exit code {result['exit_code']} with {failed} missing cells; "
            f"see {round_dir}/log.txt")
    return Round(traced, result["wall_s"], result["peak_rss_kb"] / 1024.0,
                 sha, bundle, failed, result.get("layers"))


def run_rounds(src: Path, work: Path, argv: list[str], seconds: float,
               trace: bool, setup: list[float]) -> list[Round]:
    """Whole rounds until another one would end past `seconds`; set-up
    probes after each round are appended to `setup`."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        begun = time.perf_counter()
        rounds.append(run_round(src, work / f"round{len(rounds)}", argv,
                                traced))
        probes = round((time.perf_counter() - begun) / SETUP_PROBE_EVERY_S)
        setup += measure_setup(src, work, max(1, probes))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and \
                elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def summarize(rounds: list[Round], setup: list[float], trace: bool) -> dict:
    plain = [r for r in rounds if not r.traced]
    wall = statistics.median(r.wall_s for r in plain)
    if not trace:
        return {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r.peak_rss_mb for r in plain), "unit": "MiB"},
        }
    traced = [r for r in rounds if r.traced]
    metrics = {name: {"value": statistics.median(r.layers[name] for r in traced),
                      "unit": unit}
               for name, unit in tracing.LAYER_METRICS.items()}
    metrics[tracing.OVERHEAD_METRIC] = {
        "value": statistics.median(r.wall_s for r in traced) - wall,
        "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fairlens" / "cli.py").is_file():
        print(f"error: no fairlens sources under {src}; run from the root "
              "of a fairlens source tree", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / OUT_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)

    prepared = prepare(workload, args.seed, work / "inputs")
    # the first import may compile bytecode and fill the file cache
    measure_setup(src, work, 1)
    setup = measure_setup(src, work, SETUP_PROBES_BEFORE)
    correct, problem = True, None
    try:
        rounds = run_rounds(src, work, prepared.argv, args.seconds,
                            bool(args.trace), setup)
        checks.check_same_hashes([r.sha256 for r in rounds])
        if rounds[0].bundle is None:
            raise checks.CheckFailed("first round wrote no bundle")
        prepared.check(rounds[0].bundle)
    except checks.CheckFailed as exc:
        correct, problem = False, str(exc)
    if not correct:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    metrics = summarize(rounds, setup, bool(args.trace))
    attempted = CELLS_PER_ROUND * len(rounds)
    failed = sum(r.failed_cells for r in rounds)
    summary = {"workload": workload.name, "seed": args.seed,
               "rounds": len(rounds), "bundle_sha256": rounds[0].sha256,
               "setup_samples_s": setup,
               "round_walls_s": [r.wall_s for r in rounds],
               "round_peak_rss_mb": [r.peak_rss_mb for r in rounds],
               "metrics": metrics}
    (work / "result.json").write_text(json.dumps(summary, indent=1) + "\n",
                                      encoding="utf-8")
    print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds, "
          f"bundle.json sha256 {rounds[0].sha256}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
