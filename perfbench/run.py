"""Benchmark of the tokenimpact CLI on two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload report_aic --seed 1 --seconds 55 --trace 0

Each operation is one CLI command in a fresh process (``child.py``) with the
BLAS/OpenMP pools pinned to one thread. A round runs one operation per lane
at once, each lane pinned to its own CPU (two lanes where two CPUs are
allowed). A run repeats rounds, closed loop, until ``--seconds`` have
passed, checks the artifacts, and prints one JSON object as its last line.
With ``--trace 0`` it reports the medians of ``wall_norm_s``, ``peak_rss_mb``
and ``setup_s``, the two times scaled by the host speed that ``reference.py``
measures beside each command. With ``--trace 1`` each round is one traced
and one untraced operation, and it reports the per-layer metrics of the
traced ones plus the tracing overhead. Without ``--workload`` every workload
runs in turn and the metric names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import checks
import reference
import tracer
import world

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
# a hung command still leaves the run well inside three minutes
CHILD_TIMEOUT_S = 90
KEEP_INPUTS = 6
# one operation per CPU at once: on the 2-vCPU reference machine each vCPU
# slows down in phases that the other shares only in part, and two lanes
# double the operations in a run without slowing each one
LANES = 2
# BLAS and OpenMP pools size themselves to the machine unless told otherwise;
# with a second CPU shared with other tenants, wall time then depends on them
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# end-to-end metric -> (field of an operation, unit); the two times are
# scaled to the host speed that reference.NOMINAL_S stands for
END_TO_END = {"wall_norm_s": ("wall_norm_s", "s"), "peak_rss_mb": ("peak_rss_mb", "MB"),
              "setup_s": ("setup_norm_s", "s")}


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    # reads a planted-world CSV from world.py; simulate makes its own data
    needs_input: bool

    def command(self, input_csv: Path | None, outdir: Path, seed: int) -> list[str]:
        if self.name == "report_aic":
            return ["report", "--input", str(input_csv), "--outdir", str(outdir),
                    "--seed", str(seed), "--interactions", "aic"]
        return ["simulate", "--preset", "default-world", "--n", str(self.rows),
                "--seed", str(seed), "--out", str(outdir / "survey.csv"),
                "--truth", str(outdir / "truth.json")]

    def check(self, input_csv: Path | None, outdir: Path) -> list[str]:
        if self.name == "report_aic":
            return checks.check_report(input_csv, outdir)
        return checks.check_simulate(outdir / "survey.csv", outdir / "truth.json", self.rows)


WORKLOADS = {
    w.name: w
    for w in (
        # every layer in one pass: describe, timu, factors, AIC selection over
        # all ten group pairs and the 5 x 200 bootstrap
        Workload("report_aic", 10_000, True),
        # CSV write, synthetic generation and Monte-Carlo truth; no analysis
        Workload("simulate_truth", 100_000, False),
    )
}


def prepare_input(workload: Workload, seed: int) -> Path | None:
    """Planted-world CSV for this workload and seed, generated once and cached."""
    if not workload.needs_input:
        return None
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    path = inputs / f"world-n{workload.rows}-seed{seed}.csv"
    if not path.exists():
        world.write_csv(world.sample(workload.rows, seed), path)
        cached = sorted(inputs.glob("*.csv"), key=lambda p: p.stat().st_mtime)
        for old in cached[:-KEEP_INPUTS]:
            old.unlink()
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(SRC)
    return env


def lane_cpus() -> list[int]:
    """The CPU of each lane: the first LANES of those this process may use."""
    return sorted(os.sched_getaffinity(0))[:LANES]


def run_op(workload: Workload, input_csv, outdir: Path, seed: int, trace: bool,
           cpu: int) -> dict:
    """One command in a fresh process pinned to ``cpu``; returns its measurements."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_path = outdir.parent / f"{outdir.name}.result.json"
    result_path.unlink(missing_ok=True)
    env = child_env()
    tail = [str(result_path), "1" if trace else "0", str(SRC), str(cpu), "--",
            *workload.command(input_csv, outdir, seed)]
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), repr(time.monotonic()), *tail],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        return {"ok": False, "error": f"command returned {result['rc']}: {proc.stderr.strip()[-2000:]}"}
    result["ok"] = True
    return result


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(outdir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop of one workload's command; returns the run's record."""
    input_csv = prepare_input(workload, seed)
    compileall.compile_dir(str(SRC), quiet=1)
    cpus = lane_cpus()
    outdirs = {cpu: WORK / "out" / workload.name / f"cpu{cpu}" for cpu in cpus}
    ops: list[dict] = []
    problems: list[str] = []
    # artifact digest of each lane's first operation, which is fully checked
    references: dict[int, str] = {}
    # one round is one untraced command per lane, or a traced plus an
    # untraced one; a batch runs at most one command per lane at once
    round_modes = (True, False) if trace else (False,) * len(cpus)
    batches = [round_modes[i:i + len(cpus)] for i in range(0, len(round_modes), len(cpus))]

    def one(traced: bool, cpu: int) -> dict:
        op = run_op(workload, input_csv, outdirs[cpu], seed, traced, cpu)
        op.update(traced=traced, cpu=cpu)
        if op["ok"]:
            before, after = op["ref_s"]
            op["wall_norm_s"] = op["wall_s"] * reference.NOMINAL_S / ((before + after) / 2)
            op["setup_norm_s"] = op["setup_s"] * reference.NOMINAL_S / before
        return op

    start = time.monotonic()
    rounds = 0
    with ThreadPoolExecutor(len(cpus)) as pool:
        while True:
            round_start = time.monotonic()
            for batch in batches:
                # the lanes take turns at the traced command
                lanes = [cpus[(i + rounds) % len(cpus)] for i in range(len(batch))]
                for op in pool.map(one, batch, lanes):
                    ops.append(op)
                    if not op["ok"]:
                        print(f"{workload.name}: failed operation: {op['error']}",
                              file=sys.stderr)
                        continue
                    outdir = outdirs[op["cpu"]]
                    if op["cpu"] not in references:
                        try:
                            problems += workload.check(input_csv, outdir)
                        except (OSError, LookupError, TypeError, ValueError) as exc:
                            problems.append(f"artifacts unreadable: {exc!r}")
                        references[op["cpu"]] = digest(outdir)
                    elif digest(outdir) != references[op["cpu"]]:
                        problems.append("artifacts differ between reruns of the same command")
            rounds += 1
            # start another round only if one more like the last still ends in time
            now = time.monotonic()
            if now - start + (now - round_start) > seconds:
                break
    for p in problems:
        print(f"{workload.name}: check failed: {p}", file=sys.stderr)

    done = [op for op in ops if op["ok"]]
    plain = [op for op in done if not op["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        layers = [tracer.layer_metrics(op["spans"], op["installed"]) for op in done if op["traced"]]
        if layers:
            for name in layers[0]:
                metrics[name] = (statistics.median(m[name] for m in layers),
                                 "s" if name.endswith(".s") else "count")
        if layers and plain:
            overhead = (statistics.median(op["wall_norm_s"] for op in done if op["traced"])
                        / statistics.median(op["wall_norm_s"] for op in plain) - 1.0)
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    elif plain:
        for name, (field, unit) in END_TO_END.items():
            metrics[name] = (statistics.median(op[field] for op in plain), unit)
    record = {
        "workload": workload.name,
        "seed": seed,
        "rows": workload.rows,
        "trace": trace,
        "lanes": len(cpus),
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reference": {
            "wall_s": statistics.median(op["wall_s"] for op in plain) if plain else None,
            "setup_s": statistics.median(op["setup_s"] for op in plain) if plain else None,
            "cpu_s": statistics.median(op["cpu_s"] for op in plain) if plain else None,
            "rows_per_s": (workload.rows / statistics.median(op["wall_s"] for op in plain)
                           if plain else None),
        },
        "ops": ops,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tokenimpact" / "cli.py").is_file():
        print(f"no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # the program wants a non-negative seed below 2^31; the generator takes the same one
    seed = args.seed % 2**31
    names = [args.workload] if args.workload else list(WORKLOADS)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(WORKLOADS[name], seed, args.seconds, bool(args.trace))
        prefix = "" if args.workload else f"{name}."
        for metric, m in record["metrics"].items():
            summary["metrics"][prefix + metric] = m
            print(f"{name:15} {metric:40} {m['value']:14.6g} {m['unit']}")
        print(f"{name:15} attempted {record['attempted']}, failed {record['failed']}, "
              f"correct {str(record['correct']).lower()}")
        summary["correct"] &= record["correct"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
