#!/usr/bin/env python3
"""Benchmark of the citeineq pipeline, end to end and per module.

    python3 bench/run.py --workload cohort_json --seed 1 --seconds 30 --trace 0

Run from any directory; the package is imported from ``src/`` next to
this directory, never from an installed copy.  One run:

1. writes seeded synthetic inputs for the workload under ``bench/out/``;
2. starts ``bench/passes.py`` in a fresh interpreter, which runs timed
   passes from a single thread for ``--seconds`` seconds, checking every
   pass's outputs; with ``--trace 0`` each pass is followed by a timed
   launch of a fresh interpreter doing ``import citeineq.cli``
   (``setup_s``); with ``--trace 1`` the passes alternate untraced and
   traced, and the traced ones record spans around every call into the
   package's modules;
3. prints each metric with its unit, writes a run record to
   ``bench/out/records/``, and prints one JSON object as its last line.

It exits 1 when an output check fails and 2 when it cannot run at all.
``--smoke`` shrinks the inputs so that ``bench/selftest.py`` finishes in
seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Everything one run may take, inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: (span names summed, metric) for the self times the traced run reports.
SELF_TIMES = [
    (("ingest.load_profile",), "ingest.load_profile.self_s"),
    (("profiles.ResearcherProfile",), "profiles.ResearcherProfile.self_s"),
    (("windows.window_series",), "windows.window_series.self_s"),
    (("lorenz.build_lorenz",), "lorenz.build_lorenz.self_s"),
    (("lorenz.gini",), "lorenz.gini.self_s"),
    (("lorenz.kolkata",), "lorenz.kolkata.self_s"),
    (("lorenz.hirsch",), "lorenz.hirsch.self_s"),
    (("soc.career_summary",), "soc.career_summary.self_s"),
    (("report.series_to_csv",), "report.series_to_csv.self_s"),
    (("report.series_from_csv",), "report.series_from_csv.self_s"),
    (("report.cohort_to_csv", "report.cohort_to_json", "report.cohort_to_markdown"),
     "report.cohort_tables.self_s"),
    (("report.write_text", "report.write_json"), "report.write.self_s"),
    (("landau.fit_k_vs_g",), "landau.fit_k_vs_g.self_s"),
    (("cli.build_parser",), "cli.build_parser.self_s"),
    (("cli.main",), "cli.main.self_s"),
]

CALLS = [
    "ingest.load_profile", "profiles.ResearcherProfile", "windows.window_series",
    "lorenz.build_lorenz", "lorenz.gini", "lorenz.kolkata", "lorenz.hirsch",
    "soc.career_summary", "landau.fit_k_vs_g", "cli.build_parser", "cli.main",
]

#: Metrics of the traced run, with units, in the order they are printed.
PER_LAYER = (
    {f"{name}.calls": "count" for name in CALLS}
    | {metric: "s" for _, metric in SELF_TIMES}
    | {f"layer.{layer}.self_s": "s" for layer in LAYERS}
    | {
        "ingest.rows": "count",
        "ingest.bytes_read": "B",
        "windows.windows": "count",
        "windows.windows_skipped": "count",
        "report.bytes_written": "B",
        "report.profile_ms.p50": "ms",
        "report.profile_ms.p98": "ms",
        "report.profile_ms.n": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.unaccounted_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    }
)

#: (profiles, windows per profile) whose windows the oracle recomputes per pass.
SAMPLES = {"cohort_json": (20, 40), "bulk_csv": (1, 1), "series_replot": (30, 80)}

#: Largest share of the traced wall time that may lie outside every span.
RECONCILE_SHARE = 0.10


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    """The checkout's package first on the path; one thread; fixed str hashing,
    so that dict and set layouts do not vary from run to run."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv: list[str], deadline: float) -> None:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget used up")
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv[1:3])}") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"exit {proc.returncode} from {' '.join(argv[1:3])}: {' | '.join(tail)}")


def prepare_series(meta: dict, in_dir: Path, work: Path, deadline: float) -> tuple[Path, list[str]]:
    """Series files for ``series_replot``, written by one untimed batch."""
    prep = work / "prep"
    run_child([sys.executable, "-m", "citeineq.cli", "batch",
               str(in_dir / meta["manifest"]), "--out", str(prep)], deadline)
    meta = dict(meta, sample_profiles=len(meta["profiles"]))
    rng = random.Random(f"{meta['seed']}-prep")
    _, problems, _ = checks.check_batch(prep, meta, in_dir, 0, rng, {})
    if problems:
        raise BenchError(f"preparation batch wrong: {problems[0]}")
    return prep / "profiles", [f"{p['stem']}_series.csv" for p in meta["profiles"]]


def stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def nearest_rank(values: list[float], pct: float) -> float:
    """Smallest sample with at least ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100) - 1)] if ordered else 0.0


def end_to_end(child: dict) -> tuple[dict, dict]:
    """(value, samples) of each end-to-end metric.

    ``wall_s`` and ``cpu_s`` are the run's total timed seconds over its
    number of passes.  On a shared host the CPU speed can sit at one of two
    levels for seconds to minutes at a time; over whole runs this mean then
    spreads less from run to run than the median pass does.  ``setup_s``
    is the median launch.
    """
    samples = {
        "wall_s": child["wall_s"],
        "cpu_s": child["cpu_s"],
        "setup_s": child["setup_s"],
        "peak_rss_mb": [child["peak_rss_mb"]],
    }
    values = {
        "wall_s": statistics.fmean(child["wall_s"]),
        "cpu_s": statistics.fmean(child["cpu_s"]),
        "setup_s": statistics.median(child["setup_s"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return values, samples


def per_layer_samples(child: dict) -> tuple[dict, list[str]]:
    """Per-layer samples, one per traced pass, and reconciliation problems."""
    traced, problems = child["traced"], []
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for t in traced:
        for name in CALLS:
            samples[f"{name}.calls"].append(t["calls"].get(name, 0))
        for names, metric in SELF_TIMES:
            samples[metric].append(sum(t["self_s"].get(n, 0.0) for n in names))
        for layer in LAYERS:
            samples[f"layer.{layer}.self_s"].append(t["layer_s"][layer])
        for counter in ("ingest.rows", "windows.windows", "windows.windows_skipped"):
            samples[counter].append(t["counts"].get(counter, 0))
        samples["ingest.bytes_read"].append(t["bytes_read"])
        samples["report.bytes_written"].append(t["bytes_written"])
        samples["trace.wall_s"].append(t["wall_s"])
        samples["trace.unaccounted_s"].append(t["unaccounted_s"])
        samples["trace.spans"].append(t["spans"])
        if abs(t["unaccounted_s"]) > RECONCILE_SHARE * t["wall_s"] or t["min_self_s"] < -1e-9:
            problems.append(
                f"trace does not reconcile: {t['unaccounted_s']:.4f} s of {t['wall_s']:.4f} s "
                f"outside spans, smallest self time {t['min_self_s']:.3g} s")
    latencies = [ms for t in traced for ms in t["profile_ms"]]
    samples["report.profile_ms.p50"] = [statistics.median(latencies) if latencies else 0.0]
    samples["report.profile_ms.p98"] = [nearest_rank(latencies, 98)]
    samples["report.profile_ms.n"] = [len(latencies)]
    samples["trace.untraced_wall_s"] = child["wall_s"]
    overhead = statistics.median(samples["trace.wall_s"]) - statistics.median(child["wall_s"])
    samples["trace.overhead_s"] = [overhead]
    return samples, problems


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> dict:
    """One benchmark run; returns the run record."""
    if not (SRC / "citeineq" / "__init__.py").is_file():
        raise BenchError(f"no citeineq package under {SRC}")
    deadline = time.monotonic() + RUN_BUDGET_S
    size = (inputs.SMOKE if args.smoke else inputs.FULL)[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        in_dir = work / "inputs"
        meta = inputs.generate(args.workload, args.seed, size, in_dir)
        meta["sample_profiles"], meta["sample_windows"] = SAMPLES[args.workload]
        spec = {
            "root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "inputs": str(in_dir),
            "work": str(work), "result": str(work / "result.json"),
            "spans_out": str(records / f"{stem}-spans.jsonl"), "meta": meta,
        }
        totals = dict(meta["totals"])
        if args.workload == "series_replot":
            series_dir, meta["series"] = prepare_series(meta, in_dir, work, deadline)
            spec["series_dir"] = str(series_dir)
            totals["series_bytes"] = checks.tree_bytes(series_dir)
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        run_child([sys.executable, str(BENCH / "passes.py"), str(work / "spec.json")], deadline)
        child = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(child["problems"])
    if args.trace:
        samples, trace_problems = per_layer_samples(child)
        problems += trace_problems
        values = {name: statistics.median(samples[name]) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values, samples = end_to_end(child)
        units = END_TO_END
    metrics = {name: dict(value=values[name], unit=unit, **stats(samples[name]))
               for name, unit in units.items()}
    record = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": totals,
        "passes": child["passes"],
        "check_s": child["check_s"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "error_rate": child["failed"] / child["attempted"] if child["attempted"] else 1.0,
        "outputs_digest": child["digest"],
        "problems": problems[:50],
        "correct": not problems and child["n_problems"] == 0 and child["attempted"] > 0,
        "metrics": metrics,
        "samples": samples,
    }
    if args.trace:
        record["spans"] = {
            name: {"calls": [t["calls"].get(name, 0) for t in child["traced"]],
                   "self_s": [t["self_s"].get(name, 0.0) for t in child["traced"]]}
            for name in sorted({n for t in child["traced"] for n in t["calls"]})
        }
        record["spans_file"] = Path(spec["spans_out"]).name
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}  "
          f"inputs {record['inputs']}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s} "
              f"(samples: median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
    if not record["trace"]:
        print(f"  {'error_rate':34s} {record['error_rate']:>14.6g} {'1':6s} "
              f"({record['failed']} of {record['attempted']} operations failed)")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
