#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes; runs in well under a minute.

    python3 bench/selftest.py

For every workload, with tracing off and on, it runs ``bench/run.py
--smoke`` and checks that the last line of output is the result object
with exactly the metrics ``BENCHMARK.json`` lists, with their units, and
that the outputs were correct.  It then copies ``BENCHMARK.json`` and
``bench/`` into an empty directory, where there is no package to build,
and checks that a run there fails without printing a result.  Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_result(line: str, expected: list[dict]) -> list[str]:
    problems = []
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"] if proc.returncode else []
            if lines:
                problems += check_result(lines[-1], expected)
            else:
                problems.append("no output")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:14s} trace={trace}  {status}")
            failures += problems

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and not proc.stdout.strip()
        print(f"{'no package':14s}          {'ok' if ok else 'FAIL: exit 0 or a result printed'}")
        if not ok:
            failures.append("ran without a package")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
