"""Timed passes of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 bench/passes.py SPEC.json`` with
``PYTHONPATH`` naming the checkout's ``src``; not meant to be run by hand.
Timed passes follow one another from this single thread until
``seconds`` of them have been measured; with ``trace`` they alternate
untraced and traced, and without it each pass is followed by one timed
launch of a fresh interpreter that imports ``citeineq.cli``.  Every pass's outputs are checked after
its clock stops, and the result is written to ``SPEC["result"]`` as JSON.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import Tracer, summarize


class BatchWorkload:
    """One ``citeineq batch`` over the generated manifest per pass."""

    def __init__(self, cli, spec: dict, out: Path):
        self.cli, self.spec, self.out = cli, spec, out
        self.argv = ["batch", str(Path(spec["inputs"]) / spec["meta"]["manifest"]), "--out", str(out)]
        self.cache: dict = {}

    def run(self):
        return self.cli.main(self.argv)

    def check(self, exit_code, rng):
        failed, problems, digest = checks.check_batch(
            self.out, self.spec["meta"], Path(self.spec["inputs"]), exit_code, rng, self.cache)
        return len(self.spec["meta"]["profiles"]), failed, problems, digest


class ReplotWorkload:
    """``citeineq fit`` then ``citeineq plotdata`` on every series file per pass."""

    def __init__(self, cli, spec: dict, out: Path):
        self.cli, self.spec, self.out = cli, spec, out
        self.series = [Path(spec["series_dir"]) / name for name in spec["meta"]["series"]]
        self.expected = [checks.expected_replot(path) for path in self.series]
        self.argvs = []
        for path in self.series:
            self.argvs.append(["fit", str(path), "--out", str(out)])
            self.argvs.append(["plotdata", str(path), "--out", str(out)])

    def run(self):
        cli = self.cli
        return [cli.main(argv) for argv in self.argvs]

    def check(self, codes, rng):
        problems = []
        for i, (path, expected) in enumerate(zip(self.series, self.expected)):
            for problem in (checks.check_fit(self.out, path.stem, expected, codes[2 * i]),
                            checks.check_plotdata(self.out, path.stem, expected, codes[2 * i + 1])):
                if problem:
                    problems.append(problem)
        return len(self.argvs), len(problems), problems, checks.tree_digest(self.out)


def import_cli(root: Path):
    """Import citeineq.cli and make sure it is the copy under ``root/src``."""
    from citeineq import cli

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"citeineq imported from {cli.__file__}, not from {src}")
    return cli


def time_setup() -> float:
    """Wall seconds of a fresh interpreter that only imports citeineq.cli.

    One launch follows each pass, so that the launches sample the machine
    over the same stretch of time as the passes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import citeineq.cli"], check=True, timeout=60)
    return time.perf_counter() - start


def write_spans(tracer: Tracer, origin: float, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name_id, start, end, parent in tracer.spans:
            fh.write(json.dumps({
                "name": tracer.names[name_id],
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
            }) + "\n")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    cli = import_cli(Path(spec["root"]))
    out = Path(spec["work"]) / "pass"
    kind = ReplotWorkload if spec["workload"] == "series_replot" else BatchWorkload
    workload = kind(cli, spec, out)
    tracer = Tracer() if spec["trace"] else None

    walls, cpus, traced = [], [], []
    attempted = failed = 0
    problems, digests = [], set()
    peak_rss_mb = check_s = 0.0
    setup = []
    n_pass = 0
    while True:
        use_trace = tracer is not None and len(traced) < len(walls)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            result = workload.run()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if use_trace:
                tracer.uninstall()
        if n_pass == 0:
            # What one CLI process needs; the output checks below allocate more.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        k0 = time.perf_counter()
        rng = random.Random(f"{spec['seed']}-{n_pass}")
        n_ops, n_failed, pass_problems, digest = workload.check(result, rng)
        attempted += n_ops
        failed += n_failed
        problems += pass_problems
        digests.add(digest)
        if use_trace:
            summary = summarize(tracer, wall)
            summary["wall_s"] = wall
            summary["counts"] = dict(tracer.counts)
            summary["bytes_read"] = sum(os.path.getsize(p) for p in tracer.paths_read)
            summary["bytes_written"] = checks.tree_bytes(out)
            traced.append(summary)
            spans_origin = w0
        else:
            walls.append(wall)
            cpus.append(cpu)
        check_s += time.perf_counter() - k0
        if tracer is None:
            setup.append(time_setup())
        n_pass += 1
        measured = sum(walls) + sum(t["wall_s"] for t in traced)
        if walls and (traced or tracer is None) and measured >= spec["seconds"]:
            break
    if traced:
        write_spans(tracer, spans_origin, Path(spec["spans_out"]))
    shutil.rmtree(out, ignore_errors=True)
    if len(digests) > 1:
        problems.append(f"outputs differ between passes: {len(digests)} distinct digests")

    result = {
        "passes": n_pass,
        "check_s": check_s,
        "wall_s": walls,
        "cpu_s": cpus,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "n_problems": len(problems),
        "digest": sorted(d for d in digests if d),
        "traced": traced,
    }
    Path(spec["result"]).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
