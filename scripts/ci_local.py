#!/usr/bin/env python3
"""Run the CI workflow's shell steps locally, in order.

Reads .github/workflows/tests.yml and runs each ``run:`` step of each job as
a script under ``bash -e``, from the repository root, with the step's
``env`` and one temporary ``RUNNER_TEMP`` that every step shares.  ``uses:``
steps and the dependency install are skipped: the checkout is the working
tree, and the interpreter and packages are those already installed.  The
matrix is not expanded; each step runs once, with the ``python`` on
``PATH``.  Every step runs, also after one fails, so that a step which needs
another's outputs shows up.  Prints each step's name and exit code, and
exits 1 if any step failed.

Usage: python scripts/ci_local.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _skip_reason(step: dict) -> str | None:
    if "uses" in step:
        return f"uses {step['uses']}"
    if "pip install" in step.get("run", ""):
        return "dependency install"
    return None


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    results = []
    with tempfile.TemporaryDirectory(prefix="ci-local-") as runner_temp:
        for job_name, job in workflow["jobs"].items():
            for step in job["steps"]:
                name = step.get("name") or step.get("uses") or step["run"].splitlines()[0]
                reason = _skip_reason(step)
                if reason:
                    print(f"== {job_name}: {name}: skipped ({reason})", flush=True)
                    continue
                env = {**os.environ, **{key: str(value) for key, value in step.get("env", {}).items()},
                       "RUNNER_TEMP": runner_temp}
                print(f"== {job_name}: {name}", flush=True)
                code = subprocess.run(["bash", "-e", "-c", step["run"]], cwd=ROOT, env=env).returncode
                print(f"== {job_name}: {name}: exit {code}", flush=True)
                results.append((f"{job_name}: {name}", code))
    print()
    for name, code in results:
        print(f"{code:>4}  {name}")
    failed = sum(code != 0 for _, code in results)
    print(f"{len(results) - failed} of {len(results)} steps passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
