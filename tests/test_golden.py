"""The outputs of ``scripts/demo_cohort.py`` against the committed ones.

``tests/golden/`` holds every file the demo writes except its generated
inputs (``profiles_in/`` and ``manifest.json``).  The demo is run again into
a fresh directory, and the two trees must hold the same files with the same
bytes: every written float is exactly rounded, or a fixed sequence of IEEE
operations and ``math.fsum`` on exactly rounded values.

To refresh the golden files after a change that moves a value, run
``PYTHONPATH=src python scripts/demo_cohort.py --out DIR`` into a new
directory, copy its files except the inputs over ``tests/golden/``, and
record in CHANGES.md every cell that moved, by how much, and why.
"""

import difflib
from pathlib import Path

import pytest

from helpers import ROOT, run_python

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Demo files that are inputs it generates, not results.
INPUTS = {"manifest.json", "profiles_in"}


def output_files(root: Path) -> list[str]:
    return sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.relative_to(root).parts[0] not in INPUTS
    )


def test_demo_outputs_match_golden(tmp_path):
    out = tmp_path / "demo"
    demo = run_python(ROOT / "scripts" / "demo_cohort.py", "--out", out)
    assert (demo.returncode, demo.stderr) == (0, "")
    want, have = output_files(GOLDEN), output_files(out)
    assert want == have, f"file sets differ: missing {sorted(set(want) - set(have))}, extra {sorted(set(have) - set(want))}"
    differ = [rel for rel in want if (GOLDEN / rel).read_bytes() != (out / rel).read_bytes()]
    if differ:
        golden, fresh = ((root / differ[0]).read_text(encoding="utf-8").splitlines() for root in (GOLDEN, out))
        diff = list(difflib.unified_diff(golden, fresh, f"golden/{differ[0]}", f"demo/{differ[0]}", lineterm=""))
        pytest.fail(f"files differ: {differ}\n" + "\n".join(diff[:20]))
