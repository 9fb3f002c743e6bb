"""The outputs of ``scripts/demo_cohort.py`` against the committed ones.

``tests/golden/`` holds every file the demo writes except its generated
inputs (``profiles_in/`` and ``manifest.json``).  The demo is run again into
a fresh directory, and the two trees must hold the same files; every float
must agree within ``FLOAT_TOL`` and every other cell exactly.  A change that
moves a golden value updates the file and records which cells moved, by how
much, and why.
"""

import csv
import io
import json
from pathlib import Path

from helpers import ROOT, run_python

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Largest difference allowed between a float and its golden value.
FLOAT_TOL = 1e-12

#: Demo files that are inputs it generates, not results.
INPUTS = {"manifest.json", "profiles_in"}


def output_files(root: Path) -> list[str]:
    return sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.relative_to(root).parts[0] not in INPUTS
    )


def text_cells(path: Path) -> list[tuple[str, list[tuple[str, str]]]]:
    """(row label, [(column, cell)]) of a CSV or Markdown file.

    CSV columns are named by the golden header; Markdown cells are split on
    ``|`` and numbered."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return [(f"row {i}", [(header[j] if j < len(header) else str(j), cell) for j, cell in enumerate(row)])
                for i, row in enumerate(rows)]
    return [(f"line {i + 1}", list(enumerate(line.split("|")))) for i, line in enumerate(text.splitlines())]


def json_cells(value, where: str = "") -> list[tuple[str, object]]:
    """(path, leaf value) of a JSON document in document order; a list also
    gives its length."""
    if isinstance(value, dict):
        return [cell for key, item in value.items() for cell in json_cells(item, f"{where}.{key}")]
    if isinstance(value, list):
        return [(f"{where}[]", len(value))] + [
            cell for i, item in enumerate(value) for cell in json_cells(item, f"{where}[{i}]")
        ]
    return [(where or ".", value)]


def as_float(cell):
    """The float a cell holds, or None for an integer or any other cell."""
    if isinstance(cell, float):
        return cell
    if not isinstance(cell, str):
        return None
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def cells_agree(expected, got) -> bool:
    """Floats within ``FLOAT_TOL``; any other cell equal, of the same type."""
    want, have = as_float(expected), as_float(got)
    if want is None or have is None:
        return type(expected) is type(got) and expected == got
    return abs(want - have) <= FLOAT_TOL


def compare_file(rel: str, golden: Path, fresh: Path) -> list[str]:
    """One line per cell of ``rel`` that differs, naming its row and column."""
    if rel.endswith(".json"):
        want = json_cells(json.loads(golden.read_text(encoding="utf-8")))
        have = json_cells(json.loads(fresh.read_text(encoding="utf-8")))
        problems = [f"{rel}: {w_at}: expected {w!r}, got {h!r}" + ("" if w_at == h_at else f" at {h_at}")
                    for (w_at, w), (h_at, h) in zip(want, have) if w_at != h_at or not cells_agree(w, h)]
        if len(want) != len(have):
            problems.append(f"{rel}: {len(want)} values expected, got {len(have)}")
        return problems

    want, have = text_cells(golden), text_cells(fresh)
    problems = []
    for (row, want_cells), (_, have_cells) in zip(want, have):
        problems += [f"{rel}: {row}, column {column}: expected {w!r}, got {h!r}"
                     for (column, w), (_, h) in zip(want_cells, have_cells) if not cells_agree(w, h)]
        if len(want_cells) != len(have_cells):
            problems.append(f"{rel}: {row}: {len(want_cells)} cells expected, got {len(have_cells)}")
    if len(want) != len(have):
        problems.append(f"{rel}: {len(want)} rows expected, got {len(have)}")
    return problems


def test_demo_outputs_match_golden(tmp_path):
    out = tmp_path / "demo"
    demo = run_python(ROOT / "scripts" / "demo_cohort.py", "--out", out)
    assert (demo.returncode, demo.stderr) == (0, "")
    want, have = output_files(GOLDEN), output_files(out)
    assert want == have, f"file sets differ: missing {sorted(set(want) - set(have))}, extra {sorted(set(have) - set(want))}"
    problems = [p for rel in want for p in compare_file(rel, GOLDEN / rel, out / rel)]
    assert not problems, "\n".join(problems[:20])


def test_comparator_names_file_row_and_column(tmp_path):
    golden = tmp_path / "golden.csv"
    golden.write_text("name,g\na,0.5\nb,0.25\n")
    near = tmp_path / "near.csv"
    near.write_text("name,g\na,0.5000000000001\nb,0.25\n")
    assert compare_file("t.csv", golden, near) == []
    far = tmp_path / "far.csv"
    far.write_text("name,g\na,0.5\nb,0.2500001\n")
    assert compare_file("t.csv", golden, far) == ["t.csv: row 2, column g: expected '0.25', got '0.2500001'"]
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("name,g\nA,0.5\nb,0.25\n")
    assert compare_file("t.csv", golden, renamed) == ["t.csv: row 1, column name: expected 'a', got 'A'"]
    doc = tmp_path / "a.json"
    doc.write_text(json.dumps({"rows": [{"n": 3, "g": 0.5}]}))
    moved = tmp_path / "b.json"
    moved.write_text(json.dumps({"rows": [{"n": 3.0, "g": 0.5}]}))
    assert compare_file("t.json", doc, moved) == ["t.json: .rows[0].n: expected 3, got 3.0"]
