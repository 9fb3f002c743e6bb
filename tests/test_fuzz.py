"""Arbitrary input files through ``main()``: an answer or one ``error:`` line.

Every parser is fed raw bytes, and also files built from the real field
names: JSON objects with JSON scalars as values, CSV rows of plausible and
implausible cells.  Whatever the input, ``main()`` returns an exit code in
0-3 and no exception escapes it; ``analyze``, ``fit`` and ``plotdata``
print at most one stderr line, and every stderr line starts with ``error:``.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citeineq import SynthSpec, synth_profile, write_profile
from citeineq.cli import main
from citeineq.report import SERIES_HEADER

FIELDS = ["schema_version", "name", "tags", "publications", "id", "year", "citations", "path"]

#: Entries of the input directory that a manifest path may name.
PATHS = ["p.csv", "p.json", "bad.csv", "empty.json", "missing.csv", "sub", ".", ""]

json_scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, 2, -1, 1799, 2000, 2101, 10**9 + 1])
    | st.integers()
    | st.floats()
    | st.sampled_from(PATHS)
    | st.text(st.characters(blacklist_characters="/"), max_size=5)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=5),
    max_leaves=16,
)


def mostly(likely, other):
    """``likely`` seven times in eight, else ``other``."""
    return st.integers(0, 7).flatmap(lambda i: likely if i else other)


def shaped(likely: dict):
    """JSON objects with these field names, each mostly holding a likely value."""
    return st.fixed_dictionaries({key: mostly(value, json_scalars) for key, value in likely.items()})


def encoded(shape):
    """UTF-8 JSON text of a ``shape`` value or of any JSON value."""
    return (json_values | shape).map(lambda value: json.dumps(value).encode())


def csv_file(header: str, row):
    """The header line, then raw bytes or rows of cells."""
    rows = st.lists(row.map(",".join), max_size=8).map(lambda lines: "\n".join(lines).encode())
    return (st.binary(max_size=200) | rows).map(lambda body: header.encode() + b"\n" + body)


def cells(*values):
    return st.sampled_from(values)


tags = st.lists(cells("x", "x|y", ""), max_size=2)
publication = shaped({"id": st.text("abc", min_size=1, max_size=2), "year": cells(2000, 2001, 2002),
                      "citations": cells(0, 3, 7)})
profile_jsons = encoded(shaped({"schema_version": st.just(1), "name": cells("a", "A|B"), "tags": tags,
                                "publications": st.lists(publication, max_size=6)}))
manifests = encoded(st.lists(shaped({"name": cells("a", "b", "A b"), "path": st.sampled_from(PATHS), "tags": tags}),
                             max_size=4))

junk = cells("", "x", "-1", "1e3", "nan", "2101", '"', "0.5")


def csv_row(*likely):
    """Mostly one cell per column, each mostly a likely value; else any number of junk cells."""
    return mostly(st.tuples(*(mostly(cells(*values), junk) for values in likely)), st.lists(junk))


profile_csvs = csv_file("pub_id,year,citations", csv_row(("p1", "p2", "p3"), ("2000", "2001", "2002"), ("0", "3", "7")))
series_csvs = csv_file(
    SERIES_HEADER, csv_row(("2000", "2001"), ("0.5", "0.25"), ("0.7", "0.6"), ("5",), ("50",), ("", "zero_citations"))
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory with a good CSV and JSON profile, two bad ones and a subdirectory."""
    root = tmp_path_factory.mktemp("fuzz")
    profile = synth_profile(SynthSpec(model="powerlaw", n_papers=30, span_years=(2000, 2010)))
    write_profile(profile, root / "p.csv")
    write_profile(profile, root / "p.json")
    (root / "bad.csv").write_text("id,year\n")
    (root / "empty.json").write_text("{}")
    (root / "sub").mkdir()
    return root


def fresh_dir(root) -> str:
    """A new output directory, so that every example reaches the writer rather
    than the refusal to replace an earlier example's outputs."""
    return tempfile.mkdtemp(dir=root)


def run_main(argv) -> list[str]:
    """The stderr lines of one ``main()`` call, after checking its exit code and their prefix."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert all(line.startswith("error:") for line in lines), lines
    return lines


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.sampled_from([".csv", ".json"]), st.binary(max_size=200))
    | st.tuples(st.just(".csv"), profile_csvs)
    | st.tuples(st.just(".json"), profile_jsons)
)
def test_any_profile_file(inputs, suffix_and_data):
    suffix, data = suffix_and_data
    path = inputs / f"fuzz{suffix}"
    path.write_bytes(data)
    assert len(run_main(["analyze", path, "--out", fresh_dir(inputs)])) <= 1


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200) | manifests)
@example(json.dumps([{"name": "a", "path": 5}]).encode())
def test_any_manifest_file(inputs, data):
    path = inputs / "manifest.json"
    path.write_bytes(data)
    run_main(["batch", path, "--out", fresh_dir(inputs)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["fit", "plotdata"]), st.binary(max_size=200) | series_csvs)
def test_any_series_file(inputs, command, data):
    path = inputs / "series.csv"
    path.write_bytes(data)
    assert len(run_main([command, path, "--out", fresh_dir(inputs)])) <= 1
