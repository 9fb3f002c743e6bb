"""Shared oracles and builders for the test suite."""

import csv
import io
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from pathlib import Path

import numpy as np

from citeineq import (
    EmptyProfile,
    IndexSeries,
    ParseError,
    Publication,
    ResearcherProfile,
    SchemaError,
    ValidationError,
    WindowEntry,
)
from citeineq import ingest, report
from citeineq.profiles import MAX_CITATIONS, MAX_YEAR, MIN_YEAR

ROOT = Path(__file__).resolve().parent.parent

# Integer vector whose window statistics show g >= k and a peak ratio >= 40;
# heavy-tailed with many barely-cited papers, like a real crossing career.
CROSSING_WINDOW = (
    [0] * 10 + [1] * 21 + [2] * 8 + [3, 3, 4, 5, 11, 16, 30, 33, 135, 462, 5821]
)


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` in the directory ``cwd``, with the
    package from ``src/``, and return its exit code and text output.

    Every warning is an error there, as pytest's ``filterwarnings`` makes it
    here, so a warning fails the child and shows on its stderr; that includes
    the ``EncodingWarning`` of a file opened in the locale's encoding.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
    env["PYTHONWARNDEFAULTENCODING"] = "1"
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def reread_series(series: IndexSeries, directory: Path) -> IndexSeries:
    """``series`` written by ``report.series_to_csv`` to a new file in
    ``directory``, then read back by ``report.read_series_csv``."""
    path = directory / "s.csv"
    with ingest.new_file(path) as fh:
        report.series_to_csv(series, fh)
    return report.read_series_csv(path)


def gini_pairwise(counts) -> float:
    """Mean-absolute-difference Gini: sum_ij |x_i - x_j| / (2 n^2 mean).

    Independent of the (g, k) kernel; exact integer pair sums,
    accumulated in row blocks to bound memory for large vectors.
    """
    x = np.asarray(counts, dtype=np.int64)
    pair_sum = 0
    for start in range(0, x.size, 512):
        block = x[start : start + 512]
        pair_sum += int(np.abs(block[:, None] - x[None, :]).sum())
    return pair_sum / (2 * x.size * int(x.sum()))


def lorenz_at(counts, q) -> float:
    """L(q) of the counts' Lorenz curve: ``np.interp`` over the vertices
    (i/n, C_i/T) of the sorted running sums."""
    cum = np.concatenate(([0], np.cumsum(np.sort(np.asarray(counts, dtype=np.int64)))))
    return float(np.interp(q, np.arange(cum.size) / (cum.size - 1), cum / cum[-1]))


def fraction_pair(counts) -> tuple[float, float]:
    """Exact (Gini, Kolkata) of integer counts, each rounded once to a double.

    Gini is the pairwise sum_{i<j} (x_(j) - x_(i)) / (nT) over the sorted
    counts, summed in Python ints.  Kolkata is the zero of f(p) = 1 - L(p) - p
    on the first Lorenz segment where f reaches 0, by linear interpolation in
    rationals.  No step is shared with ``citeineq.lorenz``.
    """
    x = sorted(int(c) for c in counts)
    n, total = len(x), sum(x)
    g = Fraction(sum((2 * i - n - 1) * xi for i, xi in enumerate(x, start=1)), n * total)
    cum = [0, *accumulate(x)]

    def f(i):  # 1 - L(p) - p at vertex i
        return Fraction(total - cum[i], total) - Fraction(i, n)

    j = next(i for i in range(1, n + 1) if n * (total - cum[i]) <= i * total)
    k = Fraction(j - 1, n) + f(j - 1) / (f(j - 1) - f(j)) / n
    return float(g), float(k)


def citations_in(profile: ResearcherProfile, start_year: int, end_year: int) -> list[int]:
    """Row-by-row oracle: citation counts of publications dated within [start, end]."""
    return [p.citations for p in profile.publications if start_year <= p.year <= end_year]


def make_profile(citations_by_year: dict[int, list[int]], name: str = "test") -> ResearcherProfile:
    pubs = []
    for year in sorted(citations_by_year):
        for j, cites in enumerate(citations_by_year[year]):
            pubs.append(Publication(pub_id=f"{year}-{j:03d}", year=year, citations=int(cites)))
    return profile_of(pubs, name=name)


def profile_of(rows, name: str = "test", tags=()) -> ResearcherProfile:
    """A profile of (pub_id, year, citations) rows, given to the constructor as columns."""
    ids, years, citations = map(list, zip(*rows)) if rows else ([], [], [])
    return ResearcherProfile(name, list(tags), ids, years, citations)


def series_from_pairs(pairs, start_year: int = 2000) -> IndexSeries:
    """Build a valid-entry series directly from (g, k) pairs."""
    entries = [
        WindowEntry(start_year + i, float(g), float(k), 10, 100)
        for i, (g, k) in enumerate(pairs)
    ]
    return IndexSeries(entries=entries)


@dataclass(frozen=True)
class RowByRowPublication:
    """The row rules as one validated dataclass per row, kept as the reference
    for the loaders' column check."""

    pub_id: str
    year: int
    citations: int

    def __post_init__(self):
        if type(self.pub_id) is not str or not self.pub_id:
            raise ValidationError(f"pub_id must be a nonempty string, got {self.pub_id!r}")
        if type(self.year) is not int or not MIN_YEAR <= self.year <= MAX_YEAR:
            raise ValidationError(
                f"publication {self.pub_id!r}: year {self.year!r} is not a "
                f"4-digit calendar year in [{MIN_YEAR}, {MAX_YEAR}]"
            )
        if type(self.citations) is not int or not 0 <= self.citations <= MAX_CITATIONS:
            raise ValidationError(
                f"publication {self.pub_id!r}: citations must be an integer "
                f"in [0, {MAX_CITATIONS}], got {self.citations!r}"
            )


def row_by_row_load(path) -> tuple[str, list[str], list[tuple[str, int, int]]]:
    """Reference profile loader: each row parsed and validated in file order,
    then the profile checked and sorted, as ``load_profile`` did before its
    rows were read as columns.

    Returns the name, the tags and the (pub_id, year, citations) rows in
    (year, pub_id) order, or raises the error ``load_profile`` must raise.
    File and document checks come from ``ingest``, unchanged.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            with open(path, encoding="utf-8-sig", newline="") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason}): {path}") from None
        pubs = list(_row_by_row_csv(io.StringIO(text, newline="")))
        name, tags = path.stem, []
    else:
        name, tags, pubs = _row_by_row_json(path)
    if not pubs:
        raise EmptyProfile(f"profile {name!r} has no publications")
    seen: set[str] = set()
    for pub in pubs:
        if pub.pub_id in seen:
            raise ValidationError(f"duplicate pub_id {pub.pub_id!r}")
        seen.add(pub.pub_id)
    pubs.sort(key=attrgetter("year", "pub_id"))
    return name, tags, [(p.pub_id, p.year, p.citations) for p in pubs]


def row_by_row_profile(name, tags, ids, years, citations):
    """Reference for ``ResearcherProfile(name, tags, ids, years, citations)``:
    each row validated in column order, then the profile checked and sorted,
    as ``row_by_row_load`` does.  A numpy column's cells are its ``tolist()``.

    Returns the name, the tags and the (pub_id, year, citations) rows in
    (year, pub_id) order, or raises the error the constructor must raise.
    """
    cells = [column.tolist() if isinstance(column, np.ndarray) else list(column)
             for column in (ids, years, citations)]
    pubs = [RowByRowPublication(*row) for row in zip(*cells)]
    if not pubs:
        raise EmptyProfile(f"profile {name!r} has no publications")
    seen: set[str] = set()
    for pub in pubs:
        if pub.pub_id in seen:
            raise ValidationError(f"duplicate pub_id {pub.pub_id!r}")
        seen.add(pub.pub_id)
    pubs.sort(key=attrgetter("year", "pub_id"))
    return name, tags, [(p.pub_id, p.year, p.citations) for p in pubs]


def _row_by_row_int(text: str, what: str, line: int) -> int:
    """The cell grammar of an integer, stated apart from ``ingest``: once
    ``str.strip`` has removed its padding, an optional ``-`` and ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text.strip()):
        raise ParseError(f"{what} {text!r} is not an integer", line=line)
    return int(text.strip())


def _csv_rows(fh, header):
    """Yield ``(line number, row)`` for each nonempty CSV row after ``header``,
    as ``csv.reader`` counts the lines; a bad header or row, or malformed CSV,
    raises ``ParseError``.  Kept apart from the loader's own reader."""
    reader = csv.reader(fh)
    try:
        first = next(reader, [])
        if first != header:
            raise ParseError(f"header must be exactly {','.join(header)!r}, got {','.join(first)!r}", line=1)
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def _row_by_row_csv(fh):
    for line, (pub_id, year, citations) in _csv_rows(fh, ingest.CSV_HEADER):
        year = _row_by_row_int(year, "year", line)
        citations = _row_by_row_int(citations, "citations", line)
        try:
            yield RowByRowPublication(pub_id=pub_id, year=year, citations=citations)
        except ValidationError as exc:
            raise ValidationError(f"line {line}: {exc}") from None


def _row_by_row_json(path: Path):
    doc = ingest.read_json(path, "profile")
    if not isinstance(doc, dict):
        raise ParseError("profile document must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != ingest.SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r} (expected {ingest.SCHEMA_VERSION})")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError("profile 'name' must be a nonempty string")
    tags = doc.get("tags", [])
    if not isinstance(tags, list) or any(not isinstance(t, str) for t in tags):
        raise ValidationError("profile 'tags' must be an array of strings")
    raw_pubs = doc.get("publications")
    if not isinstance(raw_pubs, list):
        raise ParseError("profile 'publications' must be an array")
    pubs = []
    for i, rec in enumerate(raw_pubs):
        if not isinstance(rec, dict) or not {"id", "year", "citations"} <= rec.keys():
            raise ParseError(f"publications[{i}] must have id, year and citations")
        try:
            pubs.append(RowByRowPublication(pub_id=rec["id"], year=rec["year"], citations=rec["citations"]))
        except ValidationError as exc:
            raise ValidationError(f"publications[{i}]: {exc}") from None
    return name, list(tags), pubs
