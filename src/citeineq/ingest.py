"""File-based profile ingestion, canonical export, and synthetic profiles.

Two on-disk profile formats are accepted:

* CSV with the exact header ``pub_id,year,citations`` (UTF-8, LF or CRLF;
  a cell may be quoted, and the pub_id is kept verbatim);
* a JSON document with ``schema_version`` (= 1), ``name``, ``tags`` and a
  ``publications`` array of ``{id, year, citations}`` objects.

Either format is read as columns, which go straight to
``ResearcherProfile``; it checks the row rules once over each whole column.
No per-row object is built for a valid file.  A CSV file is read by the one
``csv.reader`` loop, ``csv_columns``, which appends each row's cells to the
header's columns and keeps no line number per row; the year and citations
columns then become int64 arrays, at one ``int`` per cell, or else are read
again by ``_parse_cells``, the one statement of an integer cell.  A row the
profile refuses comes back with its index, reported as its JSON
``publications`` index or as its CSV line, which is worked out only then.
A fault in the file's structure (a CSV cell that is not an integer, a
malformed CSV row, a JSON record without the three keys) is reported only
when the rows above it keep the row rules; within a row, a CSV cell that is
not an integer comes before a rule the row breaks.

A batch manifest is a JSON array of ``{name, path, tags}`` records whose
paths resolve relative to the manifest file and whose names give distinct
output file stems.  There is deliberately no network ingestion; snapshots
must be exported to files first.  Every input file is read as UTF-8 with an
optional BOM; undecodable bytes raise ``ParseError``.

This module also holds the package's one CSV reader (``csv_columns``), which
reads profile and series CSVs, its CSV writer (``csv_text``) and its file
writer (``write_text``), which every output goes through and which never
replaces an existing file; every command first checks all its output paths
with ``check_outputs``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

from ._lazy import np
from .errors import BadSpec, ParseError, SchemaError, ValidationError
from .profiles import MAX_CITATIONS, MAX_YEAR, MIN_YEAR, ResearcherProfile, check_rows

SCHEMA_VERSION = 1
CSV_HEADER = ["pub_id", "year", "citations"]

#: A JSON escape of a UTF-16 surrogate, which is valid UTF-8 only as half of a pair.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

#: Profile file suffixes; the suffix picks the format for reading and writing.
PROFILE_SUFFIXES = (".csv", ".json")


def load_profile(path) -> ResearcherProfile:
    """Load a researcher profile from a CSV or JSON file.

    The format is chosen by the file suffix.  The columns are checked by
    ``ResearcherProfile``; a row error names the first bad row's CSV line or
    JSON ``publications`` index.
    The resulting profile is in canonical (year, pub_id) order.
    """
    path = _input_file(path, "profile")
    return _load_csv(path) if _profile_format(path) == ".csv" else _load_json(path)


def _profile_format(path: Path) -> str:
    """The lowercased suffix of a profile path, one of ``PROFILE_SUFFIXES``."""
    suffix = path.suffix.lower()
    if suffix not in PROFILE_SUFFIXES:
        raise ParseError(f"unrecognized profile format {suffix!r} (expected .csv or .json): {path}")
    return suffix


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"not UTF-8 text ({exc.reason}): {path}")


def _has_surrogate(text: str) -> bool:
    """Whether ``text`` holds a surrogate, as an undecodable file-name or argv
    byte gives; such text cannot be written as UTF-8."""
    return any("\ud800" <= ch <= "\udfff" for ch in text)


def _input_file(path, what: str) -> Path:
    """``path`` as a ``Path``; ``ParseError`` naming ``what`` unless it is a regular file."""
    path = Path(path)
    if not path.is_file():
        problem = "path is not a regular file" if path.exists() else "file not found"
        raise ParseError(f"{what} {problem}: {path}")
    return path


def read_text(path, what: str) -> str:
    """Read a whole UTF-8 file, dropping a leading BOM.

    A path that is not a regular file, or undecodable bytes, raise
    ``ParseError`` naming ``what``.
    """
    return _read_file(_input_file(path, what))


def _read_file(path: Path) -> str:
    """``read_text`` of a path already known to be a regular file."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def check_outputs(paths) -> None:
    """Raise ``ValidationError`` naming the first of ``paths`` that cannot be
    written as a new file: one under a file, one that exists, or one whose name
    is longer than its directory allows.  Each parent is looked up once."""
    name_max: dict[str, int] = {}
    for path in paths:
        parent, name = os.path.split(path)
        if parent not in name_max:
            ancestor = next(part for part in Path(path).parents if part.exists())
            if not ancestor.is_dir():
                raise ValidationError(f"--out must be a directory, and {ancestor} is not one")
            name_max[parent] = os.pathconf(ancestor, "PC_NAME_MAX")
        if os.path.lexists(path):
            raise ValidationError(f"output file already exists: {path}")
        if len(os.fsencode(name)) > name_max[parent]:
            raise ValidationError(f"output file name is longer than {name_max[parent]} bytes: {path}")


def write_text(text: str, path) -> Path:
    """Write ``text`` as UTF-8 with LF line ends to a new file ``path``.

    An existing ``path`` is refused.  The text goes to a temporary file in the
    same directory, which is then renamed onto ``path``; a failed write removes
    it, so ``path`` is either absent or complete.  There is no fsync: the file
    is complete after a crash of this program, not of the machine.
    """
    path = Path(path)
    if os.path.lexists(path):
        raise ValidationError(f"output file already exists: {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name[:50]}.{os.getpid()}.tmp")
    fh = open(temp, "x", encoding="utf-8", newline="")  # a temp this call did not make is left alone
    try:
        with fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def _parse_json(text: str):
    try:
        doc = json.loads(text)
        # an unpaired surrogate cannot be written out as UTF-8; most files hold
        # no backslash, and that test is far cheaper than the regex
        if "\\" in text and _SURROGATE_ESCAPE.search(text):
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except UnicodeEncodeError:
        raise ParseError("invalid JSON: a string holds an unpaired surrogate escape") from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None


def csv_columns(lines, header: list[str]):
    """Read the CSV rows after ``header`` into one list of cells per header cell.

    ``lines`` is a text file opened with ``newline=""``, or
    ``io.StringIO(text, newline="")``, so that a line ends at ``\\r\\n``, a
    lone ``\\r`` or a lone ``\\n``.  The first row must be exactly ``header``;
    blank lines are skipped.  Returns ``(columns, line, error)``:

    * ``line(row)`` is the line on which the row with index ``row`` ends.  No
      line number is kept per row: it is worked out when asked, from the
      blank lines above the row and the line breaks inside its cells and
      those of the rows above it (only a quoted cell holds one).
    * ``error`` is the ``ParseError`` of a wrong header, of a row without
      ``len(header)`` cells or of malformed CSV, which ends the read; the
      caller raises it only after the rows above it.  Else it is None.

    Undecodable bytes raise ``UnicodeDecodeError`` while the rows stream in.
    """
    width = len(header)
    cells, blanks, error = [], [], None
    reader = csv.reader(lines)
    try:
        first = next(reader, [])
        if first != header:
            error = ParseError(f"header must be exactly {','.join(header)!r}, got {','.join(first)!r}", line=1)
        else:
            extend = cells.extend
            for row in reader:
                if len(row) == width:
                    extend(row)
                elif row:
                    error = ParseError(f"expected {width} fields, got {len(row)}", line=reader.line_num)
                    break
                else:
                    blanks.append(len(cells) // width)  # the index of the row below the blank line
    except csv.Error as exc:
        error = ParseError(str(exc), line=reader.line_num)
    columns = [cells[i::width] for i in range(width)]
    del cells

    def line(row: int) -> int:
        text = "\0".join(chain.from_iterable(column[: row + 1] for column in columns))
        breaks = text.count("\n") + text.count("\r") - text.count("\r\n")
        return 2 + row + bisect_right(blanks, row) + breaks

    return columns, line, error


def _profile(name: str, tags: list[str], columns, where, error: ParseError | None):
    """``ResearcherProfile(name, tags, *columns)``, or the first fault in file order.

    ``error``, a fault in the file's structure below the rows of ``columns``,
    is raised only if none of them is bad.  A bad row is named by ``where(row)``.
    """
    try:
        if error is None:
            return ResearcherProfile(name, tags, *columns)
        check_rows(*columns)
    except ValidationError as exc:
        if exc.row is None:
            raise
        raise ValidationError(f"{where(exc.row)}: {exc}", row=exc.row) from None
    raise error


def _load_csv(path: Path) -> ResearcherProfile:
    """A CSV profile named by its stem; ``_parse_cells`` reads columns the int64 screen refuses."""
    if _has_surrogate(path.stem):  # the stem names the profile, which is written out as UTF-8
        raise ParseError(f"profile file name is not UTF-8: {path}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            columns, line, error = csv_columns(fh, CSV_HEADER)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    ids, years, citations = columns
    try:
        counts = [np.fromiter(map(int, cells), np.int64, len(cells)) for cells in (years, citations)]
    except (ValueError, OverflowError):  # a cell that ``int`` refuses, or one past int64
        columns, cell_error = _parse_cells(columns, line)
        error = cell_error or error
    else:
        columns = [ids, *counts]
    return _profile(path.stem, [], columns, lambda row: f"line {line(row)}", error)


def _parse_cells(columns, line) -> tuple[list, ParseError | None]:
    """Parse the year and citations cells of ``columns`` one at a time, in file order.

    A cell is an integer when ``int(cell.strip())`` reads it, at any size.
    Returns the ids and the two parsed columns, and None; at the first bad
    cell, the rows above its row and the cell's ``ParseError`` on ``line(row)``.
    """
    ids, *texts = columns
    parsed = [], []
    for row, cells in enumerate(zip(*texts)):
        for what, cell, ints in zip(("year", "citations"), cells, parsed):
            try:
                ints.append(int(cell.strip()))
            except ValueError:
                error = ParseError(f"{what} {cell!r} is not an integer", line=line(row))
                return [ids[:row], *(column[:row] for column in parsed)], error
    return [ids, *parsed], None


def _load_json(path: Path) -> ResearcherProfile:
    doc = _parse_json(_read_file(path))  # load_profile has checked the path
    if not isinstance(doc, dict):
        raise ParseError("profile document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError("profile 'name' must be a nonempty string")
    tags = doc.get("tags", [])
    if not isinstance(tags, list) or any(not isinstance(t, str) for t in tags):
        raise ValidationError("profile 'tags' must be an array of strings")
    raw_pubs = doc.get("publications")
    if not isinstance(raw_pubs, list):
        raise ParseError("profile 'publications' must be an array")
    keys = ("id", "year", "citations")
    error = None
    try:
        columns = [list(map(itemgetter(key), raw_pubs)) for key in keys]
    except (TypeError, KeyError):  # a record that is not an object, or lacks a key
        bad = [isinstance(rec, dict) and rec.keys() >= set(keys) for rec in raw_pubs].index(False)
        columns = [[rec[key] for rec in raw_pubs[:bad]] for key in keys]
        error = ParseError(f"publications[{bad}] must have id, year and citations")
    return _profile(name, list(tags), columns, "publications[{}]".format, error)


def write_profile(profile: ResearcherProfile, path) -> Path:
    """Write a profile in canonical form, in the format its suffix names;
    reloading yields an equal profile."""
    path = Path(path)
    rows = list(zip(profile.pub_ids, profile.years.tolist(), profile.citations.tolist()))
    if _profile_format(path) == ".csv":
        text = csv_text([CSV_HEADER, *rows])
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "name": profile.name,
            "tags": list(profile.tags),
            "publications": [
                {"id": pub_id, "year": year, "citations": citations} for pub_id, year, citations in rows
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
    return write_text(text, path)


def csv_text(rows: list) -> str:
    """CSV text, with LF line ends, of the list ``rows``.

    ``csv.writer`` quotes a cell holding a comma, a quote or an LF but leaves
    a lone CR bare, which ``csv.reader`` takes for a line end; text holding a
    CR is therefore written again from ``rows`` with every text cell quoted.
    """
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n", quoting=quoting).writerows(rows)
        if "\r" not in out.getvalue():
            break
    return out.getvalue()


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    path: Path
    tags: tuple[str, ...] = ()


def load_manifest(path) -> list[ManifestEntry]:
    """Load a cohort manifest; entry paths resolve relative to the manifest."""
    path = Path(path)
    doc = _parse_json(read_text(path, "manifest"))
    if not isinstance(doc, list):
        raise ParseError("manifest must be a JSON array of {name, path, tags}")
    entries = []
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict) or "name" not in rec or "path" not in rec:
            raise ParseError(f"manifest[{i}] must have name and path")
        for key in ("name", "path"):
            if not isinstance(rec[key], str) or not rec[key]:
                raise ValidationError(f"manifest[{i}]: {key} must be a nonempty string")
        if "\0" in rec["path"]:
            raise ValidationError(f"manifest[{i}]: path holds a NUL character")
        tags = rec.get("tags", [])
        if not isinstance(tags, list) or any(not isinstance(t, str) for t in tags):
            raise ValidationError(f"manifest[{i}]: tags must be an array of strings")
        entries.append(
            ManifestEntry(
                name=rec["name"],
                path=(path.parent / rec["path"]).resolve(),
                tags=tuple(tags),
            )
        )
    name_by_stem: dict[str, str] = {}
    for entry in entries:
        stem = file_stem(entry.name)
        if stem in name_by_stem:
            raise ValidationError(
                f"manifest names must give unique file stems: "
                f"{name_by_stem[stem]!r} and {entry.name!r} both give {stem!r}"
            )
        name_by_stem[stem] = entry.name
    return entries


def file_stem(name: str) -> str:
    """File-name stem of a profile's outputs: the lowercased alphanumeric runs
    of ``name`` joined by ``-``, or ``profile`` when there are none."""
    cleaned = "".join(ch if ch.isalnum() else "-" for ch in name.lower())
    return "-".join(filter(None, cleaned.split("-"))) or "profile"


#: Most papers a synthetic profile may have: ten times the largest profile
#: that CI runs through the CLI (10^5 papers).  Building one this large
#: takes about 300 MB and 5 s.
MAX_SYNTH_PAPERS = 10**6


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic profile.

    Models: ``powerlaw`` draws counts with survival function proportional
    to c^(1 - exponent); ``uniform`` draws integers in [0, value];
    ``equal`` gives every paper exactly ``value`` citations.
    """

    model: str
    n_papers: int
    exponent: float = 2.5
    span_years: tuple[int, int] = (1990, 2020)
    seed: int = 0
    value: int = 100

    def __post_init__(self):
        if self.model not in ("powerlaw", "uniform", "equal"):
            raise BadSpec(f"unknown model {self.model!r}")
        if not isinstance(self.span_years, (tuple, list)) or len(self.span_years) != 2:
            raise BadSpec(f"span_years must be a (first, last) pair, got {self.span_years!r}")
        if not isinstance(self.exponent, (int, float)):
            raise BadSpec(f"exponent must be a real number, got {self.exponent!r}")
        first, last = self.span_years
        ints = {"n_papers": self.n_papers, "span_years[0]": first, "span_years[1]": last,
                "seed": self.seed, "value": self.value}
        for field, value in ints.items():
            if type(value) is not int:  # a bool or a float would be truncated, or fail inside numpy
                raise BadSpec(f"{field} must be an int, got {value!r}")
        if not 1 <= self.n_papers <= MAX_SYNTH_PAPERS:
            raise BadSpec(f"n_papers must be in [1, {MAX_SYNTH_PAPERS}], got {self.n_papers}")
        if not math.isfinite(self.exponent):
            raise BadSpec(f"exponent must be finite, got {self.exponent}")
        if self.model == "powerlaw" and self.exponent <= 1.0:
            raise BadSpec("powerlaw exponent must be > 1")
        if not MIN_YEAR <= first <= last <= MAX_YEAR:
            raise BadSpec(
                f"span_years must satisfy {MIN_YEAR} <= first <= last <= {MAX_YEAR}, "
                f"got ({first}, {last})"
            )
        if not 0 <= self.value <= MAX_CITATIONS:
            raise BadSpec(f"value must be in [0, {MAX_CITATIONS}], got {self.value}")
        if self.seed < 0:
            raise BadSpec(f"seed must be nonnegative, got {self.seed}")


def synth_profile(spec: SynthSpec, name: str | None = None) -> ResearcherProfile:
    """Generate a synthetic profile; identical specs yield identical profiles."""
    if name is not None and (not name or _has_surrogate(name)):  # load_profile refuses an empty name
        raise BadSpec(f"name must be a nonempty string encodable as UTF-8, got {name!r}")
    rng = np.random.default_rng(spec.seed)
    first, last = spec.span_years
    years = rng.integers(first, last + 1, size=spec.n_papers)
    if spec.model == "equal":
        counts = np.full(spec.n_papers, spec.value)
    elif spec.model == "uniform":
        counts = rng.integers(0, spec.value + 1, size=spec.n_papers)
    else:
        u = rng.random(spec.n_papers)
        # an exponent near 1, or a draw of exactly 0, sends a count to inf, which the cap clips
        with np.errstate(over="ignore", divide="ignore"):
            counts = np.minimum(np.floor(u ** (-1.0 / (spec.exponent - 1.0))), MAX_CITATIONS)
    width = len(str(spec.n_papers))
    ids = [f"p{i:0{width}d}" for i in range(1, spec.n_papers + 1)]
    if name is None:
        name = f"{spec.model}-n{spec.n_papers}-seed{spec.seed}"
    return ResearcherProfile(name, ["synthetic", spec.model], ids, years, counts.astype(np.int64))
