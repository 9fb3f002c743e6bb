"""File-based profile ingestion, canonical export, and synthetic profiles.

Two on-disk profile formats are accepted:

* CSV with the exact header ``pub_id,year,citations`` (UTF-8, LF or CRLF;
  a cell may be quoted, and the pub_id is kept verbatim);
* a JSON document with ``schema_version`` (= 1), ``name``, ``tags`` and a
  ``publications`` array of ``{id, year, citations}`` objects.

Either format is read as columns, which go straight to
``ResearcherProfile``; it checks the row rules once over each whole column,
and no per-row object is built for a valid file.  A CSV file is streamed by
``read_csv`` and its cells are read by the one cell grammar, ``parse_cells``,
which the series reader shares: once stripped, an integer is an optional
``-`` and ASCII digits.  A row the profile refuses is reported by its JSON
``publications`` index or its CSV line, which ``csv.reader`` counts only
then, by reading the file again.  A JSON profile and a manifest are each
read whole by ``read_json``.
A fault in the file's structure (a CSV cell that is not an integer, a
malformed CSV row, a JSON record without the three keys) is reported only
when the rows above it keep the row rules; within a row, a CSV cell that is
not an integer comes before a rule the row breaks.

A batch manifest is a JSON array of ``{name, path, tags}`` records whose
paths resolve relative to the manifest file and whose names give distinct
output file stems.  There is deliberately no network ingestion; snapshots
must be exported to files first.  Every input file is read as UTF-8 with an
optional BOM; undecodable bytes anywhere in it raise ``ParseError``.

This module holds the package's file I/O: its two readers, ``read_csv`` for
profile and series CSVs and ``read_json`` for JSON documents, and its one
writer, ``new_file``, which never replaces an existing file.  Every output
is encoded straight into the temporary file that ``new_file`` publishes, a
CSV by ``write_csv``, and is never held whole as text.  Every command first
checks all its output paths with ``check_outputs``.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

from ._lazy import np
from .errors import BadSpec, ParseError, SchemaError, ValidationError, echo
from .profiles import MAX_CITATIONS, MAX_YEAR, MIN_YEAR, ResearcherProfile, check_rows

SCHEMA_VERSION = 1
CSV_HEADER = ["pub_id", "year", "citations"]

#: A JSON escape of a UTF-16 surrogate, which is valid UTF-8 only as half of a pair.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

#: Profile file suffixes; the suffix picks the format for reading and writing.
PROFILE_SUFFIXES = (".csv", ".json")

#: The errors ``os.link`` gives on a file system without hard links.
_NO_HARD_LINKS = {errno.EPERM, errno.ENOTSUP, errno.EOPNOTSUPP}


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


def read_json(path, what: str):
    """The JSON document of a UTF-8 file, dropping a leading BOM; profiles and
    manifests are read this way, each whole.

    A path that is not a regular file, undecodable bytes, or text that is not
    JSON raise ``ParseError``; ``what`` names the file in the first.
    """
    path = _input_file(path, what)
    with _utf8(path), open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
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


def read_csv(path, what: str, header: list[str]):
    """Read the CSV rows of a UTF-8 file after ``header`` into one list of
    cells per header cell, dropping a leading BOM.

    The file is read untranslated (``newline=""``), so that a line ends at
    ``\\r\\n``, a lone ``\\r`` or a lone ``\\n`` and a quoted cell keeps its
    line breaks as written; its rows are streamed line by line, so it is never
    held whole.  The first row must be exactly ``header``; blank lines are
    skipped.  Returns ``(columns, line, error)``:

    * ``line(row)`` is ``csv.reader``'s ``line_num`` after the row with index
      ``row``: the line it ends on.  No line number is kept per row; the call
      opens the file again and reads it up to that row, so only error paths
      make it.
    * ``error`` is the ``ParseError`` of a wrong header, of a row without
      ``len(header)`` cells or of malformed CSV, which ends the rows read;
      the rest of the file is still decoded.  The caller raises ``error``
      only after the rows above it.  Else it is None.

    A path that is not a regular file, or undecodable bytes anywhere in the
    file, raise ``ParseError``; ``what`` names the file in the first.  Each
    stream is closed before the call that opened it returns.
    """
    path = _input_file(path, what)
    width = len(header)
    cells, error = [], None
    with _utf8(path), open(path, encoding="utf-8-sig", newline="") as lines:
        reader = csv.reader(lines)
        try:
            first = next(reader, [])
            if first != header:
                error = ParseError(f"header must be exactly {','.join(header)!r}, got {echo(','.join(first))}", line=1)
            else:
                extend = cells.extend
                for row in reader:
                    if len(row) == width:
                        extend(row)
                    elif row:
                        error = ParseError(f"expected {width} fields, got {len(row)}", line=reader.line_num)
                        break
        except csv.Error as exc:
            error = ParseError(str(exc), line=reader.line_num)
        if error is not None:
            while lines.read(1 << 16):  # decode the rest of the file, a chunk at a time
                pass
    columns = [cells[i::width] for i in range(width)]
    del cells

    def line(row: int) -> int:
        with open(path, encoding="utf-8-sig", newline="") as lines:
            again = csv.reader(lines)
            next(islice(filter(None, again), row + 1, None))  # the header, then rows 0 to row
            return again.line_num

    return columns, line, error


@contextmanager
def _utf8(path: Path):
    """Raise a ``UnicodeDecodeError`` from reading ``path`` as ``ParseError``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason}): {path}") from None


def check_outputs(paths) -> None:
    """Raise ``ValidationError`` naming the first of ``paths`` that cannot be
    written as a new file: one under a file, one that exists, or one whose name,
    or the name of a directory it would need, is longer than the nearest
    existing directory allows.  Each parent is looked up once."""
    name_max: dict[str, int] = {}
    for path in paths:
        parent, name = os.path.split(path)
        if parent not in name_max:
            # lexists stops at a dangling or looping link, and is False for an over-long name
            ancestor = next(part for part in Path(path).parents if os.path.lexists(part))
            if not ancestor.is_dir():
                raise ValidationError(f"--out must be a directory, and {ancestor} is not one")
            limit = name_max[parent] = os.pathconf(ancestor, "PC_NAME_MAX")
            below = ancestor
            for part in Path(parent).relative_to(ancestor).parts:  # the directories to be made
                below /= part
                if len(os.fsencode(part)) > limit:
                    raise ValidationError(f"output directory name is longer than {limit} bytes: {below}")
        if os.path.lexists(path):
            raise ValidationError(f"output file already exists: {path}")
        if len(os.fsencode(name)) > name_max[parent]:
            raise ValidationError(f"output file name is longer than {name_max[parent]} bytes: {path}")


@contextmanager
def new_file(path):
    """Yield a text handle whose writes become the new file ``path``, UTF-8 with
    the line ends written.

    An existing ``path`` is refused.  The handle writes a temporary file in the
    same directory, which is hard-linked as ``path`` when the ``with`` block
    ends cleanly, so a file that appeared at ``path`` meanwhile is refused, not
    replaced; where the file system has no hard links, the temporary file is
    renamed onto ``path`` instead.  The temporary file is always removed, so
    ``path`` is either absent or complete.  There is no fsync: the file is
    complete after a crash of this program, not of the machine.
    """
    path = Path(path)
    if os.path.lexists(path):
        raise ValidationError(f"output file already exists: {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name[:50]}.{os.getpid()}.tmp")
    fh = open(temp, "x", encoding="utf-8", newline="")  # a temp this call did not make is left alone
    try:
        with fh:
            yield fh
        try:
            os.link(temp, path)
        except FileExistsError:
            raise ValidationError(f"output file already exists: {path}") from None
        except OSError as exc:
            if exc.errno not in _NO_HARD_LINKS:
                raise
            os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def parse_cells(columns, header, kinds, array=False):
    """Parse the columns of ``read_csv`` by the one cell grammar of the CSV readers.

    A kind of None keeps each cell as written; the others read it once
    ``str.strip`` has removed its padding.  ``int``: an optional ``-`` and
    ASCII digits, as many as ``int`` reads; with ``array``, int64 where it fits.
    ``float``: an ASCII literal without ``_`` that ``float`` reads, or None
    if empty.  ``str``: the text, or None if empty.  Returns the parsed
    columns and None; or, at the first cell in file order that its kind
    refuses, the rows above its row and ``(row, message)``.
    """
    parsed, fault = [], None
    for name, kind, cells in zip(header, kinds, columns):
        if kind is int and (digits := "".join(cells)).isascii() and digits.isdigit() and all(cells):
            with suppress(OverflowError, ValueError):  # a value past int64, or past ``int``'s digit limit
                parsed.append(np.array(cells, dtype=np.int64) if array else list(map(int, cells)))
                continue
        parsed.append(values := [] if kind else cells)
        try:
            for row, cell in enumerate(map(str.strip, cells if kind else ())):
                if kind is str or kind is float and not cell:
                    values.append(cell or None)
                elif cell.isascii() and (cell.removeprefix("-").isdigit() if kind is int else "_" not in cell):
                    values.append(kind(cell))  # ``float`` may refuse the literal, and ``int`` its digit count
                else:
                    raise ValueError(cell)
        except ValueError:
            if fault is None or row < fault[0]:
                fault = row, f"{name} {echo(cells[row])} is not {'an integer' if kind is int else 'a number'}"
    return ([column[:fault[0]] for column in parsed] if fault else parsed), fault


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
    """A CSV profile named by its stem, its count cells read by ``parse_cells``."""
    if _has_surrogate(path.stem):  # the stem names the profile, which is written out as UTF-8
        raise ParseError(f"profile file name is not UTF-8: {path}")
    columns, line, error = read_csv(path, "profile", CSV_HEADER)
    columns, fault = parse_cells(columns, CSV_HEADER, (None, int, int), array=True)  # frees the count cells
    error = ParseError(fault[1], line=line(fault[0])) if fault else error
    return _profile(path.stem, [], columns, lambda row: f"line {line(row)}", error)


def _load_json(path: Path) -> ResearcherProfile:
    doc = read_json(path, "profile")
    if not isinstance(doc, dict):
        raise ParseError("profile document must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # a JSON true or 1.0 is not 1
        raise SchemaError(f"unsupported schema_version {echo(version)} (expected {SCHEMA_VERSION})")
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
    suffix = _profile_format(path)
    rows = list(zip(profile.pub_ids, profile.years.tolist(), profile.citations.tolist()))
    with new_file(path) as fh:
        if suffix == ".csv":
            write_csv(fh, [CSV_HEADER, *rows])
        else:
            doc = {
                "schema_version": SCHEMA_VERSION,
                "name": profile.name,
                "tags": list(profile.tags),
                "publications": [
                    {"id": pub_id, "year": year, "citations": citations} for pub_id, year, citations in rows
                ],
            }
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return path


def write_csv(fh, rows: list) -> None:
    """Write the list ``rows`` to the text handle ``fh`` as CSV with LF line ends.

    ``csv.writer`` quotes a cell holding a comma, a quote or an LF but leaves
    a lone CR bare, which ``csv.reader`` takes for a line end; so when some
    text cell holds a CR, every text cell is quoted.
    """
    has_cr = any("\r" in cell for cell in chain.from_iterable(rows) if isinstance(cell, str))
    quoting = csv.QUOTE_NONNUMERIC if has_cr else csv.QUOTE_MINIMAL
    csv.writer(fh, lineterminator="\n", quoting=quoting).writerows(rows)


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    path: Path
    tags: tuple[str, ...] = ()


def load_manifest(path) -> list[ManifestEntry]:
    """Load a cohort manifest; entry paths resolve relative to the manifest."""
    path = Path(path)
    doc = read_json(path, "manifest")
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
                path=Path(os.path.realpath(path.parent / rec["path"])),  # Path.resolve raises on a link loop
                tags=tuple(tags),
            )
        )
    name_by_stem: dict[str, str] = {}
    for entry in entries:
        stem = file_stem(entry.name)
        if stem in name_by_stem:
            raise ValidationError(
                f"manifest names must give unique file stems: "
                f"{echo(name_by_stem[stem])} and {echo(entry.name)} both give {echo(stem)}"
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
            raise BadSpec(f"unknown model {echo(self.model)}")
        if not isinstance(self.span_years, (tuple, list)) or len(self.span_years) != 2:
            raise BadSpec(f"span_years must be a (first, last) pair, got {echo(self.span_years)}")
        if not isinstance(self.exponent, (int, float)):
            raise BadSpec(f"exponent must be a real number, got {echo(self.exponent)}")
        first, last = self.span_years
        ints = {"n_papers": self.n_papers, "span_years[0]": first, "span_years[1]": last,
                "seed": self.seed, "value": self.value}
        for field, value in ints.items():
            if type(value) is not int:  # a bool or a float would be truncated, or fail inside numpy
                raise BadSpec(f"{field} must be an int, got {echo(value)}")
        if not 1 <= self.n_papers <= MAX_SYNTH_PAPERS:
            raise BadSpec(f"n_papers must be in [1, {MAX_SYNTH_PAPERS}], got {echo(self.n_papers)}")
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
            raise BadSpec(f"value must be in [0, {MAX_CITATIONS}], got {echo(self.value)}")
        if self.seed < 0:
            raise BadSpec(f"seed must be nonnegative, got {echo(self.seed)}")


def synth_profile(spec: SynthSpec, name: str | None = None) -> ResearcherProfile:
    """Generate a synthetic profile; identical specs yield identical profiles."""
    if name is not None and (not name or _has_surrogate(name)):  # load_profile refuses an empty name
        raise BadSpec(f"name must be a nonempty string encodable as UTF-8, got {echo(name)}")
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
