"""Researcher profiles: named publication lists with per-paper citation counts.

Citation counts are present-day totals attributed to the publication year;
no accrual history is modelled.

A profile holds its papers as three columns in (year, pub_id) order:
``pub_ids``, a list of strings, and ``years`` and ``citations``, read-only
int64 arrays, so that each window is a contiguous slice of them.  It is
built from three columns in any order, as a loader reads them from a file.
The row rules are checked once over each whole column: the cell types, that
no id is empty, and each column's minimum and maximum.  The rules and their
messages are written once, in ``Publication``; only columns that break one
are gone through row by row, by ``check_rows``, so that the first bad row
raises a ``ValidationError`` whose ``row`` is its input index.  A loader
turns that index into a CSV line or a JSON ``publications`` index.  The
profile then checks what spans rows (at least one paper, unique pub_ids)
and sorts the columns by one index permutation, so that no result depends
on input order.  ``profile.publications`` builds the rows from the columns
on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import np
from .errors import EmptyProfile, ValidationError, echo

MIN_YEAR = 1800

#: Latest accepted publication year; a constant, so no result depends on the date.
MAX_YEAR = 2100

#: Largest accepted citation count; int64 sums stay exact below 9.2e9 papers.
MAX_CITATIONS = 10**9


class _Row(NamedTuple):
    pub_id: str
    year: int
    citations: int


class Publication(_Row):
    """One paper, validated on construction.

    The exact ``int`` type checks keep a JSON ``true`` from counting as 1.
    ``Publication._make`` (and so ``_replace``) builds a row without the
    checks; it is meant for the columns of a ``ResearcherProfile``.

    A publication is a ``NamedTuple``, so that a row costs one small tuple.
    It therefore equals, hashes and orders like the plain tuple
    ``(pub_id, year, citations)``.  That is accepted: two publications are
    equal exactly when their fields are, and nothing in the package compares
    a publication with anything else.
    """

    __slots__ = ()

    def __new__(cls, pub_id: str, year: int, citations: int):
        if type(pub_id) is not str or not pub_id:
            raise ValidationError(f"pub_id must be a nonempty string, got {echo(pub_id)}")
        if type(year) is not int or not MIN_YEAR <= year <= MAX_YEAR:
            raise ValidationError(
                f"publication {echo(pub_id)}: year {echo(year)} is not a "
                f"4-digit calendar year in [{MIN_YEAR}, {MAX_YEAR}]"
            )
        if type(citations) is not int or not 0 <= citations <= MAX_CITATIONS:
            raise ValidationError(
                f"publication {echo(pub_id)}: citations must be an integer "
                f"in [0, {MAX_CITATIONS}], got {echo(citations)}"
            )
        return super().__new__(cls, pub_id, year, citations)


def check_rows(ids, years, citations) -> None:
    """Build each row's ``Publication`` in input order; a numpy column gives
    its ``tolist()`` cells.

    The first row that breaks a rule raises its ``ValidationError``, with
    the row's index as ``row``.
    """
    for row, cells in enumerate(zip(*map(_cells, (ids, years, citations)))):
        try:
            Publication(*cells)
        except ValidationError as exc:
            exc.row = row
            raise


def _cells(column):
    """The cells of a column: a numpy column's are its ``tolist()``."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _int64_column(column, lo: int, hi: int) -> np.ndarray | None:
    """``column`` as an int64 array if every cell is an ``int`` in [lo, hi], else None.

    A 1-d integer numpy column is checked by its dtype, minimum and maximum,
    without its cells; a bool or float one has no ``int`` cells.
    """
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "iu":
        low, high = (column.min(), column.max()) if column.size else (lo, hi)
    else:
        column = _cells(column)
        if not set(map(type, column)) <= {int}:
            return None
        low, high = min(column, default=lo), max(column, default=hi)
    return np.asarray(column, np.int64) if lo <= low and high <= hi else None


@dataclass(eq=False)
class ResearcherProfile:
    """A named, tagged set of papers, held as three columns in (year, pub_id) order.

    Built from three equal-length columns in any order: ``pub_ids`` strings,
    and ``years`` and ``citations`` as lists of ``int`` or integer numpy
    arrays.  On construction ``pub_ids`` becomes a list and the other two
    read-only int64 arrays, sorted together.  Two profiles are equal when
    their name, tags and rows are.
    """

    name: str
    tags: list[str]
    pub_ids: list[str]
    years: np.ndarray
    citations: np.ndarray

    def __post_init__(self):
        ids = _cells(self.pub_ids)
        if not len(ids) == len(self.years) == len(self.citations):
            raise ValidationError(
                f"profile {echo(self.name)}: columns must have equal lengths, got "
                f"{len(ids)} pub_ids, {len(self.years)} years and {len(self.citations)} citations"
            )
        years = _int64_column(self.years, MIN_YEAR, MAX_YEAR)
        citations = _int64_column(self.citations, 0, MAX_CITATIONS)
        if years is None or citations is None or not (set(map(type, ids)) <= {str} and all(ids)):
            # the check fails exactly when some row breaks a rule; the first one raises
            check_rows(ids, self.years, self.citations)
        if not ids:
            raise EmptyProfile(f"profile {echo(self.name)} has no publications")
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            for pub_id in ids:
                if pub_id in seen:
                    raise ValidationError(f"duplicate pub_id {echo(pub_id)}")
                seen.add(pub_id)
        # (year, pub_id) order: the ids are ranked as Python strings, since a
        # numpy string array would drop their trailing NULs, and one sort of the
        # distinct keys year * n + rank puts the years first.  A stable argsort
        # would do too, but its first call in a process costs about 0.2 MB of RSS.
        n = len(ids)
        by_id = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.intp)
        keys = years[by_id] * n + np.arange(n)
        keys.sort()
        order = by_id[keys % n]
        self.pub_ids = list(map(ids.__getitem__, order.tolist()))
        self.years, self.citations = years[order], citations[order]
        self.years.flags.writeable = self.citations.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, ResearcherProfile):
            return NotImplemented
        return (
            (self.name, self.tags, self.pub_ids) == (other.name, other.tags, other.pub_ids)
            and np.array_equal(self.years, other.years)
            and np.array_equal(self.citations, other.citations)
        )

    @property
    def publications(self) -> list[Publication]:
        """The rows in (year, pub_id) order, built from the columns on each call."""
        return list(map(Publication._make, zip(self.pub_ids, self.years.tolist(), self.citations.tolist())))
