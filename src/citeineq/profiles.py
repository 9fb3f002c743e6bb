"""Researcher profiles: named publication lists with per-paper citation counts.

Citation counts are present-day totals attributed to the publication year;
no accrual history is modelled.

Rows arrive as columns: a loader collects the pub_id, year and citations
cells of a file into three lists, and ``publication_rows`` checks the row
rules once over each whole column before it makes the ``Publication`` rows.
The row rules and their messages are written once, in ``Publication``; a
column that breaks one is gone through row by row to name the first bad row.
A profile checks only what spans rows (nonempty, unique pub_id), sorts by
(year, pub_id) so that no result depends on input file order, and keeps the
sorted ``years`` and ``citations`` as int64 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import EmptyProfile, ValidationError

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
    checks; it is meant for columns that ``publication_rows`` has checked.

    A publication is a ``NamedTuple``, so that a row costs one small tuple.
    It therefore equals, hashes and orders like the plain tuple
    ``(pub_id, year, citations)``.  That is accepted: two publications are
    equal exactly when their fields are, and nothing in the package compares
    a publication with anything else.
    """

    __slots__ = ()

    def __new__(cls, pub_id: str, year: int, citations: int):
        if type(pub_id) is not str or not pub_id:
            raise ValidationError(f"pub_id must be a nonempty string, got {pub_id!r}")
        if type(year) is not int or not MIN_YEAR <= year <= MAX_YEAR:
            raise ValidationError(
                f"publication {pub_id!r}: year {year!r} is not a "
                f"4-digit calendar year in [{MIN_YEAR}, {MAX_YEAR}]"
            )
        if type(citations) is not int or not 0 <= citations <= MAX_CITATIONS:
            raise ValidationError(
                f"publication {pub_id!r}: citations must be an integer "
                f"in [0, {MAX_CITATIONS}], got {citations!r}"
            )
        return super().__new__(cls, pub_id, year, citations)


def publication_rows(ids: list, years: list, citations: list) -> list[Publication]:
    """The ``Publication`` rows of three equal-length columns, in column order.

    Each row rule is checked once over a whole column: the cell types, that
    no id is empty, and each column's minimum and maximum.  Clean columns
    become rows through ``Publication._make`` with no second check.  Otherwise
    the rows are built one by one, and the first bad row raises its
    ``ValidationError``.
    """
    if (
        set(map(type, ids)) <= {str} and all(ids)
        and set(map(type, years)) <= {int}
        and MIN_YEAR <= min(years, default=MIN_YEAR) and max(years, default=MAX_YEAR) <= MAX_YEAR
        and set(map(type, citations)) <= {int}
        and 0 <= min(citations, default=0) and max(citations, default=0) <= MAX_CITATIONS
    ):
        return list(map(Publication._make, zip(ids, years, citations)))
    return list(map(Publication, ids, years, citations))


_pub_id, _year, _citations = attrgetter("pub_id"), attrgetter("year"), attrgetter("citations")


@dataclass
class ResearcherProfile:
    name: str
    tags: list[str] = field(default_factory=list)
    publications: list[Publication] = field(default_factory=list)
    years: np.ndarray = field(init=False, repr=False, compare=False)
    citations: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pubs = self.publications
        if not pubs:
            raise EmptyProfile(f"profile {self.name!r} has no publications")
        if len(set(map(_pub_id, pubs))) < len(pubs):
            seen: set[str] = set()
            for pub in pubs:
                if pub.pub_id in seen:
                    raise ValidationError(f"duplicate pub_id {pub.pub_id!r}")
                seen.add(pub.pub_id)
        # two stable sorts give (year, pub_id) order, comparing ids as Python
        # strings: a numpy string array would drop their trailing NULs
        pubs.sort(key=_pub_id)
        pubs.sort(key=_year)
        self.years = np.fromiter(map(_year, pubs), np.int64, len(pubs))
        self.citations = np.fromiter(map(_citations, pubs), np.int64, len(pubs))
