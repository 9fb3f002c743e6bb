"""Researcher profiles: named publication lists with per-paper citation counts.

Citation counts are present-day totals attributed to the publication year;
no accrual history is modelled.  Every row is validated when its
``Publication`` is built; a profile checks only what spans rows (nonempty,
unique pub_id), sorts by (year, pub_id) so that no result depends on input
file order, and keeps the sorted ``years`` and ``citations`` as int64 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import EmptyProfile, ValidationError

MIN_YEAR = 1800

#: Latest accepted publication year; a constant, so no result depends on the date.
MAX_YEAR = 2100

#: Largest accepted citation count; int64 sums stay exact below 9.2e9 papers.
MAX_CITATIONS = 10**9


@dataclass(frozen=True)
class Publication:
    """One paper, validated on construction.

    The exact ``int`` type checks keep a JSON ``true`` from counting as 1.
    """

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


@dataclass
class ResearcherProfile:
    name: str
    tags: list[str] = field(default_factory=list)
    publications: list[Publication] = field(default_factory=list)
    years: np.ndarray = field(init=False, repr=False, compare=False)
    citations: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.publications:
            raise EmptyProfile(f"profile {self.name!r} has no publications")
        seen: set[str] = set()
        for pub in self.publications:
            if pub.pub_id in seen:
                raise ValidationError(f"duplicate pub_id {pub.pub_id!r}")
            seen.add(pub.pub_id)
        self.publications.sort(key=attrgetter("year", "pub_id"))
        self.years = np.array([p.year for p in self.publications], dtype=np.int64)
        self.citations = np.array([p.citations for p in self.publications], dtype=np.int64)
