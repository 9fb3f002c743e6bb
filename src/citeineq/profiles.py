"""Researcher profiles: named publication lists with per-paper citation counts.

Citation counts are present-day totals attributed to the publication year;
no accrual history is modelled.  Every row is validated when its
``Publication`` is built; a profile checks only what spans rows (nonempty,
unique pub_id) and sorts by (year, pub_id) so that every downstream result
is independent of input file order.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from .errors import EmptyProfile, ValidationError

MIN_YEAR = 1800

#: Latest accepted publication year, read once at import rather than per row.
MAX_YEAR = datetime.date.today().year


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
        if type(self.citations) is not int or self.citations < 0:
            raise ValidationError(
                f"publication {self.pub_id!r}: citations must be a "
                f"nonnegative integer, got {self.citations!r}"
            )


@dataclass
class ResearcherProfile:
    name: str
    tags: list[str] = field(default_factory=list)
    publications: list[Publication] = field(default_factory=list)

    def __post_init__(self):
        if not self.publications:
            raise EmptyProfile(f"profile {self.name!r} has no publications")
        seen: set[str] = set()
        for pub in self.publications:
            if pub.pub_id in seen:
                raise ValidationError(f"duplicate pub_id {pub.pub_id!r}")
            seen.add(pub.pub_id)
        self.publications.sort(key=lambda p: (p.year, p.pub_id))

    @property
    def first_year(self) -> int:
        return self.publications[0].year

    @property
    def citations(self) -> list[int]:
        """All citation counts, in canonical publication order."""
        return [p.citations for p in self.publications]

    def citations_in(self, start_year: int, end_year: int) -> list[int]:
        """Citation counts of publications dated within [start, end]."""
        return [p.citations for p in self.publications if start_year <= p.year <= end_year]
