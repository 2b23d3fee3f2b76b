"""Monthly timeline arithmetic for the six-year study window.

The paper analyses one representative scan per month from July 2010 through
May 2016.  Everything time-related in the simulation — device deployment,
advisories, Heartbleed, end-of-life dates, scan schedules — is expressed in
:class:`Month` units, which are totally ordered and support integer
arithmetic (``month + 3``, ``b - a``).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterator

__all__ = ["Month", "STUDY_START", "STUDY_END", "HEARTBLEED"]


@dataclass(frozen=True, slots=True, order=True)
class Month:
    """A calendar month, ordered and hashable.

    Attributes:
        year: four-digit year.
        month: 1-12.
    """

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    @property
    def index(self) -> int:
        """Months since year 0 (an absolute, order-preserving integer)."""
        return self.year * 12 + (self.month - 1)

    @classmethod
    def from_index(cls, index: int) -> "Month":
        """Inverse of :attr:`index`."""
        return cls(index // 12, index % 12 + 1)

    @classmethod
    def parse(cls, text: str) -> "Month":
        """Parse ``"YYYY-MM"``."""
        year_text, _, month_text = text.partition("-")
        return cls(int(year_text), int(month_text))

    def first_day(self) -> date:
        """The first calendar day of the month."""
        return date(self.year, self.month, 1)

    def __add__(self, months: int) -> "Month":
        return Month.from_index(self.index + months)

    def __sub__(self, other: "Month | int") -> "Month | int":
        if isinstance(other, Month):
            return self.index - other.index
        return Month.from_index(self.index - other)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    @staticmethod
    def range(start: "Month", end: "Month") -> Iterator["Month"]:
        """Yield months from ``start`` through ``end`` inclusive."""
        for index in range(start.index, end.index + 1):
            yield Month.from_index(index)


#: First month with scan data (EFF SSL Observatory, July 2010).
STUDY_START = Month(2010, 7)
#: Last month with scan data (Censys, May 2016).
STUDY_END = Month(2016, 5)
#: The Heartbleed disclosure month (April 2014) — the single largest drop in
#: vulnerable hosts in the paper's data.
HEARTBLEED = Month(2014, 4)
