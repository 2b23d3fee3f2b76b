"""Tests for repro.timeline: month arithmetic and study constants."""

import pytest
from hypothesis import given, strategies as st

from repro.timeline import HEARTBLEED, STUDY_END, STUDY_START, Month


class TestMonthBasics:
    def test_construction(self):
        m = Month(2014, 4)
        assert m.year == 2014
        assert m.month == 4

    @pytest.mark.parametrize("bad", [0, 13, -1, 99])
    def test_invalid_month_rejected(self, bad):
        with pytest.raises(ValueError):
            Month(2014, bad)

    def test_str_format(self):
        assert str(Month(2010, 7)) == "2010-07"
        assert str(Month(2016, 12)) == "2016-12"

    def test_parse_roundtrip(self):
        assert Month.parse("2014-04") == Month(2014, 4)
        assert Month.parse(str(Month(2011, 1))) == Month(2011, 1)

    def test_from_index_roundtrip(self):
        m = Month(2013, 11)
        assert Month.from_index(m.index) == m

    def test_first_day(self):
        assert Month(2014, 4).first_day().isoformat() == "2014-04-01"


class TestMonthArithmetic:
    def test_add_within_year(self):
        assert Month(2014, 1) + 3 == Month(2014, 4)

    def test_add_across_year(self):
        assert Month(2014, 11) + 3 == Month(2015, 2)

    def test_add_negative(self):
        assert Month(2014, 1) + (-1) == Month(2013, 12)

    def test_subtract_months(self):
        assert Month(2014, 4) - Month(2014, 1) == 3
        assert Month(2014, 1) - Month(2014, 4) == -3

    def test_subtract_integer(self):
        assert Month(2014, 1) - 2 == Month(2013, 11)

    def test_ordering(self):
        assert Month(2014, 4) > Month(2014, 3)
        assert Month(2013, 12) < Month(2014, 1)
        assert Month(2014, 4) == Month(2014, 4)

    def test_hashable(self):
        assert len({Month(2014, 4), Month(2014, 4), Month(2014, 5)}) == 2

    @given(
        st.integers(min_value=1900, max_value=2100),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=-500, max_value=500),
    )
    def test_add_then_subtract_is_identity(self, year, month, delta):
        m = Month(year, month)
        assert (m + delta) - m == delta

    @given(st.integers(min_value=20000, max_value=30000))
    def test_index_bijective(self, index):
        assert Month.from_index(index).index == index


class TestMonthRange:
    def test_range_inclusive(self):
        months = list(Month.range(Month(2014, 11), Month(2015, 2)))
        assert months == [
            Month(2014, 11),
            Month(2014, 12),
            Month(2015, 1),
            Month(2015, 2),
        ]

    def test_range_single(self):
        assert list(Month.range(Month(2014, 4), Month(2014, 4))) == [Month(2014, 4)]

    def test_range_empty_when_reversed(self):
        assert list(Month.range(Month(2014, 5), Month(2014, 4))) == []


class TestStudyConstants:
    def test_study_window(self):
        assert STUDY_START == Month(2010, 7)
        assert STUDY_END == Month(2016, 5)

    def test_study_span_is_nearly_six_years(self):
        assert STUDY_END - STUDY_START == 70

    def test_heartbleed_inside_window(self):
        assert STUDY_START < HEARTBLEED < STUDY_END
        assert HEARTBLEED == Month(2014, 4)
