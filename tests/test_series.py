"""The window series: central years that must ascend, and the uncited career."""

import re

import pytest

from citeineq import (
    IndexSeries,
    NoWindows,
    ParseError,
    ValidationError,
    WindowConfig,
    WindowEntry,
    ZeroTotal,
    career_summary,
    window_series,
)
from citeineq.cli import main
from citeineq.report import SERIES_HEADER, read_series_csv
from citeineq.windows import SKIP_NO_PUBS, SKIP_ZERO_CITES
from helpers import make_profile

HEADER = SERIES_HEADER + "\n"


def series_file(tmp_path, text: str):
    """``tmp_path / "s.csv"`` holding ``text`` as written, line ends untranslated."""
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def refused(tmp_path, text: str, message: str):
    """Assert that ``read_series_csv`` refuses ``text`` with ``message``, in which
    ``{path}`` stands for the file's path."""
    path = series_file(tmp_path, text)
    with pytest.raises(ParseError, match="^" + re.escape(message.format(path=path)) + "$"):
        read_series_csv(path)


class TestYearsAscend:
    @pytest.mark.parametrize("years", [(2001, 2002, 2002), (2001, 2003, 2002)])
    def test_reader_refuses_years_that_do_not_ascend(self, tmp_path, years):
        path = series_file(tmp_path, HEADER + "".join(f"{year},0.5,0.7,5,50,\n" for year in years))
        with pytest.raises(ParseError) as info:
            read_series_csv(path)
        assert str(info.value) == f"line 4: {path}: central_year must ascend, but {years[2]} follows {years[1]}"

    def test_the_line_counts_blank_lines(self, tmp_path):
        text = HEADER + "2001,0.5,0.7,5,50,\n\n2003,0.5,0.7,5,50,\n\n2003,0.5,0.7,5,50,\n"
        refused(tmp_path, text, "line 6: {path}: central_year must ascend, but 2003 follows 2003")

    def test_the_line_counts_line_breaks_inside_quoted_cells(self, tmp_path):
        # a blank line, then a skipped row whose quoted reason holds a line break
        above = HEADER + '\n2000,,,0,0,"no_publications\n"\n'
        refused(tmp_path, above + "2001,0.5,1.7,5,50,\n", "line 5: {path}: g and k must lie in [0, 1], got 0.5, 1.7")
        refused(tmp_path, above + "2001,0.5,0.7,5,50,\n2000,0.5,0.7,5,50,\n",
                "line 6: {path}: central_year must ascend, but 2000 follows 2001")

    def test_text_with_cr_line_ends_reads_like_a_file(self, tmp_path):
        # a file is read with its line ends as written: a lone CR ends a line as LF does
        text = HEADER + "2001,0.5,0.7,5,50,\n\n2002,,,0,0,no_publications\n"
        assert read_series_csv(series_file(tmp_path, text.replace("\n", "\r"))) == read_series_csv(
            series_file(tmp_path, text))

    @pytest.mark.parametrize("command", ["fit", "plotdata"])
    def test_cli_refuses_them_in_one_line(self, tmp_path, capsys, command):
        series_path = tmp_path / "s.csv"
        series_path.write_text(HEADER + "2001,0.5,0.7,5,50,\n2003,0.6,0.74,5,50,\n2002,0.55,0.72,5,50,\n")
        out_dir = tmp_path / "out"
        code = main([command, str(series_path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: ParseError: line 4: {series_path}: central_year must ascend, but 2002 follows 2003\n"
        assert not out_dir.exists()

    def test_bad_rows_and_malformed_rows_come_before_the_order(self, tmp_path):
        text = HEADER + "2002,0.5,0.7,5,50,\n2001,0.5,0.7,5,50,\n2003,0.5,1.7,5,50,\n"
        refused(tmp_path, text, "line 4: {path}: g and k must lie in [0, 1], got 0.5, 1.7")
        refused(tmp_path, HEADER + "2002,0.5,0.7,5,50,\n2001,0.5,0.7,5,50,\n2003,0.5\n", "line 4: expected 6 fields, got 2")

    def test_constructor_refuses_them(self):
        with pytest.raises(ValidationError, match="central_year must ascend, but 2000 follows 2000") as info:
            IndexSeries(entries=[WindowEntry(2000, 0.5, 0.7, 5, 9), WindowEntry(2000, 0.5, 0.7, 5, 9)])
        assert info.value.row == 1


class TestUncitedCareer:
    def test_zero_citation_profile_gives_an_all_skipped_series(self):
        profile = make_profile({2000: [0, 0], 2001: [0, 0, 0]})
        series = window_series(profile, WindowConfig(end_year=2010))
        assert {e.reason for e in series.entries} == {SKIP_ZERO_CITES, SKIP_NO_PUBS}
        with pytest.raises(ZeroTotal, match="^all citation counts are zero$"):
            career_summary(profile, series)

    def test_zero_citation_profile_fails_analyze_with_zero_total(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("pub_id,year,citations\np1,2000,0\np2,2001,0\np3,2001,0\n")
        code = main(["analyze", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: ZeroTotal: all citation counts are zero\n"
        assert not (tmp_path / "out").exists()

    def test_no_windows_comes_before_zero_total(self, tmp_path, capsys):
        profile = make_profile({2021: [0, 0]})
        with pytest.raises(NoWindows):
            window_series(profile, WindowConfig(end_year=2022))
        path = tmp_path / "late.csv"
        path.write_text("pub_id,year,citations\np1,2021,0\np2,2021,0\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: NoWindows: ")
