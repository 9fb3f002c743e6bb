"""CLI subcommands, file formats, and exit codes."""

import argparse
import csv
import json
import os
import re
import weakref
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeineq import (
    IndexSeries,
    ParseError,
    SynthSpec,
    WindowEntry,
    cli,
    fit_k_vs_g,
    load_profile,
    report,
    synth_profile,
    write_profile,
)
from citeineq.cli import build_parser, main
from citeineq.profiles import MAX_CITATIONS, MAX_YEAR, MIN_YEAR
from citeineq.windows import SKIP_NO_PUBS, SKIP_TOO_FEW, SKIP_ZERO_CITES
from helpers import CROSSING_WINDOW, ROOT, make_profile, run_python


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spike_profile_path(tmp_path):
    """One 4-publication window holding [0, 0, 0, 10]."""
    profile = make_profile({2000: [0, 0], 2001: [0, 10]}, name="spike")
    return write_profile(profile, tmp_path / "spike.csv")


@pytest.fixture
def equal_profile_path(tmp_path):
    profile = make_profile({y: [7, 7] for y in range(2000, 2010)}, name="flat")
    return write_profile(profile, tmp_path / "flat.json")


RUN_FLAGS = {
    "--window-width", "--stride", "--end-year", "--min-pubs",
    "--marginal-tol", "--r-threshold", "--markdown", "--out",
}
SUBCOMMAND_FLAGS = {
    "analyze": RUN_FLAGS,
    "batch": RUN_FLAGS,
    "fit": {"--out"},
    "plotdata": {"--soc-mark", "--out"},
    "synth": {
        "--model", "--n-papers", "--exponent", "--first-year", "--last-year",
        "--seed", "--value", "--name", "--format", "--out",
    },
}


def test_each_subcommand_has_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices.keys() == SUBCOMMAND_FLAGS.keys()
    for name, parser in sub.choices.items():
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert flags - {"-h", "--help"} == SUBCOMMAND_FLAGS[name], name
    synth_format = next(a for a in sub.choices["synth"]._actions if "--format" in a.option_strings)
    assert synth_format.choices == ["csv", "json"]


class TestInProcessReuse:
    """``main`` parses every call with one parser; no call may leave state for the next."""

    SERIES = ROOT / "tests" / "golden" / "profiles" / "powerlaw-02_series.csv"

    def test_build_parser_returns_one_parser(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, equal_profile_path, capsys):
        commands = [
            ["analyze", str(equal_profile_path), "--markdown"],
            ["analyze", str(equal_profile_path)],
            ["plotdata", str(self.SERIES), "--soc-mark", "0.5"],
            ["plotdata", str(self.SERIES)],
            ["fit", str(self.SERIES), "--no-such-flag"],
            ["fit", str(self.SERIES)],
        ]
        codes = []
        for i, argv in enumerate(commands):
            here, fresh = tmp_path / "here" / str(i), tmp_path / "fresh" / str(i)
            try:
                code = main([*argv, "--out", str(here)])
            except SystemExit as exc:
                code = exc.code
            codes.append(code)
            captured = capsys.readouterr()
            proc = run_python("-m", "citeineq.cli", *argv, "--out", fresh)
            assert (code, captured.err) == (proc.returncode, proc.stderr), argv
            assert captured.out.replace(str(here), str(fresh)) == proc.stdout, argv
            files = sorted(p.relative_to(here) for p in here.rglob("*")) if here.exists() else []
            assert files == (sorted(p.relative_to(fresh) for p in fresh.rglob("*")) if fresh.exists() else [])
            for name in files:
                assert (here / name).read_bytes() == (fresh / name).read_bytes(), (argv, name)

        def suffixes(i):
            return sorted(p.suffix for p in (tmp_path / "here" / str(i)).iterdir())

        assert codes == [0, 0, 0, 0, 2, 0]
        assert (suffixes(0), suffixes(1)) == ([".csv", ".json", ".md"], [".csv", ".json"])
        assert not (tmp_path / "here" / "4").exists()

    def test_fit_and_plotdata_run_without_numpy(self, tmp_path, equal_profile_path):
        # a fresh interpreter, since this one imported numpy long ago
        script = """if True:
            import sys
            import citeineq
            import citeineq.cli
            from citeineq.cli import main
            series, profile, out = sys.argv[1:]
            assert "numpy" not in sys.modules, "numpy imported with the package"
            assert main(["fit", series, "--out", out + "/fit"]) == 0
            assert main(["plotdata", series, "--out", out + "/plotdata"]) == 0
            assert "numpy" not in sys.modules, "numpy imported by fit or plotdata"
            assert main(["analyze", profile, "--out", out + "/analyze"]) == 0
            assert "numpy" in sys.modules
        """
        proc = run_python("-c", script, self.SERIES, equal_profile_path, tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert all((tmp_path / name).is_dir() for name in ("fit", "plotdata", "analyze"))


OK_PROFILE = "pub_id,year,citations\n" + "".join(f"p{i},{2000 + i // 5},{1 + i % 7}\n" for i in range(60))

# command: (a stem and one of its outputs under --out, a longer stem and its
# first output whose name passes 255 bytes)
OUTPUT_FAULT_COMMANDS = {
    # the long stem's _series.csv takes 255 bytes and comes first; its _summary.json takes 257
    "analyze": ("p", "p_summary.json", "a" * 244, "a" * 244 + "_summary.json"),
    "fit": ("s", "s_fit.json", "s" * 247, "s" * 247 + "_fit.json"),
    # _timepanel.csv comes first, and the long stem's _inset.csv would fit
    "plotdata": ("s", "s_inset.csv", "s" * 244, "s" * 244 + "_timepanel.csv"),
    # the profile ok comes first in the manifest, and its two files fit
    "batch": ("p", "profiles/p_summary.json", "b" * 250, "profiles/" + "b" * 250 + "_series.csv"),
    "synth": ("p", "p.csv", "n" * 252, "n" * 252 + ".csv"),
}


def _output_argv(tmp_path, command, stem) -> list:
    """``command`` and its inputs, written under ``tmp_path / "in"``, for outputs named from ``stem``."""
    inputs = tmp_path / "in"
    inputs.mkdir(exist_ok=True)
    if command == "synth":
        return ["synth", "--n-papers", "20", "--name", stem]
    source = inputs / f"{stem}.csv"
    if command in ("fit", "plotdata"):
        source.write_bytes(TestInProcessReuse.SERIES.read_bytes())
        return [command, source]
    source.write_text(OK_PROFILE)
    if command == "analyze":
        return [command, source]
    (inputs / "ok.csv").write_text(OK_PROFILE)
    manifest = inputs / "manifest.json"
    manifest.write_text(json.dumps([{"name": "ok", "path": "ok.csv"}, {"name": stem, "path": source.name}]))
    return [command, manifest]


def _tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("command", OUTPUT_FAULT_COMMANDS)
@pytest.mark.parametrize("fault", ["out-is-a-file", "out-under-a-file", "exists", "name-too-long"])
def test_output_fault_is_one_line_validation_error_before_any_write(tmp_path, capsys, fault, command):
    stem, output, long_stem, long_output = OUTPUT_FAULT_COMMANDS[command]
    argv = _output_argv(tmp_path, command, long_stem if fault == "name-too-long" else stem)
    out = tmp_path / "out"
    if fault == "name-too-long":
        expected = f"output file name is longer than 255 bytes: {out / long_output}"
    elif fault == "exists":
        (out / output).parent.mkdir(parents=True)
        (out / output).write_text("kept\n")
        expected = f"output file already exists: {out / output}"
    else:
        (tmp_path / "f").write_text("kept\n")
        out = tmp_path / ("f" if fault == "out-is-a-file" else "f/sub")
        expected = f"--out must be a directory, and {tmp_path / 'f'} is not one"
    before = _tree(tmp_path)
    assert run(capsys, *argv, "--out", out) == (1, "", f"error: ValidationError: {expected}\n")
    assert _tree(tmp_path) == before


class TestAnalyze:
    def test_equal_profile_series(self, tmp_path, equal_profile_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "analyze", equal_profile_path, "--out", out_dir, "--end-year", "2011"
        )
        assert code == 0 and err == ""
        series = (out_dir / "flat_series.csv").read_text().splitlines()
        assert series[0] == "central_year,g,k,n_pubs,n_cites,skipped"
        for row in series[1:]:
            _, g, k, *_ = row.split(",")
            assert float(g) == 0.0 and float(k) == 0.5
        summary = json.loads((out_dir / "flat_summary.json").read_text())
        assert summary["crossing"] == "No"
        assert summary["peak_ratio"] == 1.0

    def test_spike_window_row(self, tmp_path, spike_profile_path, capsys):
        out_dir = tmp_path / "out"
        code, *_ = run(
            capsys,
            "analyze", spike_profile_path,
            "--out", out_dir, "--window-width", "4", "--end-year", "2003",
        )
        assert code == 0
        rows = (out_dir / "spike_series.csv").read_text().splitlines()[1:]
        year, g, k, n_pubs, n_cites, skipped = rows[0].split(",")
        assert (year, n_pubs, n_cites, skipped) == ("2002", "4", "10", "")
        assert float(g) == 0.75 and float(k) == 0.8

    def test_missing_file_names_path(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", tmp_path / "nope.csv")
        assert code == 1
        assert err.startswith("error: ParseError:")
        assert "nope.csv" in err

    def test_directory_is_not_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "dir.csv").mkdir()
        code, out, err = run(capsys, "analyze", tmp_path / "dir.csv", "--out", tmp_path / "out")
        assert code == 1
        assert err.startswith("error: ParseError: profile path is not a regular file:") and err.count("\n") == 1

    def test_existing_output_refused_before_any_write(self, tmp_path, equal_profile_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "flat_summary.md").write_text("kept\n")
        code, out, err = run(capsys, "analyze", equal_profile_path, "--out", out_dir, "--markdown")
        assert code == 1
        assert err.startswith("error: ValidationError: output file already exists:") and "flat_summary.md" in err
        assert [p.name for p in out_dir.iterdir()] == ["flat_summary.md"]
        assert (out_dir / "flat_summary.md").read_text() == "kept\n"

    def test_longest_output_names_leave_no_temp_file(self, tmp_path, capsys):
        # the outputs' names take 249 and 251 of the 255 bytes a name may hold; their temp names must fit too
        name = "a" * 238
        profile = write_profile(make_profile({y: [3, 9] for y in range(2000, 2006)}), tmp_path / f"{name}.csv")
        code, out, err = run(capsys, "analyze", profile, "--out", tmp_path / "out")
        assert (code, err) == (0, "")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [f"{name}_series.csv", f"{name}_summary.json"]

    def test_all_windows_skipped_is_computation_error(self, tmp_path, capsys):
        # publications 8 years apart never share a 5-year window
        profile = make_profile({2000: [5], 2008: [6]}, name="sparse")
        path = write_profile(profile, tmp_path / "sparse.csv")
        code, out, err = run(capsys, "analyze", path, "--out", tmp_path, "--end-year", "2012")
        assert code == 2
        assert err.startswith("error: AllSkipped:")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("flags", [[], ["--markdown"]], ids=["plain", "markdown"])
    def test_file_name_that_is_not_utf8_is_refused_before_any_write(self, tmp_path, capfd, flags):
        path = tmp_path / os.fsdecode(b"\xff.csv")
        try:
            path.write_text("pub_id,year,citations\np1,2001,1\np2,2002,3\n")
        except (OSError, UnicodeEncodeError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        out_dir = tmp_path / "out"
        code = main(["analyze", str(path), "--out", str(out_dir), *flags])
        err = capfd.readouterr().err
        assert code == 1
        assert err.startswith("error: ParseError: profile file name is not UTF-8: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_overflowing_counts_are_input_error(self, tmp_path, capsys):
        # an int64 sum of these counts wraps around; they fail the citation cap instead
        path = tmp_path / "over.csv"
        path.write_text(f"pub_id,year,citations\np1,2001,{2**62}\np2,2002,{2**62}\np3,2003,1\n")
        code, out, err = run(capsys, "analyze", path, "--out", tmp_path / "out")
        assert code == 1
        assert err.startswith("error: ValidationError: line 2:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--end-year", "99999999999999999999", "end_year"),
            ("--end-year", str(MAX_YEAR + 1), "end_year"),
            ("--end-year", str(MIN_YEAR - 1), "end_year"),
            ("--marginal-tol", "nan", "marginal_tolerance"),
            ("--marginal-tol", "inf", "marginal_tolerance"),
            ("--r-threshold", "nan", "r_threshold"),
            ("--r-threshold", "inf", "r_threshold"),
        ],
    )
    def test_out_of_range_run_flag_is_one_line_validation_error(
        self, tmp_path, equal_profile_path, capsys, flag, value, field
    ):
        code, out, err = run(capsys, "analyze", equal_profile_path, "--out", tmp_path / "out", flag, value)
        assert code == 1
        assert err.startswith(f"error: ValidationError: {field} must be ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("latin1.csv", b"pub_id,year,citations\ncaf\xe9,2001,3\n"),
            ("wide.csv", b"pub_id,year,citations\n" + b"x" * 200_000 + b",2001,3\n"),
            ("latin1.json", b'{"schema_version": 1, "name": "caf\xe9"}'),
            ("deep.json", b"[" * 100_000),
            ("long-int.json", b'{"schema_version": ' + b"1" * 5000 + b"}"),
        ],
        ids=["latin1-csv", "oversized-csv-field", "latin1-json", "deep-json", "long-int-json"],
    )
    def test_undecodable_profile_is_one_line_parse_error(self, tmp_path, capsys, name, raw):
        path = tmp_path / name
        path.write_bytes(raw)
        code, out, err = run(capsys, "analyze", path, "--out", tmp_path / "out")
        assert code == 1
        assert err.startswith("error: ParseError:") and err.count("\n") == 1

    def test_markdown_summary(self, tmp_path, equal_profile_path, capsys):
        out_dir = tmp_path / "md"
        code, *_ = run(
            capsys,
            "analyze", equal_profile_path,
            "--out", out_dir, "--end-year", "2011", "--markdown",
        )
        assert code == 0
        text = (out_dir / "flat_summary.md").read_text()
        assert "| flat |" in text and "0.00" in text


class TestFit:
    def make_series(self, tmp_path, slope=0.39, n=12):
        lines = ["central_year,g,k,n_pubs,n_cites,skipped"]
        for i in range(n):
            g = 0.2 + 0.05 * i
            lines.append(f"{2000 + i},{g!r},{0.5 + slope * g!r},10,100,")
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_recovers_slope_through_files(self, tmp_path, capsys):
        path = self.make_series(tmp_path, slope=0.39)
        code, out, err = run(capsys, "fit", path, "--out", tmp_path)
        assert code == 0
        fit = json.loads((tmp_path / "series_fit.json").read_text())
        assert fit["c"] == pytest.approx(0.39, abs=1e-9)
        assert fit["g_star"] == pytest.approx(0.5 / 0.61, abs=1e-9)
        assert fit["n_points"] == 12

    def test_pareto_slope(self, tmp_path, capsys):
        path = self.make_series(tmp_path, slope=0.375)
        code, *_ = run(capsys, "fit", path, "--out", tmp_path)
        assert code == 0
        fit = json.loads((tmp_path / "series_fit.json").read_text())
        assert fit["g_star"] == pytest.approx(0.8, abs=1e-9)

    def test_second_fit_into_same_out_refused(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        out_dir = tmp_path / "out"
        assert run(capsys, "fit", self.make_series(first, slope=0.39), "--out", out_dir)[0] == 0
        written = (out_dir / "series_fit.json").read_bytes()
        code, out, err = run(capsys, "fit", self.make_series(second, slope=0.2), "--out", out_dir)
        assert code == 1
        assert err.startswith("error: ValidationError: output file already exists:") and err.count("\n") == 1
        assert (out_dir / "series_fit.json").read_bytes() == written
        assert [p.name for p in out_dir.iterdir()] == ["series_fit.json"]

    def test_one_row_series_fails(self, tmp_path, capsys):
        path = self.make_series(tmp_path, n=1)
        code, out, err = run(capsys, "fit", path, "--out", tmp_path)
        assert code == 2
        assert err.startswith("error: DegenerateFit:")


@pytest.mark.parametrize("command", ["fit", "plotdata"])
@pytest.mark.parametrize("bad_g", ["nan", "inf", "1.5", "-0.25"])
def test_series_g_outside_unit_interval_is_input_error(tmp_path, capsys, command, bad_g):
    lines = ["central_year,g,k,n_pubs,n_cites,skipped"]
    lines += [f"{2000 + i},0.{50 + i},0.{70 + i},5,50," for i in range(5)]
    lines.append(f"2005,{bad_g},0.75,5,50,")
    series_path = tmp_path / "s.csv"
    series_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, series_path, "--out", out_dir)
    assert code == 1
    assert err.startswith("error: ParseError: line 7:") and err.count("\n") == 1
    assert not out_dir.exists()


years = st.integers(1800, 2100)
unit_floats = st.floats(0.0, 1.0)
window_counts = st.integers(0, 10**12)
skip_reasons = st.sampled_from([SKIP_NO_PUBS, SKIP_TOO_FEW, SKIP_ZERO_CITES])
series_entries = st.one_of(
    st.builds(WindowEntry, years, unit_floats, unit_floats, window_counts, window_counts),
    st.builds(WindowEntry, years, st.none(), st.none(), window_counts, window_counts, skip_reasons),
)


@given(st.lists(series_entries, max_size=12, unique_by=attrgetter("central_year")))
def test_series_csv_round_trip_is_exact(entries):
    series = IndexSeries(entries=sorted(entries, key=attrgetter("central_year")))
    assert report.series_from_csv(report.series_to_csv(series)) == series


@pytest.mark.parametrize("command", ["fit", "plotdata"])
def test_skipped_series_row_with_g_or_k_is_input_error(tmp_path, capsys, command):
    lines = ["central_year,g,k,n_pubs,n_cites,skipped"]
    lines += [f"{2000 + i},0.{50 + i},0.{70 + i},5,50," for i in range(5)]
    lines.append("2005,0.5,0.6,3,9,zero_citations")
    series_path = tmp_path / "s.csv"
    series_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, series_path, "--out", out_dir)
    assert code == 1
    assert err.startswith("error: ParseError: line 7:") and "skipped row has g or k" in err
    assert not out_dir.exists()


def test_series_with_utf8_bom_accepted(tmp_path, capsys):
    lines = ["central_year,g,k,n_pubs,n_cites,skipped", "2000,0.5,0.7,5,50,", "2001,0.6,0.74,5,60,"]
    series_path = tmp_path / "s.csv"
    series_path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode())
    code, out, err = run(capsys, "fit", series_path, "--out", tmp_path)
    assert code == 0 and err == ""


class TestPlotdata:
    def test_panel_shapes(self, tmp_path, capsys):
        lines = ["central_year,g,k,n_pubs,n_cites,skipped"]
        for i in range(10):
            lines.append(f"{2000 + i},0.{50 + i},0.{70 + i},5,50,")
        series_path = tmp_path / "s.csv"
        series_path.write_text("\n".join(lines) + "\n")
        code, *_ = run(capsys, "plotdata", series_path, "--out", tmp_path)
        assert code == 0
        panel = (tmp_path / "s_timepanel.csv").read_text().splitlines()
        assert panel[0] == "year,g,k,soc_mark"
        assert len(panel) == 11
        assert all(row.endswith(",0.82") for row in panel[1:])
        inset = (tmp_path / "s_inset.csv").read_text().splitlines()
        points = [r for r in inset if r.startswith("point,")]
        line = [r for r in inset if r.startswith("line,")]
        assert len(points) == 10 and len(line) == 50
        assert line[0].split(",")[1] == "0.0" and line[-1].split(",")[1] == "1.0"
        marked = tmp_path / "marked"
        code, *_ = run(capsys, "plotdata", series_path, "--out", marked, "--soc-mark", "0.9")
        assert code == 0
        panel = (marked / "s_timepanel.csv").read_text().splitlines()
        assert all(row.endswith(",0.9") for row in panel[1:])

    def test_inset_line_samples_are_those_of_linspace(self):
        series = report.read_series_csv(TestInProcessReuse.SERIES)
        fit = fit_k_vs_g(series.pairs())
        rows = [row for row in csv.reader(report.inset_csv(series, fit).splitlines()) if row[0] == "line"]
        g = [float(row[1]) for row in rows]
        assert g == np.linspace(0.0, 1.0, report.INSET_LINE_SAMPLES).tolist()
        assert [float(row[2]) for row in rows] == [0.5 + fit.c * x for x in g]

    @pytest.mark.parametrize("mark", ["nan", "inf", "1.5", "-0.25"])
    def test_soc_mark_outside_unit_interval_is_one_line_validation_error(self, tmp_path, capsys, mark):
        series_path = tmp_path / "s.csv"
        series_path.write_text("central_year,g,k,n_pubs,n_cites,skipped\n2000,0.5,0.7,5,50,\n2001,0.6,0.74,5,60,\n")
        code, out, err = run(capsys, "plotdata", series_path, "--out", tmp_path / "out", "--soc-mark", mark)
        assert code == 1
        assert err.startswith("error: ValidationError: --soc-mark must be ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_existing_panel_refused_before_any_write(self, tmp_path, capsys):
        series_path = tmp_path / "s.csv"
        series_path.write_text("central_year,g,k,n_pubs,n_cites,skipped\n2000,0.5,0.7,5,50,\n2001,0.6,0.74,5,60,\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "s_inset.csv").write_text("kept\n")
        code, out, err = run(capsys, "plotdata", series_path, "--out", out_dir)
        assert code == 1
        assert err.startswith("error: ValidationError: output file already exists:") and "s_inset.csv" in err
        assert [p.name for p in out_dir.iterdir()] == ["s_inset.csv"]

    def test_skipped_years_keep_axis(self, tmp_path, capsys):
        text = (
            "central_year,g,k,n_pubs,n_cites,skipped\n"
            "2000,0.5,0.7,5,50,\n"
            "2001,,,1,3,too_few_publications\n"
            "2002,0.6,0.74,5,60,\n"
        )
        series_path = tmp_path / "s.csv"
        series_path.write_text(text)
        code, *_ = run(capsys, "plotdata", series_path, "--out", tmp_path)
        assert code == 0
        panel = (tmp_path / "s_timepanel.csv").read_text().splitlines()
        assert panel[2].startswith("2001,,,")


def build_cohort(tmp_path, n_profiles=3):
    cohort = tmp_path / "cohort"
    cohort.mkdir(exist_ok=True)
    specs = {
        "flat": SynthSpec(model="equal", n_papers=60, value=7, span_years=(2000, 2011), seed=1),
        "mild": SynthSpec(model="powerlaw", n_papers=60, exponent=3.5, span_years=(2000, 2011), seed=2),
        "steep": SynthSpec(model="powerlaw", n_papers=60, exponent=1.6, span_years=(2000, 2011), seed=3),
    }
    entries = []
    for name, spec in list(specs.items())[:n_profiles]:
        path = write_profile(synth_profile(spec, name=name), cohort / f"{name}.json")
        entries.append({"name": name, "path": f"cohort/{path.name}", "tags": ["synthetic"]})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2))
    return manifest


class TestBatch:
    def test_aggregates_with_no_summaries(self):
        failures = [("ghost", ParseError("profile file not found: ghost.csv"))]
        assert report.BatchResult([], failures).aggregates == {"n_profiles": 0, "n_failures": 1}

    def test_three_profile_cohort(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 0 and err == ""
        rows = (out_dir / "cohort.csv").read_text().splitlines()
        assert len(rows) == 4
        flat_row = next(r for r in rows if r.startswith("flat,"))
        assert ",No," in flat_row
        doc = json.loads((out_dir / "cohort.json").read_text())
        assert doc["aggregates"]["n_profiles"] == 3

    def test_batch_rows_equal_single_analyze(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path)
        out_dir = tmp_path / "out"
        assert run(capsys, "batch", manifest, "--out", out_dir)[0] == 0
        for name in ("flat", "mild", "steep"):
            single_dir = tmp_path / f"single-{name}"
            code, *_ = run(capsys, "analyze", tmp_path / "cohort" / f"{name}.json", "--out", single_dir)
            assert code == 0
            batch_summary = (out_dir / "profiles" / f"{name}_summary.json").read_bytes()
            single_summary = (single_dir / f"{name}_summary.json").read_bytes()
            assert batch_summary == single_summary
            batch_series = (out_dir / "profiles" / f"{name}_series.csv").read_bytes()
            single_series = (single_dir / f"{name}_series.csv").read_bytes()
            assert batch_series == single_series

    def test_full_agreement_cohort(self, tmp_path, capsys):
        # every profile crosses and is flagged -> agreement rate 1.0
        cohort = tmp_path / "cohort"
        cohort.mkdir()
        entries = []
        for i in range(3):
            by_year = {2000 + j: CROSSING_WINDOW[10 * j : 10 * (j + 1)] for j in range(5)}
            profile = make_profile(by_year, name=f"heavy{i}")
            write_profile(profile, cohort / f"heavy{i}.json")
            entries.append({"name": f"heavy{i}", "path": f"cohort/heavy{i}.json"})
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, *_ = run(capsys, "batch", manifest, "--out", out_dir, "--end-year", "2004")
        assert code == 0
        agg = json.loads((out_dir / "cohort.json").read_text())["aggregates"]
        assert agg["fraction_crossing_yes"] == 1.0
        assert agg["flag_crossing_agreement"] == 1.0
        assert agg["flagged_success_rate"] == 1.0

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "empty.json"
        manifest.write_text("[]")
        code, out, err = run(capsys, "batch", manifest, "--out", tmp_path)
        assert code == 1
        assert err.startswith("error: ValidationError:")

    def test_partial_failure_continues(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path)
        entries = json.loads(manifest.read_text())
        entries.append({"name": "ghost", "path": "cohort/ghost.csv"})
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 3
        assert "ghost" in err
        assert len((out_dir / "cohort.csv").read_text().splitlines()) == 4

    def test_all_fail(self, tmp_path, capsys):
        # every failure is an input error: exit 1, as `analyze nowhere.csv` gives
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"name": "ghost", "path": "nowhere.csv"}]))
        code, out, err = run(capsys, "batch", manifest, "--out", tmp_path)
        assert code == 1

    def test_all_fail_with_a_computation_error(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path, n_profiles=2)
        entries = json.loads(manifest.read_text())
        entries.append({"name": "ghost", "path": "nowhere.csv"})
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir, "--end-year", "1999")
        assert code == 2
        assert err.count("error: NoWindows:") == 2 and "error: ParseError:" in err
        assert err.splitlines()[-1] == "error: BatchFailed: every profile in the batch failed"
        assert not out_dir.exists()

    def test_existing_profile_output_refused_before_any_write(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path)
        out_dir = tmp_path / "out"
        (out_dir / "profiles").mkdir(parents=True)
        (out_dir / "profiles" / "mild_summary.json").write_text("{}\n")
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 1
        assert err.startswith("error: ValidationError: output file already exists:") and err.count("\n") == 1
        assert [p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")] == [
            "profiles", "profiles/mild_summary.json"
        ]
        assert (out_dir / "profiles" / "mild_summary.json").read_text() == "{}\n"

    def test_directory_entry_is_not_a_regular_file(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path, n_profiles=1)
        manifest.write_text(json.dumps([{"name": "a", "path": "cohort"}]))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 1
        assert "error: ParseError: profile 'a': profile path is not a regular file:" in err
        assert not out_dir.exists()

    def test_colliding_file_stems_refused(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path, n_profiles=2)
        entries = json.loads(manifest.read_text())
        entries[0]["name"], entries[1]["name"] = "J Doe", "j-doe"
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 1
        assert err.startswith("error: ValidationError:") and err.count("\n") == 1
        assert "'J Doe'" in err and "'j-doe'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("path", 5), ("path", None), ("name", 5), ("name", ""), ("path", "cohort/\0.json")],
        ids=["path-int", "path-null", "name-int", "name-empty", "path-nul"],
    )
    def test_manifest_name_and_path_must_be_strings(self, tmp_path, capsys, key, value):
        manifest = build_cohort(tmp_path, n_profiles=1)
        entries = json.loads(manifest.read_text())
        entries[0][key] = value
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 1
        assert err.startswith(f"error: ValidationError: manifest[0]: {key} ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_unpaired_surrogate_in_manifest_name_refused(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path, n_profiles=1)
        entries = json.loads(manifest.read_text())
        entries[0]["name"] = "\ud800"
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 1
        assert err.startswith("error: ParseError: invalid JSON:") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_deep_manifest_is_one_line_parse_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("[" * 100_000)
        code, out, err = run(capsys, "batch", manifest, "--out", tmp_path / "out")
        assert code == 1
        assert err.startswith("error: ParseError:") and err.count("\n") == 1

    def test_failed_profile_write_ends_the_run(self, tmp_path, capsys, monkeypatch):
        # an OSError from a write is the run's error, not a failure of the profile; the
        # failure line of a profile before it was printed when that profile failed
        replace = os.replace

        def fail_mild_summary(src, dst):
            if Path(dst).name == "mild_summary.json":
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_mild_summary)
        manifest = build_cohort(tmp_path)
        entries = json.loads(manifest.read_text())
        manifest.write_text(json.dumps([{"name": "ghost", "path": "cohort/ghost.csv"}, *entries]))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 1
        first, second = err.splitlines()
        assert first.startswith("error: ParseError: profile 'ghost': profile file not found: ")
        assert second == "error: OSError: disk full"
        assert sorted(p.name for p in out_dir.rglob("*")) == [
            "flat_series.csv", "flat_summary.json", "mild_series.csv", "profiles"
        ]

    def test_programming_error_is_not_a_profile_failure(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        # the batch loop reaches window_series through report.analyze_profile
        monkeypatch.setattr(report, "window_series", broken)
        out_dir = tmp_path / "out"
        with pytest.raises(RuntimeError, match="bug"):
            main(["batch", str(build_cohort(tmp_path, n_profiles=1)), "--out", str(out_dir)])
        assert capsys.readouterr().err == ""
        assert not out_dir.exists()

    def test_no_series_outlives_its_profile(self, tmp_path, capsys, monkeypatch):
        # each profile's files are written while its series is the only one alive
        built, live_at_write = [], []
        window_series, write_profile_files = report.window_series, report.write_profile_files

        def tracked_series(*args):
            series = window_series(*args)
            built.append(weakref.ref(series))
            return series

        def counted_write(*args):
            live_at_write.append(sum(ref() is not None for ref in built))
            write_profile_files(*args)

        monkeypatch.setattr(report, "window_series", tracked_series)
        monkeypatch.setattr(cli, "write_profile_files", counted_write)
        code, out, err = run(capsys, "batch", build_cohort(tmp_path), "--out", tmp_path / "out")
        assert code == 0 and err == ""
        assert len(built) == 3 and live_at_write == [1, 1, 1]

    def test_cohort_csv_quotes_cells(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path, n_profiles=2)
        entries = json.loads(manifest.read_text())
        entries[0]["name"], entries[0]["tags"] = "Doe, J", ["x,y"]
        entries[1]["name"] = "Roe\rK"
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir)
        assert code == 0 and err == ""
        with open(out_dir / "cohort.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert all(len(row) == len(report.COHORT_COLUMNS) == 17 for row in rows)
        assert rows[1][:2] == ["Doe, J", "x,y"]
        assert rows[2][0] == "Roe\rK"

    def test_markdown_cells_escaped(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path)
        entries = json.loads(manifest.read_text())
        entries[0]["name"], entries[0]["tags"] = "A|B", ["x|y", "z\\"]
        entries[1]["name"] = "C\\|D"
        entries[2]["name"] = "E\nF\r\nG"
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "batch", manifest, "--out", out_dir, "--markdown")
        assert code == 0 and err == ""
        lines = (out_dir / "cohort.md").read_text().splitlines()
        tables = [[]]
        for line in lines:
            if line.startswith("|"):
                tables[-1].append(line)
            elif tables[-1]:
                tables.append([])
        tables = [t for t in tables if t]
        assert [len(t) for t in tables] == [5, 5]
        for header, *rows in tables:
            for row in rows:
                # a backslash escapes the character after it, a pipe included
                assert re.sub(r"\\.", "", row).count("|") == header.count("|"), row
        assert "| A\\|B | x\\|y;z\\\\ |" in lines[4]
        assert "| E F G |" in lines[6]

    def test_markdown_cohort(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path)
        out_dir = tmp_path / "out"
        code, *_ = run(capsys, "batch", manifest, "--out", out_dir, "--markdown")
        assert code == 0
        text = (out_dir / "cohort.md").read_text()
        assert "| Researcher |" in text
        assert "| flat |" in text


class TestLineBreakInMessage:
    """A path holding a line break still gives a one-line error: each
    ``str.splitlines`` break is written as ``repr`` writes it."""

    BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("brk", BREAKS, ids=[repr(b) for b in BREAKS])
    def test_analyze(self, tmp_path, capsys, brk):
        code, out, err = run(capsys, "analyze", tmp_path / f"a{brk}b.csv", "--out", tmp_path / "out")
        assert code == 1
        assert err.count("\n") == 1 and len(err.splitlines()) == 1
        expected = "a" + repr(brk)[1:-1] + "b.csv"
        assert err == f"error: ParseError: profile file not found: {tmp_path}/{expected}\n"

    def test_batch(self, tmp_path, capsys):
        manifest = build_cohort(tmp_path, n_profiles=2)
        entries = json.loads(manifest.read_text())
        entries.append({"name": "gh\nost", "path": "cohort/gh\nost.csv"})
        manifest.write_text(json.dumps(entries))
        code, out, err = run(capsys, "batch", manifest, "--out", tmp_path / "out")
        assert code == 3
        assert err.count("\n") == 1
        assert err == (
            f"error: ParseError: profile 'gh\\nost': profile file not found: {tmp_path}/cohort/gh\\nost.csv\n"
        )

    def test_batch_all_failed(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"name": "a", "path": "a\u2028b.csv"}, {"name": "b", "path": "b\rc.csv"}]))
        code, out, err = run(capsys, "batch", manifest, "--out", tmp_path / "out")
        assert code == 1
        assert err.count("\n") == 3
        assert err.splitlines()[:2] == [
            f"error: ParseError: profile 'a': profile file not found: {tmp_path}/a\\u2028b.csv",
            f"error: ParseError: profile 'b': profile file not found: {tmp_path}/b\\rc.csv",
        ]

    def test_fit(self, tmp_path, capsys):
        series_path = tmp_path / "s\nt.csv"
        series_path.write_text("central_year,g,k,n_pubs,n_cites,skipped\n2000,1.5,0.7,5,50,\n")
        code, out, err = run(capsys, "fit", series_path, "--out", tmp_path / "out")
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith(f"error: ParseError: line 2: {tmp_path}/s\\nt.csv: ")

    def test_message_without_a_break_is_unchanged(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", tmp_path / "a\\nb.csv", "--out", tmp_path / "out")
        assert code == 1
        assert err == f"error: ParseError: profile file not found: {tmp_path}/a\\nb.csv\n"


class TestOneLineErrorInAFreshProcess:
    """``python -m citeineq.cli`` exits with the code ``main`` returns, prints
    one ``error:`` line, and writes nothing but the profiles of a batch that load."""

    SERIES = "central_year,g,k,n_pubs,n_cites,skipped\n2000,1.5,0.7,5,50,\n"
    MANIFEST = json.dumps([{"name": "ghost", "path": "ghost.csv"}, {"name": "ok", "path": "ok.csv"}])
    OK = "pub_id,year,citations\n" + "".join(f"p{i},{2000 + i // 5},{1 + i % 7}\n" for i in range(60))
    # id: (argv, with {d} for the directory; input files; exit code; start of the one stderr line)
    CASES = {
        "csv-row": (["analyze", "{d}/rows.csv"], {"rows.csv": "pub_id,year,citations\np1,2001,1\np2,1500,1\np3,x,1\n"},
                    1, "error: ValidationError: line 3: "),
        # a blank line, then a quoted id holding a line break, then the bad row on line 5
        "csv-row-after-breaks": (["analyze", "{d}/breaks.csv"],
                                 {"breaks.csv": 'pub_id,year,citations\n\n"a\nb",2001,1\np2,1500,1\n'},
                                 1, "error: ValidationError: line 5: "),
        "json-row": (["analyze", "{d}/rows.json"],
                     {"rows.json": '{"schema_version": 1, "name": "J", "tags": [], "publications": '
                                   '[{"id": "a", "year": 2001, "citations": 1}, 5]}\n'},
                     1, "error: ParseError: publications[1] "),
        # a line break in a path is escaped, so the error stays one line
        "missing-profile": (["analyze", "{d}/line\nbreak.csv"], {},
                            1, "error: ParseError: profile file not found: {d}/line\\nbreak.csv"),
        "series-row": (["fit", "{d}/line\nbreak.csv"], {"line\nbreak.csv": SERIES},
                       1, "error: ParseError: line 2: {d}/line\\nbreak.csv: "),
        "missing-series": (["fit", "{d}/missing.csv"], {}, 1, "error: ParseError: series file not found: {d}/missing.csv"),
        # a name load_profile would refuse
        "synth-name": (["synth", "--name", ""], {}, 1, "error: BadSpec: "),
        # a failing profile is one line, and the other profiles still make the tables
        "batch-profile": (["batch", "{d}/manifest.json"], {"manifest.json": MANIFEST, "ok.csv": OK},
                          3, "error: ParseError: profile 'ghost': "),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_and_one_stderr_line(self, tmp_path, case):
        argv, files, code, start = self.CASES[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "out"
        proc = run_python("-m", "citeineq.cli", *(arg.format(d=tmp_path) for arg in argv), "--out", out)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.endswith("\n")
        assert proc.stderr.startswith(start.format(d=tmp_path)), proc.stderr
        assert (out / "cohort.csv").is_file() if argv[0] == "batch" else not out.exists()


class TestSynthCommand:
    def test_writes_loadable_profile(self, tmp_path, capsys):
        out_file = tmp_path / "p.json"
        code, out, err = run(
            capsys,
            "synth", "--model", "equal", "--n-papers", "5", "--value", "7",
            "--name", "fiver", "--seed", "4", "--out", out_file,
        )
        assert code == 0
        profile = load_profile(out_file)
        assert profile.name == "fiver"
        assert profile.citations.tolist() == [7] * 5

    def test_csv_output(self, tmp_path, capsys):
        out_file = tmp_path / "p.csv"
        code, *_ = run(
            capsys, "synth", "--model", "uniform", "--n-papers", "20",
            "--seed", "4", "--out", out_file, "--format", "csv",
        )
        assert code == 0
        assert out_file.read_text().splitlines()[0] == "pub_id,year,citations"

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--model", "equal", "--value", "2000000000"], "value"),
            *(
                (["--model", "uniform", "--value", "2000000000", "--seed", str(seed)], "value")
                for seed in range(1, 5)
            ),
            (["--first-year", str(MAX_YEAR + 1), "--last-year", str(MAX_YEAR + 5)], "span_years"),
            (["--first-year", "1500", "--last-year", "1600"], "span_years"),
            (["--seed", "-1"], "seed"),
            (["--exponent", "nan"], "exponent"),
            (["--n-papers", "99999999999999999999"], "n_papers"),
            (["--n-papers", str(10**6 + 1)], "n_papers"),
        ],
        ids=[
            "equal-value", *(f"uniform-value-seed{s}" for s in range(1, 5)), "future-span", "early-span",
            "negative-seed", "nan-exponent", "huge-n-papers", "n-papers-over-cap",
        ],
    )
    def test_out_of_range_spec_is_bad_spec(self, tmp_path, capsys, argv, field):
        out_file = tmp_path / "p.json"
        code, out, err = run(capsys, "synth", *argv, "--out", out_file)
        assert code == 1
        assert err.startswith(f"error: BadSpec: {field} ") and err.count("\n") == 1
        assert not out_file.exists()

    def test_exponent_near_one_prints_only_capped_counts(self, tmp_path):
        # draws past the cap overflow to inf before the cap clips them; a fresh
        # interpreter's stderr holds any warning or message a user would see
        out_file = tmp_path / "p.csv"
        synth = run_python("-m", "citeineq.cli", "synth", "--model", "powerlaw",
                           "--exponent", "1.01", "--n-papers", "5000", "--out", out_file)
        assert (synth.returncode, synth.stderr) == (0, "")
        counts = load_profile(out_file).citations
        assert counts.max() == MAX_CITATIONS and counts.min() >= 1

    def test_csv_and_json_profiles_of_1e5_papers_give_one_series(self, tmp_path, capsys):
        for fmt in ("csv", "json"):
            assert run(capsys, "synth", "--n-papers", 100000, "--out", tmp_path / f"profile.{fmt}")[::2] == (0, "")
            assert run(capsys, "analyze", tmp_path / f"profile.{fmt}", "--out", tmp_path / fmt)[::2] == (0, "")
        series = (tmp_path / "json" / "powerlaw-n100000-seed0_series.csv").read_bytes()
        assert (tmp_path / "csv" / "profile_series.csv").read_bytes() == series

    @pytest.mark.parametrize("name", ["", "J\udcff"], ids=["empty", "undecodable-argv-byte"])
    def test_name_load_profile_would_refuse_is_bad_spec(self, tmp_path, capsys, name):
        out_file = tmp_path / "p.json"
        code, out, err = run(capsys, "synth", "--name", name, "--out", out_file)
        assert code == 1
        assert err.startswith("error: BadSpec: name ") and err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("fmt, out_name", [("json", "p.csv"), ("csv", "p.JSON")])
    def test_format_disagreeing_with_out_suffix_is_refused(self, tmp_path, capsys, fmt, out_name):
        code, out, err = run(capsys, "synth", "--format", fmt, "--out", tmp_path / out_name)
        assert code == 1
        assert err.startswith("error: ValidationError: --format ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_name", ["p.csv", "p.CSV"])
    def test_name_with_csv_file_out_is_refused(self, tmp_path, capsys, out_name):
        code, out, err = run(capsys, "synth", "--name", "Jane Doe", "--out", tmp_path / out_name)
        assert code == 1
        assert err == (
            f"error: ValidationError: --name cannot be kept in the CSV file --out {tmp_path / out_name}; "
            "use a .json or directory --out\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", [None, "csv", "json"])
    def test_directory_out_takes_format(self, tmp_path, capsys, fmt):
        argv = ["synth", "--name", "J", "--out", tmp_path] + (["--format", fmt] if fmt else [])
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"j.{fmt or 'csv'}"]

    def test_bad_spec_is_input_error(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "synth", "--model", "powerlaw", "--exponent", "0.5",
            "--out", tmp_path / "p.json",
        )
        assert code == 1
        assert err.startswith("error: BadSpec:")
