"""Reproducible report artifacts: series/summary/fit files, and the cohort
tables of the ``BatchResult`` that ``cli._cmd_batch`` gathers.

All machine-readable outputs (CSV, JSON) carry full float precision via the
shortest round-trip representation and are byte-deterministic for identical
inputs; rounding to 2 decimals happens only in the Markdown rendering.

A series CSV is read by ``ingest.read_csv``.  Every file is written through
``ingest.new_file``, and every output is encoded straight into its handle:
the CSVs by ``ingest.write_csv``, the JSON by ``write_json`` and the
Markdown a line at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .ingest import new_file, parse_cells, read_csv, write_csv
from .landau import FitResult
from .soc import CROSS_YES, CareerSummary, SocConfig, career_summary
from .windows import IndexSeries, WindowConfig, WindowEntry, window_series

SERIES_COLUMNS = ["central_year", "g", "k", "n_pubs", "n_cites", "skipped"]
SERIES_HEADER = ",".join(SERIES_COLUMNS)

#: Number of samples of the fitted line in the inset panel, endpoints included.
INSET_LINE_SAMPLES = 50


# --- index series ----------------------------------------------------------

def series_to_csv(series: IndexSeries, fh) -> None:
    """Write the series as CSV to the text handle ``fh``, one row per entry."""
    rows = [SERIES_COLUMNS]
    rows += [[e.central_year, e.g, e.k, e.n_pubs, e.n_cites, e.reason] for e in series.entries]
    write_csv(fh, rows)


def read_series_csv(path) -> IndexSeries:
    """Read a series CSV file, streamed by ``ingest.read_csv``, its cells by
    ``ingest.parse_cells``' grammar; ``WindowEntry`` checks each row's values,
    and ``IndexSeries`` then that the central years ascend.  The line named
    in an error is found by reading the file again."""
    columns, line, error = read_csv(path, "series", SERIES_COLUMNS)
    columns, fault = parse_cells(columns, SERIES_COLUMNS, (int, float, float, int, int, str))
    entries = []
    for row, cells in enumerate(zip(*columns)):
        try:
            entries.append(WindowEntry(*cells))
        except ValidationError as exc:
            fault = row, str(exc)
            break
    if fault is not None:  # a row that WindowEntry refuses, or else the first cell the grammar refuses
        raise ParseError(f"{path}: {fault[1]}", line=line(fault[0]))
    if error is not None:  # a malformed row below the rows read
        raise error
    try:
        return IndexSeries(entries=entries)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}", line=line(exc.row)) from None


# --- career summary --------------------------------------------------------

def summary_to_dict(summary: CareerSummary) -> dict:
    return {
        "name": summary.name,
        "n_pubs": summary.n_pubs,
        "n_cites": summary.n_cites,
        "h_index": summary.h_index,
        "g_overall": summary.g_overall,
        "k_overall": summary.k_overall,
        "g_yearly_mean": summary.yearly.mean_g,
        "g_yearly_sd": summary.yearly.sd_g,
        "k_yearly_mean": summary.yearly.mean_k,
        "k_yearly_sd": summary.yearly.sd_k,
        "n_windows": summary.yearly.n_windows,
        "max_citations": summary.max_citations,
        "cites_per_paper": summary.cites_per_paper,
        "peak_ratio": summary.peak_ratio,
        "crossing": summary.crossing.classification,
        "crossing_years": list(summary.crossing.crossing_years),
        "crossing_levels": list(summary.crossing.crossing_levels),
        "min_gap": summary.crossing.min_gap,
        "soc_flagged": summary.soc_flagged,
    }


def write_json(payload: dict, path) -> Path:
    """Encode ``payload`` as indented JSON straight into the new file ``path``;
    a NaN or infinity raises ``ValueError``, and no file is left."""
    with new_file(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return Path(path)


def write_profile_files(series: IndexSeries, summary: CareerSummary, paths: list[Path]) -> None:
    with new_file(paths[0]) as fh:
        series_to_csv(series, fh)
    write_json(summary_to_dict(summary), paths[1])


# --- analyze / fit / plotdata ---------------------------------------------

def analyze_profile(
    profile, window: WindowConfig, soc: SocConfig
) -> tuple[IndexSeries, CareerSummary]:
    """Window series plus career summary; batch rows go through this too."""
    series = window_series(profile, window)
    return series, career_summary(profile, series, soc)


def timepanel_csv(series: IndexSeries, soc_mark: float, fh) -> None:
    """Write the plot-ready year panel to the text handle ``fh``; skipped rows
    keep the year axis contiguous."""
    rows = [["year", "g", "k", "soc_mark"]]
    rows += [[e.central_year, e.g, e.k, float(soc_mark)] for e in series.entries]
    write_csv(fh, rows)


def inset_csv(series: IndexSeries, fit: FitResult, fh) -> None:
    """Write the plot-ready k-vs-g panel to the text handle ``fh``: observed
    points plus sampled fitted line."""
    rows = [["kind", "g", "k"]]
    rows += [["point", pair.g, pair.k] for pair in series.pairs()]
    step = 1.0 / (INSET_LINE_SAMPLES - 1)  # the samples of np.linspace(0.0, 1.0, INSET_LINE_SAMPLES)
    line = [i * step for i in range(INSET_LINE_SAMPLES - 1)] + [1.0]
    rows += [["line", g, 0.5 + fit.c * g] for g in line]
    write_csv(fh, rows)


# --- cohort tables ---------------------------------------------------------

COHORT_COLUMNS = [
    "name",
    "tags",
    "n_pubs",
    "n_cites",
    "h_index",
    "g_overall",
    "k_overall",
    "g_yearly_mean",
    "g_yearly_sd",
    "k_yearly_mean",
    "k_yearly_sd",
    "crossing",
    "crossing_years",
    "max_citations",
    "cites_per_paper",
    "peak_ratio",
    "soc_flagged",
]


@dataclass
class BatchResult:
    summaries: list[CareerSummary]
    failures: list[tuple[str, Exception]]

    @property
    def aggregates(self) -> dict:
        n = len(self.summaries)
        agg: dict = {"n_profiles": n, "n_failures": len(self.failures)}
        if n == 0:
            return agg
        yes = [s.crossing.classification == CROSS_YES for s in self.summaries]
        flagged = [s.soc_flagged for s in self.summaries]
        agg["fraction_crossing_yes"] = sum(yes) / n
        agg["flag_crossing_agreement"] = sum(y == f for y, f in zip(yes, flagged)) / n
        n_flagged = sum(flagged)
        agg["flagged_success_rate"] = (
            sum(y for y, f in zip(yes, flagged) if f) / n_flagged if n_flagged else None
        )
        return agg


def _cohort_row(summary: CareerSummary) -> dict:
    row = summary_to_dict(summary)
    row["tags"] = ";".join(summary.tags)
    row["crossing_years"] = ";".join(str(y) for y in summary.crossing.crossing_years)
    return row


def _csv_cell(value):
    """``true``/``false`` for a bool; ``csv`` writes a float as its ``repr``."""
    return ("true" if value else "false") if isinstance(value, bool) else value


def cohort_to_csv(batch: BatchResult, fh) -> None:
    """Write one row per summary to the text handle ``fh``; a cell holding a
    comma, quote or line break is quoted."""
    rows = [COHORT_COLUMNS]
    for s in batch.summaries:
        row = _cohort_row(s)
        rows.append([_csv_cell(row[col]) for col in COHORT_COLUMNS])
    write_csv(fh, rows)


def cohort_to_json(batch: BatchResult) -> dict:
    return {
        "rows": [_cohort_row(s) for s in batch.summaries],
        "failures": [{"name": n, "error": f"{type(e).__name__}: {e}"} for n, e in batch.failures],
        "aggregates": batch.aggregates,
    }


def _md_cell(text: str) -> str:
    """Text as one Markdown table cell: backslashes and pipes escaped, line
    breaks turned into spaces."""
    return " ".join(text.replace("\\", "\\\\").replace("|", "\\|").splitlines())


def cohort_to_markdown(batch: BatchResult, fh) -> None:
    """Write two display tables (career indices, crossing proxy), with 2-decimal
    floats, to the text handle ``fh``, a line at a time."""

    def f2(x: float) -> str:
        return f"{x:.2f}"

    def put(*lines: str) -> None:
        print(*lines, sep="\n", file=fh)

    put("# Cohort inequality indices", "")
    put(
        "| Researcher | Tags | N_pubs | N_cites | h | g (overall) | k (overall) "
        "| g (yearly av.) | k (yearly av.) | Crossed |"
    )
    put("|---|---|---|---|---|---|---|---|---|---|")
    for s in batch.summaries:
        put(
            f"| {_md_cell(s.name)} | {_md_cell(';'.join(s.tags))} "
            f"| {s.n_pubs} | {s.n_cites} | {s.h_index} "
            f"| {f2(s.g_overall)} | {f2(s.k_overall)} "
            f"| {f2(s.yearly.mean_g)} ± {f2(s.yearly.sd_g)} "
            f"| {f2(s.yearly.mean_k)} ± {f2(s.yearly.sd_k)} "
            f"| {s.crossing.classification} |"
        )
    put("", "# Peak-citation ratio indicator", "")
    put("| Researcher | max citations | cites/paper | peak ratio | flagged | Crossed |")
    put("|---|---|---|---|---|---|")
    for s in batch.summaries:
        put(
            f"| {_md_cell(s.name)} | {s.max_citations} | {f2(s.cites_per_paper)} "
            f"| {f2(s.peak_ratio)} | {'yes' if s.soc_flagged else 'no'} "
            f"| {s.crossing.classification} |"
        )
    agg = batch.aggregates
    put("", "## Aggregates", "")
    n_flagged_rate = agg.get("flagged_success_rate")
    put(f"- profiles analyzed: {agg.get('n_profiles', 0)} (failures: {agg.get('n_failures', 0)})")
    if "fraction_crossing_yes" in agg:
        put(f"- fraction with crossing = Yes: {f2(agg['fraction_crossing_yes'])}")
        put(f"- flag/crossing agreement: {f2(agg['flag_crossing_agreement'])}")
        put(
            "- crossing rate among flagged: "
            + (f2(n_flagged_rate) if n_flagged_rate is not None else "n/a")
        )
