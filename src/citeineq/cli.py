"""Command-line surface: analyze, fit, batch, plotdata, synth.

Every failure path exits nonzero after printing one stderr line, ``error:
<ErrorType>: <message>``, its line breaks escaped as ``repr`` does.  Exit codes:
0 success, 1 input error, 2 computation error, 3 partial batch failure.
``batch`` prints a profile's failure line when it fails, before the next
loads.  No command replaces an existing file: each checks every path it will
write before writing the first.  ``main`` may be called any number of times in
one process: the parser is built on the first call and reused, and no call
leaves state behind for the next.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import INPUT_ERRORS, CiteIneqError, ValidationError, echo
from .ingest import (
    PROFILE_SUFFIXES,
    ManifestEntry,
    SynthSpec,
    check_outputs,
    file_stem,
    load_manifest,
    load_profile,
    new_file,
    synth_profile,
    write_profile,
)
from .landau import fit_k_vs_g
from .report import (
    BatchResult,
    analyze_profile,
    cohort_to_csv,
    cohort_to_json,
    cohort_to_markdown,
    inset_csv,
    read_series_csv,
    timepanel_csv,
    write_json,
    write_profile_files,
)
from .soc import SOC_MARK, CareerSummary, SocConfig
from .windows import IndexSeries, WindowConfig

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_PARTIAL = 3


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``_run_config`` reads; defaults come from the config classes."""
    window, soc = WindowConfig(), SocConfig()
    parser.add_argument("--window-width", type=int, default=window.width_years, help="window width in years")
    parser.add_argument("--stride", type=int, default=window.stride_years, help="window stride in years")
    parser.add_argument("--end-year", type=int, default=window.end_year, help="last data year (inclusive)")
    parser.add_argument("--min-pubs", type=int, default=window.min_pubs, help="minimum publications per window")
    parser.add_argument(
        "--marginal-tol", type=float, default=soc.marginal_tolerance, help="max k - g gap still called marginal"
    )
    parser.add_argument("--r-threshold", type=float, default=soc.r_threshold, help="peak-ratio flag threshold")
    parser.add_argument("--markdown", action="store_true", help="also write a Markdown table")
    _add_out_flag(parser)


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _run_config(args: argparse.Namespace) -> tuple[WindowConfig, SocConfig]:
    window = WindowConfig(
        width_years=args.window_width,
        stride_years=args.stride,
        end_year=args.end_year,
        min_pubs=args.min_pubs,
    )
    return window, SocConfig(marginal_tolerance=args.marginal_tol, r_threshold=args.r_threshold)


def _profile_paths(name: str, directory: Path) -> list[Path]:
    """``{stem}_series.csv`` and ``{stem}_summary.json`` of the profile ``name``."""
    stem = file_stem(name)
    return [directory / f"{stem}_series.csv", directory / f"{stem}_summary.json"]


def _cmd_analyze(args: argparse.Namespace) -> int:
    window, soc = _run_config(args)
    profile = load_profile(args.profile)
    paths = _profile_paths(profile.name, args.out)
    if args.markdown:
        paths.append(args.out / f"{file_stem(profile.name)}_summary.md")
    check_outputs(paths)
    series, summary = analyze_profile(profile, window, soc)
    write_profile_files(series, summary, paths)
    if args.markdown:
        with new_file(paths[2]) as fh:
            cohort_to_markdown(BatchResult([summary], []), fh)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    path = args.out / f"{args.series.stem}_fit.json"
    check_outputs([path])
    fit = fit_k_vs_g(read_series_csv(args.series).pairs())
    print(write_json(asdict(fit), path))
    return EXIT_OK


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if not 0.0 <= args.soc_mark <= 1.0:  # also false for nan
        raise ValidationError(f"--soc-mark must be a finite value in [0, 1], got {args.soc_mark}")
    stem = args.series.stem
    timepanel, inset = args.out / f"{stem}_timepanel.csv", args.out / f"{stem}_inset.csv"
    check_outputs([timepanel, inset])
    series = read_series_csv(args.series)
    fit = fit_k_vs_g(series.pairs())
    with new_file(timepanel) as fh:
        timepanel_csv(series, args.soc_mark, fh)
    print(timepanel)
    with new_file(inset) as fh:
        inset_csv(series, fit, fh)
    print(inset)
    return EXIT_OK


def _analyze_entry(entry: ManifestEntry, window: WindowConfig,
                   soc: SocConfig) -> tuple[IndexSeries, CareerSummary]:
    """Load and analyze one entry; its profile is freed on return, before ``_cmd_batch`` loads the next."""
    profile = load_profile(entry.path)
    profile.name = entry.name
    profile.tags = list(entry.tags)
    return analyze_profile(profile, window, soc)


def _cmd_batch(args: argparse.Namespace) -> int:
    window, soc = _run_config(args)
    entries = load_manifest(args.manifest)
    if not entries:
        raise ValidationError("manifest lists no profiles")
    profile_paths = {e.name: _profile_paths(e.name, args.out / "profiles") for e in entries}
    cohort_paths = [args.out / "cohort.csv", args.out / "cohort.json"]
    if args.markdown:
        cohort_paths.append(args.out / "cohort.md")
    check_outputs(cohort_paths + [path for paths in profile_paths.values() for path in paths])
    batch = BatchResult(summaries=[], failures=[])
    for entry in entries:
        try:
            series, summary = _analyze_entry(entry, window, soc)
        except (CiteIneqError, OSError) as exc:  # an input or computation fault of this profile
            _print_error(f"{type(exc).__name__}: profile {echo(entry.name)}: {exc}")
            batch.failures.append((entry.name, exc))
        else:  # a write's OSError is the run's error, not this profile's
            write_profile_files(series, summary, profile_paths[entry.name])
            batch.summaries.append(summary)
    if not batch.summaries:
        _print_error("BatchFailed: every profile in the batch failed")
        # EXIT_COMPUTE if any failure is a computation error, else EXIT_INPUT
        return max(_exit_code(exc) for _, exc in batch.failures)
    with new_file(cohort_paths[0]) as fh:
        cohort_to_csv(batch, fh)
    print(cohort_paths[0])
    print(write_json(cohort_to_json(batch), cohort_paths[1]))
    if args.markdown:
        with new_file(cohort_paths[2]) as fh:
            cohort_to_markdown(batch, fh)
        print(cohort_paths[2])
    return EXIT_PARTIAL if batch.failures else EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    suffix = args.out.suffix.lower()
    if args.fmt and suffix in PROFILE_SUFFIXES and suffix != f".{args.fmt}":
        raise ValidationError(f"--format {args.fmt} disagrees with the suffix of --out {args.out}")
    if args.name is not None and suffix == ".csv":  # a CSV profile is named by its file stem
        raise ValidationError(f"--name cannot be kept in the CSV file --out {args.out}; use a .json or directory --out")
    spec = SynthSpec(
        model=args.model,
        n_papers=args.n_papers,
        exponent=args.exponent,
        span_years=(args.first_year, args.last_year),
        seed=args.seed,
        value=args.value,
    )
    profile = synth_profile(spec, name=args.name)
    out = args.out
    if suffix not in PROFILE_SUFFIXES:
        out = out / f"{file_stem(profile.name)}.{args.fmt or 'csv'}"
    check_outputs([out])
    print(write_profile(profile, out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every call.

    ``main`` parses each argv with this one parser, so callers must not
    change it.
    """
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citeineq",
        description="Citation inequality indices over sliding career windows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="window series + career summary for one profile")
    p.add_argument("profile", type=Path, help="profile file (.csv or .json)")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="fit k = 1/2 + c*g over a series file")
    p.add_argument("series", type=Path, help="series CSV written by analyze")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("plotdata", help="plot-ready panels for a series file")
    p.add_argument("series", type=Path, help="series CSV written by analyze")
    p.add_argument("--soc-mark", type=float, default=SOC_MARK, help="g = k precursor level")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_plotdata)

    p = sub.add_parser("batch", help="cohort tables for a manifest of profiles")
    p.add_argument("manifest", type=Path, help="JSON array of {name, path, tags}")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_batch)

    spec = SynthSpec(model="powerlaw", n_papers=200)
    p = sub.add_parser("synth", help="generate a deterministic synthetic profile")
    p.add_argument("--model", choices=["powerlaw", "uniform", "equal"], default=spec.model)
    p.add_argument("--n-papers", type=int, default=spec.n_papers)
    p.add_argument("--exponent", type=float, default=spec.exponent)
    p.add_argument("--first-year", type=int, default=spec.span_years[0])
    p.add_argument("--last-year", type=int, default=spec.span_years[1])
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--value", type=int, default=spec.value, help="equal/uniform citation level")
    p.add_argument("--name", default=None)
    p.add_argument("--format", choices=["csv", "json"], dest="fmt",
                   help="csv by default when --out is a directory; a file --out's suffix must agree")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def _exit_code(exc: Exception) -> int:
    """``EXIT_COMPUTE`` for a computation error, ``EXIT_INPUT`` for an input or OS error."""
    computed = isinstance(exc, CiteIneqError) and not isinstance(exc, INPUT_ERRORS)
    return EXIT_COMPUTE if computed else EXIT_INPUT


_SPLITLINES_ESCAPES = str.maketrans({ch: repr(ch)[1:-1] for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _print_error(message: str) -> None:
    print(f"error: {message}".translate(_SPLITLINES_ESCAPES), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CiteIneqError, OSError) as exc:
        _print_error(f"{type(exc).__name__}: {exc}")
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
