"""Command-line surface: analyze, fit, batch, plotdata, synth.

Every failure path exits nonzero after printing a single diagnostic line
of the form ``error: <ErrorType>: <message>`` to stderr.  Exit codes:
0 success, 1 input error, 2 computation error, 3 partial batch failure.
No command replaces an existing file: each checks every path it will write
before writing the first.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import INPUT_ERRORS, CiteIneqError, ValidationError
from .ingest import (
    PROFILE_SUFFIXES,
    SynthSpec,
    file_stem,
    load_manifest,
    load_profile,
    refuse_existing,
    synth_profile,
    write_profile,
    write_text,
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
    run_batch,
    series_to_csv,
    summary_to_dict,
    timepanel_csv,
    write_json,
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


def _check_out_dir(directory: Path) -> None:
    """``ValidationError`` unless ``directory`` is, or can be made, a directory:
    it and its nearest existing ancestor must not be anything else."""
    for part in (directory, *directory.parents):
        if part.exists():
            if not part.is_dir():
                raise ValidationError(f"--out must be a directory, and {part} is not one")
            return


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


def _write_profile_files(series: IndexSeries, summary: CareerSummary, paths: list[Path]) -> None:
    write_text(series_to_csv(series), paths[0])
    write_json(summary_to_dict(summary), paths[1])


def _cmd_analyze(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    profile = load_profile(args.profile)
    paths = _profile_paths(profile.name, args.out)
    if args.markdown:
        paths.append(args.out / f"{file_stem(profile.name)}_summary.md")
    refuse_existing(paths)
    series, summary = analyze_profile(profile, *_run_config(args))
    _write_profile_files(series, summary, paths)
    if args.markdown:
        write_text(cohort_to_markdown(BatchResult([summary], [])), paths[2])
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    fit = fit_k_vs_g(read_series_csv(args.series).pairs())
    stem = Path(args.series).stem
    print(write_json(asdict(fit), args.out / f"{stem}_fit.json"))
    return EXIT_OK


def _cmd_plotdata(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    series = read_series_csv(args.series)
    fit = fit_k_vs_g(series.pairs())
    stem = Path(args.series).stem
    timepanel, inset = args.out / f"{stem}_timepanel.csv", args.out / f"{stem}_inset.csv"
    refuse_existing([timepanel, inset])
    print(write_text(timepanel_csv(series, args.soc_mark), timepanel))
    print(write_text(inset_csv(series, fit), inset))
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    window, soc = _run_config(args)
    _check_out_dir(args.out / "profiles")
    entries = load_manifest(args.manifest)
    if not entries:
        raise ValidationError("manifest lists no profiles")
    profile_paths = {e.name: _profile_paths(e.name, args.out / "profiles") for e in entries}
    cohort_paths = [args.out / "cohort.csv", args.out / "cohort.json"]
    if args.markdown:
        cohort_paths.append(args.out / "cohort.md")
    refuse_existing(cohort_paths + [path for paths in profile_paths.values() for path in paths])
    batch = run_batch(entries, window, soc)
    for name, exc in batch.failures:
        print(f"error: {type(exc).__name__}: profile {name!r}: {exc}", file=sys.stderr)
    if not batch.summaries:
        print("error: BatchFailed: every profile in the batch failed", file=sys.stderr)
        # EXIT_COMPUTE if any failure is a computation error, else EXIT_INPUT
        return max(_exit_code(exc) for _, exc in batch.failures)

    for series, summary in zip(batch.series, batch.summaries):
        _write_profile_files(series, summary, profile_paths[summary.name])

    print(write_text(cohort_to_csv(batch), cohort_paths[0]))
    print(write_json(cohort_to_json(batch), cohort_paths[1]))
    if args.markdown:
        print(write_text(cohort_to_markdown(batch), cohort_paths[2]))
    return EXIT_PARTIAL if batch.failures else EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
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
    if out.suffix.lower() not in PROFILE_SUFFIXES:
        out = out / f"{file_stem(profile.name)}.{args.fmt}"
    _check_out_dir(out.parent)
    print(write_profile(profile, out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--format", choices=["csv", "json"], default="csv", dest="fmt",
                   help="used when --out is a directory")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def _exit_code(exc: Exception) -> int:
    """``EXIT_COMPUTE`` for a computation error, ``EXIT_INPUT`` for an input or OS error."""
    computed = isinstance(exc, CiteIneqError) and not isinstance(exc, INPUT_ERRORS)
    return EXIT_COMPUTE if computed else EXIT_INPUT


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CiteIneqError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
