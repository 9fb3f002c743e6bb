#!/usr/bin/env python3
"""End-to-end demo on a synthetic cohort.

Generates ten deterministic profiles spanning equal, uniform, and
heavy-tailed citation statistics, then drives the full CLI pipeline:
per-profile series + summaries, cohort tables, a k-vs-g fit, and
plot-ready panels for the first heavy-tailed profile.

Usage: python scripts/demo_cohort.py [--out DIR] [--seed N]

DIR must be new or empty.
"""

import argparse
import json
import sys
from pathlib import Path

from citeineq import SynthSpec, synth_profile, write_profile
from citeineq.cli import main as citeineq_main


def build_cohort(out_dir: Path, seed: int) -> Path:
    profile_dir = out_dir / "profiles_in"
    entries = []
    models = ["equal", "uniform", "powerlaw"]
    for i in range(10):
        spec = SynthSpec(
            model=models[i % 3],
            n_papers=100 + 20 * i,
            exponent=1.5 + 0.25 * (i % 4),
            span_years=(1990, 2015),
            seed=seed + i,
            value=40 + 5 * i,
        )
        name = f"{spec.model}-{i:02d}"
        path = write_profile(synth_profile(spec, name=name), profile_dir / f"{name}.json")
        entries.append({"name": name, "path": f"profiles_in/{path.name}", "tags": [spec.model]})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return manifest


def run(argv) -> int:
    print("$ citeineq " + " ".join(argv))
    code = citeineq_main(argv)
    if code != 0:
        print(f"  -> exit {code}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/demo"))
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()
    # citeineq replaces no output file, so a second run into one --out would fail midway
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        print(f"error: --out {args.out} exists and is not an empty directory", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)

    manifest = build_cohort(args.out, args.seed)
    code = run(["batch", str(manifest), "--out", str(args.out), "--markdown"])
    if code != 0:
        return code

    # fit + plot panels for one heavy-tailed profile
    series = args.out / "profiles" / "powerlaw-02_series.csv"
    for argv in (["fit", str(series), "--out", str(args.out)],
                 ["plotdata", str(series), "--out", str(args.out)]):
        code = run(argv)
        if code != 0:
            return code

    fit = json.loads((args.out / "powerlaw-02_series_fit.json").read_text(encoding="utf-8"))
    print()
    print(f"fitted slope c = {fit['c']:.4f} over {fit['n_points']} windows")
    g_star = fit["g_star"]
    print(f"extrapolated g = k crossing at {g_star:.4f}" if g_star else "slope >= 1, no crossing")
    print()
    print((args.out / "cohort.md").read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
