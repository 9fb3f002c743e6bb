"""Seeded synthetic inputs for the benchmark workloads.

The generator belongs to the benchmark, not to citeineq, so a change to
the package's own ``synth_profile`` cannot change what is measured.  It
draws the same power-law model (survival function proportional to
c^(1 - exponent), counts >= 1, capped at 10^9) and writes the two profile
formats that ``citeineq`` reads, plus a batch manifest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cohort_json", "bulk_csv", "series_replot")

#: Window geometry of the CLI defaults the workloads run with.
WINDOW_WIDTH = 5
END_YEAR = 2022
MIN_PUBS = 2

CITATION_CAP = 10**9


@dataclass(frozen=True)
class Size:
    profiles: int
    papers: int
    first_year: int
    last_year: int
    fmt: str


FULL = {
    "cohort_json": Size(profiles=500, papers=300, first_year=1990, last_year=2020, fmt="json"),
    "bulk_csv": Size(profiles=6, papers=50_000, first_year=1990, last_year=2020, fmt="csv"),
    "series_replot": Size(profiles=300, papers=40, first_year=1950, last_year=2020, fmt="json"),
}

#: Tiny sizes for the self-test; every code path of the full sizes still runs.
SMOKE = {
    "cohort_json": Size(profiles=12, papers=60, first_year=1990, last_year=2020, fmt="json"),
    "bulk_csv": Size(profiles=2, papers=3_000, first_year=1990, last_year=2020, fmt="csv"),
    "series_replot": Size(profiles=8, papers=40, first_year=1950, last_year=2020, fmt="json"),
}

#: Exponents cycled over the few large CSV profiles, so that a seed changes
#: the draws but not the mix of tail weights.
BULK_EXPONENTS = (1.6, 1.8, 2.0, 2.2, 2.5, 3.0)


def slug(name: str) -> str:
    """File stem the CLI gives a profile name: lowercase, runs of
    non-alphanumerics collapsed to one hyphen."""
    cleaned = "".join(ch if ch.isalnum() else "-" for ch in name.lower())
    return "-".join(filter(None, cleaned.split("-"))) or "profile"


def expected_windows(years: np.ndarray, counts: np.ndarray) -> tuple[int, int]:
    """(windows, skipped windows) the default window geometry gives."""
    first = int(years.min())
    starts = range(first, END_YEAR - WINDOW_WIDTH + 2)
    skipped = 0
    for start in starts:
        inside = (years >= start) & (years < start + WINDOW_WIDTH)
        if inside.sum() < MIN_PUBS or counts[inside].sum() == 0:
            skipped += 1
    return len(starts), skipped


def _draw(rng: np.random.Generator, size: Size, exponent: float):
    years = rng.integers(size.first_year, size.last_year + 1, size=size.papers)
    u = 1.0 - rng.random(size.papers)  # in (0, 1]
    counts = np.minimum(np.floor(u ** (-1.0 / (exponent - 1.0))), CITATION_CAP).astype(np.int64)
    return years, counts


def _profile_text(name: str, tags: list[str], ids, years, counts, fmt: str) -> str:
    if fmt == "csv":
        rows = [f"{i},{y},{c}" for i, y, c in zip(ids, years.tolist(), counts.tolist())]
        return "pub_id,year,citations\n" + "\n".join(rows) + "\n"
    doc = {
        "schema_version": 1,
        "name": name,
        "tags": tags,
        "publications": [
            {"id": i, "year": y, "citations": c}
            for i, y, c in zip(ids, years.tolist(), counts.tolist())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def generate(workload: str, seed: int, size: Size, out_dir: Path) -> dict:
    """Write the profiles and manifest of one workload; return their metadata.

    The same (workload, seed, size) always writes the same bytes.  The
    metadata lists, per profile, the name, file, expected file stem,
    publication and citation totals, and expected window counts, which
    the output checks compare against.
    """
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    out_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(size.papers))
    ids = [f"p{i + 1:0{width}d}" for i in range(size.papers)]
    profiles, manifest = [], []
    for n in range(size.profiles):
        if workload == "bulk_csv":
            exponent = BULK_EXPONENTS[n % len(BULK_EXPONENTS)]
            name = f"Bulk Profile {n + 1:02d}"
        else:
            exponent = float(rng.uniform(1.6, 3.0))
            name = f"Researcher {n + 1:04d}"
        years, counts = _draw(rng, size, exponent)
        tags = ["synthetic", "heavy" if exponent < 2.2 else "light"]
        path = out_dir / f"in-{n + 1:04d}.{size.fmt}"
        path.write_text(_profile_text(name, tags, ids, years, counts, size.fmt), encoding="utf-8")
        n_windows, n_skipped = expected_windows(years, counts)
        profiles.append({
            "name": name,
            "file": path.name,
            "stem": slug(name),
            "n_pubs": size.papers,
            "n_cites": int(counts.sum()),
            "windows": n_windows,
            "skipped": n_skipped,
        })
        manifest.append({"name": name, "path": path.name, "tags": tags})
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    input_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    return {
        "workload": workload,
        "seed": seed,
        "size": asdict(size),
        "manifest": manifest_path.name,
        "profiles": profiles,
        "totals": {
            "profiles": size.profiles,
            "papers": size.profiles * size.papers,
            "input_bytes": input_bytes,
            "windows": sum(p["windows"] for p in profiles),
            "skipped_windows": sum(p["skipped"] for p in profiles),
        },
    }
