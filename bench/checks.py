"""Output checks for every benchmark pass.

Nothing here imports citeineq: the checks parse the input and output
files with the standard library and recompute sampled windows with an
oracle of their own, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from inputs import END_YEAR, MIN_PUBS, WINDOW_WIDTH

#: Largest allowed |difference| between the CLI's (g, k) and the oracle's.
INDEX_TOLERANCE = 1e-12

SERIES_HEADER = ["central_year", "g", "k", "n_pubs", "n_cites", "skipped"]

#: Rows of the fitted line in an inset panel (``plotdata`` samples 50 points).
INSET_LINE_ROWS = 50


def oracle_pair(counts) -> tuple[float, float]:
    """Exact (Gini, Kolkata) of a citation vector, rounded once to float.

    Gini is the pairwise mean absolute difference, sum_ij |x_i - x_j| /
    (2 n^2 mean), summed exactly in integers.  Kolkata is found directly:
    the first Lorenz vertex j with 1 - C_j/T <= j/n, then the linear piece
    before it solved in rationals.
    """
    x = np.sort(np.asarray(counts, dtype=np.int64))
    n, total = int(x.size), int(x.sum())
    pair_sum = 0
    for start in range(0, n, 64):
        pair_sum += int(np.abs(x[start:start + 64, None] - x[None, :]).sum())
    g = Fraction(pair_sum, 2 * n * total)
    cum = 0
    for j, xj in enumerate(x.tolist(), start=1):
        before = cum
        cum += xj
        if n * total - n * cum - j * total <= 0:
            break
    k = Fraction(total - before + xj * (j - 1), total + n * xj)
    return float(g), float(k)


def read_input(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Years and citation counts of a generated profile file."""
    if path.suffix == ".csv":
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        years = [int(r[1]) for r in rows]
        counts = [int(r[2]) for r in rows]
    else:
        pubs = json.loads(path.read_text(encoding="utf-8"))["publications"]
        years = [p["year"] for p in pubs]
        counts = [p["citations"] for p in pubs]
    return np.array(years, dtype=np.int64), np.array(counts, dtype=np.int64)


def read_series(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SERIES_HEADER:
        raise ValueError(f"{path.name}: bad series header")
    return rows[1:]


def check_window(row: list[str], years: np.ndarray, counts: np.ndarray) -> str | None:
    """Compare one series row with the window it covers; None when it agrees."""
    central = int(row[0])
    start = central - WINDOW_WIDTH // 2
    inside = counts[(years >= start) & (years < start + WINDOW_WIDTH)]
    n_pubs, n_cites = int(inside.size), int(inside.sum())
    if (int(row[3]), int(row[4])) != (n_pubs, n_cites):
        return f"window {central}: n_pubs/n_cites {row[3]}/{row[4]}, expected {n_pubs}/{n_cites}"
    if n_pubs == 0:
        expected_skip = "no_publications"
    elif n_pubs < MIN_PUBS:
        expected_skip = "too_few_publications"
    elif n_cites == 0:
        expected_skip = "zero_citations"
    else:
        expected_skip = ""
    if row[5] != expected_skip:
        return f"window {central}: skipped {row[5]!r}, expected {expected_skip!r}"
    if expected_skip:
        return None if row[1] == row[2] == "" else f"window {central}: skipped row has g/k"
    g, k = oracle_pair(inside)
    if abs(float(row[1]) - g) > INDEX_TOLERANCE or abs(float(row[2]) - k) > INDEX_TOLERANCE:
        return f"window {central}: (g, k) = ({row[1]}, {row[2]}), oracle ({g!r}, {k!r})"
    return None


def check_series_file(path: Path, profile: dict, inputs: Path, rng: random.Random,
                      n_sample: int, cache: dict) -> str | None:
    """Row count, year axis and a sample of windows of one series file."""
    try:
        rows = read_series(path)
    except (OSError, ValueError) as exc:
        return str(exc)
    if len(rows) != profile["windows"]:
        return f"{path.name}: {len(rows)} rows, expected {profile['windows']}"
    if int(rows[-1][0]) != END_YEAR - WINDOW_WIDTH + 1 + WINDOW_WIDTH // 2:
        return f"{path.name}: last window centred on {rows[-1][0]}"
    if n_sample:
        if profile["file"] not in cache:
            cache[profile["file"]] = read_input(inputs / profile["file"])
        years, counts = cache[profile["file"]]
        for row in rng.sample(rows, min(n_sample, len(rows))):
            problem = check_window(row, years, counts)
            if problem:
                return f"{path.name}: {problem}"
    return None


def check_batch(out_dir: Path, meta: dict, inputs: Path, exit_code: int, rng: random.Random,
                cache: dict) -> tuple[int, list[str], str | None]:
    """Check one ``citeineq batch`` run: (failed profiles, problems, cohort.json digest).

    Every profile needs its cohort row with the right totals, and its
    series and summary files; counting the files also catches two names
    whose file stems collide.  Sampled profiles have sampled windows
    recomputed by the oracle.
    """
    profiles = meta["profiles"]
    problems = []
    if exit_code != 0:
        problems.append(f"batch exit code {exit_code}")
        return len(profiles), problems, None
    try:
        cohort_path = out_dir / "cohort.json"
        digest = hashlib.sha256(cohort_path.read_bytes()).hexdigest()
        cohort = json.loads(cohort_path.read_text(encoding="utf-8"))
        rows = {r["name"]: r for r in cohort["rows"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"cohort.json: {exc}")
        return len(profiles), problems, None
    if cohort.get("failures"):
        problems.append(f"cohort.json lists {len(cohort['failures'])} failures")
    profile_dir = out_dir / "profiles"
    written = sorted(p.name for p in profile_dir.iterdir()) if profile_dir.is_dir() else []
    failed = 0
    if len(written) != 2 * len(profiles):
        problems.append(f"{len(written)} per-profile files, expected {2 * len(profiles)}")
        failed += max(1, (2 * len(profiles) - len(written) + 1) // 2)
    n_sample = min(len(profiles), meta["sample_profiles"])
    sampled = set(rng.sample(range(len(profiles)), n_sample))
    for i, profile in enumerate(profiles):
        problem = None
        row = rows.get(profile["name"])
        if row is None:
            problem = "no cohort row"
        elif (row["n_pubs"], row["n_cites"]) != (profile["n_pubs"], profile["n_cites"]):
            problem = f"cohort row totals {row['n_pubs']}/{row['n_cites']}"
        elif not (profile_dir / f"{profile['stem']}_summary.json").is_file():
            problem = "no summary file"
        else:
            problem = check_series_file(
                profile_dir / f"{profile['stem']}_series.csv", profile, inputs, rng,
                meta["sample_windows"] if i in sampled else 0, cache,
            )
        if problem:
            failed += 1
            problems.append(f"{profile['name']}: {problem}")
    return min(failed, len(profiles)), problems, digest


def expected_replot(series_path: Path) -> dict:
    """What ``fit`` and ``plotdata`` must write for one series file.

    The slope of k = 1/2 + c*g is recomputed in rationals from the
    series' own (g, k) rows.
    """
    rows = read_series(series_path)
    pairs = [(Fraction(r[1]), Fraction(r[2])) for r in rows if not r[5]]
    c = sum(g * (k - Fraction(1, 2)) for g, k in pairs) / sum(g * g for g, _ in pairs)
    return {"rows": len(rows), "points": len(pairs), "c": float(c)}


def check_fit(out_dir: Path, stem: str, expected: dict, exit_code: int) -> str | None:
    """Check what ``citeineq fit`` wrote for one series file."""
    if exit_code != 0:
        return f"{stem}: fit exit code {exit_code}"
    try:
        fit = json.loads((out_dir / f"{stem}_fit.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{stem}: fit: {exc}"
    if fit.get("n_points") != expected["points"]:
        return f"{stem}: fit n_points {fit.get('n_points')}, expected {expected['points']}"
    if not isinstance(fit.get("c"), float) or abs(fit["c"] - expected["c"]) > INDEX_TOLERANCE:
        return f"{stem}: fit c {fit.get('c')!r}, expected {expected['c']!r}"
    return None


def check_plotdata(out_dir: Path, stem: str, expected: dict, exit_code: int) -> str | None:
    """Check the two panels ``citeineq plotdata`` wrote for one series file."""
    if exit_code != 0:
        return f"{stem}: plotdata exit code {exit_code}"
    try:
        with open(out_dir / f"{stem}_timepanel.csv", encoding="utf-8") as fh:
            timepanel_rows = sum(1 for _ in fh) - 1
        with open(out_dir / f"{stem}_inset.csv", encoding="utf-8") as fh:
            inset_rows = sum(1 for _ in fh) - 1
    except OSError as exc:
        return f"{stem}: plotdata: {exc}"
    if timepanel_rows != expected["rows"]:
        return f"{stem}: {timepanel_rows} time-panel rows, expected {expected['rows']}"
    if inset_rows != expected["points"] + INSET_LINE_ROWS:
        return f"{stem}: {inset_rows} inset rows, expected {expected['points'] + INSET_LINE_ROWS}"
    return None


def tree_digest(out_dir: Path) -> str:
    """sha256 over the relative paths and bytes of every file under a directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
