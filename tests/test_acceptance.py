"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Randomized criteria use fixed seeds so the gate is
reproducible.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from citeineq import (
    EMPIRICAL_SLOPE,
    classify_crossing,
    fit_k_vs_g,
    index_pair,
    landau_k_approx,
    landau_k_exact,
    window_series,
    SynthSpec,
    WindowConfig,
    synth_profile,
    write_profile,
)
from citeineq.cli import main
from helpers import ROOT, citations_in, gini_pairwise, lorenz_at, make_profile, run_python, series_from_pairs

N_VECTORS = 1000
N_TRIALS = 1000


def report(num: int, description: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[acceptance] criterion {num}: {status} - {description}{timing}")
    assert not failures, f"criterion {num}: {failures[:5]}"


@pytest.fixture(scope="module")
def corpus():
    """1000 random citation vectors: n <= 200, values <= 1e5, not all zero."""
    rng = np.random.default_rng(20230815)
    vectors = []
    while len(vectors) < N_VECTORS:
        n = int(rng.integers(1, 201))
        x = rng.integers(0, 10**5 + 1, size=n)
        if x.sum() > 0:
            vectors.append(x)
    return vectors


def test_criterion_1_gini_oracle_equivalence(corpus):
    start = time.perf_counter()
    failures = []
    for i, x in enumerate(corpus):
        delta = abs(index_pair(x).g - gini_pairwise(x))
        if delta > 1e-12:
            failures.append((i, delta))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    report(1, f"kernel Gini == pairwise oracle to 1e-12 on {N_VECTORS} vectors", failures, elapsed)


def test_criterion_2_kolkata_fixed_point(corpus):
    failures = []
    for i, x in enumerate(corpus):
        k = index_pair(x).k
        if not 0.5 <= k <= 1.0:
            failures.append((i, "range", k))
        residual = abs(1.0 - lorenz_at(x, k) - k)
        if residual > 1e-12:
            failures.append((i, "residual", residual))
    if abs(index_pair([0, 0, 0, 10]).k - 0.8) > 1e-12:
        failures.append("hand case [0,0,0,10]")
    if abs(index_pair([1, 2, 3, 4]).k - 13 / 22) > 1e-12:
        failures.append("hand case [1,2,3,4]")
    report(2, "fixed-point residual <= 1e-12, k in [0.5, 1], hand cases exact", failures)


def test_criterion_3_invariance_suite():
    rng = np.random.default_rng(42)
    failures = []

    def vector(min_n=1):
        while True:
            x = rng.integers(0, 10**5 + 1, size=int(rng.integers(min_n, 201)))
            if x.sum() > 0:
                return x

    for trial in range(N_TRIALS):
        x = vector()
        g0, k0 = index_pair(x)
        scale = int(rng.integers(1, 1000)) / int(rng.integers(1, 1000))
        g1, k1 = index_pair(x.astype(float) * scale)
        if abs(g1 - g0) > 1e-12 or abs(k1 - k0) > 1e-12:
            failures.append(("scale", trial))

    for trial in range(N_TRIALS):
        x = vector()
        if index_pair(rng.permutation(x)) != index_pair(x):
            failures.append(("permutation", trial))

    for trial in range(N_TRIALS):
        x = vector()
        m = int(rng.integers(1, 11))
        g0, k0 = index_pair(x)
        g1, k1 = index_pair(np.tile(x, m))
        if abs(g1 - g0) > 1e-12 or abs(k1 - k0) > 1e-12:
            failures.append(("replication", trial))

    done = 0
    while done < N_TRIALS:
        x = np.sort(vector(min_n=2))
        lo, hi = rng.integers(0, len(x), size=2)
        lo, hi = min(lo, hi), max(lo, hi)
        if x[lo] < 1 or x[lo] >= x[hi]:
            continue
        g0, k0 = index_pair(x)
        x[lo] -= 1
        x[hi] += 1
        g1, k1 = index_pair(x)
        if g1 < g0 - 1e-12 or k1 < k0 - 1e-12:
            failures.append(("pigou-dalton", done))
        done += 1

    report(3, f"scale/permutation/replication invariance + regressive-transfer monotonicity, {N_TRIALS} trials each", failures)


def test_criterion_4_landau_consistency():
    failures = []
    for g in np.linspace(0.0, 1.0, 1001):
        k = landau_k_exact(g)
        if abs(3 * g * k * k + (2 - 3 * g) * k - 1) > 1e-10:
            failures.append(("residual", g))
    if abs(landau_k_exact(1e-3) - landau_k_approx(1e-3)) > 1e-6:
        failures.append("exact vs approx at g=1e-3")
    if landau_k_approx(0.8) != 0.8:
        failures.append("approx(0.8) != 0.8 exactly")
    report(4, "quadratic-root residual <= 1e-10 on 1001-point grid, linear limit at small g, approx(0.8) == 0.8", failures)


def test_criterion_5_fit_recovery_and_crossing_mark():
    failures = []
    pts = [(g, 0.5 + 0.39 * g) for g in np.linspace(0.05, 0.95, 19)]
    fit = fit_k_vs_g(pts)
    expected_g_star = 0.5 / 0.61
    if abs(fit.c - 0.39) > 1e-9:
        failures.append(("slope", fit.c))
    if fit.g_star is None or abs(fit.g_star - expected_g_star) > 1e-9:
        failures.append(("g_star", fit.g_star))
    if not 0.80 <= fit.g_star <= 0.84:
        failures.append(("band", fit.g_star))
    report(5, "noiseless k = 1/2 + 0.39 g recovers c and g_star = 0.819672... inside 0.82 +- 0.02", failures)


def test_criterion_6_reference_table_arithmetic(cohort_snapshot):
    start = time.perf_counter()
    failures = []
    flagged = []
    for row in cohort_snapshot:
        n_pubs, n_cites = int(row["n_pubs"]), int(row["n_cites"])
        max_cites = int(row["max_citations"])
        d = n_cites / n_pubs
        r = max_cites / d
        if abs(round(d) - int(row["cites_per_paper_printed"])) > 1:
            failures.append((row["name"], "cites_per_paper", d))
        if abs(round(r) - int(row["peak_ratio_printed"])) > 1:
            failures.append((row["name"], "peak_ratio", r))
        if r >= 40.0:
            flagged.append(row)
    if len(cohort_snapshot) != 30:
        failures.append(("row count", len(cohort_snapshot)))
    agreement = sum(row["crossing"] == "Yes" for row in flagged) / len(flagged)
    if agreement < 0.94:
        failures.append(("flagged agreement", agreement))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    report(
        6,
        f"all 30 published rows: D and R match printed integers +-1; "
        f"crossing agreement {agreement:.1%} >= 94% on the {len(flagged)} flagged rows",
        failures,
        elapsed,
    )


def test_cohort_snapshot_script_summary():
    # criterion 6's table, as the bundled script recomputes and prints it
    proc = run_python(ROOT / "scripts" / "check_cohort_snapshot.py")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-3:] == [
        "rows checked: 30; printed-integer mismatches beyond +-1: 0",
        "flagged (R >= 40): 18; crossing rate among flagged: 94.4%",
        "overall flag/crossing agreement: 90.0%",
    ]


def test_criterion_7_window_engine():
    failures = []
    rng = np.random.default_rng(7)
    by_year = {y: [int(c) for c in rng.integers(0, 400, size=3)] for y in range(2000, 2011)}
    profile = make_profile(by_year)
    config = WindowConfig(width_years=5, stride_years=1, end_year=2022)
    series = window_series(profile, config)

    years = [e.central_year for e in series.entries]
    if years != list(range(2002, 2021)):
        failures.append(("central years", years[:3], years[-3:]))
    skipped_years = [e.central_year for e in series.entries if e.skipped]
    if skipped_years != list(range(2013, 2021)):
        failures.append(("skipped years", skipped_years))
    for e in series.valid_entries():
        start = e.central_year - 2
        window = citations_in(profile, start, start + 4)
        g, k = index_pair(window)
        if e.g != g or e.k != k or e.n_pubs != len(window) or e.n_cites != sum(window):
            failures.append(("mismatch", e.central_year))
    report(7, "2000-2010 profile spans central years 2002-2020 with correct skips; entries equal direct evaluation", failures)


def test_criterion_8_classifier_behavior():
    failures = []
    yes = classify_crossing(series_from_pairs([(0.7, 0.8), (0.85, 0.83)]))
    marginal = classify_crossing(series_from_pairs([(0.6, 0.75), (0.796, 0.8)]))
    no = classify_crossing(series_from_pairs([(0.60, 0.72), (0.65, 0.75)]))
    if yes.classification != "Yes" or yes.crossing_years != (2001,):
        failures.append(("yes", yes))
    if marginal.classification != "Marginally" or marginal.crossing_years != ():
        failures.append(("marginal", marginal))
    if no.classification != "No":
        failures.append(("no", no))

    gs = np.arange(0.50, 0.9001, 0.005)
    line = classify_crossing(series_from_pairs([(g, 0.5 + EMPIRICAL_SLOPE * g) for g in gs]))
    if line.classification != "Yes":
        failures.append(("line class", line.classification))
    else:
        first_g = gs[line.crossing_years[0] - 2000]
        if not 0.80 <= first_g <= 0.84:
            failures.append(("first crossing g", first_g))
    report(8, "Yes/Marginally/No per rule; on k = 1/2 + 0.39 g the first crossing lands inside 0.82 +- 0.02", failures)


def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    failures = []
    cohort_dir = tmp_path / "cohort"
    cohort_dir.mkdir()
    models = ["equal", "uniform", "powerlaw"]
    entries = []
    for i in range(10):
        spec = SynthSpec(
            model=models[i % 3],
            n_papers=80 + 10 * i,
            exponent=1.6 + 0.2 * i,
            span_years=(1995, 2015),
            seed=100 + i,
            value=50 + i,
        )
        name = f"synthetic-{i:02d}"
        write_profile(synth_profile(spec, name=name), cohort_dir / f"{name}.json")
        entries.append({"name": name, "path": f"cohort/{name}.json", "tags": ["synthetic"]})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2))

    outputs = []
    for run_dir in ("run-a", "run-b"):
        out = tmp_path / run_dir
        code = main(["batch", str(manifest), "--out", str(out), "--markdown"])
        if code != 0:
            failures.append(("exit code", run_dir, code))
        outputs.append(out)

    files_a = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outputs[1]) for p in outputs[1].rglob("*") if p.is_file())
    if files_a != files_b:
        failures.append(("file sets differ", files_a, files_b))
    else:
        for rel in files_a:
            if not filecmp.cmp(outputs[0] / rel, outputs[1] / rel, shallow=False):
                failures.append(("bytes differ", str(rel)))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    report(9, "batch over 10 synthetic profiles twice is byte-identical", failures, elapsed)
