import csv
import os
from pathlib import Path

import pytest
from hypothesis import settings

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# On CI (GitHub Actions sets CI), each property draws the same examples on every
# run, and a failure prints the blob that replays it with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def cohort_snapshot():
    """Published career statistics of the 30-researcher reference cohort."""
    with open(DATA_DIR / "cohort_snapshot_2023.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
