import random
from pathlib import Path

import pytest

from traitclust import CategoricalDataset, FitConfig

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
APPLICANT_CSV = DATA_DIR / "scenario_applicants.csv"

ACCEPTANCE_LINES = []


def record_acceptance(line):
    """Collect one PASS/FAIL line per acceptance criterion; printed as a
    summary section so pytest's output capture cannot swallow them."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def random_rows(rng, n, m, n_categories):
    """n rows of m categorical codes drawn from {0..n_categories-1}."""
    return [tuple(rng.randrange(n_categories) for _ in range(m)) for _ in range(n)]


def random_dataset(rng, n, m, n_categories):
    return CategoricalDataset.from_values(random_rows(rng, n, m, n_categories))


@pytest.fixture
def applicant_csv_text():
    return APPLICANT_CSV.read_text()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def ten_configs(monkeypatch):
    """Let at most ten FitConfigs be built: a caller that builds one per k
    of a huge range then fails at once instead of running out of memory."""
    real = FitConfig.__post_init__
    built = []

    def counting(self):
        built.append(self.k)
        if len(built) > 10:
            raise AssertionError(f"more than ten FitConfigs built: k={built}")
        real(self)

    monkeypatch.setattr(FitConfig, "__post_init__", counting)
