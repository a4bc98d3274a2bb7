from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from matchvote import GeneratorParams, generate
from matchvote.fixtures import (
    fig1,
    fig1_candidates,
    footnote4,
    footnote4_candidates,
    prop_phragmen_ejr,
    prop_rulex_core,
)


@pytest.fixture
def blossom_calls(monkeypatch) -> list:
    """The integer edge lists of the ``certified_matching`` solves the
    engine made during a test: every solve passes there."""
    import matchvote.engine

    solve = matchvote.engine.certified_matching
    calls = []

    def counted(edges):
        calls.append(edges)
        return solve(edges)

    monkeypatch.setattr(matchvote.engine, "certified_matching", counted)
    return calls


@pytest.fixture(scope="session")
def fig1_election():
    return fig1()


@pytest.fixture(scope="session")
def fig1_cands(fig1_election):
    return fig1_candidates(fig1_election)


@pytest.fixture(scope="session")
def footnote4_election():
    return footnote4()


@pytest.fixture(scope="session")
def footnote4_cands(footnote4_election):
    return footnote4_candidates(footnote4_election)


@pytest.fixture(scope="session")
def triangle_election():
    return prop_phragmen_ejr()


@pytest.fixture(scope="session")
def rulex_election():
    return prop_rulex_core()


def random_corpus(seed: int, count: int, *, classes=("general", "bipartite", "symmetric"),
                  n_max: int = 7, k_max: int = 3):
    """Deterministic stream of small random elections for oracle suites."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        params = GeneratorParams(
            classes[i % len(classes)],
            rng.randint(3, n_max),
            rng.choice([0.3, 0.5, 0.7]),
            rng.randint(1, k_max),
            seed * 10_000 + i,
        )
        out.append(generate(params))
    return out


# ---------------------------------------------------------------------------
# Acceptance reporting: one line per criterion at the end of the run.
# ---------------------------------------------------------------------------

_acceptance_results: dict[str, str] = {}


def record_acceptance(criterion: str, description: str) -> None:
    _acceptance_results[criterion] = description


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    criterion = item.get_closest_marker("criterion")
    if criterion is None:
        return
    number, description = criterion.args
    status = "PASS" if report.passed else "FAIL"
    _acceptance_results[f"{number}"] = f"{status}  criterion {number}: {description}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_acceptance_results, key=lambda s: [int(p) for p in s.split(".")]):
        terminalreporter.write_line(_acceptance_results[key])


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(number, description): acceptance criterion metadata"
    )
