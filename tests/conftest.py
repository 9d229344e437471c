from __future__ import annotations

import pytest

from catchmap import build_rgraph, certain_inference, probabilistic_inference

import helpers

# Extra numbers the acceptance tests want surfaced even when they pass
# (gap sizes, sweep totals); printed after the test summary.
_ACCEPTANCE_NOTES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_notes():
    return _ACCEPTANCE_NOTES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_NOTES:
        terminalreporter.section("acceptance notes")
        for line in _ACCEPTANCE_NOTES:
            terminalreporter.write_line(line)


@pytest.fixture
def example_aug():
    return helpers.example_aug()


@pytest.fixture
def example_graph(example_aug):
    return build_rgraph(example_aug)


@pytest.fixture
def example_routes(example_graph):
    return certain_inference(example_graph)


@pytest.fixture
def example_probs(example_graph, example_routes):
    return probabilistic_inference(example_graph, example_routes)
