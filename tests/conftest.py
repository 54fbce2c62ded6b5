"""Prints a compact verdict block for the acceptance gate at the end of a run,
and provides the golden judge to every test module."""

import pytest

from helpers import load_tool


@pytest.fixture(scope="session")
def output_digest():
    """tools/output_digest.py: the golden rules and the judge."""
    return load_tool("output_digest")


def pytest_terminal_summary(terminalreporter):
    verdicts = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "criterion" in nodeid:
                verdicts.append((nodeid.split("::")[-1], outcome.upper()))
    if verdicts:
        terminalreporter.section("acceptance gate")
        for name, outcome in sorted(verdicts):
            terminalreporter.write_line(f"{outcome:6s} {name}")
