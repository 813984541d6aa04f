"""Shared fixtures; collects acceptance verdict lines for the final report."""

from __future__ import annotations

import warnings

import pytest

# When an @given test fails, hypothesis's report hook imports
# hypothesis.extra._patching, which imports libcst and through it
# mypy_extensions, whose import raises a DeprecationWarning.  Under
# filterwarnings = error that warning is an INTERNALERROR that ends the run
# after the first failing property, so the module is imported here, once,
# with only that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis or libcst missing: nothing to pre-load
        pass

_ACCEPTANCE_LINES: list[tuple[float, str]] = []


def _record(number: float, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:>4}: {status}  {description}"
    if detail:
        line += f"  [{detail}]"
    _ACCEPTANCE_LINES.append((number, line))


@pytest.fixture
def record_criterion():
    """Call as record_criterion(n, description, passed, detail)."""
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES, key=lambda t: t[0]):
        terminalreporter.write_line(line)
