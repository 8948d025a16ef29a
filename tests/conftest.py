"""Per-criterion summary lines for the acceptance module, and the default
ring order cap for every test."""

import os
import re

_ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def pytest_configure(config):
    # rings reads the order cap from ZDK_ORDER_CAP; the tests, collection
    # included, assume the default 4096
    os.environ.pop("ZDK_ORDER_CAP", None)


def record_criterion(number: int, label: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS[number] = (label, passed)


def pytest_runtest_makereport(item, call):
    # acceptance tests self-report via record_criterion; fill in hard
    # failures (errors, timeouts) that never reached the recording call
    if call.when != "call" or "acceptance" not in item.nodeid:
        return
    match = re.search(r"test_criterion_(\d+)", item.name)
    if match:
        number = int(match.group(1))
        if number not in _ACCEPTANCE_RESULTS or call.excinfo is not None:
            label = _ACCEPTANCE_RESULTS.get(number, (item.name, False))[0]
            _ACCEPTANCE_RESULTS[number] = (label, call.excinfo is None)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        label, passed = _ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number} {label}: {verdict}")
