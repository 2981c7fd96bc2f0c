import sys
from pathlib import Path

import pytest

# let test modules import each other (oracles.py) without packaging tests/
sys.path.insert(0, str(Path(__file__).parent))

# one line per acceptance criterion, echoed at the end of the run so the
# verdicts survive pytest's output capture
_acceptance_lines: list[str] = []

# The criteria that train real models for minutes each (A3, A4, A6) take
# ~95 % of the suite's wall time; they run after every other test, cheapest
# first, so a run cut short by a wall-time limit still reports the rest.
# Every test seeds its own generators, so the order changes no outcome.
_RUN_LAST = (
    "test_a3_kd_cae_end_to_end",
    "test_a4_noise_degradation_direction",
    "test_a6_dcgan_smoke",
)


def pytest_collection_modifyitems(items):
    rank = {name: i + 1 for i, name in enumerate(_RUN_LAST)}
    items.sort(key=lambda item: rank.get(item.name, 0))  # stable: the rest keep their order


@pytest.fixture(scope="session")
def criterion():
    def record(name: str, passed: bool, detail: str) -> None:
        line = f"{name}: {'PASS' if passed else 'FAIL'} ({detail})"
        _acceptance_lines.append(line)
        print(line)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
