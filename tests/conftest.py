import pytest

from rrgordon import products
from rrgordon.qseries import _PackedLayout

# (number, label, passed) tuples recorded by the acceptance tests
_ACCEPTANCE: list[tuple[int, str, bool]] = []


@pytest.fixture
def criterion():
    """Recorder for acceptance checks; one summary line is printed per entry."""

    def record(number: int, label: str, passed: bool) -> None:
        _ACCEPTANCE.append((number, label, passed))

    return record


@pytest.fixture
def step_values(monkeypatch):
    """The value u of every ``_PackedLayout.step`` call, in call order.

    Past 10 000 calls a step raises, so a walk that ignores its stopping
    stage fails its test instead of hanging it."""
    values = []
    step = _PackedLayout.step

    def counted(self, state, u):
        values.append(u)
        if len(values) > 10_000:
            raise RuntimeError("the walk ignored its stopping stage")
        return step(self, state, u)

    monkeypatch.setattr(_PackedLayout, "step", counted)
    return values


@pytest.fixture
def tower_climbs(monkeypatch):
    """(r, levels) of every call of either product tower kernel,
    ``products._levels`` or ``products._theta_family``, in call order."""
    climbs = []
    for name in ("_levels", "_theta_family"):
        def counted(r, levels, N, kernel=getattr(products, name)):
            climbs.append((r, levels))
            return kernel(r, levels, N)

        monkeypatch.setattr(products, name, counted)
    return climbs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed in sorted(_ACCEPTANCE):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{number:2d}] {status}  {label}")
