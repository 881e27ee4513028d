import pytest

from rrgordon import cli, hilbert, products
from rrgordon.qseries import _PackedLayout

# (number, label, passed) tuples recorded by the acceptance tests
_ACCEPTANCE: list[tuple[int, str, bool]] = []


def cell_row(params, N, suites=(), d_max=0):
    """The ``cli._Row`` of the one cell ``params`` at order N, run with
    ``suites``: the floors, levels and scans a command hands that cell's
    routes and suites. Import it with ``from conftest import cell_row``."""
    return cli._Row(params.r, range(params.i, params.i + 1), range(params.J, params.J + 1), N, suites, d_max)


def expansion_readers(r, levels, N):
    """The ``floor`` and ``level`` readers that ``verify_expansion`` takes,
    over the tower levels ``levels`` and the floors one above each, from one
    ``hilbert._floors`` scan and one ``products._tower`` climb, as a row
    reads them: for stages deeper than the J+3 a row holds."""
    floors = range(levels[-1] + 1, levels[0], -1)
    floor = dict(zip(floors, hilbert._floors(r, floors, N)))
    level = dict(zip(levels, products._tower(r, levels, N)))
    return floor.__getitem__, level.__getitem__


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
