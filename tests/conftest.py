import pytest

from intervalfp import Fp, parse_format


@pytest.fixture(scope="session")
def toy():
    """The 3-bit workhorse format: m = 1/16, M = 14, 58 values."""
    return parse_format("p3e-2:3")


@pytest.fixture(scope="session")
def toy4():
    """Larger toy format for exhaustive suites: p4e-3:3, 130 values."""
    return parse_format("p4e-3:3")


@pytest.fixture(scope="session")
def tiny():
    """Degenerate two-normal format p2e0:0ns: values +-1, +-1.5 only."""
    return parse_format("p2e0:0ns")


@pytest.fixture
def built(monkeypatch):
    """Every Fp constructed while the test runs, in order."""
    objects = []
    init = Fp.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        objects.append(self)

    monkeypatch.setattr(Fp, "__init__", recording_init)
    return objects
