import sys

import pytest

from intervalfp import Fp, fpformat, parse_format


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
    """Every Fp constructed while the test runs, in order: by the class
    call, whose `__init__` is wrapped, and by the library's unchecked
    builder, wrapped under every module name that binds it (no other
    module builds one by `tuple.__new__`, test_layering checks)."""
    objects = []
    init, build = Fp.__init__, fpformat._build

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        objects.append(self)

    def recording_build(fields):
        x = build(fields)
        objects.append(x)
        return x

    monkeypatch.setattr(Fp, "__init__", recording_init)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "intervalfp":
            for attr, value in list(vars(module).items()):
                if value is build:
                    monkeypatch.setattr(module, attr, recording_build)
    return objects
