"""Shared fixtures."""

import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _ours(module) -> bool:
    """Whether a loaded module is dpaudit's or one of these tests."""
    if getattr(module, "__name__", "").split(".")[0] == "dpaudit":
        return True
    path = getattr(module, "__file__", None)
    return path is not None and Path(path).resolve().parent == TESTS


@pytest.fixture
def rebind(monkeypatch):
    """rebind(module, name, new): for one test, set module.name to new, and
    with it every binding of the same object in dpaudit and the tests, so a
    ``from ... import`` of the name sees the replacement too."""

    def rebind(module, name, new):
        old = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if _ours(loaded) and getattr(loaded, name, None) is old:
                monkeypatch.setattr(loaded, name, new)

    return rebind
