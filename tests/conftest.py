"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest
from helpers import pin_core_wins


@pytest.fixture
def core_wins_everywhere(monkeypatch):
    """Pin the offered-load rule to "the core wins".

    The modules that exist to exercise the array core run h=2 / tiny
    fabrics, which the real rule sends to the wheel; they ask for this
    fixture (``pytestmark = pytest.mark.usefixtures(...)``) so every
    eligible ``auto`` point they build still gets its core.  A fake
    substituted by a test, not an option: the rule itself is covered by
    the table in ``tests/test_engine_selection.py`` and the goldens run
    on ``auto`` both ways.
    """
    pin_core_wins(monkeypatch)
