import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spectile.errors import BUDGETS  # noqa: E402


@pytest.fixture
def budget(monkeypatch):
    """budget(name, limit) sets the limit of one `BUDGETS` entry for the test."""
    return lambda name, limit: monkeypatch.setitem(BUDGETS, name, (limit, BUDGETS[name][1]))
