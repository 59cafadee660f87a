import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import thinspan.derivation  # noqa: E402


@pytest.fixture
def cold_memo(monkeypatch):
    """Run the test on empty term memos, so that a query the session ran
    before recomputes what it would otherwise read back, and put the
    session's memos back afterwards."""
    monkeypatch.setattr(thinspan.derivation, "_enum_cache", {})
