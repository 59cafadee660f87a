import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from support import clear_memos  # noqa: E402


@pytest.fixture
def cold_memo():
    """Run the test on empty term memos, so that a query the session ran
    before recomputes what it would otherwise read back, and empty them
    again afterwards, so that nothing the test kept, under whatever it
    patched, answers a later test."""
    clear_memos()
    yield
    clear_memos()
