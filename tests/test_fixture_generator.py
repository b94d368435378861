from __future__ import annotations

import subprocess
import sys

from conftest import ROOT


def test_committed_fixture_matches_generator():
    """The committed CSVs are what scripts/build_fixture.py generates."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_fixture.py"), "--check"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
