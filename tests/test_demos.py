"""The walkthroughs in demos/ run to completion against this checkout.

Each demo runs in its own interpreter with the package on its path, as
a reader would run it from the repository root.
"""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env


@pytest.mark.parametrize("script, line", [("crowding_game.py", "converged after"),
                                          ("single_agent.py", "duality gap")])
def test_demo_runs(script, line):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sum(line in row for row in proc.stdout.splitlines()) == 1
