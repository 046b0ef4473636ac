"""The benchmark self-test runs clean against this tree.

``perfbench/selftest.py`` checks at tiny sizes that every traced layer
boundary exists and that the column-steps each study sends through
``SchemeSolver.iterate_raw`` match the configured counts, so renaming a
traced function or changing how a study steps fails here.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
