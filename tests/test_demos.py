"""Each fast demo runs as a script and exits 0.

``bound_vs_measurement`` takes about 7 s, the others under a second each.
``fl_vs_sl`` (about 15 s) is left out: it alone would add about a fifth to
the suite's time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST = ("split_protocol", "partition_heterogeneity", "experiment_harness",
        "drift_lemma_check", "bound_vs_measurement")


@pytest.mark.parametrize("name", FAST)
def test_demo_exits_zero(name, tmp_path):
    # the harness demo writes under TMPDIR; a RuntimeWarning fails, as in the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
