"""The demos still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import cogdiag

ROOT = Path(__file__).resolve().parents[1]


def test_autodiff_tour_runs(tmp_path):
    # the tour builds graphs by hand and asserts its own claims; run it
    # against the src/ these tests import, whether or not it is installed
    src = Path(cogdiag.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "04_autodiff_tour.py")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "one Node over 10 parameter leaves" in proc.stdout
