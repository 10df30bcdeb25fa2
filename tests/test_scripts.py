"""The experiment scripts run to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["cantor_index_demo.py", "line_wall_indices.py",
                                    "winding_phase_diagram.py"])
def test_script_exits_0(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    if script == "winding_phase_diagram.py":
        argv.append(str(tmp_path / "diagram.csv"))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
