"""Every demo script runs to completion against the current package.

The demos import public names directly (demo 02 walks the DAG with
`bnsens.graph.descendants`), so a removed or renamed export breaks them.
They run on a copy because demo 06 writes its `.dot` file beside itself.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bnsens

DEMOS = Path(__file__).parent.parent / "demos"
SRC = str(Path(bnsens.__file__).parent.parent)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    shutil.copytree(DEMOS, tmp_path / "demos")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / name)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
