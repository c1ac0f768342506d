"""The demos print what their golden files under tests/demo_output hold.

Each demo runs as its own process, with one BLAS thread so the MLP in
demo 04 stays fast on a busy machine.
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEMOS = sorted(name[:-3] for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_golden_output(demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(ROOT, "src")] + ([path] if path else [])))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
        env=env, capture_output=True, check=True, timeout=300).stdout
    with open(os.path.join(HERE, "demo_output", demo + ".txt"), "rb") as f:
        assert out == f.read()
