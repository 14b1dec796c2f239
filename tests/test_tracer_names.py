"""Guard for the benchmark's tracer: ``perfbench.tracer.install`` wraps
negcamp's functions at the names through which callers look them up, so
deleting or renaming one of them fails here instead of breaking a traced
benchmark run. Each transport target installs in a fresh interpreter, run
from the repository root with ``PYTHONPATH=src:.``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module, transport", [("negcamp.annotate", "MockTransport"), ("perfbench.latency", "LatencyTransport")])
def test_tracer_installs(module, transport):
    code = f"import {module}\nfrom perfbench import tracer\ntracer.install(tracer.Tracer(), {module}.{transport})\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "."])}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
