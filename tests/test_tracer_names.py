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


def run_fresh(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "."])}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module, transport", [("negcamp.annotate", "MockTransport"), ("perfbench.latency", "LatencyTransport")])
def test_tracer_installs(module, transport):
    run_fresh(f"import {module}\nfrom perfbench import tracer\ntracer.install(tracer.Tracer(), {module}.{transport})\n")


def test_records_build_after_install():
    """The tracer wraps ``RatingTable.__init__``, which must stay an
    ``__init__`` it can wrap; the records annotate builds per document must
    build under the tracer too."""
    run_fresh(
        "import negcamp.annotate as a, negcamp.codebook as c, negcamp.reliability as r\n"
        "from perfbench import tracer\n"
        "tracer.install(tracer.Tracer(), a.MockTransport)\n"
        "assert r.RatingTable.from_records([('i', 'x', 0), ('i', 'y', 1)]).patterns == {(1, 1): 1}\n"
        "assert c.RenderedPrompt(system_text='s', user_text='u', prompt_hash='h').prompt_hash == 'h'\n"
        "assert a.TransportReply(text='1', input_tokens=2, output_tokens=1).text == '1'\n"
        "assert a.AnnotationResult('d', 1, '1', 'm', 'h', 2, 1).from_cache is False\n"
        "assert a.AnnotationFailure(doc_id='d', kind='label', detail='x').kind == 'label'\n"
    )
