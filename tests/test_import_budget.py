"""Start-up cost guard: each case runs in a fresh interpreter and checks
which heavy modules are in ``sys.modules`` afterwards.

No command needs numpy or scipy: ``study`` fits its model in exact integer
arithmetic. No command needs requests either. ``annotate`` with ``--mock``,
``evaluate`` and ``study`` load none of the modules below; only the HTTP
client loads ``http.client`` and ``ssl``, itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import negcamp

SRC = Path(negcamp.__file__).resolve().parents[1]
HEAVY = ("numpy", "scipy", "scipy.linalg", "scipy.special", "scipy.stats", "requests", "http.client", "ssl")


def loaded_after(code, modules=HEAVY, options=()):
    """Run ``code`` in a fresh interpreter started with ``options``; which of
    ``modules`` it loaded."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, *options, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_main(*argv):
    return f"from negcamp.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


def test_package_and_cli_import_light():
    assert loaded_after("import negcamp, negcamp.cli") == set()


def test_cli_import_loads_no_dataclasses():
    # Records are NamedTuples; -S keeps site hooks from loading either module.
    assert loaded_after("import negcamp.cli", ("dataclasses", "inspect"), ("-S",)) == set()


def test_annotate_mock_loads_nothing_heavy(data_dir, tmp_path):
    code = run_main(
        "annotate", "--corpus", data_dir / "corpus.jsonl", "--mock", data_dir / "mock_responses.jsonl",
        "--out", tmp_path,
    )
    assert loaded_after(code) == set()


def test_evaluate_loads_nothing_heavy(data_dir, golden_dir, tmp_path):
    code = run_main(
        "evaluate", "--corpus", data_dir / "corpus.jsonl", "--gold", data_dir / "gold.csv",
        "--annotations", golden_dir / "annotations.jsonl", "--out", tmp_path,
    )
    assert loaded_after(code) == set()


def test_study_loads_nothing_heavy(data_dir, golden_dir, tmp_path):
    code = run_main(
        "study", "--corpus", data_dir / "corpus.jsonl", "--annotations", golden_dir / "annotations.jsonl",
        "--party-meta", data_dir / "parties.csv", "--min-tweets", "0", "--model-variant", "family",
        "--out", tmp_path,
    )
    assert loaded_after(code) == set()
