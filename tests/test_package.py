"""Package metadata and import footprint."""

import os
import re
import subprocess
import sys
from pathlib import Path

import adlv

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    text = (ROOT / 'pyproject.toml').read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
    assert adlv.__version__ == declared


def test_import_loads_no_dataclasses():
    """`dataclasses` imports `inspect`, `ast` and `dis`, about 0.7 MB of
    resident memory in every process that imports the package; no class
    in it needs more than a NamedTuple or a plain class."""
    done = subprocess.run(
        [sys.executable, '-c', 'import sys, adlv, adlv.cli; '
         'print(sorted({"dataclasses", "inspect"} & set(sys.modules)))'],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / 'src')))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == '[]'
