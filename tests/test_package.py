"""Package metadata."""

import re
from pathlib import Path

import adlv


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / 'pyproject.toml').read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
    assert adlv.__version__ == declared
