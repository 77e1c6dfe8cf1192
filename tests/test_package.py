"""Package metadata and import footprint."""

import ast
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



def raises_in_source():
    """(module, line, call) for every raise of a call of a plain name in
    src/adlv."""
    for path in sorted((ROOT / 'src' / 'adlv').glob('*.py')):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                yield path.name, node.lineno, node.exc


def test_every_invariant_raise_is_an_invariant_error():
    """No raise of a bare AssertionError is left: every invariant check
    raises InvariantError from data, with a datum name first and what
    failed second, in each module that checks an invariant."""
    raises = list(raises_in_source())
    assert [(name, line) for name, line, call in raises
            if call.func.id == 'AssertionError'] == []
    invariant = [(name, line, call) for name, line, call in raises
                 if call.func.id == 'InvariantError']
    assert {name for name, _, _ in invariant} == {
        'affine.py', 'bg.py', 'datum.py', 'pct.py', 'qbg.py', 'reduction.py'}
    for name, line, call in invariant:
        assert len(call.args) >= 2, (name, line)
        assert ast.unparse(call.args[0]).endswith('.name'), (name, line)


def test_per_module_message_helpers_are_gone():
    assert not hasattr(adlv.PCT, '_element_error')
    assert not hasattr(adlv.PCT, '_transport_error')
    assert not hasattr(adlv.BGInvariants, '_class_error')
    assert issubclass(adlv.InvariantError, AssertionError)
