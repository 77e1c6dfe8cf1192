"""Command line interface: round trips, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adlv import cli
from adlv.affine import AffineWeyl
from adlv.bg import BGInvariants
from adlv.cli import main
from adlv.context import Context
from adlv.pct import PCT
from adlv.reduction import Reduction

from test_reduction import SIGMA_MOVES_FREE_PI1, refusal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_datum_validate(capsys):
    info = run_json(capsys, 'datum', 'validate', '--datum', 'sl3')
    assert info['weyl_order'] == 6


def test_lp(capsys):
    data = run_json(capsys, 'lp', '--datum', 'sl2', '--x',
                    '{"w": [], "mu": [0]}')
    assert sorted(map(tuple, data['lp'])) == [(), (1,)]


def test_empty_lp_set_exits_3_naming_datum_and_element(capsys, monkeypatch):
    # a chamber table over no element of W
    monkeypatch.setattr(AffineWeyl, '_chamber_masks', (0, [0] * 3))
    code, out, err = run(capsys, 'lp', '--datum', 'sl3', '--x',
                         '{"w": [1], "mu": [1, -1]}')
    assert code == 3 and out == ''
    assert err == ("invariant violation: datum 'sl3': the LP set is empty, "
                   'for x = {"w": [1], "mu": [1, -1]}\n'), err


def test_eta_newton_kappa(capsys):
    x = '{"w": [1], "mu": [1]}'
    eta = run_json(capsys, 'eta', '--datum', 'sl2', '--x', x)
    assert eta['length'] == 1
    newton = run_json(capsys, 'newton', '--datum', 'sl2', '--x', x)
    assert newton['nu'] == ['0']
    newton = run_json(capsys, 'newton', '--datum', 'gl2', '--x',
                      '{"w": [1], "mu": [1, 0]}')
    assert newton['nu'] == ['1/2', '1/2']
    kappa = run_json(capsys, 'kappa', '--datum', 'sl2', '--x', x)
    assert isinstance(kappa['kappa'], list)


def test_lambda(capsys):
    data = run_json(capsys, 'lambda', '--datum', 'gl3', '--x',
                    '{"w": [], "mu": [0, 0, 1]}')
    assert data['defect'] == 0
    assert data['lambda_lift'] == [1, 0, 0]


def test_classpoly_and_tree(capsys):
    x = '{"w": [1], "mu": [1]}'
    polys = run_json(capsys, 'classpoly', '--datum', 'sl2', '--x', x)
    coeffs = sorted(tuple(e['coefficients']) for e in polys)
    assert coeffs == [(-1, 1), (0, 1)]
    tree = run_json(capsys, 'tree', '--datum', 'sl2', '--x', x)
    assert len(tree['leaves']) == 2
    code, out, _ = run(capsys, 'tree', '--datum', 'sl2', '--x', x,
                       '--format', 'dot')
    assert code == 0 and out.startswith('digraph')


def test_bgx(capsys):
    data = run_json(capsys, 'bgx', '--datum', 'sl2', '--x',
                    '{"w": [1], "mu": [1]}')
    assert len(data) == 2
    polys = sorted(tuple(e['polynomial']) for e in data)
    assert polys == [(-1, 1), (0, 1)]


def test_qbg(capsys):
    d = run_json(capsys, 'qbg', 'dist', '--datum', 'sl3',
                 '--source', '[]', '--target', '[1, 2, 1]')
    assert d['distance'] == 3
    w = run_json(capsys, 'qbg', 'weight', '--datum', 'sl3',
                 '--source', '[1, 2, 1]', '--target', '[]')
    assert w['distance'] == 1
    assert w['weight'] == [1, 1]
    code, out, _ = run(capsys, 'qbg', 'dot', '--datum', 'sl2')
    assert code == 0 and out.startswith('digraph')


def test_pct_classify(capsys):
    data = run_json(capsys, 'pct', 'classify', '--datum', 'gl3', '--x',
                    '{"w": [1], "mu": [0, 0, 0]}')
    assert data['positive_coxeter_type'] is True
    assert data['finite_coxeter_part'] is True


def test_pct_report(capsys):
    data = run_json(capsys, 'pct', 'report', '--datum', 'sl2', '--x',
                    '{"w": [1], "mu": [1]}')
    assert data['num_pairs'] == 1
    assert {c['dimension'] for c in data['classes']} == {1, 2}


def test_pct_endpoint(capsys):
    data = run_json(capsys, 'pct', 'endpoint', '--datum', 'sl2',
                    '--x', '{"w": [1], "mu": [1]}',
                    '--kappa', '[0]', '--nu', '["0"]')
    assert data['c_prime'] == [1]
    assert data['class_key']['nu'] == ['0']
    data = run_json(capsys, 'pct', 'endpoint', '--datum', 'gl2',
                    '--x', '{"w": [1], "mu": [1, 0]}',
                    '--kappa', '[0, 1]', '--nu', '["1/2", "1/2"]')
    assert data['class_key']['nu'] == ['1/2', '1/2']


def test_repeated_json_key_exits_1(capsys, tmp_path):
    """A repeated key in the element or in a datum file is refused by
    name; json alone would keep the last value and run on it."""
    code, out, err = run(capsys, 'lp', '--datum', 'sl2',
                         '--x', '{"w": [1], "mu": [1], "mu": [2]}')
    assert (code, out, err) == (1, '', 'usage error: --x: repeated key '
                                '"mu"\n')
    path = tmp_path / 'datum.json'
    path.write_text('{"type": "A2", "type": "A1", "name": "x"}')
    code, out, err = run(capsys, 'datum', 'validate', '--datum', str(path))
    assert (code, out, err) == (1, '', 'usage error: --datum: repeated key '
                                '"type"\n')


# A3 with its middle node last: the chain is 1 - 3 - 2
A3_OUT_OF_CHAIN_ORDER = [[2, 0, -1], [0, 2, -1], [-1, -1, 2]]


@pytest.mark.parametrize('config, what', [
    ({'type': 'B2'}, "type 'B2' is not A2"),
    ({'type': 'A1xA1'}, "type 'A1xA1' is not A2"),
    ({'cartan': A3_OUT_OF_CHAIN_ORDER}, 'the Cartan matrix is not A3'),
], ids=['B2', 'A1xA1', 'A3_out_of_chain_order'])
def test_gl_basis_off_type_a_exits_1(capsys, tmp_path, config, what):
    """The standard lattice of GL_{n+1} carries type A_n with its nodes in
    chain order only; any other Cartan matrix is refused by name, before
    a root is formed."""
    path = tmp_path / 'datum.json'
    path.write_text(json.dumps(dict(config, lattice_basis='gl')))
    code, out, err = run(capsys, 'datum', 'validate', '--datum', str(path))
    assert (code, out, err) == (1, '', 'usage error: --datum: lattice_basis '
                                '"gl" needs type A_n in chain order, and '
                                '%s in chain order\n' % what)


@pytest.mark.parametrize('name', sorted(SIGMA_MOVES_FREE_PI1))
@pytest.mark.parametrize('argv', [['classpoly'], ['tree']])
def test_class_key_refusal_exits_2(capsys, tmp_path, name, argv):
    """On a datum whose sigma moves the free part of pi_1, every command
    that forms a class key exits 2 with the refusal, on x = 1."""
    path = tmp_path / 'datum.json'
    path.write_text(json.dumps(SIGMA_MOVES_FREE_PI1[name]))
    code, out, err = run(capsys, *argv, '--datum', str(path), '--x', '{}')
    assert (code, out) == (2, '')
    assert err.startswith('error: ' + refusal(str(path))), err


@pytest.mark.parametrize('name', sorted(SIGMA_MOVES_FREE_PI1))
def test_unitary_data_run_where_no_key_is_needed(capsys, tmp_path, name):
    """Where sigma moves the free part of pi_1, a class has no key but
    still has its (kappa, nu): on x = 1, pct report, pct classify and bgx
    form no key and exit 0, the report's classes are the bgx classes, and
    classpoly, tree and pct endpoint, which form keys, exit 2 with the
    refusal."""
    path = tmp_path / 'datum.json'
    path.write_text(json.dumps(SIGMA_MOVES_FREE_PI1[name]))
    where = ('--datum', str(path), '--x', '{}')
    report = run_json(capsys, 'pct', 'report', *where)
    classify = run_json(capsys, 'pct', 'classify', *where)
    bgx = run_json(capsys, 'bgx', *where)
    assert classify['positive_coxeter_type'] is True
    assert [c['class'] for c in report['classes']] \
        == [row['class'] for row in bgx] == [report['b_min']]
    b = report['b_min']
    for argv in (['classpoly'], ['tree'],
                 ['pct', 'endpoint', '--kappa', json.dumps(b['kappa']),
                  '--nu', json.dumps(b['nu'])]):
        code, out, err = run(capsys, *argv, *where)
        assert (code, out) == (2, ''), argv
        assert err.startswith('error: ' + refusal(str(path))), err


def test_json_datum_messages_name_their_file(capsys, tmp_path):
    """Two A2 files with no "name": each message names its own file, not
    the root type they share."""
    errs = []
    for stem in ('a', 'b'):
        path = tmp_path / (stem + '.json')
        path.write_text(json.dumps(SIGMA_MOVES_FREE_PI1['gu3']))
        code, _, err = run(capsys, 'classpoly', '--datum', str(path),
                           '--x', '{}')
        assert code == 2 and err.startswith('error: '
                                            + refusal(str(path))), err
        errs.append(err)
    assert errs[0] != errs[1]


def test_exit_codes(capsys):
    code, _, err = run(capsys, 'nonsense')
    assert code == 1 and 'usage error' in err
    # a malformed element is bad input: exit 1, naming the field
    for text, field in [('not json', 'JSON'), ('[1]', 'JSON object'),
                        ('{"w": [1], "mu": [1.5]}', '"mu"'),
                        ('{"w": [1], "mu": [true]}', '"mu"'),
                        ('{"w": [1], "mu": ["a"]}', '"mu"'),
                        ('{"w": [1.5], "mu": [1]}', '"w"'),
                        ('{"w": ["1"], "mu": [1]}', '"w"'),
                        ('{"w": [2], "mu": [1]}', '"w"'),
                        ('{"w": [1], "mu": [1, 0]}', '"mu"'),
                        ('{"x": [1]}', "'x'")]:
        code, out, err = run(capsys, 'lp', '--datum', 'sl2', '--x', text)
        assert code == 1 and out == '', text
        assert err.startswith('usage error: --x: ') and field in err, err
    code, _, err = run(capsys, 'lp', '--datum', 'no_such_datum', '--x',
                       '{"w": [], "mu": [0]}')
    assert code == 1
    assert "unknown datum 'no_such_datum'" in err and 'gl6' in err
    # a malformed Weyl word is bad input: exit 1, naming the option
    for source, target, option in [('[0]', '[]', '--source'),
                                   ('[9]', '[]', '--source'),
                                   ('{"a":1}', '[]', '--source'),
                                   ('[1]', '[true]', '--target'),
                                   ('[1]', 'x', '--target')]:
        code, out, err = run(capsys, 'qbg', 'dist', '--datum', 'sl3',
                             '--source', source, '--target', target)
        assert code == 1 and out == '', source
        assert err.startswith('usage error: ' + option), err
    # so is a bad class or an x of non positive Coxeter type for endpoint
    x_sl2 = '{"w": [1], "mu": [1]}'
    for datum, x, kappa, nu, option in [
            ('sl2', x_sl2, '[0,5]', '[0]', '--kappa'),
            ('sl2', x_sl2, '[true]', '[0]', '--kappa'),
            ('sl2', x_sl2, '[5]', '[0]', '--kappa'),
            ('sl2', x_sl2, '[0]', '["x"]', '--nu'),
            ('sl2', x_sl2, '[0]', '["1/0"]', '--nu'),
            ('sl2', x_sl2, '[0]', '[0.5]', '--nu'),
            ('sl2', x_sl2, '[0]', '[0, 0]', '--nu'),
            ('sl3', '{"w": [1, 2, 1], "mu": [0, 0]}', '[0, 0]', '[0, 0]',
             '--x'),
            # well formed, but not a class of the interval of x
            ('gl2', '{"w": [1], "mu": [1, 0]}', '[0, 1]', '["0", "1"]',
             '--kappa/--nu: '),
            ('gl2', '{"w": [1], "mu": [1, 0]}', '[0, 0]', '["0", "0"]',
             '--kappa/--nu: ')]:
        code, out, err = run(capsys, 'pct', 'endpoint', '--datum', datum,
                             '--x', x, '--kappa', kappa, '--nu', nu)
        assert code == 1 and out == '', (kappa, nu)
        assert err.startswith('usage error: ' + option), err
    code, out, err = run(capsys, 'pct', 'report', '--datum', 'sl3', '--x',
                         '{"w": [1, 2, 1], "mu": [0, 0]}')
    assert code == 1 and out == ''
    assert err == 'usage error: --x: x is not of positive Coxeter type\n'
    # a negative scan bound is bad input, not an empty box
    for bounds, option in [(('--max-length', '-1'), '--max-length'),
                           (('--max-length', '2', '--mu-bound', '-3'),
                            '--mu-bound')]:
        code, out, err = run(capsys, 'scan', '--datum', 'sl2', *bounds)
        assert code == 1 and out == '', bounds
        assert err.startswith('usage error: argument ' + option), err


def count_calls(monkeypatch, cls, name):
    """Wrap the method cls.name on the class; return the call list."""
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize('error,code,head', [
    (KeyError, 3, 'internal error:'), (ValueError, 2, 'error: boom')])
def test_unexpected_library_exception_is_an_internal_error(
        capsys, monkeypatch, error, code, head):
    """A ValueError is a declared computation error, exit 2; any other
    exception of the library is a programming error, exit 3 with its
    traceback."""
    def fail(*args, **kwargs):
        raise error('boom')

    monkeypatch.setattr(Reduction, 'class_polynomials', fail)
    got, out, err = run(capsys, 'classpoly', '--datum', 'sl2', '--x',
                        '{"w": [1], "mu": [1]}')
    assert got == code and out == ''
    assert err.startswith(head), err
    assert (('Traceback' in err and "KeyError: 'boom'" in err)
            == (error is KeyError)), err


def test_scan_forms_one_newton_point_per_element(capsys, monkeypatch):
    """Each scan row's class, the class pct_characterize needs at x_min
    and the class of each new class key are read off element_class, which
    forms one twisted power per distinct element.  The rows' classes
    agree with element_class of x on a fresh context."""
    powers = count_calls(monkeypatch, BGInvariants, '_twisted_power')
    rows = run_json(capsys, 'scan', '--datum', 'gl3', '--max-length', '4',
                    '--mu-bound', '1')
    assert len(rows) == 127
    assert len(powers) == len(set(powers)) >= len(rows)
    monkeypatch.undo()
    ctx = Context('gl3')
    for row in rows:
        x = ctx.aw.parse_element(json.dumps(row['x']))
        assert row['class'] == ctx.bg.element_class(x).to_dict(), row['x']


def test_selftest_outside_a_checkout_names_the_missing_file(
        capsys, monkeypatch, tmp_path):
    """With no tests/ beside the package, selftest exits 1 naming the
    acceptance test file it looked for."""
    monkeypatch.setattr(cli, '__file__', str(tmp_path / 'src' / 'adlv'
                                             / 'cli.py'))
    code, out, err = run(capsys, 'selftest')
    missing = tmp_path.resolve() / 'tests' / 'test_acceptance.py'
    assert code == 1 and out == ''
    assert err.startswith('usage error: ') and str(missing) in err, err


def test_scan_deterministic(capsys):
    args = ('scan', '--datum', 'sl2', '--max-length', '3', '--mu-bound', '2')
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    rows = json.loads(out1)
    # one array, one row per line
    lines = out1.split('\n')
    assert lines[0] == '[' and lines[-2:] == [']', '']
    assert [json.loads(line.rstrip(',')) for line in lines[1:-2]] == rows
    lengths = [r['length'] for r in rows]
    assert lengths == sorted(lengths)
    assert all(r['length'] <= 3 for r in rows)


X_SL2 = '{"w": [1], "mu": [1]}'


@pytest.mark.parametrize('argv', [
    ('datum', 'validate', '--datum', 'sl3'),
    ('lp', '--datum', 'sl2', '--x', X_SL2),
    ('eta', '--datum', 'sl2', '--x', X_SL2),
    ('newton', '--datum', 'gl2', '--x', '{"w": [1], "mu": [1, 0]}'),
    ('kappa', '--datum', 'sl2', '--x', X_SL2),
    ('lambda', '--datum', 'gl3', '--x', '{"w": [], "mu": [0, 0, 1]}'),
    ('bgx', '--datum', 'sl2', '--x', X_SL2),
    ('classpoly', '--datum', 'sl2', '--x', X_SL2),
    ('tree', '--datum', 'sl2', '--x', X_SL2),
    ('qbg', 'dist', '--datum', 'sl3', '--source', '[]', '--target', '[1]'),
    ('qbg', 'weight', '--datum', 'sl3', '--source', '[1, 2, 1]',
     '--target', '[]'),
    ('pct', 'classify', '--datum', 'gl3', '--x',
     '{"w": [1], "mu": [0, 0, 0]}'),
    ('pct', 'report', '--datum', 'sl2', '--x', X_SL2),
    ('pct', 'endpoint', '--datum', 'sl2', '--x', X_SL2, '--kappa', '[0]',
     '--nu', '["0"]')], ids=lambda argv: '-'.join(argv[:argv.index('--datum')]))
def test_every_subcommand_prints_one_line_of_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out)) + '\n'


def test_scan_writes_each_row_before_forming_the_next(monkeypatch):
    """The scan runs pct_characterize once per row; when it runs for row
    k, rows 0 .. k - 1 are on stdout already."""
    out = io.StringIO()
    written = []
    characterize = PCT.pct_characterize

    def spy(self, x):
        written.append(out.getvalue().count('\n{'))
        return characterize(self, x)

    monkeypatch.setattr(PCT, 'pct_characterize', spy)
    with contextlib.redirect_stdout(out):
        code = main(['scan', '--datum', 'sl2', '--max-length', '3',
                     '--mu-bound', '2'])
    assert code == 0
    assert written == list(range(len(json.loads(out.getvalue()))))


def test_scan_failing_partway_leaves_the_rows_formed_so_far(capsys,
                                                            monkeypatch):
    """A scan that fails at its third row exits 2 with its first two rows
    on stdout and the array left open."""
    characterize = PCT.pct_characterize
    calls = []

    def fail_on_third(self, x):
        calls.append(x)
        if len(calls) == 3:
            raise ValueError('boom')
        return characterize(self, x)

    args = ('scan', '--datum', 'sl2', '--max-length', '3', '--mu-bound', '2')
    monkeypatch.setattr(PCT, 'pct_characterize', fail_on_third)
    code, out, err = run(capsys, *args)
    assert code == 2 and err == 'error: boom\n'
    monkeypatch.undo()
    assert json.loads(out + '\n]') == run_json(capsys, *args)[:2]


def test_reader_closing_the_pipe_exits_141():
    """A reader that stops early (``adlv scan ... | head -c 10``) is no
    internal error: exit 141 with nothing on stderr.  The scan prints
    about 253 kB, more than a pipe holds, so the writer is still writing
    when the read end closes."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / 'src'))
    proc = subprocess.Popen(
        [sys.executable, '-m', 'adlv.cli', 'scan', '--datum', 'gl3',
         '--max-length', '6', '--mu-bound', '2'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, err
    assert err == ''
