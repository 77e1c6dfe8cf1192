"""Command line interface.

Subcommands: ``datum validate``, ``lp``, ``eta``, ``qbg dist|weight|dot``,
``newton``, ``kappa``, ``lambda``, ``bgx``, ``tree``, ``classpoly``,
``pct classify|report|endpoint``, ``scan``, ``selftest``.

Exit codes: 0 success, 1 usage error, 2 computation error (a
``ValueError``), 3 violated internal invariant or internal error (any
other exception, with its traceback), 141 output pipe closed by its
reader (128 + SIGPIPE, as a shell reports a pipe writer).  An
``adlv.InvariantError`` prints ``invariant violation: datum '<name>':
<what failed>``, then ``, for x = <--x JSON>``, ``, for the class kappa
= (...), nu = (...)`` or both joined by ``and``; Weyl group elements in
it are 1-based words.

Each call prints one JSON document on one line, or DOT for a graph.
``scan`` streams its array one row per line, so a scan that fails
partway leaves the rows formed so far on stdout.  Rationals print as
"p/q" strings, polynomials as coefficient arrays lowest degree first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bg import BGClass
from .context import Context
from .datum import BUILTIN_DATA

__all__ = ['main']


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _frac_str(x):
    return str(Fraction(x))


def _datum_arg(value):
    if value in BUILTIN_DATA or os.path.isfile(value):
        return value
    raise argparse.ArgumentTypeError(
        'unknown datum %r: not a built-in name (%s) nor a JSON file'
        % (value, ', '.join(BUILTIN_DATA)))


def _count_arg(value):
    """A nonnegative integer option value."""
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(
            'must be a nonnegative integer, got %r' % value)
    return int(value)


def _build_parser():
    p = _Parser(prog='adlv', description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest='command', required=True)

    def with_datum(sp):
        sp.add_argument('--datum', required=True, type=_datum_arg,
                        help='built-in datum name or JSON file path')
        return sp

    def with_x(sp):
        sp.add_argument('--x', required=True,
                        help='element as {"w": [...], "mu": [...]} '
                             '(1-based word letters)')
        return sp

    datum = sub.add_parser('datum').add_subparsers(dest='datum_cmd',
                                                   required=True)
    with_datum(datum.add_parser('validate'))

    for name in ('lp', 'eta', 'newton', 'kappa', 'lambda', 'bgx',
                 'classpoly'):
        with_x(with_datum(sub.add_parser(name)))
    tree = with_x(with_datum(sub.add_parser('tree')))
    tree.add_argument('--format', choices=['json', 'dot'], default='json')
    tree.add_argument('--seed', type=int, default=None)

    qbg = sub.add_parser('qbg').add_subparsers(dest='qbg_cmd', required=True)
    for name in ('dist', 'weight'):
        q = with_datum(qbg.add_parser(name))
        q.add_argument('--source', required=True,
                       help='word as JSON list, 1-based')
        q.add_argument('--target', required=True)
    with_datum(qbg.add_parser('dot'))

    pct = sub.add_parser('pct').add_subparsers(dest='pct_cmd', required=True)
    with_x(with_datum(pct.add_parser('classify')))
    with_x(with_datum(pct.add_parser('report')))
    ep = with_x(with_datum(pct.add_parser('endpoint')))
    ep.add_argument('--kappa', required=True, help='kappa residue JSON list')
    ep.add_argument('--nu', required=True,
                    help='Newton point as JSON list of "p/q" strings')

    scan = with_datum(sub.add_parser('scan'))
    scan.add_argument('--max-length', type=_count_arg, required=True)
    scan.add_argument('--mu-bound', type=_count_arg, default=None,
                      help='coordinate box bound for mu (default: the '
                           'length bound)')
    scan.add_argument('--seed', type=int, default=None)

    sub.add_parser('selftest')
    return p


def _element(ctx, text):
    """The --x element; malformed input is a usage error."""
    try:
        return ctx.aw.parse_element(text)
    except ValueError as e:
        raise _Usage('--x: %s' % e) from None


def _json(text, option):
    try:
        return json.loads(text)
    except ValueError as e:
        raise _Usage('%s is not JSON: %s' % (option, e)) from None


def _word(ctx, text, option):
    """The Weyl group element of a --source or --target word."""
    try:
        return ctx.W.parse_word(_json(text, option), option)
    except ValueError as e:
        raise _Usage(str(e)) from None


def _vector(text, option, dim, rational=False):
    """A JSON list of dim integers, or of dim rationals (integers or
    "p/q" strings) when ``rational``."""
    value = _json(text, option)
    kinds = (int, str) if rational else (int,)
    if isinstance(value, list) and len(value) == dim and all(
            type(c) in kinds for c in value):
        try:
            return tuple(Fraction(c) if rational else c for c in value)
        except (ValueError, ZeroDivisionError):
            pass
    raise _Usage('%s must be a list of %d %s, got %s'
                 % (option, dim, 'rationals' if rational else 'integers', text))


def _selftest():
    import subprocess
    from pathlib import Path
    tests = Path(__file__).resolve().parents[2] / 'tests/test_acceptance.py'
    if not tests.is_file():
        raise _Usage('selftest runs %s, which is not there: it needs a '
                     'source checkout' % tests)
    return subprocess.call([sys.executable, '-m', 'pytest', '-q', str(tests)])


def _run(args):
    """What the call prints: a JSON value, DOT text or the scan's rows."""
    ctx = Context(args.datum)
    try:
        ctx.datum
    except ValueError as e:
        # a JSON datum with a singular or non-unimodular matrix, say
        raise _Usage('--datum: %s' % e) from None

    if args.command == 'datum':
        return dict(ctx.datum.describe(), weyl_order=ctx.W.size)

    if args.command == 'qbg':
        if args.qbg_cmd == 'dot':
            return ctx.qbg.to_dot()
        src = _word(ctx, args.source, '--source')
        dst = _word(ctx, args.target, '--target')
        dist, wt = ctx.qbg.distance_weight(src, dst)
        if args.qbg_cmd == 'dist':
            return {'distance': dist}
        return {'distance': dist, 'weight_coords': list(wt),
                'weight': list(ctx.qbg.weight_vector(wt))}

    if args.command == 'pct':
        x = _element(ctx, args.x)
        pct = ctx.pct
        if args.pct_cmd == 'classify':
            flag, v = pct.pct_characterize(x)
            return {
                'x': ctx.aw.element_to_dict(x),
                'positive_coxeter_type': flag,
                'witness_v': None if v is None
                else [i + 1 for i in pct.W.words[v]],
                'finite_coxeter_part': pct.has_finite_coxeter_part(x),
            }
        # report and endpoint are defined on positive Coxeter type only
        if not pct.is_positive_coxeter(x):
            raise _Usage('--x: x is not of positive Coxeter type')
        if args.pct_cmd == 'report':
            return _report_dict(ctx, pct.thmA_report(x))
        # endpoint
        dim, kottwitz = ctx.datum.dim, ctx.bg.kottwitz
        kappa = _vector(args.kappa, '--kappa', dim)
        if kottwitz.project(kottwitz.lift(kappa)) != kappa:
            raise _Usage('--kappa must be a reduced Kottwitz residue, '
                         'got %s' % args.kappa)
        b = BGClass.from_nu(kappa,
                            _vector(args.nu, '--nu', dim, rational=True))
        pair = pct.positive_coxeter_pairs(x)[0]
        interval = sorted(pct.bgx_interval(pair))
        if b not in interval:
            raise _Usage('--kappa/--nu: the class is not in the interval of '
                         'x, whose classes are %s'
                         % json.dumps([c.to_dict() for c in interval]))
        ep = pct.endpoint_class(pair, b)
        return {
            'c_prime': [i + 1 for i in pct.W.words[ep['c_prime']]],
            'lambda': list(ep['lambda']),
            'endpoint': ctx.aw.element_to_dict(ep['endpoint']),
            'class_key': _key_dict(ctx, ep['key']),
        }

    if args.command == 'scan':
        return _scan_rows(ctx, args)

    x = _element(ctx, args.x)
    aw, W = ctx.aw, ctx.W

    if args.command == 'lp':
        return {'lp': [[i + 1 for i in W.words[v]] for v in aw.lp_set(x)]}
    if args.command == 'eta':
        eta = aw.eta_sigma(x)
        return {'eta': [i + 1 for i in W.words[eta]],
                'length': W.lengths[eta]}
    if args.command == 'newton':
        raw, dom = ctx.bg.newton_of_element(x)
        return {'nu_raw': [_frac_str(c) for c in raw],
                'nu': [_frac_str(c) for c in dom]}
    if args.command == 'kappa':
        return {'kappa': list(ctx.bg.kottwitz_point(x))}
    if args.command == 'lambda':
        b = ctx.bg.element_class(x)
        res, lam = ctx.bg.lambda_invariant(b)
        return {'class': b.to_dict(), 'lambda_residue': list(res),
                'lambda_lift': list(lam), 'defect': ctx.bg.defect(b)}
    if args.command == 'bgx':
        data = ctx.red.bgx_from_tree(x)
        return [{'class': b.to_dict(),
                 'paths': [list(pth) for pth in e['paths']],
                 'polynomial': list(e['polynomial'])}
                for b, e in sorted(data.items())]
    if args.command == 'classpoly':
        return _poly_rows(ctx, ctx.red.class_polynomials(x))
    # tree
    tree = ctx.red.build_reduction_tree(x, seed=args.seed)
    if args.format == 'dot':
        return ctx.red.tree_to_dot(tree)
    polys = ctx.red.class_polynomials(x, tree=tree)
    return {
        'leaves': [ctx.aw.element_to_dict(leaf.x) for leaf in tree.leaves()],
        'classes': _poly_rows(ctx, polys),
    }


def _write(out, doc):
    """Print DOT text as it is, a JSON value on one line (``json.dump``
    would run the pure-Python encoder), and scan rows as a JSON array,
    one row per line, each flushed as soon as it is formed."""
    if isinstance(doc, str):
        out.write(doc + '\n')
    elif isinstance(doc, (dict, list)):
        out.write(json.dumps(doc) + '\n')
    else:
        out.write('[')
        for i, row in enumerate(doc):
            out.write((',\n' if i else '\n') + json.dumps(row))
            out.flush()
        out.write('\n]\n')
    out.flush()


def _key_dict(ctx, key):
    kappa, nu, lmin, canon = key
    return {'kappa': list(kappa), 'nu': [_frac_str(c) for c in nu],
            'min_length': lmin,
            'representative': ctx.aw.element_to_dict(canon)}


def _poly_rows(ctx, polys):
    """Class polynomials as output rows, sorted by class key."""
    return [{'class_key': _key_dict(ctx, k), 'coefficients': list(p)}
            for k, p in sorted(polys.items())]


def _report_dict(ctx, report):
    aw, W = ctx.aw, ctx.W
    pair = report['pair']
    return {
        'x': aw.element_to_dict(report['x']),
        'pair': {'v': [i + 1 for i in W.words[pair.v]],
                 'J': sorted(i + 1 for i in pair.J),
                 'c': [i + 1 for i in pair.c_word]},
        'num_pairs': len(report['pairs']),
        'b_min': report['b_min'].to_dict(),
        'b_max': report['b_max'].to_dict(),
        'lambda_max': list(report['lambda_max']),
        'classes': [{
            'class': cd['class'].to_dict(),
            'witness': {str(j + 1): k for j, k in cd['witness'].items()},
            'l_I': cd['l_i'], 'l_II': cd['l_ii'],
            'endpoint_support': sorted(i + 1
                                       for i in cd['endpoint_support']),
            'endpoint_length': cd['endpoint_length'],
            'dimension': cd['dimension'],
        } for cd in report['classes']],
    }


def _scan_rows(ctx, args):
    aw, pct = ctx.aw, ctx.pct
    bound = args.mu_bound if args.mu_bound is not None else args.max_length
    for x in aw.box_elements(bound, args.max_length):
        flag, v = pct.pct_characterize(x)
        yield {
            'x': aw.element_to_dict(x),
            'length': aw.aff_length(x),
            'class': ctx.bg.element_class(x).to_dict(),
            'positive_coxeter_type': flag,
            'finite_coxeter_part': pct.has_finite_coxeter_part(x),
            'classpoly': _poly_rows(
                ctx, ctx.red.class_polynomials(x, seed=args.seed)),
        }


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as e:
        print('usage error: %s' % e, file=sys.stderr)
        return 1
    try:
        if args.command == 'selftest':
            return _selftest()
        _write(sys.stdout, _run(args))
        return 0
    except BrokenPipeError:
        # the reader closed the pipe early (``adlv scan ... | head``);
        # stdout goes to devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except AssertionError as e:
        print('invariant violation: %s' % e, file=sys.stderr)
        return 3
    except _Usage as e:
        print('usage error: %s' % e, file=sys.stderr)
        return 1
    except ValueError as e:
        print('error: %s' % e, file=sys.stderr)
        return 2
    except Exception:
        import traceback    # here only, off every call's import path
        print('internal error:', file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == '__main__':
    sys.exit(main())
