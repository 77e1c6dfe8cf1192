"""Command line interface.

Subcommands: ``datum validate``, ``lp``, ``eta``, ``qbg dist|weight|dot``,
``newton``, ``kappa``, ``lambda``, ``bgx``, ``tree``, ``classpoly``,
``pct classify|report|endpoint``, ``scan``, ``selftest``.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 violated
internal invariant.  Rationals are printed as "p/q" strings, polynomials
as coefficient arrays lowest degree first, graphs as DOT.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .context import Context

__all__ = ['main']


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _frac_str(x):
    return str(Fraction(x))


def _build_parser():
    p = _Parser(prog='adlv', description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest='command', required=True)

    def with_datum(sp):
        sp.add_argument('--datum', required=True,
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
    scan.add_argument('--max-length', type=int, required=True)
    scan.add_argument('--mu-bound', type=int, default=None,
                      help='coordinate box bound for mu (default: derived '
                           'from the length bound)')
    scan.add_argument('--seed', type=int, default=None)

    sub.add_parser('selftest')
    return p


def _weyl_word(text):
    return [i - 1 for i in json.loads(text)]


def _run(args, out):
    if args.command == 'selftest':
        import subprocess
        from pathlib import Path
        tests = Path(__file__).resolve().parents[2] / 'tests' \
            / 'test_acceptance.py'
        code = subprocess.call([sys.executable, '-m', 'pytest', '-q',
                                str(tests)])
        return code

    ctx = Context(args.datum)

    if args.command == 'datum':
        info = ctx.datum.describe()
        info['weyl_order'] = ctx.W.size
        json.dump(info, out, indent=2)
        out.write('\n')
        return 0

    if args.command == 'qbg':
        W = ctx.W
        if args.qbg_cmd == 'dot':
            out.write(ctx.qbg.to_dot() + '\n')
            return 0
        src = W.from_word(_weyl_word(args.source))
        dst = W.from_word(_weyl_word(args.target))
        dist, wt = ctx.qbg.distance_weight(src, dst)
        if args.qbg_cmd == 'dist':
            json.dump({'distance': dist}, out)
        else:
            json.dump({'distance': dist, 'weight_coords': list(wt),
                       'weight': list(ctx.qbg.weight_vector(wt))}, out)
        out.write('\n')
        return 0

    if args.command == 'pct':
        x = ctx.aw.parse_element(args.x)
        pct = ctx.pct
        if args.pct_cmd == 'classify':
            flag, v = pct.pct_characterize(x)
            json.dump({
                'x': ctx.aw.element_to_dict(x),
                'positive_coxeter_type': flag,
                'witness_v': None if v is None
                else [i + 1 for i in pct.W.words[v]],
                'finite_coxeter_part': pct.has_finite_coxeter_part(x),
            }, out, indent=2)
            out.write('\n')
            return 0
        if args.pct_cmd == 'report':
            json.dump(_report_dict(ctx, pct.thmA_report(x)), out, indent=2)
            out.write('\n')
            return 0
        # endpoint
        from .bg import BGClass
        kappa = tuple(json.loads(args.kappa))
        nu = tuple(Fraction(s) for s in json.loads(args.nu))
        b = BGClass(kappa, nu)
        pair = pct.positive_coxeter_pairs(x)[0]
        ep = pct.endpoint_class(pair, b)
        json.dump({
            'c_prime': [i + 1 for i in pct.W.words[ep['c_prime']]],
            'lambda': list(ep['lambda']),
            'endpoint': ctx.aw.element_to_dict(ep['endpoint']),
            'class_key': _key_dict(ctx, ep['key']),
        }, out, indent=2)
        out.write('\n')
        return 0

    if args.command == 'scan':
        return _scan(ctx, args, out)

    x = ctx.aw.parse_element(args.x)
    aw, W = ctx.aw, ctx.W

    if args.command == 'lp':
        json.dump({'lp': [[i + 1 for i in W.words[v]]
                          for v in aw.lp_set(x)]}, out)
    elif args.command == 'eta':
        eta = aw.eta_sigma(x)
        json.dump({'eta': [i + 1 for i in W.words[eta]],
                   'length': W.lengths[eta]}, out)
    elif args.command == 'newton':
        raw, dom = ctx.bg.newton_of_element(x)
        json.dump({'nu_raw': [_frac_str(c) for c in raw],
                   'nu': [_frac_str(c) for c in dom]}, out)
    elif args.command == 'kappa':
        json.dump({'kappa': list(ctx.bg.kottwitz_point(x))}, out)
    elif args.command == 'lambda':
        b = ctx.bg.element_class(x)
        res, lam = ctx.bg.lambda_invariant(b)
        json.dump({'class': b.to_dict(), 'lambda_residue': list(res),
                   'lambda_lift': list(lam),
                   'defect': ctx.bg.defect(b)}, out)
    elif args.command == 'bgx':
        data = ctx.red.bgx_from_tree(x)
        json.dump([{'class': b.to_dict(),
                    'paths': [list(pth) for pth in e['paths']],
                    'polynomial': list(e['polynomial'])}
                   for b, e in sorted(data.items())], out, indent=2)
    elif args.command == 'classpoly':
        polys = ctx.red.class_polynomials(x)
        json.dump([{'class_key': _key_dict(ctx, k),
                    'coefficients': list(p)}
                   for k, p in sorted(polys.items())], out, indent=2)
    elif args.command == 'tree':
        tree = ctx.red.build_reduction_tree(x, seed=args.seed)
        if args.format == 'dot':
            out.write(ctx.red.tree_to_dot(tree) + '\n')
            return 0
        polys = ctx.red.class_polynomials(x, tree=tree)
        json.dump({
            'leaves': [ctx.aw.element_to_dict(leaf.x)
                       for leaf in tree.leaves()],
            'classes': [{'class_key': _key_dict(ctx, k),
                         'coefficients': list(p)}
                        for k, p in sorted(polys.items())],
        }, out, indent=2)
    out.write('\n')
    return 0


def _key_dict(ctx, key):
    kappa, nu, lmin, canon = key
    return {'kappa': list(kappa), 'nu': [_frac_str(c) for c in nu],
            'min_length': lmin,
            'representative': ctx.aw.element_to_dict(canon)}


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


def _scan(ctx, args, out):
    aw, pct = ctx.aw, ctx.pct
    bound = args.mu_bound if args.mu_bound is not None else args.max_length
    rows = []
    for x in aw.box_elements(bound, args.max_length):
        b = ctx.bg.element_class(x)
        flag, v = pct.pct_characterize(x)
        row = {
            'x': aw.element_to_dict(x),
            'length': aw.aff_length(x),
            'class': b.to_dict(),
            'positive_coxeter_type': flag,
            'finite_coxeter_part': pct.has_finite_coxeter_part(x),
            'classpoly': [
                {'class_key': _key_dict(ctx, k), 'coefficients': list(p)}
                for k, p in sorted(
                    ctx.red.class_polynomials(x, seed=args.seed).items())],
        }
        rows.append(row)
    json.dump(rows, out, indent=2)
    out.write('\n')
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as e:
        print('usage error: %s' % e, file=sys.stderr)
        return 1
    try:
        return _run(args, sys.stdout)
    except AssertionError as e:
        print('invariant violation: %s' % e, file=sys.stderr)
        return 3
    except (_Usage,) as e:
        print('usage error: %s' % e, file=sys.stderr)
        return 1
    except Exception as e:
        print('error: %s' % e, file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
