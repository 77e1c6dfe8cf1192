"""The benchmark workloads: seeded inputs, one call per item, oracles.

Each workload turns ``--seed`` into a fixed list of items before anything
is timed.  A pass builds a fresh per-datum stack (the timed set-up), then
runs every item once, in the seeded order, on that stack: a closed loop
with one client.  ``run`` is the timed call into the library; ``check``
runs afterwards, untimed, and returns the oracle mismatches and the
item's canonical output (digested and compared with ``digests.json``).

Elements are identified by their lexicographically least reduced word
and translation, never by internal element indices, so inputs and
digests survive a change in how the library enumerates W.
"""

import collections
import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

from adlv import cli, datum
from adlv.affine import AffineElement, AffineWeyl
from adlv.pct import PCT
from adlv.reduction import Reduction

# |W| of every built-in except e6_adjoint, the `datum validate` oracle
WEYL_ORDER = {'sl2': 2, 'pgl2': 2, 'gl2': 2, 'sl3': 6, 'pgl3': 6, 'gl3': 6,
              'sl3_flip': 6, 'gl4': 24, 'sl4': 24, 'sl4_flip': 24,
              'gl6': 720, 'sp4': 8, 'psp4': 8, 'so5': 8, 'g2': 12}


class Stack:
    """builtin_datum -> AffineWeyl (its WeylGroup) -> Reduction -> PCT (its
    QuantumBruhatGraph): the per-datum stack whose construction is
    ``setup_s``."""

    def __init__(self, name):
        self.aw = AffineWeyl(datum.builtin_datum(name))
        self.W = self.aw.W
        self.datum = self.aw.datum
        self.red = Reduction(self.aw)
        self.bg = self.red.bg
        self.pct = PCT(self.aw, self.red)

    def canonical_order(self):
        """Elements of W sorted by (length, least reduced word)."""
        W = self.W
        return sorted(range(W.size), key=lambda e: (W.lengths[e], W.words[e]))

    def box(self, bound, max_length):
        """Elements with |mu_i| <= bound and length <= max_length, sorted by
        (length, mu, word)."""
        aw, W = self.aw, self.W
        out = [AffineElement(w, mu)
               for mu in itertools.product(range(-bound, bound + 1),
                                           repeat=self.datum.dim)
               for w in range(W.size)
               if aw.aff_length(AffineElement(w, mu)) <= max_length]
        out.sort(key=lambda x: (aw.aff_length(x), x.mu, W.words[x.w]))
        return out

    # -- canonical JSON forms, the shapes the CLI prints ------------------

    def word(self, e):
        return [i + 1 for i in self.W.words[e]]

    def elem(self, x):
        return {'w': self.word(x.w), 'mu': [int(c) for c in x.mu]}

    def key(self, k):
        kappa, nu, lmin, canon = k
        return {'kappa': list(kappa), 'nu': [frac(c) for c in nu],
                'min_length': lmin, 'representative': self.elem(canon)}

    def polys(self, polys):
        return sorted_json([{'class_key': self.key(k), 'coefficients': list(p)}
                            for k, p in polys.items()])


def frac(c):
    return str(Fraction(c))


def cls(b):
    return {'kappa': list(b.kappa), 'nu': [frac(c) for c in b.nu]}


def sorted_json(rows):
    return sorted(rows, key=lambda r: json.dumps(r, sort_keys=True))


def item_key(obj):
    return json.dumps(obj, sort_keys=True, separators=(',', ':'))


def digest(obj):
    return hashlib.sha256(item_key(obj).encode()).hexdigest()[:16]


Item = collections.namedtuple('Item', 'key payload')


class Workload:
    """Seeded item list plus the per-pass stack, item call and oracles."""
    datum_name = None
    # weight of the Fraction probe in the host slowness that scales this
    # workload's times (see run.HostSpeed); the rest is the dict probe
    fraction_share = 0.5

    def __init__(self, seed, limit=None):
        self.rng = random.Random('%s:%d' % (self.name, seed))
        self.items = self.generate()[:limit]

    def setup(self):
        return Stack(self.datum_name)


class ScanGl3(Workload):
    """Every element of the gl3 box |mu_i| <= 2, length <= 6 (526 elements,
    492 of positive Coxeter type): one `adlv scan` row each, plus the
    thmA report and endpoint certificates when of positive Coxeter type
    (acceptance tests 3/4/9/10)."""
    name = 'scan_gl3'
    datum_name = 'gl3'

    def generate(self):
        gen = Stack(self.datum_name)
        items = [Item(item_key(gen.elem(x)),
                      (x, self.rng.randrange(1, 2 ** 31)))
                 for x in gen.box(2, 6)]
        self.rng.shuffle(items)
        return items

    def run(self, st, payload):
        x, branch_seed = payload
        pct = st.pct
        b = st.bg.element_class(x)
        flag, v = pct.pct_characterize(x)
        finite = pct.has_finite_coxeter_part(x)
        polys = st.red.class_polynomials(x, seed=branch_seed)
        pairs = pct.positive_coxeter_pairs(x)
        report, certs = None, []
        if pairs:
            report = pct.thmA_report(x, cross_validate=True)
            certs = [pct.endpoint_class(report['pair'], cd['class'],
                                        validate=True)
                     for cd in report['classes']]
        return b, flag, v, finite, polys, pairs, report, certs

    def check(self, st, payload, result):
        x, _ = payload
        b, flag, v, finite, polys, pairs, report, certs = result
        errors = []
        if flag != bool(pairs):
            errors.append('pct_characterize disagrees with pair existence')
        if flag and v not in st.aw.lp_set(x):
            errors.append('characterization witness is not length positive')
        if polys != st.red.class_polynomials(x):
            errors.append('seeded and default branch policies disagree')
        classes = []
        if report is not None:
            interval = {cd['class'] for cd in report['classes']}
            if interval != set(st.red.bgx_from_tree(x)):
                errors.append('thmA interval differs from the tree classes')
            classes = [{'class': cls(cd['class']), 'l_I': cd['l_i'],
                        'l_II': cd['l_ii'], 'dimension': cd['dimension'],
                        'endpoint_length': cd['endpoint_length'],
                        'endpoint_key': st.key(cert['key'])}
                       for cd, cert in zip(report['classes'], certs)]
        canon = {'x': st.elem(x), 'length': st.aw.aff_length(x),
                 'class': cls(b), 'positive_coxeter_type': flag,
                 'witness_v': None if v is None else st.word(v),
                 'finite_coxeter_part': finite,
                 'classpoly': st.polys(polys),
                 'pairs': len(pairs), 'classes': classes}
        return errors, canon


class Gl6Newton(Workload):
    """The A5 worked example tau_3 s_1 plus a sample of gl6 elements with
    mu in [-1, 1]^6, each through element_class, lp_set, eta_sigma and
    positive_coxeter_pairs."""
    name = 'gl6_newton'
    datum_name = 'gl6'
    # Fraction mat-vecs dominate, and its times track the Fraction probe
    fraction_share = 1.0
    # (least, most, basic, count): per sampled element, the number of
    # positive Coxeter candidates and whether its Newton point is central
    # (None: either).  Both move an item's cost, so every seed gets the same
    # mix, and the median and tail items fall inside one group, the 40
    # non-basic elements with k = 0.
    STRATA = ((0, 0, False, 40), (1, 1, None, 2), (2, 2, None, 1),
              (3, 3, None, 1))
    SUPPORTS = {frozenset({1, 2, 3, 5}), frozenset({1, 3, 4, 5})}

    def generate(self):
        gen = Stack(self.datum_name)
        aw, W = gen.aw, gen.W
        order = gen.canonical_order()
        picked = [[] for _ in self.STRATA]
        seen = set()
        for _ in range(20000):
            if all(len(p) == s[3] for p, s in zip(picked, self.STRATA)):
                break
            x = AffineElement(order[self.rng.randrange(W.size)],
                              tuple(self.rng.randint(-1, 1)
                                    for _ in range(6)))
            if x in seen:
                continue
            seen.add(x)
            k = sum(1 for v in aw.lp_set(x) if W.is_partial_sigma_coxeter(
                W.mult(W.inv[v], W.sigma(W.mult(x.w, v)))))
            basic = None
            for p, (lo, hi, want, count) in zip(picked, self.STRATA):
                if not (lo <= k <= hi and len(p) < count):
                    continue
                if want is not None and basic is None:
                    basic = self._basic(aw, x)
                if want is None or want == basic:
                    p.append((x, k, False))
                    break
        else:
            raise RuntimeError('gl6 strata not filled')
        sample = [t for p in picked for t in p]
        self.rng.shuffle(sample)
        mu = (0, 0, 0, 1, 1, 1)
        tau3 = next(AffineElement(w, mu) for w in order
                    if aw.aff_length(AffineElement(w, mu)) == 0)
        x = aw.mult(tau3, aw.from_weyl(W.simple[0]))
        sample.append((x, None, True))
        return [Item(item_key(gen.elem(t[0])), t) for t in sample]

    @staticmethod
    def _basic(aw, x):
        """Whether the Newton point of x is central (sigma is trivial on
        gl6): multiply out x^k until the Weyl part is trivial; the
        translation part is then k times the Newton point."""
        p = x
        while p.w != 0:
            p = aw.mult(p, x)
        return len(set(p.mu)) == 1

    def run(self, st, payload):
        x = payload[0]
        return (st.bg.element_class(x), st.aw.lp_set(x), st.aw.eta_sigma(x),
                st.pct.positive_coxeter_pairs(x))

    def check(self, st, payload, result):
        x, k, worked_example = payload
        b, lp, eta, pairs = result
        errors = []
        if worked_example:
            supports = {frozenset(i + 1 for i in p.J) for p in pairs}
            if supports != self.SUPPORTS:
                errors.append('tau3 s1 supports %r' % sorted(map(sorted,
                                                                 supports)))
        elif len(pairs) != k:
            errors.append('%d pairs, generator counted %d' % (len(pairs), k))
        if any(p.v not in lp for p in pairs):
            errors.append('pair v outside LP(x)')
        if not st.datum.is_dominant(b.nu):
            errors.append('Newton point not dominant')
        canon = {'x': st.elem(x), 'class': cls(b),
                 'lp': [st.word(v) for v in lp], 'eta': st.word(eta),
                 'pairs': [{'v': st.word(p.v), 'J': sorted(i + 1 for i in p.J),
                            'c': [i + 1 for i in p.c_word]} for p in pairs]}
        return errors, canon


class ClasspolySl4(Workload):
    """The sl4 box mu in [-1, 1]^3, length <= 8 (321 elements), in seeded
    order: class polynomials under the default branch policy and seeds
    1, 2, 3 (acceptance test 5)."""
    name = 'classpoly_sl4'
    datum_name = 'sl4'
    BRANCH_SEEDS = (None, 1, 2, 3)

    def generate(self):
        gen = Stack(self.datum_name)
        items = gen.box(1, 8)
        self.rng.shuffle(items)
        return [Item(item_key(gen.elem(x)), x) for x in items]

    def run(self, st, x):
        return [st.red.class_polynomials(x, seed=s) for s in self.BRANCH_SEEDS]

    def check(self, st, x, result):
        errors = ['branch seed %s disagrees with the default policy' % s
                  for s, p in zip(self.BRANCH_SEEDS[1:], result[1:])
                  if p != result[0]]
        return errors, {'x': st.elem(x), 'classpoly': st.polys(result[0])}


class CliCold(Workload):
    """In-process `adlv` calls, each building a fresh context: `datum
    validate` on the 15 small built-ins, each of eight element and QBG
    subcommands twice on each small datum of ``POOL``, and `scan --datum
    sp4 --max-length 6`.
    e6_adjoint is left out: building W(E6) cold takes about 88 s."""
    name = 'cli_cold'
    POOL = ('sl2', 'gl2', 'sl3', 'gl3', 'sp4', 'g2', 'sl3_flip')
    KINDS = (('lp',), ('newton',), ('lambda',), ('classpoly',), ('tree',),
             ('pct', 'classify'), ('pct', 'report'), ('qbg', 'weight'))
    SCAN = ('scan', '--datum', 'sp4', '--max-length', '6')
    LENGTH = 4
    PER_DATUM = 2       # calls of each subcommand on each datum of POOL

    def setup(self):
        return {name: Stack(name) for name in self.POOL}

    def generate(self):
        self._answers = {}
        gen = {name: Stack(name) for name in self.POOL}
        argvs = [('datum', 'validate', '--datum', n) for n in WEYL_ORDER]
        for kind in self.KINDS:
            for name in self.POOL * self.PER_DATUM:
                st = gen[name]
                if kind == ('qbg', 'weight'):
                    order = st.canonical_order()
                    src, dst = (json.dumps(st.word(self.rng.choice(order)))
                                for _ in range(2))
                    argvs.append(kind + ('--datum', name, '--source', src,
                                         '--target', dst))
                    continue
                x = self._element(st, kind == ('pct', 'report'))
                argvs.append(kind + ('--datum', name, '--x',
                                     json.dumps(st.elem(x))))
        argvs.append(self.SCAN)
        self.rng.shuffle(argvs)
        return [Item(' '.join(a), list(a)) for a in argvs]

    def _element(self, st, positive_coxeter):
        """A seeded element with mu in [-1, 1]^dim of the greatest length
        up to ``LENGTH`` that the datum has: the call's cost grows with
        the length, so every seed gets the same lengths."""
        cands = [AffineElement(w, mu)
                 for mu in itertools.product((-1, 0, 1),
                                             repeat=st.datum.dim)
                 for w in st.canonical_order()]
        cands = [x for x in cands if st.aw.aff_length(x) <= self.LENGTH
                 and (not positive_coxeter
                      or st.pct.positive_coxeter_pairs(x))]
        longest = max(map(st.aw.aff_length, cands))
        return self.rng.choice([x for x in cands
                                if st.aw.aff_length(x) == longest])

    def run(self, st, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, st, argv, result):
        code, out, err = result
        if code != 0:
            return ['exit code %d: %s' % (code, err.strip())], None
        got = json.loads(out)
        key = ' '.join(argv)
        if key not in self._answers:
            self._answers[key] = self._answer(st, argv)
        want = self._answers[key]
        got = self._comparable(argv, got)
        errors = [] if got == want else ['CLI JSON differs from the library']
        return errors, got

    @staticmethod
    def _opt(argv, flag):
        return argv[argv.index(flag) + 1]

    def _comparable(self, argv, got):
        """The CLI output with order-free lists sorted."""
        if argv[0] in ('classpoly',):
            return sorted_json(got)
        if argv[0] == 'tree':
            return dict(got, classes=sorted_json(got['classes']))
        if argv[0] == 'pct' and argv[1] == 'report':
            return {'num_pairs': got['num_pairs'],
                    'classes': sorted_json([{k: c[k] for k in
                                             ('class', 'l_I', 'l_II',
                                              'dimension')}
                                            for c in got['classes']])}
        if argv[0] == 'scan':
            return [dict(r, classpoly=sorted_json(r['classpoly']))
                    for r in got]
        return got

    def _answer(self, stacks, argv):
        """The library's answer in the CLI's JSON shape."""
        name = self._opt(argv, '--datum')
        if argv[0] == 'datum':
            info = json.loads(json.dumps(datum.builtin_datum(name).describe()))
            info['weyl_order'] = WEYL_ORDER[name]
            return info
        st = stacks[name]
        aw, bg, pct = st.aw, st.bg, st.pct
        if argv[0] == 'scan':
            rows = []
            for x in st.box(int(self._opt(argv, '--max-length')),
                            int(self._opt(argv, '--max-length'))):
                flag = bool(pct.positive_coxeter_pairs(x))
                rows.append({
                    'x': st.elem(x), 'length': aw.aff_length(x),
                    'class': cls(bg.element_class(x)),
                    'positive_coxeter_type': flag,
                    'finite_coxeter_part': pct.has_finite_coxeter_part(x),
                    'classpoly': st.polys(st.red.class_polynomials(x))})
            return rows
        if argv[0] == 'qbg':
            W = st.W
            src, dst = (W.from_word([i - 1 for i in json.loads(
                self._opt(argv, flag))]) for flag in ('--source', '--target'))
            dist, wt = pct.qbg.distance_weight(src, dst)
            vec = [0] * st.datum.dim
            for c, g in zip(wt, st.datum.simple_coroots):
                vec = [a + c * b for a, b in zip(vec, g)]
            return {'distance': dist, 'weight_coords': list(wt),
                    'weight': vec}
        x = aw.parse_element(self._opt(argv, '--x'))
        if argv[0] == 'lp':
            return {'lp': [st.word(v) for v in aw.lp_set(x)]}
        if argv[0] == 'newton':
            raw, dom = bg.newton_of_element(x)
            return {'nu_raw': [frac(c) for c in raw],
                    'nu': [frac(c) for c in dom]}
        if argv[0] == 'lambda':
            b = bg.element_class(x)
            res, lam = bg.lambda_invariant(b)
            return {'class': cls(b), 'lambda_residue': list(res),
                    'lambda_lift': list(lam), 'defect': bg.defect(b)}
        if argv[0] == 'classpoly':
            return st.polys(st.red.class_polynomials(x))
        if argv[0] == 'tree':
            tree = st.red.build_reduction_tree(x)
            return {'leaves': [st.elem(leaf.x) for leaf in tree.leaves()],
                    'classes': st.polys(st.red.class_polynomials(x,
                                                                 tree=tree))}
        pairs = pct.positive_coxeter_pairs(x)
        if argv[1] == 'classify':
            flag, v = pct.pct_characterize(x)
            if flag != bool(pairs):
                flag = None  # the library disagrees with itself
            return {'x': st.elem(x), 'positive_coxeter_type': flag,
                    'witness_v': None if v is None else st.word(v),
                    'finite_coxeter_part': pct.has_finite_coxeter_part(x)}
        report = pct.thmA_report(x, cross_validate=False)
        return {'num_pairs': len(pairs),
                'classes': sorted_json([
                    {'class': cls(cd['class']), 'l_I': cd['l_i'],
                     'l_II': cd['l_ii'], 'dimension': cd['dimension']}
                    for cd in report['classes']])}


WORKLOADS = {w.name: w for w in (ScanGl3, Gl6Newton, ClasspolySl4, CliCold)}
