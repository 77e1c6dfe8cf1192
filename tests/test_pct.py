"""Positive Coxeter pairs, intervals, J-points, endpoints, converses."""

import itertools
import json
import re
from fractions import Fraction

import pytest

from adlv.affine import AffineElement, AffineWeyl
from adlv.bg import BGClass
from adlv.cli import main
from adlv.context import Context
from adlv.datum import InvariantError, builtin_datum, diagram_components
from adlv.lattice import (QuotientPresentation, _column_snf, solve_in_cone,
                          solve_integer_combination, vec_add, vec_dot,
                          vec_scale, vec_sub)
from adlv.pct import (PCT, PositiveCoxeterPair, _budget_tuples,
                      count_positive_roots, very_special_subsets)
from adlv import reduction
from adlv.reduction import Reduction

from test_affine import gl6_sample
from test_datum import pi_projection_oracle, typed
from test_reduction import count_calls, paths_by_recursion, tree_by_recursion
from test_weyl import coxeter_conjugator, matrix_bfs_tables, parabolic


@pytest.fixture(scope='module')
def pct2():
    return PCT(AffineWeyl(builtin_datum('sl2')))


@pytest.fixture(scope='module')
def pct3():
    return PCT(AffineWeyl(builtin_datum('sl3')))


@pytest.fixture(scope='module')
def pct4():
    return PCT(AffineWeyl(builtin_datum('sl4')))


def test_sl2_report(pct2):
    x = AffineElement(1, (1,))                # s1 eps^{alpha^vee}
    report = pct2.thmA_report(x)              # cross-validates the tree
    assert [(p.v, sorted(p.J)) for p in report['pairs']] == [(0, [0])]
    stats = {(c['l_i'], c['l_ii'], c['endpoint_length'], c['dimension'])
             for c in report['classes']}
    assert stats == {(1, 0, 2, 1), (0, 1, 1, 2)}
    assert report['b_min'].nu == (0,)
    assert report['b_max'].nu == (1,)
    assert report['lambda_max'] == (1,)
    for c in report['classes']:
        assert all(k >= 0 for k in c['witness'].values())


def test_pct_transport(pct2):
    x = AffineElement(1, (1,))
    pair = pct2.positive_coxeter_pairs(x)[0]
    kinds = {}
    for a in pct2.aw.simple_affine:
        _, kind, _ = pct2.aw.simple_sigma_conjugate(x, a)
        if kind == 'up':
            with pytest.raises(ValueError):
                pct2.pct_transport(pair, a)
            continue
        res = pct2.pct_transport(pair, a)
        kinds[a] = res[0]
        if res[0] == 'down':
            _, pair_i, pair_ii, i = res
            assert pair_i.J < pair.J
            assert pair_ii.J == pair.J
            assert i in pair.J
        else:
            assert res[1].J == pair.J
    assert 'down' in kinds.values()


def pct_transport_two_searches(pct, pair, aroot):
    """Oracle: pct_transport with a separate search in the keep and the
    type II branch, each candidate tested by make_pair (which recomputes
    the LP set)."""
    aw, W = pct.aw, pct.W
    x = pair.x
    both, kind, left = aw.simple_sigma_conjugate(x, aroot)
    s_sigma_alpha = W.root_reflection[pct.datum.sigma_root(aroot[0])]
    assert kind != 'up'
    if kind == 'keep':
        for v2 in (pair.v, W.mult(s_sigma_alpha, pair.v)):
            p2 = pct.make_pair(both, v2)
            if p2 is not None and p2.J == pair.J:
                return ('keep', p2)
        for v2 in aw.lp_set(both):
            p2 = pct._pair(both, v2)
            if p2 is not None and p2.J == pair.J:
                return ('keep', p2)
        raise AssertionError('length-preserving move lost the support')
    pair_i = pct.make_pair(left, pair.v)
    if pair_i is None:
        pair_i = next((p for p in pct.positive_coxeter_pairs(left)
                       if p.J < pair.J), None)
    assert pair_i is not None and pair_i.J < pair.J
    pair_ii = pct.make_pair(both, W.mult(s_sigma_alpha, pair.v))
    if pair_ii is None or pair_ii.J != pair.J:
        for v2 in aw.lp_set(both):
            p2 = pct._pair(both, v2)
            if p2 is not None and p2.J == pair.J:
                pair_ii = p2
                break
    assert pair_ii is not None and pair_ii.J == pair.J
    return ('down', pair_i, pair_ii, min(pair.J - pair_i.J))


@pytest.mark.parametrize('name,bound,max_len', [
    ('sl2', 3, 8), ('sl3', 2, 6), ('gl3', 2, 6), ('sp4', 2, 6),
    ('g2', 2, 6), ('sl3_flip', 2, 6), ('pgl3', 2, 6), ('psp4', 2, 6),
    ('so5', 2, 6), ('sl4_flip', 1, 6)])
def test_pct_transport_matches_two_searches(name, bound, max_len):
    """Every keep and down transport of every pair on the box."""
    pct = PCT(AffineWeyl(builtin_datum(name)))
    aw = pct.aw
    for x in aw.box_elements(bound, max_len):
        for pair in pct.positive_coxeter_pairs(x):
            for a in aw.simple_affine:
                if aw.simple_sigma_conjugate(x, a)[1] == 'up':
                    continue
                assert (pct.pct_transport(pair, a)
                        == pct_transport_two_searches(pct, pair, a)), (x, a)


@pytest.mark.parametrize('entry', ['positive_coxeter_pairs', 'make_pair',
                                   'is_positive_coxeter'])
def test_pair_support_error_names_datum_element_and_v(entry, monkeypatch):
    """Every way to form a pair checks I_1 <= J <= I(nu) of its minimal
    class."""
    pct = PCT(AffineWeyl(builtin_datum('sl2')))
    x = AffineElement(1, (1,))
    args = (x, 0) if entry == 'make_pair' else (x,)
    monkeypatch.setattr(pct.bg, 'strata_sets',
                        lambda b: (frozenset(), frozenset()))
    with pytest.raises(InvariantError, match='^%s$' % re.escape(
            "datum 'sl2': the pair with v = []: support J = [1] violates "
            'I_1 <= J <= I(nu), for x = %s' % pct.aw.format_element(x))) \
            as info:
        getattr(pct, entry)(*args)
    assert (info.value.datum, info.value.element) == (
        'sl2', pct.aw.element_to_dict(x))


@pytest.mark.parametrize('case,error,message', [
    ('up', ValueError, 'transport is defined for keep and down moves'),
    ('keep', AssertionError, 'length-preserving move lost the support'),
    ('type I', AssertionError, 'type I child is not a pair of smaller '
     'support'),
    ('type II', AssertionError, 'type II child is not a pair of equal '
     'support'),
])
def test_pct_transport_errors_name_datum_element_and_root(
        case, error, message, monkeypatch):
    pct = PCT(AffineWeyl(builtin_datum('sl2')))
    aw = pct.aw
    a1, a0 = aw.simple_affine
    # s1 eps^{alpha^vee} moves down by a1 and up by a0; s1 keeps by a1
    x, a = {'up': (AffineElement(1, (1,)), a0),
            'keep': (AffineElement(1, (0,)), a1)}.get(
                case, (AffineElement(1, (1,)), a1))
    pair = pct.positive_coxeter_pairs(x)[0]
    left = aw.simple_sigma_conjugate(x, a)[2]
    if case != 'up':
        monkeypatch.setattr(pct, 'make_pair', lambda y, v: None)
        monkeypatch.setattr(pct, '_pair', lambda y, v: None)
    if case == 'type I':
        monkeypatch.setattr(pct, 'positive_coxeter_pairs', lambda y: [])
    if case == 'type II':
        # r_a x gets a pair of empty support, r_a x r_{sigma a} none
        monkeypatch.setattr(pct, 'make_pair', lambda y, v: (
            PositiveCoxeterPair(y, v, frozenset(), 0, (), b_min=None)
            if y == left else None))
    with pytest.raises(error, match=re.escape(message)) as info:
        pct.pct_transport(pair, a)
    at = 'the affine root %s' % (a,)
    if case == 'up':
        assert str(info.value) == '%s, not up: %s moves x = %s up' % (
            message, at, aw.format_element(x))
    else:
        assert type(info.value) is InvariantError
        assert str(info.value) == "datum 'sl2': transport along %s: %s, " \
            'for x = %s' % (at, message, aw.format_element(x))
        assert (info.value.datum, info.value.element) == (
            'sl2', aw.element_to_dict(x))


def test_min_and_generic_newton(pct3):
    x = AffineElement(0, (2, 1))              # dominant regular translation
    pair = pct3.positive_coxeter_pairs(x)[0]
    b_min, (b_max, lam) = pair.b_min, pct3.generic_class(pair)
    assert b_min == b_max                      # straight: interval is a point
    assert lam == (2, 1)
    assert pct3.bgx_interval(pair).keys() == {b_min}


def minimal_class_on_fractions(pct, pair):
    """Oracle: pi_J(v^{-1} mu) solved per call in Fractions, then the
    dominant representative found by a descent on the Fraction vector."""
    W = pct.W
    vinv_mu = W.act(W.inv[pair.v], pair.x.mu)
    _, nu = W.dominant_representative(
        pi_projection_oracle(pct.datum, pair.J, vinv_mu))
    return BGClass.from_nu(pct.bg.kottwitz_point(pair.x), nu)


@pytest.mark.parametrize('name', ['gl3', 'sl3_flip', 'sp4', 'g2', 'gl6'])
def test_minimal_class_matches_fraction_path(name):
    """Every pair on the box(2, 6) elements, or on 200 seeded gl6
    elements; nu stays a tuple of Fractions."""
    ctx = Context(name)
    elements = (gl6_sample(ctx.aw) if name == 'gl6'
                else ctx.aw.box_elements(2, 6))
    count = 0
    for x in elements:
        for pair in ctx.pct.positive_coxeter_pairs(x):
            got = pair.b_min
            want = minimal_class_on_fractions(ctx.pct, pair)
            assert got.kappa == want.kappa, pair
            assert typed(got.nu) == typed(want.nu), pair
            count += 1
    assert count > 0


def interval_on_fractions(pct, pair):
    """Oracle: (b_min, b_max, interval) with every class built from a
    Fraction Newton point (the minimal class as above, the others from
    convex_hull_point) and the interval's order test made by
    dominance_leq on the Fractions."""
    d = pct.datum
    kappa = pct.bg.kottwitz_point(pair.x)
    b_min = minimal_class_on_fractions(pct, pair)
    lam_max = pct.generic_lambda(pair)
    b_max = BGClass.from_nu(kappa, d.convex_hull_point(lam_max))
    budget = pct.aw.aff_length(pair.x) - vec_dot(d.two_rho, b_min.nu)
    js = sorted(pair.J)
    weights = [vec_dot(d.two_rho, d.simple_coroots[j]) for j in js]
    found = {}
    for ks in _budget_tuples(weights, int(budget)):
        lam = lam_max
        for k, j in zip(ks, js):
            lam = vec_sub(lam, vec_scale(k, d.simple_coroots[j]))
        b = BGClass.from_nu(kappa, d.convex_hull_point(lam))
        if b in found:
            continue
        if pct.bg.lambda_invariant(b)[0] != pct.gamma.project(lam):
            continue
        if d.dominance_leq(b_min.nu, b.nu):
            found[b] = dict(zip(js, ks))
    return b_min, b_max, found


@pytest.mark.parametrize('name,bound,cap', [
    ('gl3', 2, 6), ('sl3_flip', 2, 7), ('sp4', 2, 6), ('g2', 2, 7),
    ('psp4', 2, 6)])
def test_integer_class_layer_matches_fraction_path(name, bound, cap):
    """On every element and pair of the box: the class of an element has
    the Fraction Newton point; the minimal, generic and interval classes
    are those built from Fraction Newton points; bg_leq is dominance on
    the Fractions for every two classes met."""
    ctx = Context(name)
    bg, pct = ctx.bg, ctx.pct
    classes, pairs = set(), 0
    for x in ctx.aw.box_elements(bound, cap):
        b = bg.element_class(x)
        assert b.nu == bg.newton_of_element(x)[1], x
        classes.add(b)
        for pair in pct.positive_coxeter_pairs(x):
            b_min, b_max, interval = interval_on_fractions(pct, pair)
            assert pair.b_min == b_min, pair
            assert pct.generic_class(pair)[0] == b_max, pair
            assert pct.bgx_interval(pair) == interval, pair
            classes.update(interval)
            pairs += 1
    assert pairs > 0 and len({b.den for b in classes}) > 1
    for b1 in classes:
        for b2 in classes:
            assert bg.bg_leq(b1, b2) == (
                b1.kappa == b2.kappa
                and ctx.datum.dominance_leq(b1.nu, b2.nu)), (b1, b2)


def by_fraction_class(rows):
    """(kappa, nu as Fractions) of each output row's class."""
    return [(r['class']['kappa'], [Fraction(c) for c in r['class']['nu']])
            for r in rows]


# s1 s2 eps^(-2, 0, 0) in gl3: one kappa, nu with denominators 1, 2 and 3
MIXED_X = '{"w": [1, 2], "mu": [-2, 0, 0]}'


def test_classes_come_out_in_kappa_nu_order(capsys):
    """thmA_report, `pct report` and `bgx` list classes by (kappa, nu as
    rationals).  The gl3 box(2, 6) has reports whose classes share kappa
    and have denominators 1, 2 and 3, where that order is not the order
    of the integer fields (kappa, den, nums)."""
    ctx = Context('gl3')
    mixed = 0
    for x in ctx.aw.box_elements(2, 6):
        if not ctx.pct.positive_coxeter_pairs(x):
            continue
        classes = [cd['class'] for cd in ctx.pct.thmA_report(x)['classes']]
        keys = [(b.kappa, b.nu) for b in classes]
        assert keys == sorted(keys), x
        mixed += sorted(classes, key=tuple) != classes
    assert mixed > 0
    assert main(['pct', 'report', '--datum', 'gl3', '--x', MIXED_X]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(['bgx', '--datum', 'gl3', '--x', MIXED_X]) == 0
    bgx = json.loads(capsys.readouterr().out)
    for rows in (report['classes'], bgx):
        keys = by_fraction_class(rows)
        assert keys == sorted(keys)
        assert {max(f.denominator for f in nu) for _, nu in keys} \
            == {1, 2, 3}


def coinvariants(pct, elem):
    """Oracle: the coinvariants X / (sigma w - 1) X of sigma composed with
    a finite Weyl element w, read off w's matrix in matrix_bfs_tables."""
    d = pct.datum
    m = matrix_bfs_tables(d)['mats'][elem]
    return QuotientPresentation(d.dim,
                                d.twist_relations([tuple(col)
                                                   for col in zip(*m)]))


def test_point_space_full_support_is_coinvariants(pct3):
    # X(c, J) with J the full support agrees with the coinvariants of
    # sigma c: same invariant factors, same projections
    c = pct3.W.from_word([0, 1])
    full = pct3.point_space(c, frozenset({0, 1}))
    coin = coinvariants(pct3, c)
    assert full.invariants == coin.invariants
    for mu in itertools.product(range(-2, 3), repeat=2):
        assert full.project(mu) == coin.project(mu)


def test_point_space_factors_through_coinvariants(pct4):
    # every relation of the coinvariants of sigma c vanishes in X(c, J')
    c = pct4.W.from_word([0, 1, 2])
    for jp in (frozenset(), frozenset({0, 2}), frozenset({0, 1, 2})):
        space = pct4.point_space(c, jp)
        zero = space.project(tuple([0] * pct4.datum.dim))
        for rel in coinvariants(pct4, c).relations:
            assert space.project(rel) == zero


def test_point_space_rejects_unstable(pct3):
    flip = PCT(AffineWeyl(builtin_datum('sl3_flip')))
    c = flip.W.from_word([0, 1])
    with pytest.raises(ValueError):
        flip.point_space(c, frozenset({0}))


def test_point_space_naturality(pct4):
    # two sigma-Coxeter elements of the same W_J are conjugate by some
    # u in W_J, and mu -> sigma(u)^{-1} mu descends to the point spaces
    W = pct4.W
    c1 = W.from_word([0, 1, 2])
    c2 = W.from_word([2, 1, 0])
    subset = frozenset({0, 1, 2})
    u = coxeter_conjugator(W, c1, c2, subset)
    assert u is not None
    su_inv = W.inv[W.sigma_elem[u]]
    for jp in (frozenset({0, 2}), subset):
        s1 = pct4.point_space(c1, jp)
        s2 = pct4.point_space(c2, jp)
        assert s1.invariants == s2.invariants
        zero = s2.project(tuple([0] * pct4.datum.dim))
        for rel in s1.relations:
            assert s2.project(W.act(su_inv, rel)) == zero


def test_j_truncation(pct4):
    W = pct4.W
    c = W.from_word([0, 1, 2])
    assert W.words[pct4.j_truncation(c, frozenset({0, 2}))] == (0, 2)
    assert pct4.j_truncation(c, frozenset()) == 0
    assert pct4.j_truncation(c, frozenset({0, 1, 2})) == c
    flip = PCT(AffineWeyl(builtin_datum('sl4_flip')))
    with pytest.raises(ValueError, match='sigma stable'):
        flip.j_truncation(flip.W.from_word([0]), frozenset({0}))
    with pytest.raises(ValueError, match='partial sigma-Coxeter'):
        pct4.j_truncation(W.from_word([0, 1, 0]), frozenset({0}))


def reduced_words(W, e):
    """Every reduced word of e, by peeling off right descents."""
    if e == 0:
        return [()]
    return [word + (i,) for i in range(W.datum.rank)
            if W.lengths[W.right[e][i]] < W.lengths[e]
            for word in reduced_words(W, W.right[e][i])]


@pytest.mark.parametrize('name,bound,cap', [
    ('gl4', 1, 7), ('sl4_flip', 1, 7), ('sp4', 2, 6), ('g2', 2, 7)])
def test_j_truncation_matches_every_reduced_word(name, bound, cap):
    """Oracle: for the c of every pair of the box and every sigma-stable
    J' in its support, the J'-truncations of all reduced words of c have
    one product, the j_truncation."""
    ctx = Context(name)
    W = ctx.W
    coxeter = {pair.c for x in ctx.aw.box_elements(bound, cap)
               for pair in ctx.pct.positive_coxeter_pairs(x)}
    assert coxeter
    for c in sorted(coxeter):
        words = reduced_words(W, c)
        orbits = ctx.datum.sigma_orbits(W.sigma_support(c))
        for keep in itertools.product((False, True), repeat=len(orbits)):
            jp = frozenset(i for k, orb in zip(keep, orbits) if k
                           for i in orb)
            products = {W.from_word([i for i in word if i in jp])
                        for word in words}
            assert products == {ctx.pct.j_truncation(c, jp)}, (c, jp)


def test_j_point(pct2):
    x = AffineElement(1, (1,))
    pair = pct2.positive_coxeter_pairs(x)[0]
    assert pct2.j_point_vector(pair) == (1,)
    # the J-point lives in a finite quotient (sigma c acts by -1 on sl2)
    space = coinvariants(pct2, pair.c)
    assert space.free_rank == 0
    # image in X(c, emptyset) exists
    pct2.j_point_image(pair, frozenset())


def test_endpoint_class_sl2(pct2):
    x = AffineElement(1, (2,))
    pair = pct2.positive_coxeter_pairs(x)[0]
    for b in pct2.bgx_interval(pair):
        cert = pct2.endpoint_class(pair, b)            # validates vs tree
        assert cert['support'] <= pair.J
        assert pct2.bg.element_class(cert['endpoint']) == b


def test_infeasible_endpoint_congruences_exit_3(monkeypatch, capsys):
    """b lies in the interval of x, so endpoint congruences without a
    solution are a failed invariant, not bad input: an InvariantError
    naming x and b, and exit 3 from the CLI."""
    # 2 lambda = 1 has no integer solution
    monkeypatch.setattr(PCT, '_endpoint_lattices',
                        lambda self, c, jb: ([(2,)], _column_snf([(2,)], 1)))
    ctx = Context('sl2')
    x = AffineElement(1, (1,))
    pair = ctx.pct.positive_coxeter_pairs(x)[0]
    b = BGClass.from_nu((0,), (Fraction(0),))
    with pytest.raises(InvariantError) as info:
        ctx.pct.endpoint_class(pair, b)
    err = info.value
    assert (err.datum, err.what, err.element, err.sigma_class) == (
        'sl2', 'the endpoint congruence system is infeasible',
        {'w': [1], 'mu': [1]}, b)
    code = main(['pct', 'endpoint', '--datum', 'sl2', '--x',
                 '{"w": [1], "mu": [1]}', '--kappa', '[0]', '--nu', '["0"]'])
    out, stderr = capsys.readouterr()
    assert code == 3 and out == ''
    assert stderr == ("invariant violation: datum 'sl2': the endpoint "
                      'congruence system is infeasible, for x = '
                      '{"w": [1], "mu": [1]} and the class kappa = (0), '
                      'nu = (0)\n'), stderr


def test_pct_characterize_matches_pairs(pct3):
    aw = pct3.aw
    for w in range(aw.W.size):
        for mu in itertools.product(range(-2, 3), repeat=2):
            x = AffineElement(w, mu)
            if aw.aff_length(x) > 4:
                continue
            flag, v = pct3.pct_characterize(x)
            assert flag == bool(pct3.positive_coxeter_pairs(x))
            if flag:
                assert v in aw.lp_set(x)


def test_min_length_pct(pct2):
    assert pct2.min_length_pct(AffineElement(0, (1,)))
    with pytest.raises(ValueError):
        pct2.min_length_pct(AffineElement(1, (1,)))    # not minimal


def test_min_length_mismatch_names_datum_and_x(pct2, monkeypatch):
    x = AffineElement(0, (1,))
    monkeypatch.setattr(pct2.W, 'sigma_conjugate_to_partial_coxeter',
                        lambda w: False)
    where = ("datum 'sl2': minimal-length criterion mismatch: finite False "
             "vs pairs True, for x = %s" % pct2.aw.format_element(x))
    with pytest.raises(InvariantError, match='^%s$' % re.escape(where)) \
            as info:
        pct2.min_length_pct(x)
    assert (info.value.datum, info.value.element) == (
        'sl2', pct2.aw.element_to_dict(x))


def test_large_support(pct2, pct3):
    x = AffineElement(1, (1,))
    pair = pct2.positive_coxeter_pairs(x)[0]
    # J = {0} contains the unique sigma-component of I(nu(b_min)) = {0}
    assert not pct2.large_support_check(pair)
    # translation: J empty, I(nu) empty for regular nu -> vacuous, minimal
    t = AffineElement(0, (2, 1))
    tp = pct3.positive_coxeter_pairs(t)[0]
    assert pct3.large_support_check(tp)


def test_sigma_components():
    d = builtin_datum('sl3')
    assert diagram_components(d.cartan, {0, 1}, d.sigma_perm) \
        == [frozenset({0, 1})]
    assert diagram_components(d.cartan, {0}, d.sigma_perm) \
        == [frozenset({0})]
    flip = builtin_datum('sl3_flip')
    assert diagram_components(flip.cartan, {0, 1}, flip.sigma_perm) \
        == [frozenset({0, 1})]
    # sl4_flip on {0, 2}: no Dynkin edge, joined only by sigma
    flip4 = builtin_datum('sl4_flip')
    assert diagram_components(flip4.cartan, {0, 2}) \
        == [frozenset({0}), frozenset({2})]
    assert diagram_components(flip4.cartan, {0, 2}, flip4.sigma_perm) \
        == [frozenset({0, 2})]


def test_count_positive_roots():
    a2 = [[2, -1], [-1, 2]]
    c2 = [[2, -1], [-2, 2]]
    g2 = [[2, -1], [-3, 2]]
    assert count_positive_roots(a2) == 3
    assert count_positive_roots(c2) == 4
    assert count_positive_roots(g2) == 6


def test_very_special_subsets_a1_affine():
    cartan = [[2, -2], [-2, 2]]
    subsets, best = very_special_subsets(cartan, [0, 1])
    assert best == 1
    assert subsets == [frozenset({0}), frozenset({1})]


def test_very_special_data_smoke(pct2):
    x = AffineElement(1, (1,))
    pair = pct2.positive_coxeter_pairs(x)[0]
    for b in pct2.bgx_interval(pair):
        data = pct2.very_special_data(pair, b)
        assert set(data) == {'tau', 'K', 'K_nodes', 'c_K', 'endpoint'}
        assert pct2.bg.element_class(data['tau']) == b


# -- very special data and membership witnesses on interval boxes -------------

def interval_classes(ctx, bound, cap):
    """(pair, b) for every class of the interval of the first pair of each
    element of positive Coxeter type in the box (mu bound, length cap)."""
    for x in ctx.aw.box_elements(bound, cap):
        pairs = ctx.pct.positive_coxeter_pairs(x)
        if pairs:
            for b in ctx.pct.bgx_interval(pairs[0]):
                yield pairs[0], b


def levi_length(aw, x, subset):
    """Length in W_J x X: inverted positive affine roots over Phi_J."""
    d = aw.datum
    act = aw.W.root_action[x.w]
    total = 0
    for idx, r in enumerate(d.roots):
        if any(r.coords[i] != 0 and i not in subset for i in range(d.rank)):
            continue
        lo = 0 if d.is_positive_root(idx) else 1
        wpos = d.is_positive_root(act[idx])
        hi = vec_dot(r.covec, x.mu) - 1 + (0 if wpos else 1)
        total += max(0, hi - lo + 1)
    return total


def box_levi_tau(pct, jb, b, lam):
    """Oracle: scan lam + sum k_j alpha_j^vee (k_j in -2..2) times W_J for a
    Levi length-zero element with the Kottwitz and central Newton point of
    b; None when the box holds none."""
    d = pct.datum
    js = sorted(jb)
    for ks in itertools.product(range(-2, 3), repeat=len(js)):
        mu = lam
        for k, j in zip(ks, js):
            mu = vec_add(mu, vec_scale(k, d.simple_coroots[j]))
        if pct.bg.kottwitz.project(mu) != b.kappa:
            continue
        for w in parabolic(pct.W, js):
            t = AffineElement(w, mu)
            if levi_length(pct.aw, t, jb) != 0:
                continue
            nu_raw, nu_dom = pct.bg.newton_of_element(t)
            if tuple(nu_dom) != tuple(Fraction(c) for c in b.nu):
                continue
            if any(vec_dot(d.simple_roots[j], nu_raw) != 0 for j in js):
                continue
            return t
    return None


# (datum, mu bound, length cap, classes, classes the -2..2 box misses)
VERY_SPECIAL_BOXES = [('sl2', 4, 6, 19, 1), ('gl2', 3, 6, 141, 5),
                      ('psp4', 2, 6, 114, 2), ('sl3_flip', 2, 7, 119, 0),
                      ('gl3', 2, 6, 902, 10)]


@pytest.mark.parametrize('name,bound,cap,count,misses', VERY_SPECIAL_BOXES)
def test_very_special_data_matches_box_search(name, bound, cap, count,
                                              misses):
    ctx = Context(name)
    seen = missed = 0
    for pair, b in interval_classes(ctx, bound, cap):
        data = ctx.pct.very_special_data(pair, b)
        tau = data['tau']
        assert ctx.bg.element_class(tau) == b
        ep = data['endpoint']
        old = box_levi_tau(ctx.pct, ep['support'], b, ep['lambda'])
        if old is None:
            missed += 1
        else:
            assert old == tau
        seen += 1
    assert (seen, missed) == (count, misses)


def twist_search_witness(pct, pair, b):
    """Oracle: the cone search over the J-coroots and the signed twist
    generators, every coefficient at most max(10, |t|, ell(x))."""
    d, gamma = pct.datum, pct.gamma
    _, lam_b = pct.bg.lambda_invariant(b)
    t = vec_sub(gamma.lift(gamma.project(pct.generic_lambda(pair))),
                gamma.lift(gamma.project(lam_b)))
    js = sorted(pair.J)
    twists = [r for r in d.twist_relations() if any(r)]
    gens = ([d.simple_coroots[j] for j in js] + twists
            + [vec_scale(-1, r) for r in twists])
    bound = max(10, sum(abs(c) for c in t), pct.aw.aff_length(pair.x))
    coeffs = [0] * len(gens)

    def rec(i, rem):
        if i == len(gens):
            return not any(rem)
        for c in range(bound + 1):
            coeffs[i] = c
            if rec(i + 1, vec_sub(rem, vec_scale(c, gens[i]))):
                return True
        coeffs[i] = 0
        return False

    return dict(zip(js, coeffs)) if rec(0, t) else None


@pytest.mark.parametrize('name,bound,cap', [('gl3', 2, 6),
                                             ('sl3_flip', 2, 7)])
def test_interval_witnesses_match_cone_search(name, bound, cap):
    ctx = Context(name)
    d, pct = ctx.datum, ctx.pct
    count = 0
    for x in ctx.aw.box_elements(bound, cap):
        pairs = pct.positive_coxeter_pairs(x)
        if not pairs:
            continue
        pair = pairs[0]
        js = sorted(pair.J)
        coroots = [d.simple_coroots[j] for j in js]
        lam_max = pct.generic_lambda(pair)
        for b, witness in pct.bgx_interval(pair).items():
            lam_b = pct.bg.lambda_invariant(b)[1]
            sol = solve_in_cone(coroots, vec_sub(lam_max, lam_b),
                                d.two_rho, pct.gamma)
            assert witness == dict(zip(js, sol))
            count += 1
    assert count > 100


def test_bgx_interval_propagates_lambda_failures(monkeypatch):
    ctx = Context('gl3')
    pct = ctx.pct
    for x in ctx.aw.box_elements(2, 6):
        pairs = pct.positive_coxeter_pairs(x)
        if pairs and len(pct.bgx_interval(pairs[0])) >= 3:
            pair = pairs[0]
            break
    extremes = {pair.b_min, pct.generic_class(pair)[0]}
    broken = next(b for b in pct.bgx_interval(pair) if b not in extremes)
    lambda_invariant = pct.bg.lambda_invariant

    def failing(b):
        if b == broken:
            raise AssertionError('broken lambda-invariant')
        return lambda_invariant(b)

    monkeypatch.setattr(pct.bg, 'lambda_invariant', failing)
    with pytest.raises(AssertionError, match='broken lambda-invariant'):
        pct.bgx_interval(pair)


def test_tree_path_fault_exits_3_naming_datum_and_x(monkeypatch, capsys):
    """A tree path with l_II off the formula fails the tree cross-check
    of `pct report`; the CLI exits 3 with a message naming the datum and
    x."""
    bgx_from_tree = Reduction.bgx_from_tree

    def shifted(self, x):
        out = bgx_from_tree(self, x)
        for entry in out.values():
            entry['paths'] = [(ni, nii + 1, end_len, dim + 1)
                              for ni, nii, end_len, dim in entry['paths']]
        return out

    monkeypatch.setattr(Reduction, 'bgx_from_tree', shifted)
    x = '{"w": [1], "mu": [1, 0, 0]}'
    assert main(['pct', 'report', '--datum', 'gl3', '--x', x]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: datum 'gl3': path "
                          'statistics differ from formulas'), err
    assert err.rstrip().endswith('for x = ' + x), err


def test_report_and_endpoint_check_form_no_tree_node(monkeypatch):
    """thmA_report's tree cross-check and endpoint_class(validate=True)
    read the node-free path record: over the gl3 box(1, 5) elements of
    positive Coxeter type, no TreeNode is formed."""
    def refused(*args):
        raise AssertionError('a tree node was formed')

    monkeypatch.setattr(reduction, 'TreeNode', refused)
    pct = Context('gl3').pct
    checked = 0
    for x in pct.aw.box_elements(1, 5):
        pairs = pct.positive_coxeter_pairs(x)
        if pairs:
            for cd in pct.thmA_report(x)['classes']:
                pct.endpoint_class(pairs[0], cd['class'], validate=True)
                checked += 1
    assert checked > 20


def test_report_forms_no_closure_and_endpoints_key_class_b_leaves(
        monkeypatch):
    """Over every gl3 box(2, 6) element of positive Coxeter type, on a
    fresh context: thmA_report reads each tree leaf's class off
    element_class and forms no class-key closure, and
    endpoint_class(validate=True) keys the endpoint and only the leaves
    of class b."""
    ctx = Context('gl3')
    pct = ctx.pct
    closures = count_calls(monkeypatch, ctx.red, '_closure')
    reports = []
    for x in ctx.aw.box_elements(2, 6):
        pairs = pct.positive_coxeter_pairs(x)
        if pairs:
            reports.append((pairs[0], pct.thmA_report(x)))
    assert len(reports) > 100 and closures == []
    keyed = count_calls(monkeypatch, ctx.red, 'class_id')
    skipped = 0
    for pair, report in reports:
        leaves = ctx.red.build_reduction_tree(pair.x).leaves()
        for cd in report['classes']:
            b = cd['class']
            del keyed[:]
            cert = pct.endpoint_class(pair, b, validate=True)
            of_b = {leaf.x for leaf in leaves
                    if ctx.bg.element_class(leaf.x) == b}
            assert {y for y, in keyed} == {cert['endpoint']} | of_b
            skipped += len(leaves) - len(of_b)
    assert closures and skipped > 0


def report_with_endpoints(pct, x):
    """thmA_report(x) with its tree cross-check, then the validated
    endpoint certificate of every class of the report."""
    report = pct.thmA_report(x, cross_validate=True)
    return report, [pct.endpoint_class(report['pair'], cd['class'],
                                       validate=True)
                    for cd in report['classes']]


@pytest.mark.parametrize('name,bound,max_length', [
    ('gl3', 2, 6), ('sl4', 1, 8), ('sl3_flip', 1, 6)])
def test_kept_pairs_match_a_fresh_pct(name, bound, max_length):
    """After reports and endpoint certificates on every element of the
    box, a warm PCT's pairs equal those a fresh PCT forms; mutating a
    returned list leaves the next answer as it was, and
    is_positive_coxeter agrees with the pairs."""
    warm = Context(name).pct
    xs = warm.aw.box_elements(bound, max_length)
    for x in xs:
        if warm.is_positive_coxeter(x):
            report_with_endpoints(warm, x)
    fresh = Context(name).pct
    reported = 0
    for x in xs:
        pairs = warm.positive_coxeter_pairs(x)
        assert pairs == fresh.positive_coxeter_pairs(x), x
        assert warm.is_positive_coxeter(x) == bool(pairs), x
        reported += bool(pairs)
        want = list(pairs)
        pairs.append(None)
        pairs.reverse()
        assert warm.positive_coxeter_pairs(x) == want, x
    assert reported > 20


def test_report_and_endpoints_walk_each_tree_once(monkeypatch):
    """Over gl3 box(2, 6), a report with its tree cross-check and every
    validated endpoint certificate make one seed-None walk of the tree
    of x; a seeded path record is walked on every call, and a warm call
    still equals the record of the recursive build."""
    ctx = Context('gl3')
    red, pct = ctx.red, ctx.pct
    walks = count_calls(monkeypatch, red, '_walk_tree')
    reported = certified = 0
    for x in ctx.aw.box_elements(2, 6):
        if not pct.positive_coxeter_pairs(x):
            continue
        del walks[:]
        certified += len(report_with_endpoints(pct, x)[1])
        assert walks == [(x, None, None)], x
        reported += 1
        for seed in (None, 1):
            want = [(leaf.x, ni, nii) for leaf, ni, nii in
                    paths_by_recursion(tree_by_recursion(red, x, seed=seed))]
            del walks[:]
            assert red.leaf_paths(x, seed=seed) == want, (x, seed)
            assert red.leaf_paths(x, seed=seed) == want, (x, seed)
            assert len(walks) == (0 if seed is None else 2), (x, seed)
    assert reported > 100 and certified > reported


def endpoint_per_call(pct, pair, b):
    """Oracle: (lambda, endpoint, key) of the endpoint certificate, with
    the endpoint congruences solved by one Smith form per call."""
    d = pct.datum
    i_nu, _ = pct.bg.strata_sets(b)
    jb = frozenset(pair.J & i_nu)
    lattice_one = [d.simple_coroots[j] for j in sorted(jb)] \
        + [r for r in pct.gamma.relations if any(r)]
    lattice_two = [r for r in pct._point_relations(pair.c, jb) if any(r)]
    lam_b = pct.bg.lambda_invariant(b)[1]
    sol = solve_integer_combination(
        lattice_one + lattice_two,
        vec_sub(pct.j_point_vector(pair), lam_b))
    lam = lam_b
    for coeff, g in zip(sol, lattice_one):
        lam = vec_add(lam, vec_scale(coeff, g))
    endpoint = AffineElement(pct.j_truncation(pair.c, jb), lam)
    return lam, endpoint, pct.red.class_key(endpoint)


@pytest.mark.parametrize('name,bound,cap', [('gl3', 2, 6),
                                             ('sl3_flip', 2, 7),
                                             ('sp4', 2, 6)])
def test_endpoint_lattices_match_per_call_solve(name, bound, cap):
    """endpoint_class solves against one Smith form per (c, J(b)); its
    certificates equal those of a fresh solve per call."""
    ctx = Context(name)
    pct = ctx.pct
    count = 0
    for pair, b in interval_classes(ctx, bound, cap):
        cert = pct.endpoint_class(pair, b, validate=False)
        assert (cert['lambda'], cert['endpoint'], cert['key']) == \
            endpoint_per_call(pct, pair, b)
        count += 1
    assert count > 50
    assert len(pct._endpoint_snf) < count


def test_twisted_membership_witnesses():
    ctx = Context('sl3_flip')
    pct = ctx.pct
    classes = list(interval_classes(ctx, 2, 7))
    assert len(classes) == 119
    for n, (pair, b) in enumerate(classes):
        witness = pct.membership_witness(pair, b)
        assert witness is not None
        rem = vec_sub(pct.generic_lambda(pair), pct.bg.lambda_invariant(b)[1])
        for j, k in witness.items():
            assert k >= 0
            rem = vec_sub(rem, vec_scale(k, ctx.datum.simple_coroots[j]))
        assert pct.gamma.is_zero(rem)
        if n % 12 == 0:       # the oracle takes about 4 s on the whole box
            assert twist_search_witness(pct, pair, b) == witness
