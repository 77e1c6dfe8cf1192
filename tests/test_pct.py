"""Positive Coxeter pairs, intervals, J-points, endpoints, converses."""

import itertools

import pytest

from adlv.affine import AffineElement, AffineWeyl
from adlv.datum import builtin_datum, diagram_components
from adlv.pct import PCT, count_positive_roots, very_special_subsets


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


def test_min_and_generic_newton(pct3):
    x = AffineElement(0, (2, 1))              # dominant regular translation
    pair = pct3.positive_coxeter_pairs(x)[0]
    b_min, (b_max, lam) = pct3.min_and_generic_newton(pair)
    assert b_min == b_max                      # straight: interval is a point
    assert lam == (2, 1)
    assert pct3.bgx_interval(pair).keys() == {b_min}


def test_point_space_full_support_is_coinvariants(pct3):
    # X(c, J) with J the full support agrees with the coinvariants of
    # sigma c: same invariant factors, same projections
    c = pct3.W.from_word([0, 1])
    full = pct3.point_space(c, frozenset({0, 1}))
    coin = pct3.coinvariants(c)
    assert full.invariants == coin.invariants
    for mu in itertools.product(range(-2, 3), repeat=2):
        assert full.project(mu) == coin.project(mu)


def test_point_space_factors_through_coinvariants(pct4):
    # every relation of the coinvariants of sigma c vanishes in X(c, J')
    c = pct4.W.from_word([0, 1, 2])
    for jp in (frozenset(), frozenset({0, 2}), frozenset({0, 1, 2})):
        space = pct4.point_space(c, jp)
        zero = space.project(tuple([0] * pct4.datum.dim))
        for rel in pct4.coinvariants(c).relations:
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
    u = W.coxeter_conjugator(c1, c2, subset)
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
    with pytest.raises(ValueError):
        flip.j_truncation(flip.W.from_word([0]), frozenset({0}))


def test_j_point(pct2):
    x = AffineElement(1, (1,))
    pair = pct2.positive_coxeter_pairs(x)[0]
    assert pct2.j_point_vector(pair) == (1,)
    # the J-point lives in a finite quotient (sigma c acts by -1 on sl2)
    space = pct2.j_point_space(pair)
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
