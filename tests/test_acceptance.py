"""Acceptance suite: ten exact, tolerance-zero criteria.

1. Quantum Bruhat graph weights are well defined (all shortest paths
   between any ordered vertex pair carry one weight).
2. The rank-one golden chain: tree leaves, class polynomials, report
   statistics and endpoint certificates for s1 eps^{alpha^vee}.
3. Closed form of every class polynomial: q^{l_II} (q-1)^{l_I}, one
   tree path per class.
4. The interval of classes matches the tree and is saturated; the
   extreme Newton points obey their closed formulas.
5. Reduction trees built under different branch policies give the same
   class polynomials.
6. Worked examples: affine reflections of GL3, the twisted C2 pair,
   the A5 supports and strata, and the C2/E6 very special subsets.
7. Reflection length equals length iff some reduced word has letters in
   pairwise distinct sigma-orbits (exhaustive, small ranks).
8. For minimal-length elements, the finite criterion agrees with pair
   existence.
9. The converse characterization agrees with pair existence everywhere.
10. The endpoint congruence certificate matches the tree leaf class.
"""

import pytest

from adlv.affine import AffineElement
from adlv.context import Context
from adlv.pct import count_positive_roots, very_special_subsets
from adlv.reduction import POLY_ONE, POLY_Q, POLY_Q_MINUS_ONE, poly_mul

_STACKS = {}


def stack(name):
    if name not in _STACKS:
        _STACKS[name] = Context(name)
    return _STACKS[name]


# scan boxes for criteria 3, 4, 9, 10: (datum, mu box bound, length cap)
SCAN = [('sl2', 7, 6), ('sl3', 4, 6), ('gl3', 2, 6), ('sp4', 3, 6)]


@pytest.fixture(scope='module', params=[s[0] for s in SCAN])
def scan_stack(request):
    name = request.param
    bound, cap = next((b, c) for n, b, c in SCAN if n == name)
    st = stack(name)
    return st, st.aw.box_elements(bound, cap)


# -- 1: weight well-definedness ---------------------------------------------

@pytest.mark.parametrize('name', ['sl2', 'sl3', 'sl4', 'sp4', 'g2',
                                  'sl4_flip'])
def test_1_qbg_weights_well_defined(name):
    st = stack(name)
    qbg = st.qbg
    for w in range(st.W.size):
        for w2 in range(st.W.size):
            _, wt = qbg.distance_weight(w, w2)
            assert qbg.all_shortest_path_weights(w, w2) == {wt}


# -- 2: rank-one golden chain -------------------------------------------------

def test_2_golden_chain():
    st = stack('sl2')
    x = AffineElement(1, (1,))            # s1 s0 s1
    tree = st.red.build_reduction_tree(x)
    assert {leaf.x for leaf in tree.leaves()} \
        == {AffineElement(0, (1,)), AffineElement(1, (-1,))}
    assert sorted(st.red.class_polynomials(x).values()) \
        == [(-1, 1), (0, 1)]              # {q - 1, q}
    report = st.pct.thmA_report(x)        # cross-validated against the tree
    nus = {b.nu for b in (c['class'] for c in report['classes'])}
    assert nus == {(0,), (1,)}            # basic and [eps^{alpha^vee}]
    by_nu = {c['class'].nu: c for c in report['classes']}
    assert (by_nu[(0,)]['l_i'], by_nu[(0,)]['l_ii']) == (0, 1)
    assert (by_nu[(1,)]['l_i'], by_nu[(1,)]['l_ii']) == (1, 0)
    # the stated dimensions (1, 1) belong to the isogenous two-dimensional
    # datum; for this one the exact dimensions are 2 (basic) and 1
    assert {c['dimension'] for c in report['classes']} == {1, 2}
    assert st.bg.defect(by_nu[(0,)]['class']) == 0
    # the two-dimensional datum reproduces the stated numbers
    g = stack('gl2')
    bq = g.bg.element_class(AffineElement(1, (1, 0)))
    assert g.bg.defect(bq) == 1
    # endpoint certificates match the leaves
    pair = report['pair']
    leaf_keys = {st.red.class_key(leaf.x) for leaf in tree.leaves()}
    for c in report['classes']:
        cert = st.pct.endpoint_class(pair, c['class'])   # validates the key
        assert cert['key'] in leaf_keys


# -- 3 + 4 + 10: closed forms on the scan -------------------------------------

def _reports(st, elements):
    for x in elements:
        pairs = st.pct.positive_coxeter_pairs(x)
        if not pairs:
            continue
        yield x, st.pct.thmA_report(x, cross_validate=False)


def test_3_closed_form(scan_stack):
    st, elements = scan_stack
    count = 0
    for x, report in _reports(st, elements):
        tree = st.red.build_reduction_tree(x)
        data = st.red.bgx_from_tree(x, tree)
        assert set(data) == {c['class'] for c in report['classes']}
        for cd in report['classes']:
            entry = data[cd['class']]
            assert len(entry['paths']) == 1   # one tree path per class
            expected = POLY_ONE
            for _ in range(cd['l_i']):
                expected = poly_mul(expected, POLY_Q_MINUS_ONE)
            for _ in range(cd['l_ii']):
                expected = poly_mul(expected, POLY_Q)
            assert entry['polynomial'] == expected
        count += 1
    assert count > 0


def test_4_interval_saturation(scan_stack):
    st, elements = scan_stack
    for x, report in _reports(st, elements):
        pair = report['pair']
        tree_classes = set(st.red.bgx_from_tree(x))
        interval = {c['class'] for c in report['classes']}
        assert interval == tree_classes
        b_min, b_max = report['b_min'], report['b_max']
        for b in interval:
            assert st.bg.bg_leq(b_min, b) and st.bg.bg_leq(b, b_max)
        # saturation: every class between the extremes with a valid
        # membership witness belongs to the interval, which is exactly
        # how the interval is generated; the extremes sit in the tree
        assert b_min in tree_classes and b_max in tree_classes
        for b in tree_classes:
            assert st.pct.membership_witness(pair, b) is not None
        # closed formulas for the extremes
        assert b_min == st.pct.minimal_class(pair)
        b_max2, lam = st.pct.generic_class(pair)
        assert b_max2 == b_max
        assert st.bg.gamma.project(lam) == st.bg.lambda_invariant(b_max)[0]


def test_10_endpoint_identity(scan_stack):
    st, elements = scan_stack
    for x, report in _reports(st, elements):
        pair = report['pair']
        for cd in report['classes']:
            # validate=True compares the certificate key with the key of
            # the actual tree leaf and raises on any mismatch
            st.pct.endpoint_class(pair, cd['class'], validate=True)


# -- 5: tree independence -----------------------------------------------------

@pytest.mark.parametrize('name,bound', [('sl2', 4), ('sl3', 3)])
def test_5_tree_independence(name, bound):
    st = stack(name)
    for x in st.aw.box_elements(bound, 7):
        base = st.red.class_polynomials(x)
        for seed in (1, 2, 3):
            assert st.red.class_polynomials(x, seed=seed) == base


# -- 6: worked examples -------------------------------------------------------

def test_6i_gl3_affine_reflections():
    st = stack('gl3')
    flags = [st.pct.has_finite_coxeter_part(st.aw.reflection(a))
             for a in st.aw.simple_affine]
    assert sorted(flags) == [False, True, True]


def test_6ii_c2_twisted():
    st = stack('psp4')
    w = st.W.from_word([1, 0, 1])
    tau2 = AffineElement(w, st.W.act(st.W.inv[w], (0, 1)))
    assert st.aw.aff_length(tau2) == 0
    x1 = st.aw.mult(tau2, st.aw.from_weyl(st.W.simple[1]))
    x2 = st.aw.mult(tau2, st.aw.from_weyl(st.W.simple[0]))
    assert st.pct.has_finite_coxeter_part(x1)
    assert not st.pct.has_finite_coxeter_part(x2)


def test_6iii_a5_supports():
    st = stack('gl6')
    tau3 = AffineElement(542, (0, 0, 0, 1, 1, 1))
    assert st.aw.aff_length(tau3) == 0
    x = st.aw.mult(tau3, st.aw.from_weyl(st.W.simple[0]))
    pairs = st.pct.positive_coxeter_pairs(x)
    supports = {frozenset(i + 1 for i in p.J) for p in pairs}
    assert supports == {frozenset({1, 2, 3, 5}), frozenset({1, 3, 4, 5})}
    vs = {p.v for p in pairs}
    assert st.W.from_word([2, 3, 1]) in vs
    assert st.W.from_word([4, 1, 2, 3, 2, 0, 1]) in vs
    b = st.pct.minimal_class(pairs[0])
    i_nu, i_one = st.bg.strata_sets(b)
    assert frozenset(i + 1 for i in i_one) == frozenset({1, 3, 5})
    assert frozenset(i + 1 for i in i_nu) == frozenset({1, 2, 3, 4, 5})


def test_6iv_very_special_subsets():
    c2_affine = [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
    subsets, best = very_special_subsets(c2_affine, [2, 1, 0])
    assert subsets == [frozenset({0, 2})] and best == 2

    e6 = [[2] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(7):
            if i != j:
                e6[i][j] = 0
    for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (0, 2)]:
        e6[i][j] = e6[j][i] = -1
    subsets, best = very_special_subsets(e6, [1, 6, 3, 5, 4, 2, 0])
    assert subsets == [frozenset({2, 3, 4, 5})] and best == 12
    assert count_positive_roots([[e6[i][j] for j in (2, 3, 4, 5)]
                                 for i in (2, 3, 4, 5)]) == 12


# -- 7: reflection length lemma -----------------------------------------------

def _all_reduced_words(W, e):
    if e == 0:
        return [()]
    out = []
    for i in W.descents_right(e):
        for w in _all_reduced_words(W, W.right[e][i]):
            out.append(w + (i,))
    return out


def _word_level_partial_coxeter(st, e):
    def orbit(i):
        out = {i}
        j = st.datum.sigma_perm[i]
        while j not in out:
            out.add(j)
            j = st.datum.sigma_perm[j]
        return frozenset(out)

    for word in _all_reduced_words(st.W, e):
        orbits = [orbit(i) for i in word]
        if len(set(orbits)) == len(orbits):
            return True
    return False


@pytest.mark.parametrize('name', ['sl2', 'sl3', 'sl4', 'sp4', 'g2',
                                  'sl3_flip', 'sl4_flip'])
def test_7_reflection_length(name):
    st = stack(name)
    for e in range(st.W.size):
        lhs = st.W.reflection_length_sigma(e) == st.W.lengths[e]
        assert lhs == _word_level_partial_coxeter(st, e)
        assert lhs == st.W.is_partial_sigma_coxeter(e)


# -- 8: minimal length theorem --------------------------------------------------

@pytest.mark.parametrize('name,bound', [('sl2', 3), ('sl3', 3), ('sp4', 3)])
def test_8_minimal_length(name, bound):
    st = stack(name)
    count = 0
    for x in st.aw.box_elements(bound, 5):
        if not st.red.is_minimal(x):
            continue
        st.pct.min_length_pct(x)      # asserts agreement of both sides
        count += 1
    assert count > 0


# -- 9: converse characterization ------------------------------------------------

def test_9_converse(scan_stack):
    st, elements = scan_stack
    for x in elements:
        flag, v = st.pct.pct_characterize(x)
        assert flag == bool(st.pct.positive_coxeter_pairs(x))
        if flag:
            assert v in st.aw.lp_set(x)
