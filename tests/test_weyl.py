"""Finite Weyl groups: tabulation, dominant representatives,
sigma-twisted lengths and sigma-conjugacy."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlv.affine import AffineElement, AffineWeyl
from adlv.datum import BUILTIN_DATA, builtin_datum, datum_from_config
from adlv.lattice import (mat_identity, mat_inverse_unimodular, mat_mul,
                          mat_vec, rational_rank)
from adlv.weyl import WeylGroup

from test_affine import (lp_set_per_v, positive_image_mask,
                         simple_sigma_conjugate_two_products)
from test_datum import reflection_matrix

ORDERS = {'sl2': 2, 'sl3': 6, 'sl4': 24, 'sp4': 8, 'g2': 12}
LONGEST = {'sl2': 1, 'sl3': 3, 'sl4': 6, 'sp4': 4, 'g2': 6}


@pytest.mark.parametrize('name', sorted(ORDERS))
def test_orders_and_longest(name):
    g = WeylGroup(builtin_datum(name))
    assert g.size == ORDERS[name]
    assert g.lengths[g.longest] == LONGEST[name]
    for e in range(g.size):
        assert g.mult(e, g.inv[e]) == 0
        assert g.from_word(g.words[e]) == e


def test_dominant_representative():
    g = WeylGroup(builtin_datum('sp4'))
    d = g.datum
    for mu in itertools.product(range(-2, 3), repeat=2):
        v, lam = g.dominant_representative(mu)
        assert d.is_dominant(lam)
        assert g.act(v, lam) == tuple(mu) or g.act(g.inv[v], tuple(mu)) \
            == tuple(lam)


def act_matrix(g, e):
    """The matrix of e on X, its columns the images of the unit vectors."""
    return [list(row) for row in zip(*(g.act(e, u)
                                       for u in mat_identity(g.datum.dim)))]


def scan_dominant_representative(g, mats, mu):
    """Oracle: scan all of W, acting by the matrices ``mats`` (promoting a
    vector with a Fraction entry to all Fractions), for the shortest v
    with v^{-1} mu dominant."""
    best = None
    for v in range(g.size):
        lam = mat_vec(mats[g.inv[v]], mu)
        if g.datum.is_dominant(lam):
            if best is None or g.lengths[v] < g.lengths[best[0]]:
                best = (v, lam)
    return best


def typed(vec):
    return [(type(x), x) for x in vec]


@pytest.mark.parametrize('name', sorted(set(BUILTIN_DATA) - {'e6_adjoint'}))
def test_dominant_representative_matches_scan(name):
    g = WeylGroup(builtin_datum(name))
    mats = oracle_mats(name)
    rng = random.Random(name)
    count = 4 if g.size > 100 else 20
    dim = g.datum.dim
    # zero, and two mixed int/Fraction vectors, one already dominant on gl
    vectors = [(0,) * dim, (Fraction(1, 2),) + (0,) * (dim - 1),
               (0,) * (dim - 1) + (Fraction(1, 2),)]
    for k in range(count):
        if k % 2:
            vectors.append(tuple(rng.randint(-4, 4) for _ in range(dim)))
        else:
            vectors.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(dim)))
    for mu in vectors:
        v, lam = g.dominant_representative(mu)
        want_v, want_lam = scan_dominant_representative(g, mats, mu)
        assert v == want_v
        assert typed(lam) == typed(want_lam)


@functools.lru_cache(maxsize=None)
def weyl_group(name):
    return WeylGroup(builtin_datum(name))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(['sl2', 'sl3_flip', 'gl3', 'sp4', 'g2', 'gl4']),
       st.integers(1, 12), st.data())
def test_dominant_representative_on_numerators_matches_fractions(name, den,
                                                                 data):
    """The descent on integer numerators, divided by den afterwards, is the
    descent on the Fraction vector num / den, types included."""
    g = weyl_group(name)
    num = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=g.datum.dim,
                                   max_size=g.datum.dim)))
    v, lam = g.dominant_representative(num)
    want_v, want_lam = g.dominant_representative(
        tuple(Fraction(x, den) for x in num))
    assert v == want_v
    assert typed([Fraction(c, den) for c in lam]) == typed(want_lam)


def reflection_length_sigma(g, e):
    """Fixed-space codimension of sigma w relative to sigma.

    This is dim X^sigma - dim X^{sigma w}, the sigma-twisted reflection
    length, computed as a rank (Carter, "Conjugacy classes in the Weyl
    group", Compositio Math. 25, 1972).  It is the other side of the
    lemma that it equals l(w) exactly when w is partial sigma-Coxeter,
    which acceptance test 7 checks against ``is_partial_sigma_coxeter``
    and a search over all reduced words.

    >>> g = WeylGroup(builtin_datum('sp4'))
    >>> reflection_length_sigma(g, g.from_word([1, 0]))
    2
    >>> reflection_length_sigma(g, g.from_word([1, 0, 1, 0]))
    2
    """
    sigma = g.datum.sigma_matrix
    return (_rank_minus_identity(mat_mul(sigma, act_matrix(g, e)))
            - _rank_minus_identity(sigma))


def _rank_minus_identity(m):
    """rank(m - 1) for a square integer matrix m."""
    n = len(m)
    return rational_rank([[m[i][j] - (i == j) for j in range(n)]
                          for i in range(n)])


def test_sigma_twisted_reflection_length_split():
    # sigma = id: reflection length of a Coxeter element is the rank
    g = WeylGroup(builtin_datum('sp4'))
    cox = g.from_word([0, 1])
    assert reflection_length_sigma(g, cox) == 2
    assert g.is_partial_sigma_coxeter(cox)
    assert not g.is_partial_sigma_coxeter(g.longest)


def test_sigma_support_and_coxeter_flip():
    g = WeylGroup(builtin_datum('sl3_flip'))
    s0 = g.simple[0]
    # one letter from the single sigma-orbit {0,1}: sigma-Coxeter for J={0,1}
    assert g.sigma_support(s0) == frozenset({0, 1})
    assert g.is_partial_sigma_coxeter(s0)
    assert g.datum.is_sigma_stable(frozenset({0, 1}))
    # two letters from one orbit is not
    assert not g.is_partial_sigma_coxeter(g.from_word([0, 1]))


def sigma_conjugates(g, e):
    """Oracle: all v^{-1} e sigma(v) for v in W, by a scan of W."""
    return {g.mult(g.mult(g.inv[v], e), g.sigma_elem[v])
            for v in range(g.size)}


def is_sigma_elliptic(g, e):
    """True when no sigma-conjugate of e lies in a proper sigma-stable
    parabolic subgroup W_J."""
    full = frozenset(range(g.datum.rank))
    return all(g.sigma_support(f) == full for f in sigma_conjugates(g, e))


def parabolic(g, subset):
    """The elements of the parabolic subgroup W_J, by a breadth-first
    search over right multiplication by the simple reflections of J,
    sorted by index."""
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [f for f in {g.right[e][i] for e in frontier
                                for i in subset} if f not in seen]
        seen.update(frontier)
    return sorted(seen)


def coxeter_conjugator(g, c1, c2, subset=None):
    """Some u (in W_J when a subset is given) with u^{-1} c1 sigma(u) = c2,
    or None."""
    pool = parabolic(g, subset) if subset is not None else range(g.size)
    return next((u for u in pool
                 if g.mult(g.mult(g.inv[u], c1), g.sigma_elem[u]) == c2),
                None)


def test_sigma_conjugates_and_ellipticity():
    g = WeylGroup(builtin_datum('sp4'))
    cox = g.from_word([0, 1])
    assert is_sigma_elliptic(g, cox)
    assert not is_sigma_elliptic(g, g.simple[0])
    assert g.sigma_conjugate_to_partial_coxeter(g.from_word([1, 0]))
    assert not g.sigma_conjugate_to_partial_coxeter(g.longest)


@pytest.mark.parametrize('name', ['gl4', 'sl4_flip', 'sp4', 'so5', 'g2',
                                  'sl3_flip', 'pgl3', 'gl6'])
def test_sigma_class_walk_matches_scan_of_w(name):
    """The walk over the sigma-class against the scan of W, on every
    element of W, and on 50 seeded elements of W(A5) for gl6."""
    g = WeylGroup(builtin_datum(name))
    elements = range(g.size) if name != 'gl6' \
        else random.Random(6).sample(range(g.size), 50)
    for e in elements:
        want = any(map(g.is_partial_sigma_coxeter, sigma_conjugates(g, e)))
        assert g.sigma_conjugate_to_partial_coxeter(e) == want, g.words[e]


def test_coxeter_conjugator():
    g = WeylGroup(builtin_datum('sl3'))
    c1 = g.from_word([0, 1])
    c2 = g.from_word([1, 0])
    u = coxeter_conjugator(g, c1, c2)
    assert u is not None
    assert g.mult(g.mult(g.inv[u], c1), g.sigma_elem[u]) == c2


@pytest.mark.parametrize('name', ['gl4', 'sp4', 'g2', 'sl3_flip'])
def test_root_action_matches_covector_product(name):
    g = WeylGroup(builtin_datum(name))
    d = g.datum
    for e in range(g.size):
        inv_m = act_matrix(g, g.inv[e])
        assert list(g.root_action[e]) == [
            d.root_index[d._covec_times(r.covec, inv_m)] for r in d.roots]


def mat_key(m):
    return tuple(tuple(r) for r in m)


@pytest.mark.parametrize('name', ['gl4', 'sp4', 'g2', 'sl3_flip', 'sl4_flip'])
def test_tables_match_matrix_products(name):
    g = WeylGroup(builtin_datum(name))
    d = g.datum
    mats = [act_matrix(g, e) for e in range(g.size)]
    elem_of_mat = {mat_key(m): e for e, m in enumerate(mats)}
    assert len(elem_of_mat) == g.size
    gens = [mats[s] for s in g.simple]
    for e in range(g.size):
        for i, m in enumerate(gens):
            assert g.right[e][i] == elem_of_mat[mat_key(mat_mul(mats[e], m))]
            # s_i e = (e^{-1} s_i)^{-1}
            assert g.inv[g.right[g.inv[e]][i]] \
                == elem_of_mat[mat_key(mat_mul(m, mats[e]))]
        assert g.sigma_elem[e] == elem_of_mat[mat_key(mat_mul(
            mat_mul(d.sigma_matrix, mats[e]), d.sigma_inv_matrix))]


def matrix_bfs_tables(d):
    """Oracle: W tabulated by a breadth-first search keyed on matrices,
    one matrix product per edge, every table read off the matrices."""
    n = d.rank
    gens = [reflection_matrix(d, d.simple_indices[i]) for i in range(n)]
    mats = [mat_identity(d.dim)]
    words = [()]
    index = {mat_key(mats[0]): 0}
    right = [[0] * n]
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for i in range(n):
                m = mat_mul(mats[e], gens[i])
                k = mat_key(m)
                if k not in index:
                    index[k] = len(mats)
                    mats.append(m)
                    words.append(words[e] + (i,))
                    right.append([0] * n)
                    nxt.append(index[k])
                right[e][i] = index[k]
        frontier = nxt
    lengths = [len(w) for w in words]

    def elem(m):
        return index[mat_key(m)]
    inv = [elem(mat_inverse_unimodular(m)) for m in mats]
    root_action = [[d.root_index[d._covec_times(r.covec, mats[inv[e]])]
                    for r in d.roots] for e in range(len(mats))]
    return {
        'mats': mats, 'words': words, 'right': right,
        'left': [[elem(mat_mul(gen, m)) for gen in gens] for m in mats],
        'inv': inv, 'lengths': lengths,
        'longest': max(range(len(mats)), key=lambda e: lengths[e]),
        'root_action': root_action,
        'pos_mask': [positive_image_mask(d, row) for row in root_action],
        'root_reflection': [elem(reflection_matrix(d, j))
                            for j in range(len(d.roots))],
        'sigma_elem': [elem(mat_mul(mat_mul(d.sigma_matrix, m),
                                    d.sigma_inv_matrix)) for m in mats],
    }


# sigma-orbits of size 3 (triality) and size 2 at rank 4, none of them
# built in
TWISTED = {
    'd4_triality': {'type': 'D4', 'lattice_basis': 'sc',
                    'sigma_perm': [3, 2, 4, 1]},
    'd4_flip': {'type': 'D4', 'lattice_basis': 'sc',
                'sigma_perm': [1, 2, 4, 3]},
    'a4_flip': {'type': 'A4', 'lattice_basis': 'sc',
                'sigma_perm': [4, 3, 2, 1]},
}


@pytest.mark.parametrize('name', sorted(set(BUILTIN_DATA) - {'e6_adjoint'})
                         + sorted(TWISTED))
def test_tables_match_matrix_bfs(name):
    d = (datum_from_config(TWISTED[name]) if name in TWISTED
         else builtin_datum(name))
    g = WeylGroup(d)
    # the matrices formed from act, the bytes rows read as lists, s_i e
    # as (e^{-1} s_i)^{-1} and e(Phi+) off the root rows
    formed = {'mats': [act_matrix(g, e) for e in range(g.size)],
              'root_action': [list(row) for row in g.root_action],
              'left': [[g.inv[g.right[g.inv[e]][i]] for i in range(d.rank)]
                       for e in range(g.size)],
              'pos_mask': [positive_image_mask(d, row)
                           for row in g.root_action]}
    for table, want in matrix_bfs_tables(g.datum).items():
        got = formed[table] if table in formed else getattr(g, table)
        assert got == want, table


@functools.lru_cache(maxsize=None)
def oracle_mats(name):
    """The matrices of matrix_bfs_tables for a built-in, formed once."""
    return matrix_bfs_tables(builtin_datum(name))['mats']


@pytest.mark.parametrize('name', sorted(set(BUILTIN_DATA) - {'e6_adjoint'}))
def test_act_matches_matrix_oracle(name):
    """act by coweight shifts against the oracle's matrices, on every
    element, on the unit vectors and on two seeded integer vectors."""
    g = weyl_group(name)
    dim = g.datum.dim
    rng = random.Random(name)
    vectors = [tuple(u) for u in mat_identity(dim)] + [
        tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(2)]
    for e, m in enumerate(oracle_mats(name)):
        for mu in vectors:
            assert g.act(e, mu) == mat_vec(m, mu), (g.words[e], mu)


def test_e6_act_is_a_group_action(e6_weyl):
    """act on W(E6), which matrix_bfs_tables skips, on 2 000 seeded pairs:
    a product acts as the composite, and an inverse undoes its element.
    test_e6_reflections_match_reflection_matrices checks the action of
    every reflection."""
    g = e6_weyl
    rng = random.Random(6)
    for _ in range(2000):
        a, b = rng.randrange(g.size), rng.randrange(g.size)
        mu = tuple(rng.randint(-5, 5) for _ in range(g.datum.dim))
        assert g.act(g.mult(a, b), mu) == g.act(a, g.act(b, mu)), (a, b)
        assert g.act(g.inv[a], g.act(a, mu)) == mu, a


def test_e6_adjoint_order_and_longest(e6_weyl):
    g = e6_weyl
    assert g.size == 51840
    assert g.lengths[g.longest] == 36


def test_e6_adjoint_omega_elements(e6_weyl):
    aw = AffineWeyl(e6_weyl.datum, e6_weyl)
    pi1 = aw.datum.fundamental_group_presentation()
    taus = aw.omega_elements()
    assert len(taus) == 3
    assert all(aw.aff_length(t) == 0 for t in taus)
    assert len({pi1.project(t.mu) for t in taus}) == 3


def test_e6_partial_sigma_coxeter_matches_reflection_length(e6_weyl):
    # every partial sigma-Coxeter element of E6 has length at most the
    # rank, so lengths up to rank + 1 hold both answers
    g = e6_weyl
    short = [e for e in range(g.size) if g.lengths[e] <= 7]
    assert len(short) == 1220
    for e in short:
        assert g.is_partial_sigma_coxeter(e) == \
            (reflection_length_sigma(g, e) == g.lengths[e])


def test_e6_reflections_match_reflection_matrices(e6_weyl):
    """matrix_bfs_tables skips e6_adjoint: read the reflection tables off
    the reflection matrices of all 72 roots instead.  The matrix of each
    reflection is formed from act on the unit vectors."""
    g = e6_weyl
    d = g.datum
    assert len(d.roots) == 72
    for r in range(len(d.roots)):
        assert act_matrix(g, g.root_reflection[r]) \
            == reflection_matrix(d, r), r
    for i, s in enumerate(d.simple_indices):
        m = reflection_matrix(d, s)
        assert list(g.root_action[g.simple[i]]) == [
            d.root_index[d._covec_times(r.covec, m)] for r in d.roots], i


def test_e6_pos_mask_matches_root_action(e6_weyl):
    """e(Phi+) off the root row of e, on W(E6), which matrix_bfs_tables
    skips.  s_i permutes Phi+ less alpha_i and sends alpha_i to -alpha_i
    (Humphreys, 1.4), so e s_i swaps e(alpha_i) in e(Phi+) for
    e(-alpha_i); and l(e) of the roots in e(Phi+) are negative."""
    g = e6_weyl
    d = g.datum
    masks = [positive_image_mask(d, row) for row in g.root_action]
    negative = (1 << len(d.roots)) - (1 << d.num_positive)
    for f in range(1, g.size):
        i = g.words[f][-1]
        e = g.right[f][i]
        row, s = g.root_action[e], d.simple_indices[i]
        assert masks[f] == (masks[e] ^ (1 << row[s])
                            ^ (1 << row[d.negative(s)])), g.words[f]
        assert bin(masks[f] & negative).count('1') == g.lengths[f]


def inverse_by_root_key(g):
    """Oracle: e^{-1} sends each simple root alpha_s to the root that e
    sends to alpha_s, and W acts faithfully on the roots, so e^{-1} is the
    element with those images of the simple roots."""
    simple = g.datum.simple_indices
    index = {tuple(row[s] for s in simple): e
             for e, row in enumerate(g.root_action)}
    return [index[tuple(row.index(s) for s in simple)]
            for row in g.root_action]


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_inverse_matches_root_image_key(name, request):
    """The inverse table, formed by word walks, on every built-in, W(E6)
    included."""
    g = (request.getfixturevalue('e6_weyl') if name == 'e6_adjoint'
         else WeylGroup(builtin_datum(name)))
    assert g.inv == inverse_by_root_key(g)


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_index_order_is_length_then_least_reduced_word(name, request):
    """lp_set returns W indices unsorted, relying on this order.  The
    stored word is the least reduced word: it starts with the least left
    descent, followed by the stored word of what remains (by induction on
    the length)."""
    g = (request.getfixturevalue('e6_weyl') if name == 'e6_adjoint'
         else WeylGroup(builtin_datum(name)))
    keys = [(g.lengths[e], g.words[e]) for e in range(g.size)]
    assert keys == sorted(keys)

    def left(e, i):
        # s_i e = (e^{-1} s_i)^{-1}
        return g.inv[g.right[g.inv[e]][i]]
    for e in range(1, g.size):
        i = min(i for i in range(g.datum.rank)
                if g.lengths[left(e, i)] < g.lengths[e])
        assert g.words[e] == (i,) + g.words[left(e, i)]
        assert g.lengths[e] == len(g.words[e])


def test_e6_lp_set_matches_per_v_oracle(e6_weyl):
    aw = AffineWeyl(e6_weyl.datum, e6_weyl)
    rng = random.Random(6)
    sizes = []
    for _ in range(10):
        x = AffineElement(rng.randrange(aw.W.size),
                          tuple(rng.randint(-1, 1) for _ in range(6)))
        lp = aw.lp_set(x)
        assert lp == lp_set_per_v(aw, x), x
        sizes.append(len(lp))
    assert max(sizes) > 1


def test_e6_simple_sigma_conjugate_matches_two_products(e6_weyl):
    aw = AffineWeyl(e6_weyl.datum, e6_weyl)
    rng = random.Random(6)
    for _ in range(200):
        x = AffineElement(rng.randrange(aw.W.size),
                          tuple(rng.randint(-2, 2) for _ in range(6)))
        for a in aw.simple_affine:
            assert (aw.simple_sigma_conjugate(x, a)
                    == simple_sigma_conjugate_two_products(aw, x, a)), (x, a)
