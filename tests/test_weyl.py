"""Finite Weyl groups: tabulation, Bruhat order, sigma-twisted lengths."""

import gc
import itertools
import weakref

import pytest

from adlv.datum import builtin_datum
from adlv.weyl import WeylGroup

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


def test_bruhat_leq_against_subword_oracle():
    g = WeylGroup(builtin_datum('sl3'))

    def subword_oracle(u, w):
        word = g.words[w]
        target = g.words[u]
        for picks in itertools.combinations(range(len(word)), len(target)):
            cand = g.from_word([word[i] for i in picks])
            if cand == u and g.lengths[cand] == len(target):
                return True
        return u == 0
    for u in range(g.size):
        for w in range(g.size):
            assert g.bruhat_leq(u, w) == subword_oracle(u, w)


def test_dominant_representative():
    g = WeylGroup(builtin_datum('sp4'))
    d = g.datum
    for mu in itertools.product(range(-2, 3), repeat=2):
        v, lam = g.dominant_representative(mu)
        assert d.is_dominant(lam)
        assert g.act(v, lam) == tuple(mu) or g.act(g.inv[v], tuple(mu)) \
            == tuple(lam)


def test_min_coset_rep():
    g = WeylGroup(builtin_datum('sl3'))
    for e in range(g.size):
        r = g.min_coset_rep(e, (0,))
        assert g.lengths[r] <= g.lengths[e]
        # r differs from e by a right factor in W_{0}
        assert g.mult(g.inv[r], e) in g.parabolic((0,))


def test_sigma_twisted_reflection_length_split():
    # sigma = id: reflection length of a Coxeter element is the rank
    g = WeylGroup(builtin_datum('sp4'))
    cox = g.from_word([0, 1])
    assert g.reflection_length_sigma(cox) == 2
    assert g.is_partial_sigma_coxeter(cox)
    assert not g.is_partial_sigma_coxeter(g.longest)


def test_sigma_support_and_coxeter_flip():
    g = WeylGroup(builtin_datum('sl3_flip'))
    s0 = g.simple[0]
    # one letter from the single sigma-orbit {0,1}: sigma-Coxeter for J={0,1}
    assert g.sigma_support(s0) == frozenset({0, 1})
    assert g.is_partial_sigma_coxeter(s0)
    assert g.is_sigma_coxeter_in(s0, frozenset({0, 1}))
    # two letters from one orbit is not
    assert not g.is_partial_sigma_coxeter(g.from_word([0, 1]))


def test_sigma_conjugates_and_ellipticity():
    g = WeylGroup(builtin_datum('sp4'))
    cox = g.from_word([0, 1])
    assert g.is_sigma_elliptic(cox)
    assert not g.is_sigma_elliptic(g.simple[0])
    assert g.sigma_conjugate_to_partial_coxeter(g.from_word([1, 0]))
    assert not g.sigma_conjugate_to_partial_coxeter(g.longest)


def test_coxeter_conjugator():
    g = WeylGroup(builtin_datum('sl3'))
    c1 = g.from_word([0, 1])
    c2 = g.from_word([1, 0])
    u = g.coxeter_conjugator(c1, c2)
    assert u is not None
    assert g.mult(g.mult(g.inv[u], c1), g.sigma_elem[u]) == c2


def test_parabolic_memo_does_not_keep_the_group_alive():
    g = WeylGroup(builtin_datum('sl3'))
    assert g.parabolic((0,)) == (0, g.simple[0])
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
