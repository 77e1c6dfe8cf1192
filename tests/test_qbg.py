"""Quantum Bruhat graphs: edges, distances, common weights."""

import itertools
from functools import cached_property

import pytest

from adlv.affine import AffineElement
from adlv.context import Context
from adlv.datum import BUILTIN_DATA, InvariantError, builtin_datum
from adlv.qbg import QuantumBruhatGraph
from adlv.weyl import WeylGroup

from test_affine import gl6_sample


@pytest.fixture(scope='module')
def qa2():
    return QuantumBruhatGraph(WeylGroup(builtin_datum('sl3')))


def test_a2_edge_counts(qa2):
    """8 Bruhat edges, of weight zero, and 7 quantum edges."""
    quantum = [any(wt) for edges in qa2.edges for (_, wt, _) in edges]
    assert quantum.count(False) == 8
    assert quantum.count(True) == 7


def test_a2_frozen_distances(qa2):
    W = qa2.W
    e = 0
    w0 = W.longest
    s1 = W.simple[0]
    s12 = W.from_word([0, 1])
    # upward: graph distance equals length difference, weight zero
    assert qa2.distance_weight(e, w0) == (3, (0, 0))
    # w0 => e: distance 1 through the quantum edge of the highest root
    assert qa2.distance_weight(w0, e) == (1, (1, 1))
    # s1 s2 => s1: one quantum edge, weight alpha_2^vee
    assert qa2.distance_weight(s12, s1) == (1, (0, 1))
    assert qa2.distance_weight(e, e) == (0, (0, 0))


def test_all_pairs_shortest_weights_unique(qa2):
    for w in range(qa2.W.size):
        for w2 in range(qa2.W.size):
            weights = qa2.all_shortest_path_weights(w, w2)
            assert len(weights) == 1
            d, wt = qa2.distance_weight(w, w2)
            assert weights == {wt}


def test_weight_vector(qa2):
    assert qa2.weight_vector((1, 1)) == (1, 0, -1) or \
        qa2.weight_vector((1, 1)) == tuple(
            a + b for a, b in zip(qa2.datum.simple_coroots[0],
                                  qa2.datum.simple_coroots[1]))


def test_coxeter_path(qa2):
    verts, wt = qa2.coxeter_path(0, [0, 1])
    assert verts[0] == 0 and len(verts) == 3
    assert wt == (0, 0)
    with pytest.raises(ValueError):
        qa2.coxeter_path(0, [0, 0])


def test_coxeter_path_flip():
    q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl3_flip')))
    # letters 0 and 1 share a sigma-orbit
    with pytest.raises(ValueError):
        q.coxeter_path(0, [0, 1])
    verts, wt = q.coxeter_path(q.W.longest, [0])
    assert len(verts) == 2


def coxeter_words(datum):
    """Every word whose letters lie in pairwise distinct sigma-orbits."""
    for k in range(datum.rank + 1):
        for word in itertools.permutations(range(datum.rank), k):
            if len({datum.simple_orbit[i] for i in word}) == k:
                yield word


@pytest.mark.parametrize('name', sorted(set(BUILTIN_DATA)
                                        - {'gl6', 'e6_adjoint'}))
def test_coxeter_path_matches_bfs(name):
    """The walk along a Coxeter word is a path of QBG edges whose length
    and weight are the BFS distance and common weight from v to v c, for
    every v and every such word, on every built-in with |W| <= 24."""
    q = QuantumBruhatGraph(WeylGroup(builtin_datum(name)))
    W = q.W
    assert W.size <= 24
    words = list(coxeter_words(q.datum))
    for v in range(W.size):
        for word in words:
            verts, wt = q.coxeter_path(v, list(word))
            assert verts[0] == v and len(verts) == len(word) + 1
            for u, nxt in zip(verts, verts[1:]):
                assert nxt in {e[0] for e in q.edges[u]}
            assert q.distance_weight(v, verts[-1]) == (len(word), wt), \
                (name, v, word)


def test_coxeter_path_matches_bfs_on_gl6_pairs():
    """On every positive Coxeter pair of a seeded gl6 sample, the walk
    from v along the word of c ends at sigma(wv) with the BFS weight."""
    ctx = Context('gl6')
    W, q = ctx.W, ctx.qbg
    pairs = [p for x in gl6_sample(ctx.aw, count=300)
             for p in ctx.pct.positive_coxeter_pairs(x)]
    assert len(pairs) > 20
    for p in pairs:
        verts, wt = q.coxeter_path(p.v, p.c_word)
        target = W.sigma(W.mult(p.x.w, p.v))
        assert verts[-1] == target
        assert q.distance_weight(p.v, target) == (len(p.c_word), wt), p


def test_connectivity_check_names_datum():
    q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl2')))
    q.edges[1] = []                       # drop the quantum edge 1 -> 0
    with pytest.raises(InvariantError, match=r"^datum 'sl2': quantum Bruhat "
                       r"graph is not strongly connected: \[1\] reaches 1 of "
                       r"2 elements$") as info:
        q.distance_weight(1, 0)
    assert (info.value.datum, info.value.element) == ('sl2', None)


def test_weight_mismatch_names_vertices_by_word():
    """Two shortest routes s1 -> s1 s2 -> w0 and s1 -> s2 s1 -> w0 of
    sl3 that carry different weights: the check names the source and the
    vertex where they merge by their 1-based words."""
    q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl3')))
    W = q.W
    s1, s12 = W.simple[0], W.from_word([0, 1])
    q.edges[s12] = [(v, (5, 5), root) for v, _, root in q.edges[s12]]
    with pytest.raises(InvariantError, match=r"^datum 'sl3': quantum Bruhat "
                       r"graph weight mismatch at \[1\] -> \[1, 2, 1\]$"):
        q.distance_weight(s1, W.longest)


def test_dot_output(qa2):
    dot = qa2.to_dot()
    assert dot.startswith('digraph') and 'dashed' in dot and 'solid' in dot


def eager_edges(q):
    """Oracle: every edge of the graph, formed by the loop its constructor
    once ran, for each vertex and each positive root in index order."""
    W, d = q.W, q.datum
    zero = (0,) * d.rank
    edges = [[] for _ in range(W.size)]
    for w in range(W.size):
        lw = W.lengths[w]
        for i in range(d.num_positive):
            ws = W.mult(w, W.root_reflection[i])
            lws = W.lengths[ws]
            if lws == lw + 1:
                edges[w].append((ws, zero, i))
            elif lws == lw + 1 - q.pair_2rho[i]:
                edges[w].append((ws, q.coroot_coords[i], i))
    return edges


@pytest.mark.parametrize('name', sorted(set(BUILTIN_DATA) - {'e6_adjoint'}))
def test_edges_match_eager_loop(name):
    q = QuantumBruhatGraph(WeylGroup(builtin_datum(name)))
    assert 'edges' not in q.__dict__
    assert q.edges == eager_edges(q)


def dot_oracle(q):
    """Oracle: the DOT text of every edge of ``eager_edges``, an edge
    solid when ell(w s_alpha) = ell(w) + 1 and dashed otherwise, the
    length rule the edge loop once stored as the edge's kind."""
    W, d = q.W, q.datum
    lines = ['digraph qbg {']
    for w in range(W.size):
        word = ''.join('s%d' % (i + 1) for i in W.words[w]) or 'e'
        lines.append('  n%d [label="%s"];' % (w, word))
    for w, edges in enumerate(eager_edges(q)):
        for v, _wt, root in edges:
            style = ('solid' if W.lengths[v] == W.lengths[w] + 1
                     else 'dashed')
            label = '+'.join(
                '%sa%d' % ({1: '', -1: '-'}.get(c, str(c)), i + 1)
                for i, c in enumerate(d.roots[root].coords) if c) or '0'
            lines.append('  n%d -> n%d [style=%s, label="%s"];'
                         % (w, v, style, label))
    lines.append('}')
    return '\n'.join(lines)


@pytest.mark.parametrize('name', sorted(set(BUILTIN_DATA) - {'e6_adjoint'}))
def test_dot_matches_oracle(name):
    """to_dot, which reads the style off the weight, renders byte for
    byte what the length rule gives, on every built-in but e6_adjoint."""
    q = QuantumBruhatGraph(WeylGroup(builtin_datum(name)))
    assert q.to_dot() == dot_oracle(q)


def test_edges_form_on_first_query_only(monkeypatch):
    """Pairs, the converse characterization and the finite Coxeter part
    read no QBG edge, on tau3 s1 and on sampled gl6 elements; neither do
    the positive Coxeter reports (thmA_report with and without its tree
    cross-check, bgx_interval, endpoint_class) on tau3 s1 and on a gl6
    element with ten classes, nor do they run a BFS.  The first
    distance_weight forms every edge, once."""
    formed = []
    form = QuantumBruhatGraph.edges.func

    def edges(q):
        formed.append(q)
        return form(q)
    counted = cached_property(edges)
    counted.__set_name__(QuantumBruhatGraph, 'edges')
    monkeypatch.setattr(QuantumBruhatGraph, 'edges', counted)
    ctx = Context('gl6')
    aw, pct, qbg = ctx.aw, ctx.pct, ctx.qbg
    tau3 = AffineElement(542, (0, 0, 0, 1, 1, 1))
    x = aw.mult(tau3, aw.from_weyl(ctx.W.simple[0]))
    for y in [x] + gl6_sample(aw, count=6):
        pct.positive_coxeter_pairs(y)
        pct.pct_characterize(y)
        pct.has_finite_coxeter_part(y)
    y = aw.parse_element('{"w": [1, 2, 3, 4, 3, 5, 4], '
                         '"mu": [-1, -1, -1, -2, -2, -1]}')
    for z in (x, y):
        pct.thmA_report(z)
        pct.thmA_report(z, cross_validate=False)
        pair = pct.positive_coxeter_pairs(z)[0]
        for b in pct.bgx_interval(pair):
            pct.endpoint_class(pair, b)
    assert len(pct.bgx_interval(pair)) == 10
    assert 'edges' not in qbg.__dict__ and not qbg._memo and not formed
    qbg.distance_weight(0, ctx.W.longest)
    qbg.distance_weight(ctx.W.longest, 0)
    assert formed == [qbg] and 'edges' in qbg.__dict__
