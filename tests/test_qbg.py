"""Quantum Bruhat graphs: edges, distances, common weights."""

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
    kinds = [k for edges in qa2.edges for (_, _, _, k) in edges]
    assert kinds.count('bruhat') == 8
    assert kinds.count('quantum') == 7


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


def test_connectivity_check_names_datum():
    q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl2')))
    q.edges[1] = []                       # drop the quantum edge 1 -> 0
    with pytest.raises(InvariantError, match=r"^datum 'sl2': quantum Bruhat "
                       r"graph is not strongly connected: \[1\] reaches 1 of "
                       r"2 elements$") as info:
        q.distance_weight(1, 0)
    assert (info.value.datum, info.value.element) == ('sl2', None)


def test_coxeter_path_check_names_vertex_and_word_by_letters():
    q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl2')))
    q.edges                               # the graph keeps the true weight
    q.coroot_coords[0] = (5,)             # s1 -> e now adds 5 alpha^vee
    with pytest.raises(InvariantError, match=r"^datum 'sl2': the "
                       r'Coxeter-word path from \[1\] along \[1\] has length '
                       r'1 and weight \(5,\), but the shortest paths have '
                       r'length 1 and weight \(1,\)$'):
        q.coxeter_path(q.W.simple[0], [0])


def test_weight_mismatch_names_vertices_by_word():
    """Two shortest routes s1 -> s1 s2 -> w0 and s1 -> s2 s1 -> w0 of
    sl3 that carry different weights: the check names the source and the
    vertex where they merge by their 1-based words."""
    q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl3')))
    W = q.W
    s1, s12 = W.simple[0], W.from_word([0, 1])
    q.edges[s12] = [(v, (5, 5), root, kind)
                    for v, _, root, kind in q.edges[s12]]
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
                edges[w].append((ws, zero, i, 'bruhat'))
            elif lws == lw + 1 - q.pair_2rho[i]:
                edges[w].append((ws, q.coroot_coords[i], i, 'quantum'))
    return edges


@pytest.mark.parametrize('name', sorted(set(BUILTIN_DATA) - {'e6_adjoint'}))
def test_edges_match_eager_loop(name):
    q = QuantumBruhatGraph(WeylGroup(builtin_datum(name)))
    assert 'edges' not in q.__dict__
    assert q.edges == eager_edges(q)


def test_edges_form_on_first_query_only(monkeypatch):
    """Pairs, the converse characterization and the finite Coxeter part
    read no QBG edge, on tau3 s1 and on sampled gl6 elements; the first
    thmA_report forms every edge, once."""
    formed = []
    form = QuantumBruhatGraph.edges.func

    def edges(q):
        formed.append(q)
        return form(q)
    counted = cached_property(edges)
    counted.__set_name__(QuantumBruhatGraph, 'edges')
    monkeypatch.setattr(QuantumBruhatGraph, 'edges', counted)
    ctx = Context('gl6')
    aw, pct = ctx.aw, ctx.pct
    tau3 = AffineElement(542, (0, 0, 0, 1, 1, 1))
    x = aw.mult(tau3, aw.from_weyl(ctx.W.simple[0]))
    for y in [x] + gl6_sample(aw, count=6):
        pct.positive_coxeter_pairs(y)
        pct.pct_characterize(y)
        pct.has_finite_coxeter_part(y)
    assert 'edges' not in ctx.qbg.__dict__ and not formed
    pct.thmA_report(x)
    pct.thmA_report(x, cross_validate=False)
    assert formed == [ctx.qbg] and 'edges' in ctx.qbg.__dict__
