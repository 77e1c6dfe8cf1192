"""The quantum Bruhat graph of a finite Weyl group.

Vertices are the elements of W.  For each positive root alpha there is
an edge w -> w s_alpha when either ell(w s_alpha) = ell(w) + 1 (a
Bruhat edge, weight 0) or ell(w s_alpha) = ell(w) + 1 - <alpha^vee, 2 rho>
(a quantum edge, weight alpha^vee).  Weights are stored as integer
coefficient vectors over the simple coroots.  All-pairs distances and
weights are computed by BFS; whenever two shortest routes merge, their
weights are compared, so the well-definedness of the weight function is
a runtime check rather than an assumption.

Building the graph forms only the pairing of each positive coroot with
2 rho.  The integer coordinates of each coroot over the simple coroots
are the ones the root closure formed (``datum.root_closure``), kept on
the root list, so no linear system is solved.  The edges, |W| |Phi+|
products in W, are formed for every vertex at the first query that
reads them: a distance or weight (``distance_weight``, read by ``adlv
qbg dist|weight``), the path oracle ``all_shortest_path_weights`` or DOT
output.  The Coxeter-word path (``coxeter_path``, read by the generic
class of every positive Coxeter report) walks the Weyl tables and forms
no edge, so a caller that holds a graph but never queries its distances
pays nothing for them.
"""

from __future__ import annotations

from functools import cached_property

from .datum import InvariantError
from .lattice import vec_add, vec_dot

__all__ = ['QuantumBruhatGraph']


class QuantumBruhatGraph:
    """QBG with distances, weights and Coxeter-word paths.

    ``edges`` is formed on its first read, all of it at once: a search
    that formed each vertex's edges when it first reached it was slower,
    as every BFS from a source reaches all of W.

    >>> from adlv.datum import builtin_datum
    >>> from adlv.weyl import WeylGroup
    >>> q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl2')))
    >>> sorted(q.edges[0]), sorted(q.edges[1])
    ([(1, (0,), 0)], [(0, (1,), 0)])
    >>> q.distance_weight(1, 0)
    (1, (1,))
    """

    def __init__(self, weyl):
        self.W = weyl
        self.datum = weyl.datum
        d = self.datum
        # coefficients of each positive coroot over the simple coroots
        self.coroot_coords = [r.coroot_coords for r in d.positive_roots]
        self.pair_2rho = [vec_dot(d.two_rho, r.coroot)
                          for r in d.positive_roots]
        self._memo = {}

    @cached_property
    def edges(self):
        """edges[w]: the out-edges (w s_alpha, weight, root index) of w,
        for the positive roots alpha in index order; formed for every
        vertex at the first read.  The weight tells the kind: zero on a
        Bruhat edge, the nonzero alpha^vee on a quantum edge."""
        W, d = self.W, self.datum
        zero = (0,) * d.rank
        edges = [[] for _ in range(W.size)]
        for w in range(W.size):
            lw = W.lengths[w]
            for i in range(d.num_positive):
                ws = W.mult(w, W.root_reflection[i])
                lws = W.lengths[ws]
                if lws == lw + 1:
                    edges[w].append((ws, zero, i))
                elif lws == lw + 1 - self.pair_2rho[i]:
                    edges[w].append((ws, self.coroot_coords[i], i))
        return edges

    # -- distances and weights --------------------------------------------

    def _from_source(self, src):
        if src in self._memo:
            return self._memo[src]
        dist = {src: 0}
        weight = {src: (0,) * self.datum.rank}
        members = [src]
        for u in members:                    # grows as the BFS goes
            for v, wt, _root in self.edges[u]:
                cand = vec_add(weight[u], wt)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    weight[v] = cand
                    members.append(v)
                elif dist[v] == dist[u] + 1 and weight[v] != cand:
                    raise InvariantError(self.datum.name, 'quantum Bruhat '
                                         'graph weight mismatch at %s -> %s'
                                         % (self._word(src), self._word(v)))
        if len(dist) != self.W.size:
            raise InvariantError(
                self.datum.name, 'quantum Bruhat graph is not strongly '
                'connected: %s reaches %d of %d elements'
                % (self._word(src), len(dist), self.W.size))
        self._memo[src] = (dist, weight)
        return self._memo[src]

    def distance_weight(self, w, w2):
        """(d, wt): distance and the common weight of all shortest paths,
        as a coefficient tuple over the simple coroots."""
        dist, weight = self._from_source(w)
        return dist[w2], weight[w2]

    def weight_vector(self, wt_coords):
        """Convert a weight coefficient tuple to a lattice vector."""
        d = self.datum
        out = (0,) * d.dim
        for c, g in zip(wt_coords, d.simple_coroots):
            out = vec_add(out, tuple(c * y for y in g))
        return out

    def all_shortest_path_weights(self, w, w2):
        """Weights of ALL shortest paths, by explicit path enumeration.

        An independent (slower) oracle for the merge check in
        :meth:`distance_weight`; returns the set of weights found.
        """
        dist, _ = self._from_source(w)
        target_d = dist[w2]
        out = set()
        zero = (0,) * self.datum.rank
        stack = [(w, zero, 0)]
        while stack:
            u, acc, d0 = stack.pop()
            if u == w2 and d0 == target_d:
                out.add(acc)
                continue
            if d0 >= target_d:
                continue
            for v, wt, _root in self.edges[u]:
                # only edges that can stay on a shortest path
                dv, _ = self._from_source(v)
                if d0 + 1 + dv[w2] == target_d:
                    stack.append((v, vec_add(acc, wt), d0 + 1))
        return out

    def _word(self, w):
        """The 1-based word of w, as ``adlv qbg --source`` takes it."""
        return [i + 1 for i in self.W.words[w]]

    # -- the Coxeter-word path ----------------------------------------------

    def coxeter_path(self, v, word):
        """Path v -> v s_{a_1} -> ... for a word with letters in pairwise
        distinct sigma-orbits; weight adds alpha_i^vee at each
        length-decreasing step.

        Returns (vertices, weight_coords): a shortest path from v to v c,
        c the product of the word, and the common weight of all shortest
        paths, formed by the walk alone, reading no edge.

        (a) Each step is an edge.  A step up, ell(u s_i) = ell(u) + 1, is
        a Bruhat edge.  A step down has ell(u s_i) = ell(u) - 1 =
        ell(u) + 1 - <alpha_i^vee, 2 rho>, so it is a quantum edge of
        weight alpha_i^vee.

        (b) The walk is a shortest path.  Every edge is right
        multiplication by a reflection, so the distance from v to v c is
        at least the reflection length ell_R(c).  The letters are
        distinct, so their roots are linearly independent, and ell_R(c)
        is the number of letters (Carter, "Conjugacy classes in the Weyl
        group", Compositio Math. 25, 1972, Lemma 2), which the walk
        attains.

        (c) Every shortest path from v to v c carries the same weight
        (Postnikov, "Quantum Bruhat graph and Schubert polynomials",
        Proc. AMS 133, 2005), so the walk's weight is that weight.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.weyl import WeylGroup
        >>> q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl2')))
        >>> q.coxeter_path(0, [0]), q.coxeter_path(1, [0])
        (([0, 1], (0,)), ([1, 0], (1,)))
        """
        d = self.datum
        if len({d.simple_orbit[i] for i in word}) != len(word):
            raise ValueError('word letters must lie in distinct '
                             'sigma-orbits')
        verts = [v]
        weight = [0] * d.rank
        cur = v
        for i in word:
            nxt = self.W.right[cur][i]
            if self.W.lengths[nxt] < self.W.lengths[cur]:
                weight[i] += 1      # alpha_i^vee, over the simple coroots
            verts.append(nxt)
            cur = nxt
        return verts, tuple(weight)

    # -- output -------------------------------------------------------------

    def to_dot(self):
        """DOT rendering: solid Bruhat edges, dashed quantum edges, told
        apart by the weight, zero exactly on a Bruhat edge."""
        lines = ['digraph qbg {']
        for w in range(self.W.size):
            lines.append('  n%d [label="%s"];' % (w, _word_label(self.W, w)))
        for w in range(self.W.size):
            for v, wt, root in self.edges[w]:
                style = 'dashed' if any(wt) else 'solid'
                label = _root_label(self.datum, root)
                lines.append('  n%d -> n%d [style=%s, label="%s"];'
                             % (w, v, style, label))
        lines.append('}')
        return '\n'.join(lines)


def _word_label(weyl, w):
    word = weyl.words[w]
    return 'e' if not word else ''.join('s%d' % (i + 1) for i in word)


def _root_label(datum, root_idx):
    coords = datum.roots[root_idx].coords
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        prefix = '' if c == 1 else '-' if c == -1 else str(c)
        parts.append('%sa%d' % (prefix, i + 1))
    return '+'.join(parts) if parts else '0'
