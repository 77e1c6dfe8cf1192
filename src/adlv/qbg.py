"""The quantum Bruhat graph of a finite Weyl group.

Vertices are the elements of W.  For each positive root alpha there is
an edge w -> w s_alpha when either ell(w s_alpha) = ell(w) + 1 (a
Bruhat edge, weight 0) or ell(w s_alpha) = ell(w) + 1 - <alpha^vee, 2 rho>
(a quantum edge, weight alpha^vee).  Weights are stored as integer
coefficient vectors over the simple coroots.  All-pairs distances and
weights are computed by BFS; whenever two shortest routes merge, their
weights are compared, so the well-definedness of the weight function is
a runtime check rather than an assumption.
"""

from __future__ import annotations

from .datum import perm_orbit
from .lattice import solve_rational_combination, vec_add

__all__ = ['QuantumBruhatGraph']


class QuantumBruhatGraph:
    """QBG with distances, weights and Coxeter-word paths.

    >>> from adlv.datum import builtin_datum
    >>> from adlv.weyl import WeylGroup
    >>> q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl2')))
    >>> sorted(q.edges[0]), sorted(q.edges[1])
    ([(1, (0,), 0, 'bruhat')], [(0, (1,), 0, 'quantum')])
    >>> q.distance_weight(1, 0)
    (1, (1,))
    """

    def __init__(self, weyl):
        self.W = weyl
        self.datum = weyl.datum
        d = self.datum
        # coefficients of each positive coroot over the simple coroots
        self.coroot_coords = []
        for r in d.positive_roots:
            coeffs = solve_rational_combination(d.simple_coroots, r.coroot)
            assert coeffs is not None and all(c.denominator == 1 for c in coeffs)
            self.coroot_coords.append(tuple(int(c) for c in coeffs))
        self.pair_2rho = [self._pair(r.coroot) for r in d.positive_roots]
        zero = (0,) * d.rank
        self.edges = [[] for _ in range(self.W.size)]
        for w in range(self.W.size):
            lw = self.W.lengths[w]
            for i in range(d.num_positive):
                ws = self.W.mult(w, self.W.root_reflection[i])
                lws = self.W.lengths[ws]
                if lws == lw + 1:
                    self.edges[w].append((ws, zero, i, 'bruhat'))
                elif lws == lw + 1 - self.pair_2rho[i]:
                    self.edges[w].append((ws, self.coroot_coords[i], i,
                                          'quantum'))
        self._memo = {}

    def _pair(self, coroot):
        d = self.datum
        return sum(d.two_rho[j] * coroot[j] for j in range(d.dim))

    # -- distances and weights --------------------------------------------

    def _from_source(self, src):
        if src in self._memo:
            return self._memo[src]
        dist = {src: 0}
        weight = {src: (0,) * self.datum.rank}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v, wt, _root, _kind in self.edges[u]:
                    cand = vec_add(weight[u], wt)
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        weight[v] = cand
                        nxt.append(v)
                    elif dist[v] == dist[u] + 1 and weight[v] != cand:
                        raise AssertionError(
                            'quantum Bruhat graph weight mismatch at '
                            '%r -> %r' % (src, v))
            frontier = nxt
        if len(dist) != self.W.size:
            raise AssertionError('quantum Bruhat graph is not strongly '
                                 'connected')
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
            for v, wt, _root, _kind in self.edges[u]:
                # only edges that can stay on a shortest path
                dv, _ = self._from_source(v)
                if d0 + 1 + dv[w2] == target_d:
                    stack.append((v, vec_add(acc, wt), d0 + 1))
        return out

    # -- the Coxeter-word path ----------------------------------------------

    def coxeter_path(self, v, word):
        """Path v -> v s_{a_1} -> ... for a word with letters in pairwise
        distinct sigma-orbits; weight adds alpha_i^vee at each
        length-decreasing step.

        Returns (vertices, weight_coords).  Asserts the path is a
        shortest path with the common weight.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.weyl import WeylGroup
        >>> q = QuantumBruhatGraph(WeylGroup(builtin_datum('sl2')))
        >>> q.coxeter_path(0, [0])
        ([0, 1], (0,))
        """
        d = self.datum
        orbits_seen = set()
        for i in word:
            orb = frozenset(perm_orbit(d.sigma_perm, i))
            if orb & orbits_seen:
                raise ValueError('word letters must lie in distinct '
                                 'sigma-orbits')
            orbits_seen |= orb
        verts = [v]
        weight = [0] * d.rank
        cur = v
        for i in word:
            nxt = self.W.right[cur][i]
            if self.W.lengths[nxt] < self.W.lengths[cur]:
                coords = self.coroot_coords[d.simple_indices[i]]
                weight = [a + b for a, b in zip(weight, coords)]
            verts.append(nxt)
            cur = nxt
        dist, wt = self.distance_weight(v, cur)
        if dist != len(word):
            raise AssertionError('Coxeter-word path is not minimal: '
                                 'len %d vs distance %d' % (len(word), dist))
        if tuple(weight) != wt:
            raise AssertionError('Coxeter-word path weight differs from '
                                 'the common shortest-path weight')
        return verts, tuple(weight)

    # -- output -------------------------------------------------------------

    def to_dot(self):
        """DOT rendering: solid Bruhat edges, dashed quantum edges."""
        lines = ['digraph qbg {']
        for w in range(self.W.size):
            lines.append('  n%d [label="%s"];' % (w, _word_label(self.W, w)))
        for w in range(self.W.size):
            for v, _wt, root, kind in self.edges[w]:
                style = 'solid' if kind == 'bruhat' else 'dashed'
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
