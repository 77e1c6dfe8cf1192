"""The finite Weyl group of a root datum, fully tabulated.

Elements are integers indexing into BFS-ordered tables: index 0 is the
identity and indices are sorted by length, with ties broken by the
lexicographically least reduced word.  The group acts on the
cocharacter lattice through integer matrices.
"""

from __future__ import annotations

from .datum import perm_orbit
from .lattice import mat_identity, mat_mul, mat_vec, rational_rank, vec_sub

__all__ = ['WeylGroup']


class WeylGroup:
    """All elements of W with words, lengths, products and the action on X.

    >>> from adlv.datum import builtin_datum
    >>> w = WeylGroup(builtin_datum('sl3'))
    >>> w.size
    6
    >>> w.word(w.longest)
    (0, 1, 0)
    >>> w.length(w.longest)
    3
    """

    def __init__(self, datum):
        self.datum = datum
        n = datum.rank
        gens = [datum.reflection_matrix(datum.simple_indices[i])
                for i in range(n)]
        key = lambda m: tuple(tuple(r) for r in m)
        ident = mat_identity(datum.dim)
        mats = [ident]
        words = [()]
        index = {key(ident): 0}
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                for i in range(n):
                    m = mat_mul(mats[e], gens[i])
                    k = key(m)
                    if k not in index:
                        index[k] = len(mats)
                        mats.append(m)
                        words.append(words[e] + (i,))
                        nxt.append(index[k])
            frontier = nxt
        self.size = len(mats)
        self.mats = mats
        self.words = words
        self._index = index
        self.lengths = [len(w) for w in words]
        self.longest = max(range(self.size), key=lambda e: self.lengths[e])
        # right and left multiplication by generators
        self.right = [[index[key(mat_mul(mats[e], gens[i]))] for i in range(n)]
                      for e in range(self.size)]
        self.left = [[index[key(mat_mul(gens[i], mats[e]))] for i in range(n)]
                     for e in range(self.size)]
        self.inv = [0] * self.size
        for e in range(self.size):
            x = 0
            for i in reversed(words[e]):
                x = self.right[x][i]
            self.inv[e] = x
        # the simple reflections themselves
        self.simple = [self.right[0][i] for i in range(n)]
        # action of each element on the root list (by root index)
        nroots = len(datum.roots)
        self.root_action = []
        for e in range(self.size):
            inv_m = self.mats[self.inv[e]]
            row = []
            for r in datum.roots:
                moved = tuple(sum(r.covec[i] * inv_m[i][j]
                                  for i in range(datum.dim))
                              for j in range(datum.dim))
                row.append(datum.root_index[moved])
            self.root_action.append(row)
        # reflection through each root, as a group element
        self.root_reflection = [
            self._elem_of_mat(datum.reflection_matrix(i))
            for i in range(nroots)]
        # sigma as a permutation of W: w -> sigma w sigma^{-1}
        s, sinv = datum.sigma_matrix, datum.sigma_inv_matrix
        self.sigma_elem = [self._elem_of_mat(mat_mul(mat_mul(s, mats[e]), sinv))
                           for e in range(self.size)]
        self.sigma_inv_elem = [0] * self.size
        for e in range(self.size):
            self.sigma_inv_elem[self.sigma_elem[e]] = e
        self._parabolic_memo = {}

    def _elem_of_mat(self, m):
        return self._index[tuple(tuple(r) for r in m)]

    # -- basics ----------------------------------------------------------

    def word(self, e):
        """The stored (lexicographically least) reduced word, 0-based."""
        return self.words[e]

    def length(self, e):
        return self.lengths[e]

    def mult(self, a, b):
        """Product ab."""
        for i in self.words[b]:
            a = self.right[a][i]
        return a

    def from_word(self, word):
        """Element with the given word of 0-based simple indices.

        >>> from adlv.datum import builtin_datum
        >>> w = WeylGroup(builtin_datum('sl3'))
        >>> w.word(w.from_word([0, 1, 0, 1, 0]))
        (1,)
        """
        e = 0
        for i in word:
            e = self.right[e][i]
        return e

    def act(self, e, mu):
        """Action on a cocharacter vector."""
        return mat_vec(self.mats[e], mu)

    def act_root(self, e, root_idx):
        return self.root_action[e][root_idx]

    def inverse(self, e):
        return self.inv[e]

    def sigma(self, e):
        """The image of e under the diagram automorphism."""
        return self.sigma_elem[e]

    def sigma_inv(self, e):
        return self.sigma_inv_elem[e]

    def descents_right(self, e):
        n = self.datum.rank
        return [i for i in range(n) if self.lengths[self.right[e][i]] < self.lengths[e]]

    def bruhat_leq(self, u, w):
        """Bruhat order, by the subword recursion on a reduced word of w.

        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sl3'))
        >>> g.bruhat_leq(g.simple[0], g.longest)
        True
        """
        while True:
            if self.lengths[u] > self.lengths[w]:
                return False
            if u == 0:
                return True
            if w == 0:
                return False
            i = self.words[w][0]
            su = self.left[u][i]
            if self.lengths[su] < self.lengths[u]:
                u = su
            w = self.left[w][i]

    # -- subgroups --------------------------------------------------------

    def parabolic(self, subset):
        """Sorted tuple of the elements of the parabolic subgroup W_J."""
        subset = tuple(sorted(subset))
        if subset in self._parabolic_memo:
            return self._parabolic_memo[subset]
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                for i in subset:
                    f = self.right[e][i]
                    if f not in seen:
                        seen.add(f)
                        nxt.append(f)
            frontier = nxt
        out = tuple(sorted(seen, key=lambda e: (self.lengths[e], self.words[e])))
        self._parabolic_memo[subset] = out
        return out

    def support(self, e):
        """Set of simple indices occurring in a reduced word of e."""
        return frozenset(self.words[e])

    def min_coset_rep(self, e, subset):
        """Minimal representative of e W_J."""
        changed = True
        while changed:
            changed = False
            for i in subset:
                f = self.right[e][i]
                if self.lengths[f] < self.lengths[e]:
                    e = f
                    changed = True
        return e

    def dominant_representative(self, mu):
        """(v, lam): minimal v in W with v^{-1} mu = lam dominant.

        Works for integer or Fraction vectors.

        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sl2'))
        >>> g.dominant_representative((-1,))
        (1, (1,))
        """
        d = self.datum
        best = None
        for v in range(self.size):
            lam = self.act(self.inv[v], mu)
            if d.is_dominant(lam):
                if best is None or self.lengths[v] < self.lengths[best[0]]:
                    best = (v, lam)
        return best

    # -- twisted conjugation in W ------------------------------------------

    def reflection_length_sigma(self, e):
        """Fixed-space codimension of sigma w relative to sigma.

        This is dim X^sigma - dim X^{sigma w}, the sigma-twisted
        reflection length.

        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sp4'))
        >>> g.reflection_length_sigma(g.from_word([1, 0]))
        2
        >>> g.reflection_length_sigma(g.from_word([1, 0, 1, 0]))
        2
        """
        d = self.datum
        sm = mat_mul(d.sigma_matrix, self.mats[e])
        rows_sw = [vec_sub(tuple(sm[i]), tuple(int(i == j) for j in range(d.dim)))
                   for i in range(d.dim)]
        rows_s = [vec_sub(tuple(d.sigma_matrix[i]),
                          tuple(int(i == j) for j in range(d.dim)))
                  for i in range(d.dim)]
        return rational_rank(rows_sw) - rational_rank(rows_s)

    def is_partial_sigma_coxeter(self, e):
        """True when e is a product of one reflection per sigma-orbit of a
        subset of the simple reflections, i.e. its length equals its
        sigma-twisted reflection length.

        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sl3'))
        >>> g.is_partial_sigma_coxeter(g.from_word([0, 1]))
        True
        >>> g.is_partial_sigma_coxeter(g.longest)
        False
        """
        return self.lengths[e] == self.reflection_length_sigma(e)

    def sigma_support(self, e):
        """Union of the sigma-orbits meeting the support of e."""
        return frozenset(j for i in self.support(e)
                         for j in perm_orbit(self.datum.sigma_perm, i))

    def is_sigma_coxeter_in(self, e, subset):
        """True when e is a sigma-Coxeter element of W_J: partial
        sigma-Coxeter with sigma-support exactly J."""
        subset = frozenset(subset)
        if not self.datum.is_sigma_stable(subset):
            return False
        return (self.is_partial_sigma_coxeter(e)
                and self.sigma_support(e) == subset)

    def sigma_conjugates(self, e):
        """All v^{-1} e sigma(v) for v in W."""
        return {self.mult(self.mult(self.inv[v], e), self.sigma_elem[v])
                for v in range(self.size)}

    def sigma_conjugate_to_partial_coxeter(self, e):
        """True when some sigma-conjugate of e is partial sigma-Coxeter.

        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sp4'))
        >>> g.sigma_conjugate_to_partial_coxeter(g.longest)
        False
        """
        return any(self.is_partial_sigma_coxeter(f)
                   for f in self.sigma_conjugates(e))

    def is_sigma_elliptic(self, e):
        """True when no sigma-conjugate of e lies in a proper sigma-stable
        parabolic subgroup W_J."""
        n = self.datum.rank
        full = frozenset(range(n))
        for f in self.sigma_conjugates(e):
            if self.sigma_support(f) != full:
                return False
        return True

    def coxeter_conjugator(self, c1, c2, subset=None):
        """Some u (in W_J when a subset is given) with u^{-1} c1 sigma(u) = c2,
        or None.  Any two sigma-Coxeter elements of the same W_J are
        sigma-conjugate by such a u."""
        pool = self.parabolic(tuple(sorted(subset))) if subset is not None \
            else range(self.size)
        for u in pool:
            if self.mult(self.mult(self.inv[u], c1), self.sigma_elem[u]) == c2:
                return u
        return None
