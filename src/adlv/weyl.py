"""The finite Weyl group of a root datum, fully tabulated.

Elements are integers indexing into BFS-ordered tables: index 0 is the
identity and indices are sorted by length, with ties broken by the
lexicographically least reduced word.  No table holds a matrix.  An
element e acts on the cocharacter lattice through its coweight shifts
d_{e,j} = e(omega_j^vee) - omega_j^vee, integer vectors, one per simple
index j: e(mu) = mu + sum_j <alpha_j, mu> d_{e,j}.  It acts on the roots
through a row of root indices, kept as ``bytes``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import mul, sub

from .lattice import vec_dot, vec_scale, vec_sub

__all__ = ['WeylGroup']


class WeylGroup:
    """All elements of W with words, lengths, products and the action on X.

    W is built by a breadth-first search over right multiplication by the
    simple reflections.  W acts faithfully on the roots, so an element is
    identified by the root indices of the images of the simple roots,
    and each new element's root permutation comes from its parent's
    (Casselman, "Machine calculations in Weyl groups", Invent. Math.
    1994).  ``root_action[e]`` is that permutation as ``bytes``: byte r
    is the index of e(alpha_r).  Below ``MAX_WEYL_ORDER`` a datum has at
    most 72 roots, so every index fits a byte, and the row of e s_i is
    one ``bytes.translate`` of the row of s_i through the row of e.

    No matrix is formed.  W fixes every mu with <alpha_j, mu> = 0 for all
    simple j, so e(mu) - mu depends only on those pairings, and
    ``shifts[e][j]`` is the coweight shift d_{e,j} with

        e(mu) = mu + sum_j <alpha_j, mu> d_{e,j},

    that is d_{e,j} = e(omega_j^vee) - omega_j^vee for any omega_j^vee in
    X (x) Q with <alpha_k, omega_j^vee> = delta_jk.  Proof, by induction
    on the stored word.  The identity has every d_{1,j} = 0.  For
    f = e s_i, as s_i(mu) = mu - <alpha_i, mu> alpha_i^vee,

        (e s_i)(mu) = e(mu) - <alpha_i, mu> e(alpha_i^vee)
                    = mu + sum_j <alpha_j, mu> d_{e,j}
                         - <alpha_i, mu> e(alpha_i^vee),

    so d_{f,j} = d_{e,j} for j != i and d_{f,i} = d_{e,i} - e(alpha_i^vee),
    where e(alpha_i^vee) is the coroot of the root e(alpha_i), read off
    ``root_action[e]``.  Each shift is a sum of coroots, so the action maps
    integer vectors to integer vectors and no rational number is formed.
    A new f shares every shift but one with its parent.  ``shifts[e][j]``
    is None where d_{e,j} = 0: the stabiliser of omega_j^vee is W_{S - j}
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1.12), so that is
    exactly where j is outside the support of e.  The new shift d_{f,i}
    of f = e s_i, of length l(e) + 1, is never 0.

    No table repeats another.  A left product s_i e is (e^{-1} s_i)^{-1},
    read off ``inv`` and ``right``, and e(Phi+) is the set of positive
    roots among the bytes of ``root_action[e]``.

    The reflections need no matrix either.  s_i moves the simple-root
    coordinates c of a root by s_i(beta) = beta - <beta, alpha_i^vee>
    alpha_i, where <beta, alpha_i^vee> = sum_j c_j <alpha_j, alpha_i^vee>
    is read off the Cartan matrix.  Every root is e(alpha_i) for some e
    and i (Humphreys, 1.5), and s_{e(alpha_i)} = e s_i e^{-1} (1.2), so
    the reflection through each root is one product in W, read at the
    first (e, i) in index order.

    ``sigma_elem[f]`` is sigma f sigma^{-1}, where sigma s_i sigma^{-1} =
    s_sigma(i).  With i the last letter of the stored word of f, f = e s_i
    for e = f s_i, which is shorter and so comes first in index order,
    and sigma(f) = sigma(e) s_sigma(i): the table fills in index order,
    one table step per element.  No table holds sigma^{-1}: sigma^n fixes
    X for n = ``datum.sigma_order``, so sigma^{-1}(f) is n - 1 steps of
    ``sigma_elem``.

    >>> from adlv.datum import builtin_datum
    >>> w = WeylGroup(builtin_datum('sl3'))
    >>> w.size
    6
    >>> w.words[w.longest]
    (0, 1, 0)
    >>> w.lengths[w.longest]
    3
    """

    def __init__(self, datum):
        self.datum = datum
        n = datum.rank
        simple = datum.simple_indices
        # perms[i][r]: index of the root s_i(alpha_r), by its simple-root
        # coordinates; cartan[i][j] = <alpha_j, alpha_i^vee>
        by_coords = {r.coords: j for j, r in enumerate(datum.roots)}
        perms = []
        for i, row in enumerate(datum.cartan):
            perm = []
            for r in datum.roots:
                k = sum(c * a for c, a in zip(r.coords, row))
                perm.append(by_coords[tuple(c - k * (j == i) for j, c
                                            in enumerate(r.coords))])
            perms.append(bytes(perm))
        # the root indices s_i(alpha_s) of the simple roots alpha_s
        simple_perms = [bytes(perm[s] for s in simple) for perm in perms]
        coroots = [r.coroot for r in datum.roots]
        words = [()]
        # right[e][i]: index of e s_i
        right = [[0] * n]
        # root_action[e][r]: index of the root e(alpha_r), and
        # (e s_i)(alpha_r) = e(s_i(alpha_r)): one translate of s_i's row
        # through e's
        root_action = [bytes(range(len(datum.roots)))]
        # shifts[e][j]: e(omega_j^vee) - omega_j^vee, None when 0
        shifts = [(None,) * n]
        zero = (0,) * datum.dim
        # index: root indices of the images of the simple roots -> element
        index = {bytes(simple): 0}
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                row = root_action[e]
                table = row.ljust(256, b'\0')
                for i in range(n):
                    k = simple_perms[i].translate(table)
                    f = index.get(k)
                    if f is None:
                        f = index[k] = len(words)
                        # d_{e s_i, i} = d_{e, i} - e(alpha_i^vee), where
                        # e(alpha_i^vee) is the coroot of the root e(alpha_i)
                        cor = coroots[row[simple[i]]]
                        old = shifts[e]
                        d = tuple(map(sub, old[i] or zero, cor))
                        shifts.append(old[:i] + (d,) + old[i + 1:])
                        words.append(words[e] + (i,))
                        right.append([0] * n)
                        root_action.append(perms[i].translate(table))
                        nxt.append(f)
                    right[e][i] = f
            frontier = nxt
        self.size = len(words)
        self.shifts = shifts
        self.words = words
        self.lengths = [len(w) for w in words]
        self.longest = max(range(self.size), key=lambda e: self.lengths[e])
        self.right = right
        self.inv = [0] * self.size
        for e in range(self.size):
            x = 0
            for i in reversed(words[e]):
                x = right[x][i]
            self.inv[e] = x
        # the simple reflections themselves
        self.simple = [self.right[0][i] for i in range(n)]
        # action of each element on the root list (by root index)
        self.root_action = root_action
        # s_r = e s_i e^{-1} at the first (e, i) with e(alpha_i) = alpha_r
        root_reflection = [None] * len(datum.roots)
        missing = len(datum.roots)
        for e in range(self.size):
            for i in range(n):
                r = root_action[e][simple[i]]
                if root_reflection[r] is None:
                    root_reflection[r] = self.mult(right[e][i], self.inv[e])
                    missing -= 1
            if not missing:
                break
        self.root_reflection = root_reflection
        # sigma as a permutation of W: w -> sigma w sigma^{-1}, one table
        # step per element (see the class docstring)
        sigma_perm = datum.sigma_perm
        self.sigma_elem = sigma_elem = [0] * self.size
        for f in range(1, self.size):
            i = words[f][-1]
            sigma_elem[f] = right[sigma_elem[right[f][i]]][sigma_perm[i]]

    # -- basics ----------------------------------------------------------

    def mult(self, a, b):
        """Product ab."""
        for i in self.words[b]:
            a = self.right[a][i]
        return a

    def from_word(self, word):
        """Element with the given word of 0-based simple indices.

        >>> from adlv.datum import builtin_datum
        >>> w = WeylGroup(builtin_datum('sl3'))
        >>> w.words[w.from_word([0, 1, 0, 1, 0])]
        (1,)
        """
        e = 0
        for i in word:
            e = self.right[e][i]
        return e

    def parse_word(self, letters, name):
        """Element spelled by a decoded JSON word of 1-based simple indices.

        Raises ValueError, naming the input as ``name``, unless
        ``letters`` is a list of integers (not booleans) in 1..rank.

        >>> from adlv.datum import builtin_datum
        >>> w = WeylGroup(builtin_datum('sl3'))
        >>> w.words[w.parse_word([2, 1], 'w')]
        (1, 0)
        >>> w.parse_word([0], '--source')
        Traceback (most recent call last):
        ...
        ValueError: --source has letter 0, out of range 1..2
        """
        if not (isinstance(letters, list)
                and all(type(i) is int for i in letters)):
            raise ValueError('%s must be a list of integers, got %s'
                             % (name, json.dumps(letters)))
        rank = self.datum.rank
        for i in letters:
            if not 1 <= i <= rank:
                raise ValueError('%s has letter %d, out of range 1..%d'
                                 % (name, i, rank))
        return self.from_word([i - 1 for i in letters])

    def act(self, e, mu):
        """e(mu) = mu + sum_j <alpha_j, mu> d_{e,j}, over the shifts of e
        (see the class docstring), as a tuple.

        Integer in, integer out; the library passes integer vectors only.
        Unlike ``mat_vec`` with the matrix of e, it does not promote a
        mixed int/Fraction mu to all Fractions: a coordinate becomes a
        Fraction only where a Fraction term reaches it.

        >>> from adlv.datum import builtin_datum
        >>> w = WeylGroup(builtin_datum('gl3'))
        >>> w.act(w.from_word([0, 1]), (5, 7, 9))
        (9, 5, 7)
        >>> w.act(w.simple[0], (1, 2, 3))
        (2, 1, 3)
        """
        out = mu
        for alpha, d in zip(self.datum.simple_roots, self.shifts[e]):
            if d is not None:
                c = sum(map(mul, alpha, mu))
                if c:
                    out = [x + c * y for x, y in zip(out, d)]
        return tuple(out)

    def sigma(self, e):
        """The image of e under the diagram automorphism."""
        return self.sigma_elem[e]

    def dominant_representative(self, mu):
        """(v, lam): minimal v in W with v^{-1} mu = lam dominant.

        A simple-root descent: while some simple root has
        <alpha_i, lam> < 0, replace lam by s_i(lam) and v by v s_i.  Each
        step lowers by one the number N(lam) of positive roots pairing
        negatively with lam (s_i permutes the positive roots other than
        alpha_i), so it stops after N(mu) steps with l(v) <= N(mu).  Any
        v with v^{-1} mu dominant sends every positive root alpha with
        <alpha, mu> < 0 to a negative root, so l(v) >= N(mu).  Hence v
        is the unique element of minimal length with v^{-1} mu dominant.

        Works for integer or Fraction vectors; lam is all Fractions when
        mu has a Fraction entry, else all integers.

        >>> from fractions import Fraction
        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sl2'))
        >>> g.dominant_representative((-1,))
        (1, (1,))
        >>> g = WeylGroup(builtin_datum('gl3'))
        >>> v, lam = g.dominant_representative((0, Fraction(1, 2), 1))
        >>> g.words[v], lam
        ((0, 1, 0), (Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)))
        """
        d = self.datum
        v = 0
        lam = tuple(mu)
        if any(isinstance(x, Fraction) for x in lam):
            lam = tuple(Fraction(x) for x in lam)
        while True:
            for i, (alpha, coroot) in enumerate(zip(d.simple_roots,
                                                    d.simple_coroots)):
                c = vec_dot(alpha, lam)
                if c < 0:
                    lam = vec_sub(lam, vec_scale(c, coroot))
                    v = self.right[v][i]
                    break
            else:
                return v, lam

    # -- twisted conjugation in W ------------------------------------------

    def is_partial_sigma_coxeter(self, e):
        """True when e is partial sigma-Coxeter: a product of one simple
        reflection from each sigma-orbit of some set of orbits.

        Such a product has distinct letters, and a braid move of length
        at least 3 needs a repeated letter, so its reduced words differ
        only by commutations (Matsumoto-Tits) and all share one set of
        letters.  Hence the test reads the stored reduced word alone: its
        letters lie in pairwise distinct sigma-orbits.

        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sl3'))
        >>> g.is_partial_sigma_coxeter(g.from_word([0, 1]))
        True
        >>> g.is_partial_sigma_coxeter(g.longest)
        False
        """
        word = self.words[e]
        orbit = self.datum.simple_orbit
        return len({orbit[i] for i in word}) == len(word)

    def sigma_support(self, e):
        """Union of the sigma-orbits meeting the support of e."""
        orbit = self.datum.simple_orbit
        return frozenset().union(*(orbit[i] for i in self.words[e]))

    def sigma_conjugate_to_partial_coxeter(self, e):
        """True when some sigma-conjugate v^{-1} e sigma(v) of e is partial
        sigma-Coxeter, by a walk over the sigma-class of e, not a scan of W:
        as sigma(s_i) = s_{sigma(i)}, v = v' s_i gives v^{-1} e sigma(v) =
        s_i (v'^{-1} e sigma(v')) s_{sigma(i)}, so by induction on l(v) the
        class is the closure of {e} under f -> s_i f s_{sigma(i)}.  With
        g = f s_{sigma(i)} one ``right`` step, s_i g = (g^{-1} s_i)^{-1} is
        two ``inv`` steps and one ``right`` step more.  The walk stops at its
        first partial sigma-Coxeter member.

        >>> from adlv.datum import builtin_datum
        >>> g = WeylGroup(builtin_datum('sp4'))
        >>> g.sigma_conjugate_to_partial_coxeter(g.longest)
        False
        """
        inv, right = self.inv, self.right
        members, seen = [e], {e}
        for f in members:                   # grows as the walk goes
            if self.is_partial_sigma_coxeter(f):
                return True
            for i, j in enumerate(self.datum.sigma_perm):
                g = inv[right[inv[right[f][j]]][i]]
                if g not in seen:
                    seen.add(g)
                    members.append(g)
        return False
