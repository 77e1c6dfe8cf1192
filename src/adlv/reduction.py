"""Deligne-Lusztig reduction in the extended affine Weyl group.

Implements minimal-length descent under sigma-conjugation by simple
affine reflections, reduction trees (type I / type II edges), class
polynomials in q, canonical keys for sigma-conjugacy classes of the
extended affine Weyl group, and the extraction of endpoint data.

Polynomials are integer coefficient tuples, lowest degree first:
q^2 - q is (0, -1, 1).
"""

from __future__ import annotations

import random
from functools import cached_property

from .affine import AffineElement
from .bg import BGInvariants

__all__ = ['Reduction', 'ReductionTree', 'TreeNode', 'poly_add', 'poly_mul',
           'POLY_ONE', 'POLY_Q', 'POLY_Q_MINUS_ONE', 'DEFAULT_SLACK']

DEFAULT_SLACK = 4

# length change of a move r_a y r_{sigma a}, by its kind
_STEP = {'keep': 0, 'down': -2, 'up': 2}

POLY_ONE = (1,)
POLY_Q = (0, 1)
POLY_Q_MINUS_ONE = (-1, 1)


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(p, q):
    """
    >>> poly_mul((-1, 1), (0, 1))   # (q-1) * q
    (0, -1, 1)
    """
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_str(p):
    """Human form, e.g. (0,-1,1) -> 'q^2-q'."""
    if not p:
        return '0'
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mono = 'q^%d' % i if i > 1 else ('q' if i == 1 else '')
        coef = '' if (abs(c) == 1 and i > 0) else str(abs(c))
        sign = '-' if c < 0 else ('+' if parts else '')
        parts.append(sign + coef + mono if coef + mono else sign + '1')
    return ''.join(parts)


class TreeNode:
    """One vertex of a reduction tree.

    For an internal node, ``witness`` is the length-preserving
    conjugation path from ``x`` to the element ``x_prime`` at which the
    down-move by the simple affine root ``aroot`` was applied; the
    children are the type I child r_a x' and the type II child
    r_a x' r_{sigma a}.
    """

    __slots__ = ('x', 'witness', 'x_prime', 'aroot', 'child_i', 'child_ii')

    def __init__(self, x, witness=None, x_prime=None, aroot=None):
        self.x = x
        self.witness = witness          # [(aroot, element), ...]
        self.x_prime = x_prime
        self.aroot = aroot
        self.child_i = self.child_ii = None

    @property
    def is_leaf(self):
        return self.aroot is None


class ReductionTree:
    __slots__ = ('root',)

    def __init__(self, root):
        self.root = root

    def leaves(self):
        out = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                out.append(n)
            else:
                stack.extend([n.child_ii, n.child_i])
        return out

    def paths(self):
        """All root-to-leaf paths as (leaf, n_type_I, n_type_II)."""
        out = []

        def walk(node, ni, nii):
            if node.is_leaf:
                out.append((node, ni, nii))
                return
            walk(node.child_i, ni + 1, nii)
            walk(node.child_ii, ni, nii + 1)

        walk(self.root, 0, 0)
        return out


class Reduction:
    """Reduction machinery bound to one extended affine Weyl group.

    >>> from adlv.datum import builtin_datum
    >>> from adlv.affine import AffineWeyl, AffineElement
    >>> red = Reduction(AffineWeyl(builtin_datum('sl2')))
    >>> x = AffineElement(1, (1,))               # s1 s0 s1
    >>> sorted(red.class_polynomials(x).values())
    [(-1, 1), (0, 1)]
    """

    def __init__(self, aw, bg=None, slack=None):
        self.aw = aw
        self.W = aw.W
        self.datum = aw.datum
        self.bg = bg if bg is not None else BGInvariants(aw)
        self.slack = DEFAULT_SLACK if slack is None else slack
        self._orbit_memo = {}
        self._down_memo = {}
        # the move table: y -> (down edges, keeps), see _moves_of
        self._moves = {}
        self._key_memo = {}
        self._wide = None

    # -- the equal-length sigma-conjugation orbit ---------------------------

    def equal_length_orbit(self, x):
        """All elements reachable from x by length-preserving conjugations
        r_a y r_{sigma a}, with BFS parent data: {elem: (parent, aroot)}.

        The same walk records every down move (y, a) of the orbit, in BFS
        and root order, for find_down_move.  The moves of each element
        are formed once per Reduction (``_moves``), so a walk over an
        orbit that an earlier walk has reached forms no product."""
        if x in self._orbit_memo:
            return self._orbit_memo[x]
        parents = {x: None}
        downs = []
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                moves = self._moves.get(y)
                if moves is None:
                    moves = self._moves[y] = self._moves_of(y)
                down_edges, keeps = moves
                downs.extend(down_edges)
                for z, edge in keeps:
                    if z not in parents:
                        parents[z] = edge
                        nxt.append(z)
            frontier = nxt
        self._orbit_memo[x] = parents
        self._down_memo[x] = downs
        return parents

    def _moves_of(self, y):
        """(down_edges, keeps) over the simple affine roots a, in root
        order: the edge (y, a) of each down move from y, and (z, (y, a))
        with z = r_a y r_{sigma a} for each keep move.  Every walk that
        reaches y shares these edge tuples for its down list and parent
        data; it skips up moves and needs no product for a down move."""
        down_edges, keeps = [], []
        for a in self.aw.simple_affine:
            z, kind, _ = self.aw.simple_sigma_conjugate(y, a)
            if kind == 'down':
                down_edges.append((y, a))
            elif kind == 'keep':
                keeps.append((z, (y, a)))
        return tuple(down_edges), tuple(keeps)

    def _witness_path(self, parents, y):
        """Conjugation path from the BFS root to y as [(aroot, elem), ...]."""
        path = []
        while parents[y] is not None:
            parent, a = parents[y]
            path.append((a, y))
            y = parent
        path.reverse()
        return path

    def find_down_move(self, x, rng=None):
        """(x_prime, witness_path, aroot) for the first (or seeded) length
        drop reachable through the equal-length orbit, or None."""
        parents = self.equal_length_orbit(x)
        downs = self._down_memo[x]
        if not downs:
            return None
        y, a = downs[0] if rng is None else rng.choice(downs)
        return (y, self._witness_path(parents, y), a)

    # -- minimal length descent ------------------------------------------------

    def descend_to_minimal(self, x):
        """(x_min, moves): follow down-2 moves through equal-length orbits
        until the whole orbit admits none.  Each move is recorded as
        (witness_path, aroot, new_element)."""
        moves = []
        while True:
            found = self.find_down_move(x)
            if found is None:
                return x, moves
            y, path, a = found
            z, kind, _ = self.aw.simple_sigma_conjugate(y, a)
            if kind != 'down':
                raise AssertionError(
                    'datum %r: the move by %s at %s is %r, not down'
                    % (self.datum.name, a, self.aw.format_element(y), kind))
            moves.append((path, a, z))
            x = z

    def is_minimal(self, x):
        return self.find_down_move(x) is None

    # -- reduction trees ----------------------------------------------------------

    def build_reduction_tree(self, x, seed=None):
        """Reduction tree from x.  Deterministic when seed is None (first
        down move in BFS-orbit and root order); otherwise seeded."""
        rng = random.Random(seed) if seed is not None else None

        def build(el):
            found = self.find_down_move(el, rng)
            if found is None:
                return TreeNode(el)
            y, path, a = found
            z, kind, left = self.aw.simple_sigma_conjugate(y, a)
            node = TreeNode(el, witness=path, x_prime=y, aroot=a)
            node.child_i = build(left)     # r_a x', one shorter
            node.child_ii = build(z)       # r_a x' r_{sigma a}, two shorter
            return node

        return ReductionTree(build(x))

    def class_polynomials(self, x, seed=None, tree=None):
        """Map class_key -> coefficient tuple, by the tree recursion
        f_x = (q-1) f_{r_a x'} + q f_{r_a x' r_{sigma a}}."""
        if tree is None:
            tree = self.build_reduction_tree(x, seed=seed)

        def fold(node):
            if node.is_leaf:
                return {self.class_key(node.x): POLY_ONE}
            out = {}
            for child, factor in ((node.child_i, POLY_Q_MINUS_ONE),
                                  (node.child_ii, POLY_Q)):
                for key, p in fold(child).items():
                    term = poly_mul(factor, p)
                    out[key] = poly_add(out.get(key, ()), term)
            return out

        return fold(tree.root)

    # -- class keys -------------------------------------------------------------

    @cached_property
    def _omega_pairs(self):
        """(tau^{-1}, sigma(tau)) for each length-zero tau of omega_elements;
        x -> tau^{-1} x sigma(tau) is sigma-conjugation by tau."""
        aw = self.aw
        return [(aw.inverse(t), aw.sigma(t)) for t in aw.omega_elements()]

    def class_key(self, x):
        """Canonical key of the sigma-conjugacy class of x in the extended
        affine Weyl group: (kappa, nu, minimal length, lexicographically
        least minimal-length element of a bounded conjugation closure).

        The closure conjugates by simple affine reflections and by the
        length-zero elements, never exceeding the minimal length plus
        the slack.  Lengths are carried through the search, not
        recounted: a move r_a y r_{sigma a} changes the length by the
        step of its kind (keep 0, down -2, up +2), and conjugation by a
        length-zero element keeps it."""
        if x in self._key_memo:
            return self._key_memo[x]
        aw = self.aw
        x_min, _ = self.descend_to_minimal(x)
        lmin = aw.aff_length(x_min)
        cap = lmin + self.slack
        lengths = {x_min: lmin}
        frontier = [x_min]
        while frontier:
            nxt = []
            for y in frontier:
                ly = lengths[y]
                neighbors = []
                for a in aw.simple_affine:
                    z, kind, _ = aw.simple_sigma_conjugate(y, a)
                    neighbors.append((z, ly + _STEP[kind]))
                for tinv, st in self._omega_pairs:
                    neighbors.append((aw.mult(aw.mult(tinv, y), st), ly))
                for z, lz in neighbors:
                    if z not in lengths and lz <= cap:
                        lengths[z] = lz
                        nxt.append(z)
            frontier = nxt
        canon = min((y for y, ly in lengths.items() if ly == lmin),
                    key=lambda y: (self.W.words[y.w], y.mu))
        b = self.bg.element_class(x_min)
        key = (b.kappa, b.nu, lmin, canon)
        for y in lengths:
            self._key_memo[y] = key
        self._key_memo[x] = key
        return key

    def same_class(self, x, y):
        """Equality of sigma-conjugacy classes in the extended affine Weyl
        group, by key comparison with a wider-slack fallback."""
        kx, ky = self.class_key(x), self.class_key(y)
        if kx == ky:
            return True
        if kx[:3] != ky[:3]:
            return False
        # same invariants and minimal length: retry with more slack
        if self._wide is None:
            self._wide = Reduction(self.aw, self.bg, slack=self.slack + 4)
        return self._wide.class_key(x) == self._wide.class_key(y)

    # -- endpoint data ---------------------------------------------------------------

    def bgx_from_tree(self, x, tree=None):
        """{BGClass: {'paths': [(l_I, l_II, end_length, dim)],
                      'leaf_keys': set, 'polynomial': tuple}}.

        dim is the path statistic l_I + l_II + ell(end) - <nu(b), 2 rho>.
        """
        if tree is None:
            tree = self.build_reduction_tree(x)
        polys = self.class_polynomials(x, tree=tree)
        out = {}
        for leaf, ni, nii in tree.paths():
            b = self.bg.element_class(leaf.x)
            end_len = self.aw.aff_length(leaf.x)
            two_rho_nu = self.bg.pair_two_rho(b.nu)
            if two_rho_nu.denominator != 1:
                raise AssertionError(
                    'datum %r: <nu, 2 rho> = %s is not integral at leaf %s'
                    % (self.datum.name, two_rho_nu,
                       self.aw.format_element(leaf.x)))
            dim = ni + nii + end_len - int(two_rho_nu)
            entry = out.setdefault(b, {'paths': [], 'leaf_keys': set()})
            entry['paths'].append((ni, nii, end_len, dim))
            entry['leaf_keys'].add(self.class_key(leaf.x))
        for b, entry in out.items():
            keys = entry['leaf_keys']
            polysum = ()
            for k in keys:
                polysum = poly_add(polysum, polys.get(k, ()))
            entry['polynomial'] = polysum
        return out

    # -- output ------------------------------------------------------------------------

    def tree_to_dot(self, tree):
        """DOT rendering: type I edges solid, type II dashed."""
        lines = ['digraph reduction {']
        counter = [0]
        names = {}

        def visit(node):
            names[id(node)] = 'n%d' % counter[0]
            counter[0] += 1
            lines.append('  %s [label="%s (l=%d)"];'
                         % (names[id(node)],
                            self.aw.format_element(node.x).replace('"', "'"),
                            self.aw.aff_length(node.x)))
            if not node.is_leaf:
                visit(node.child_i)
                lines.append('  %s -> %s [style=solid, label="I"];'
                             % (names[id(node)], names[id(node.child_i)]))
                visit(node.child_ii)
                lines.append('  %s -> %s [style=dashed, label="II"];'
                             % (names[id(node)], names[id(node.child_ii)]))

        visit(tree.root)
        lines.append('}')
        return '\n'.join(lines)
