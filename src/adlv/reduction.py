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
from dataclasses import dataclass
from typing import Optional

from .affine import AffineElement
from .bg import BGInvariants

__all__ = ['Reduction', 'ReductionTree', 'TreeNode', 'poly_add', 'poly_mul',
           'POLY_ONE', 'POLY_Q', 'POLY_Q_MINUS_ONE', 'DEFAULT_SLACK']

DEFAULT_SLACK = 4

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


@dataclass
class TreeNode:
    """One vertex of a reduction tree.

    For an internal node, ``witness`` is the length-preserving
    conjugation path from ``x`` to the element ``x_prime`` at which the
    down-move by the simple affine root ``aroot`` was applied; the
    children are the type I child r_a x' and the type II child
    r_a x' r_{sigma a}.
    """
    x: AffineElement
    witness: Optional[list] = None      # [(aroot, element), ...]
    x_prime: Optional[AffineElement] = None
    aroot: Optional[tuple] = None
    child_i: Optional['TreeNode'] = None
    child_ii: Optional['TreeNode'] = None

    @property
    def is_leaf(self):
        return self.aroot is None


@dataclass
class ReductionTree:
    root: TreeNode

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
        self._key_memo = {}
        self._omega = None
        self._wide = None

    # -- the equal-length sigma-conjugation orbit ---------------------------

    def equal_length_orbit(self, x):
        """All elements reachable from x by length-preserving conjugations
        r_a y r_{sigma a}, with BFS parent data: {elem: (parent, aroot)}."""
        if x in self._orbit_memo:
            return self._orbit_memo[x]
        aw = self.aw
        parents = {x: None}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for a in aw.simple_affine:
                    z, kind, _ = aw.simple_sigma_conjugate(y, a)
                    if kind == 'keep' and z not in parents:
                        parents[z] = (y, a)
                        nxt.append(z)
            frontier = nxt
        self._orbit_memo[x] = parents
        return parents

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
        if rng is None and x in self._down_memo:
            return self._down_memo[x]
        aw = self.aw
        parents = self.equal_length_orbit(x)
        candidates = []
        for y in parents:          # insertion order = BFS order
            for a in aw.simple_affine:
                z, kind, _ = aw.simple_sigma_conjugate(y, a)
                if kind == 'down':
                    candidates.append((y, a))
                    if rng is None:
                        result = (y, self._witness_path(parents, y), a)
                        self._down_memo[x] = result
                        return result
        if not candidates:
            if rng is None:
                self._down_memo[x] = None
            return None
        y, a = rng.choice(candidates)
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
            assert kind == 'down'
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

    def _omega_list(self):
        if self._omega is None:
            self._omega = self.aw.omega_elements()
        return self._omega

    def class_key(self, x):
        """Canonical key of the sigma-conjugacy class of x in the extended
        affine Weyl group: (kappa, nu, minimal length, lexicographically
        least minimal-length element of a bounded conjugation closure).

        The closure conjugates by simple affine reflections and by the
        length-zero elements, never exceeding the minimal length plus
        the slack."""
        if x in self._key_memo:
            return self._key_memo[x]
        aw = self.aw
        x_min, _ = self.descend_to_minimal(x)
        lmin = aw.aff_length(x_min)
        cap = lmin + self.slack
        seen = {x_min}
        frontier = [x_min]
        omegas = [(aw.inverse(t), aw.sigma(t)) for t in self._omega_list()]
        while frontier:
            nxt = []
            for y in frontier:
                neighbors = []
                for a in aw.simple_affine:
                    z, _, _ = aw.simple_sigma_conjugate(y, a)
                    neighbors.append(z)
                for tinv, st in omegas:
                    neighbors.append(aw.mult(aw.mult(tinv, y), st))
                for z in neighbors:
                    if z not in seen and aw.aff_length(z) <= cap:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        minimal = [y for y in seen if aw.aff_length(y) == lmin]
        canon = min(minimal, key=lambda y: (self.W.words[y.w], y.mu))
        b = self.bg.element_class(x_min)
        key = (b.kappa, b.nu, lmin, canon)
        for y in seen:
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
            assert two_rho_nu.denominator == 1
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
