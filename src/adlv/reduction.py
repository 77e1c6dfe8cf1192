"""Deligne-Lusztig reduction in the extended affine Weyl group.

Implements minimal-length descent under sigma-conjugation by simple
affine reflections, reduction trees (type I / type II edges), class
polynomials in q, canonical keys for sigma-conjugacy classes of the
extended affine Weyl group, and the extraction of endpoint data.

Each element's moves r_a y r_{sigma a}, one per simple affine root a,
are formed once per ``Reduction``, into one table, the first time any
walk reaches the element.  The four walks read that table: the
equal-length orbit walk, the minimal-length descent, the reduction tree
and the class-key closure.  None recurses: one loop over a stack walks
the reduction tree of x in preorder, type I child first, and records
its root-to-leaf paths (leaf, n_I, n_II).  The class polynomials,
``bgx_from_tree`` and the check of ``PCT.endpoint_class`` read the
record of leaf elements (``leaf_paths``) and form no tree node; only
``build_reduction_tree``, for ``adlv tree``, ``tree_to_dot`` and
``class_polynomials(tree=...)``, has the same loop build the nodes.
The record of the deterministic tree (seed None) is kept per
``Reduction``, one per element, so the class polynomials,
``bgx_from_tree`` and the endpoint check share one walk of the tree of
x; a seeded record is walked again on every call.

A class key (kappa, nu, minimal length, representative) is interned
once per ``Reduction`` under a small integer id, and formed only where a
key is the answer: the class polynomials, ``class_key`` and the endpoint
key.  It is a ``ClassKey``, a tuple that stores its hash, so a dict
keyed by it hashes no Fraction of nu again.  A tree leaf's class is its
``BGClass`` (kappa, nu), read off ``BGInvariants.element_class``, which
forms no closure.

Polynomials are integer coefficient tuples, lowest degree first:
q^2 - q is (0, -1, 1).
"""

from __future__ import annotations

import math
import random
from functools import cache, cached_property
from itertools import count

from .bg import BGInvariants
from .datum import InvariantError

__all__ = ['ClassKey', 'Reduction', 'ReductionTree', 'TreeNode', 'poly_add']

DEFAULT_SLACK = 4

# length change of a move r_a y r_{sigma a}, by its kind
_STEP = {'keep': 0, 'down': -2, 'up': 2}


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


@cache
def _monomial(ni, nii):
    """(q-1)^ni q^nii, formed once per (ni, nii) per process.

    >>> _monomial(2, 1)   # (q^2 - 2q + 1) q
    (0, 1, -2, 1)
    """
    return (0,) * nii + tuple((-1) ** (ni - k) * math.comb(ni, k)
                              for k in range(ni + 1))


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


class ClassKey(tuple):
    """A class key (kappa, nu, minimal length, representative) that
    stores its hash when it is formed.  It equals the plain 4-tuple, has
    its hash and unpacks the same, but a dict lookup does not hash the
    Fractions of nu again.

    >>> from fractions import Fraction
    >>> k = ClassKey(((0,), (Fraction(1, 2),), 1, 'x'))
    >>> k == ((0,), (Fraction(1, 2),), 1, 'x'), hash(k) == hash(tuple(k))
    (True, True)
    """

    def __new__(cls, items):
        self = tuple.__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


class TreeNode:
    """One vertex of a reduction tree.

    For an internal node, ``x_prime`` is the element of the equal-length
    orbit of ``x`` at which the down move by the simple affine root
    ``aroot`` was applied; the children are the type I child r_a x' and
    the type II child r_a x' r_{sigma a}.
    """

    __slots__ = ('x', 'x_prime', 'aroot', 'child_i', 'child_ii')

    def __init__(self, x, x_prime=None, aroot=None):
        self.x = x
        self.x_prime = x_prime
        self.aroot = aroot
        self.child_i = self.child_ii = None

    @property
    def is_leaf(self):
        return self.aroot is None


class ReductionTree:
    __slots__ = ('root', '_paths')

    def __init__(self, root, paths):
        self.root = root
        self._paths = paths

    def leaves(self):
        """The leaves in the order of :meth:`paths`, type I subtree first."""
        return [leaf for leaf, _, _ in self._paths]

    def paths(self):
        """The recorded root-to-leaf paths (leaf, n_type_I, n_type_II)."""
        return self._paths


class Reduction:
    """Reduction machinery bound to one extended affine Weyl group.

    >>> from adlv.datum import builtin_datum
    >>> from adlv.affine import AffineWeyl, AffineElement
    >>> red = Reduction(AffineWeyl(builtin_datum('sl2')))
    >>> x = AffineElement(1, (1,))               # s1 s0 s1
    >>> sorted(red.class_polynomials(x).values())
    [(-1, 1), (0, 1)]
    """

    def __init__(self, aw, bg=None):
        self.aw = aw
        self.W = aw.W
        self.datum = aw.datum
        self.bg = bg if bg is not None else BGInvariants(aw)
        self._moves = {}     # y -> move record of y per simple affine root
        self._walks = {}     # x -> (orbit members, their down edges)
        self._paths = {}     # x -> leaf-path record of its seed-None tree
        self._key_memo = {}     # element -> class id
        self._keys = []         # class id -> class key

    # -- the equal-length sigma-conjugation orbit ---------------------------

    def equal_length_orbit(self, x):
        """The elements reachable from x by length-preserving conjugations
        r_a y r_{sigma a}, as a tuple in BFS order from x.  The walk also
        records the down edges (y, a) of its members, in that order and
        root order, for find_down_move."""
        walk = self._walks.get(x)
        if walk is None:
            members, seen, downs = [x], {x}, []
            roots = self.aw.simple_affine
            for y in members:                # grows as the BFS goes
                for a, (z, kind, _) in zip(roots, self._moves_of(y)):
                    if kind == 'down':
                        downs.append((y, a))
                    elif kind == 'keep' and z not in seen:
                        seen.add(z)
                        members.append(z)
            walk = self._walks[x] = (tuple(members), tuple(downs))
        return walk[0]

    def _moves_of(self, y):
        """The move records (r_a y r_{sigma a}, kind, r_a y) of y, one per
        simple affine root a in root order, formed the first time any walk
        reaches y."""
        moves = self._moves.get(y)
        if moves is None:
            conjugate = self.aw.simple_sigma_conjugate
            moves = self._moves[y] = tuple(
                conjugate(y, a) for a in self.aw.simple_affine)
        return moves

    def _move(self, y, a):
        """The move record of y by the simple affine root a."""
        return self._moves_of(y)[self.aw.simple_affine.index(a)]

    def find_down_move(self, x, rng=None):
        """(x_prime, aroot) for the first (or seeded) down move from a
        member x_prime of the equal-length orbit of x, in BFS and root
        order, or None when the orbit has none."""
        self.equal_length_orbit(x)
        downs = self._walks[x][1]
        if not downs:
            return None
        return downs[0] if rng is None else rng.choice(downs)

    # -- minimal length descent ------------------------------------------------

    def descend_to_minimal(self, x):
        """(x_min, moves): follow down-2 moves through equal-length orbits
        until the whole orbit admits none.  Each move is recorded as
        (x_prime, aroot, new_element), new_element = r_a x' r_{sigma a}."""
        moves = []
        while True:
            found = self.find_down_move(x)
            if found is None:
                return x, moves
            y, a = found
            z, kind, _ = self._move(y, a)
            if kind != 'down':
                raise InvariantError(
                    self.datum.name, 'the move by the affine root %s is %r, '
                    'not down' % (a, kind), self.aw.element_to_dict(y))
            moves.append((y, a, z))
            x = z

    def is_minimal(self, x):
        return self.find_down_move(x) is None

    # -- reduction trees ----------------------------------------------------------

    def build_reduction_tree(self, x, seed=None):
        """Reduction tree from x.  Deterministic when seed is None (first
        down move in BFS-orbit and root order); otherwise seeded.  Nodes
        are expanded in preorder, type I child first, which fixes the
        order of the rng draws and of the recorded paths."""
        root = TreeNode(x)
        return ReductionTree(root, self._walk_tree(x, seed, root))

    def leaf_paths(self, x, seed=None):
        """The root-to-leaf paths (leaf element, n_I, n_II) of the
        reduction tree of x under the branch policy ``seed``, in the order
        of ``build_reduction_tree(x, seed).paths()``, formed by the same
        walk with no tree node.  The record of the deterministic tree
        (seed None) is walked once per element per ``Reduction`` and
        kept; a seeded tree is walked on every call.  Each call returns a
        new list."""
        if seed is not None:
            return self._walk_tree(x, seed, None)
        paths = self._paths.get(x)
        if paths is None:
            paths = self._paths[x] = tuple(self._walk_tree(x, None, None))
        return list(paths)

    def _walk_tree(self, x, seed, root):
        """The one descent loop of the reduction tree: pop an element,
        take its (first or seeded) down move, push the type II child and
        then the type I child.  Each stack entry is (element, n_I, n_II,
        node); with a root node the loop fills in each node and records
        (leaf node, n_I, n_II), and with None it forms no node and
        records (leaf element, n_I, n_II)."""
        rng = random.Random(seed) if seed is not None else None
        find, move = self.find_down_move, self._move
        paths = []
        stack = [(x, 0, 0, root)]
        while stack:
            el, ni, nii, node = stack.pop()
            found = find(el, rng)
            if found is None:
                paths.append((el if node is None else node, ni, nii))
                continue
            y, a = found
            # z = r_a x' r_{sigma a}, two shorter; left = r_a x', one shorter
            z, _, left = move(y, a)
            child_i = child_ii = None
            if node is not None:
                node.x_prime, node.aroot = y, a
                child_i = node.child_i = TreeNode(left)
                child_ii = node.child_ii = TreeNode(z)
            stack += [(z, ni, nii + 1, child_ii), (left, ni + 1, nii, child_i)]
        return paths

    def class_polynomials(self, x, seed=None, tree=None):
        """Map class_key -> coefficient tuple of the class polynomial: the
        sum, over the leaves of the class, of (q-1)^{n_I} q^{n_II}, where
        n_I and n_II count the type I and type II edges above the leaf.

        This is the recursion f_x = (q-1) f_{r_a x'} + q f_{r_a x' r_{sigma
        a}}: unrolled down the tree it gives f_x = sum over leaves of that
        monomial times f_leaf, with f_leaf = 1 on the leaf's class, and
        integer addition is associative, so every coefficient agrees.  Each
        class of a leaf keeps its entry, () if its terms cancel, as in the
        recursion.  Without ``tree`` the leaves come from
        :meth:`leaf_paths`, with no tree node.  The sums are kept by
        interned class id, and each key stores its hash, so no Fraction
        of nu is hashed again.
        """
        if tree is None:
            paths = self.leaf_paths(x, seed=seed)
        else:
            paths = [(leaf.x, ni, nii) for leaf, ni, nii in tree.paths()]
        class_id, sums = self.class_id, {}
        for leaf, ni, nii in paths:
            i, mono = class_id(leaf), _monomial(ni, nii)
            p = sums.get(i)
            sums[i] = mono if p is None else poly_add(p, mono)
        keys = self._keys
        return {keys[i]: p for i, p in sums.items()}

    # -- class keys -------------------------------------------------------------

    @cached_property
    def _omega_pairs(self):
        """(tau^{-1}, sigma(tau)) for each length-zero tau of omega_elements
        but the identity; x -> tau^{-1} x sigma(tau) is sigma-conjugation by
        tau, a no-op for tau = 1.  A ValueError refuses a datum whose sigma
        moves the free part of pi_1 = X / Q^vee: some tau^{-1} sigma(tau)
        then has infinite order, so a class has infinitely many elements
        of minimal length and no least one."""
        aw, d = self.aw, self.datum
        pi1, taus = d.fundamental_group_presentation(), aw.omega_elements()
        free = len(pi1.divisors)     # where the free coordinates start
        for t in taus:
            r, image = pi1.project(t.mu), pi1.project(d.sigma_vec(t.mu))
            if image[free:] != r[free:]:
                raise ValueError(
                    'datum %r: sigma moves the free part of pi_1 = X / Q^vee '
                    '(the residue %s goes to %s), so a class has infinitely '
                    'many elements of minimal length and no class key'
                    % (d.name, r, image))
        return [(aw.inverse(t), aw.sigma(t)) for t in taus
                if t != aw.identity]

    def class_key(self, x):
        """Canonical key of the sigma-conjugacy class of x in the extended
        affine Weyl group: (kappa, nu, minimal length, lexicographically
        least minimal-length element of the conjugation closure of a
        minimal-length element up to the minimal length plus
        ``DEFAULT_SLACK``).  Keys are interned per ``Reduction``: every
        element of one closure gets the same tuple object.  A caller that
        needs only (kappa, nu) reads BGInvariants.element_class."""
        return self._keys[self.class_id(x)]

    def class_id(self, x):
        """The interned id of class_key(x), a small integer.

        A closure is formed only when x_min lies in none formed before,
        and it gets a new id.  Every closure starts at a descent's end, of
        the minimal length of its class, so the closure that holds x_min
        has x_min's cap, and two closures under one cap are equal or
        disjoint (see _closure).  So no earlier closure holds the least
        element of x_min's, and no two ids carry one key."""
        i = self._key_memo.get(x)
        if i is not None:
            return i
        x_min, _ = self.descend_to_minimal(x)
        i = self._key_memo.get(x_min)
        if i is None:
            lengths = self._closure(x_min)
            lmin = lengths[x_min]
            canon = min((y for y, ly in lengths.items() if ly == lmin),
                        key=lambda y: (self.W.words[y.w], y.mu))
            b = self.bg.element_class(x_min)
            i = len(self._keys)
            self._keys.append(ClassKey((b.kappa, b.nu, lmin, canon)))
            for y in lengths:
                self._key_memo[y] = i
        self._key_memo[x] = i
        return i

    def _closure(self, start):
        """{element: length} for every element reached from start by
        conjugations r_a y r_{sigma a} and by the length-zero elements,
        never passing length l(start) + DEFAULT_SLACK.  Lengths are
        carried, not recounted: a move changes the length by the step of
        its kind, and a length-zero conjugation keeps it.  Each move is an
        involution and each length-zero conjugation returns to its start
        when repeated (see _omega_pairs), so the closure is the connected
        component of start below the cap: two closures under one cap are
        equal or disjoint."""
        aw, omega_pairs = self.aw, self._omega_pairs
        lengths = {start: aw.aff_length(start)}
        cap = lengths[start] + DEFAULT_SLACK
        members = [start]
        for y in members:                    # grows as the BFS goes
            ly = lengths[y]
            neighbors = [(z, ly + _STEP[kind])
                         for z, kind, _ in self._moves_of(y)]
            for tinv, st in omega_pairs:
                neighbors.append((aw.mult(aw.mult(tinv, y), st), ly))
            for z, lz in neighbors:
                if z not in lengths and lz <= cap:
                    lengths[z] = lz
                    members.append(z)
        return lengths

    # -- endpoint data ---------------------------------------------------------------

    def bgx_from_tree(self, x):
        """{BGClass: {'paths': [(l_I, l_II, end_length, dim)],
                      'polynomial': tuple}}.

        dim is the path statistic l_I + l_II + ell(end) - <nu(b), 2 rho>.
        One pass over the root-to-leaf paths of :meth:`leaf_paths`, with
        no tree node: a leaf's class b is
        BGInvariants.element_class of the leaf, with no class key, and
        <nu(b), 2 rho> is read off the class record of b.
        The polynomial of b is the sum of (q-1)^{l_I} q^{l_II} over the
        leaves of class b, which is the sum of the class polynomials of
        its keys, since a key's class polynomial is the sum of the
        monomials of its leaves (see :meth:`class_polynomials`).
        """
        out = {}
        for leaf, ni, nii in self.leaf_paths(x):
            b = self.bg.element_class(leaf)
            entry = out.get(b)
            if entry is None:
                entry = out[b] = {'paths': [], 'polynomial': ()}
            end_len = self.aw.aff_length(leaf)
            entry['paths'].append(
                (ni, nii, end_len,
                 ni + nii + end_len - self.bg.two_rho_nu(b)))
            entry['polynomial'] = poly_add(entry['polynomial'],
                                           _monomial(ni, nii))
        return out

    # -- output ------------------------------------------------------------------------

    def tree_to_dot(self, tree):
        """DOT rendering: type I edges solid, type II dashed; nodes are
        named in preorder and each edge line follows its child's line."""
        lines = ['digraph reduction {']
        numbers = count()
        stack = [(tree.root, None)]     # (node, edge line from its parent)
        while stack:
            node, edge = stack.pop()
            name = 'n%d' % next(numbers)
            lines.append('  %s [label="%s (l=%d)"];'
                         % (name,
                            self.aw.format_element(node.x).replace('"', "'"),
                            self.aw.aff_length(node.x)))
            if edge is not None:
                lines.append(edge % name)
            if not node.is_leaf:
                arrow = '  %s -> %%s [style=%s, label="%s"];'
                stack += [(node.child_ii, arrow % (name, 'dashed', 'II')),
                          (node.child_i, arrow % (name, 'solid', 'I'))]
        lines.append('}')
        return '\n'.join(lines)
