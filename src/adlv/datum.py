"""Root data: finite root systems with a chosen cocharacter lattice.

A :class:`RootDatum` packages a finite crystallographic root system
together with a cocharacter lattice X containing the coroot lattice and
a finite-order lattice automorphism sigma permuting the simple roots.
All cocharacters are integer tuples in the chosen basis of X, roots are
integer covectors (linear functionals) on X, and the pairing is the
plain dot product of a covector with a vector.

The JSON config format is::

    {
      "type": "A2",              # or "cartan": [[2,-1],[-1,2]]
      "lattice_basis": "sc",     # "sc" | "adjoint" | "gl" | explicit matrix
      "sigma_perm":  [2, 1],     # optional, 1-based images of simple roots
      "sigma_matrix": [[...]],   # optional, action on lattice coordinates
      "name": "sl3"              # optional, a string; a file's path by
                                 # default
    }

Any other key is an error, and so is a ``cartan``, ``sigma_matrix`` or
explicit ``lattice_basis`` that is not a square list of lists of integers
of the right size.

An explicit ``lattice_basis`` matrix has columns expressing a basis of X
in fundamental-coweight coordinates; "sc" is the coroot lattice,
"adjoint" the full coweight lattice, and "gl" (type A_{n-1} only, its
nodes in chain order) the standard lattice of GL_n.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from operator import add, mul

from .lattice import (QuotientPresentation, _column_snf, _common_denominator,
                      _inverse_over_z, mat_identity, mat_inverse_unimodular,
                      mat_mul, mat_vec, rational_rank, vec_dot, vec_scale,
                      vec_sub)

__all__ = [
    'InvariantError',
    'RootDatum',
    'cartan_matrix',
    'datum_from_config',
    'datum_from_json',
    'builtin_datum',
    'load_datum',
    'BUILTIN_DATA',
    'MAX_WEYL_ORDER',
    'diagram_components',
    'perm_orbit',
    'root_closure',
]


class InvariantError(AssertionError):
    """A failed runtime check, raised explicitly, so ``python -O`` keeps
    it.  Fields: ``datum`` (the datum name), ``what`` (what failed),
    ``element`` (the affine element as its CLI JSON dict, or None) and
    ``sigma_class`` (a ``BGClass``, or None); the message is built from
    them, with nu as rationals."""

    def __init__(self, datum, what, element=None, sigma_class=None):
        self.datum, self.what = datum, what
        self.element, self.sigma_class = element, sigma_class
        where = [] if element is None else ['x = ' + json.dumps(element)]
        if sigma_class is not None:
            where.append('the class kappa = %s, nu = %s'
                         % (_vec_text(sigma_class.kappa),
                            _vec_text(sigma_class.nu)))
        super().__init__('datum %r: %s' % (datum, what) + (
            ', for ' + ' and '.join(where) if where else ''))


def cartan_matrix(type_name):
    """Cartan matrix of a (product of) finite type(s), e.g. "A2" or "C2xA1".

    Convention: entry [i][j] is the pairing of the i-th simple coroot
    with the j-th simple root.  A type whose rank alone puts |W| past
    ``MAX_WEYL_ORDER`` is refused before any matrix is built (see
    ``_check_rank``); ``datum_from_config`` checks |W| exactly, by
    ``RootDatum.weyl_order``.

    >>> cartan_matrix('C2')
    [[2, -2], [-1, 2]]
    >>> cartan_matrix('G2')
    [[2, -1], [-3, 2]]
    >>> cartan_matrix('A9xA20')
    Traceback (most recent call last):
    ...
    ValueError: type 'A9xA20' has a Weyl group of order at least 3628800; the limit is 51840
    """
    parts = [_type_part(part.strip()) for part in type_name.split('x')]
    _check_rank('type %r' % type_name, [rank for _, rank in parts])
    blocks = [_cartan_block(*part) for part in parts]
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


# The largest Weyl group a datum may have: W(E6), of e6_adjoint, the
# largest built-in.  Every table over W holds |W| entries or more.  Below
# it a datum has at most 72 roots (E6, B6 and C6), so a root index fits
# the byte that a row of ``WeylGroup.root_action`` gives it.
MAX_WEYL_ORDER = 51_840

# the ranks each family admits, where a family has a least rank, and the
# exceptional types
_LEAST_RANK = {'B': 2, 'C': 2, 'D': 3}
_EXCEPTIONAL = {('E', 6), ('E', 7), ('E', 8), ('F', 4), ('G', 2)}


def _type_part(name):
    """(family, rank) of one irreducible part such as "A2", checked
    against the ranks its family admits."""
    family, digits = name[:1].upper(), name[1:]
    if not digits.isdecimal():
        raise ValueError('type part %r is not a family letter followed by '
                         'a rank, such as "A2"' % name)
    rank = int(digits)
    if rank < 1:
        raise ValueError('rank must be positive: %r' % name)
    if family not in 'ABCDEFG':
        raise ValueError('unknown family %r' % family)
    if rank < _LEAST_RANK.get(family, 1):
        raise ValueError('%s needs rank >= %d' % (family, _LEAST_RANK[family]))
    if family in 'EFG' and (family, rank) not in _EXCEPTIONAL:
        raise ValueError({'E': 'E needs rank 6, 7 or 8', 'F': 'F needs rank 4',
                          'G': 'G needs rank 2'}[family])
    return family, rank


def _check_rank(what, ranks):
    """Refuse a Dynkin diagram, given the ranks of its components, before
    anything of its size is built, once its total rank r alone puts |W|
    past MAX_WEYL_ORDER: a component of rank n has at least (n+1)! >= 2^n
    elements, so |W| >= 2^r.  The bound reported is the product of the
    (n+1)!, stopped once past the limit, with a rank above 20 counted as
    21!, so no huge integer is formed."""
    if sum(ranks) < MAX_WEYL_ORDER.bit_length():
        return
    order = 1
    for n in ranks:
        order *= math.factorial(min(n, 20) + 1)
        if order > MAX_WEYL_ORDER:
            break
    raise ValueError('%s has a Weyl group of order at least %d; the limit '
                     'is %d' % (what, order, MAX_WEYL_ORDER))


def _cartan_block(family, rank):
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, a=-1, b=-1):
        c[i][j] = a
        c[j][i] = b

    if family == 'A':
        for i in range(rank - 1):
            link(i, i + 1)
    elif family == 'B':
        # alpha_rank is short
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -1, -2)
    elif family == 'C':
        # alpha_rank is long
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -2, -1)
    elif family == 'D':
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif family == 'E':
        # Bourbaki: chain 1-3-4-5-...-rank, node 2 attached to 4
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif family == 'F':
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif family == 'G':
        link(0, 1, -1, -3)
    return c


def root_closure(cartan):
    """The roots of the root system of a Cartan matrix, by reflection
    closure: a dict from the coordinates of each root over the simple
    roots to the coordinates of its coroot over the simple coroots.

    Raises ValueError once there are more than n * max(2n, 30) roots for
    rank n, as no finite root system has: an irreducible one of rank r
    has r * h roots, h its Coxeter number (Bourbaki, Lie VI 1.11, Prop.
    31), and h <= max(2r, 30) by the classification.

    >>> sorted(root_closure(cartan_matrix('C2')).items())[-2:]  # alpha_1 short
    [((1, 1), (1, 2)), ((2, 1), (1, 1))]
    """
    n = len(cartan)
    bound = n * max(2 * n, 30)
    seen = {r: r for r in (tuple(int(i == j) for j in range(n))
                           for i in range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for r in frontier:
            co = seen[r]
            for i in range(n):
                # s_i r = r - <alpha_i^vee, r> alpha_i, and dually
                k = sum(x * a for x, a in zip(r, cartan[i]))
                new = tuple(x - k * (j == i) for j, x in enumerate(r))
                if new not in seen:
                    k = sum(x * row[i] for x, row in zip(co, cartan))
                    seen[new] = tuple(x - k * (j == i)
                                      for j, x in enumerate(co))
                    nxt.append(new)
        frontier = nxt
        if len(seen) > bound:
            raise ValueError('the Cartan matrix %s is not of finite type: '
                             'its roots outnumber %d' % (cartan, bound))
    if any(min(r) < 0 < max(r) for r in seen):
        raise ValueError('root generation produced a non-symmetric system')
    return seen


def perm_orbit(perm, i):
    """The cycle of a permutation through i: [i, perm[i], ...].

    >>> perm_orbit([1, 2, 0, 3], 1)
    [1, 2, 0]
    """
    out = [i]
    j = perm[i]
    while j != i:
        out.append(j)
        j = perm[j]
    return out


def diagram_components(cartan, subset=None, perm=None):
    """Connected components of the Dynkin diagram induced on a subset of
    the nodes (default all), sorted by their smallest node.

    With a permutation ``perm`` of the nodes, i and perm[i] are also
    joined, so the components are merged under it.

    >>> diagram_components([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    [frozenset({0}), frozenset({1, 2})]
    >>> diagram_components(cartan_matrix('A1xA1'), perm=[1, 0])
    [frozenset({0, 1})]
    """
    left = set(range(len(cartan)) if subset is None else subset)
    comps = []
    while left:
        start = min(left)
        left.discard(start)
        comp, todo = {start}, [start]
        while todo:
            i = todo.pop()
            linked = {j for j in left if cartan[i][j] != 0}
            if perm is not None:
                linked |= {perm[i], perm.index(i)} & left
            left -= linked
            comp |= linked
            todo.extend(linked)
        comps.append(frozenset(comp))
    return comps


def _vec_text(vec):
    """A vector of ints or Fractions as text, e.g. '(3/2, 1/2, 0)'."""
    return '(%s)' % ', '.join(map(str, vec))


class _Root:
    """One root: covector on X, its coroot in X, and the coordinates of
    each over the simple roots and the simple coroots."""

    __slots__ = ('covec', 'coroot', 'coords', 'coroot_coords')

    def __init__(self, covec, coroot, coords, coroot_coords):
        self.covec = covec
        self.coroot = coroot
        self.coords = coords  # expansion in simple roots
        self.coroot_coords = coroot_coords  # expansion in simple coroots


class RootDatum:
    """A root system realized on a cocharacter lattice, with sigma.

    >>> d = builtin_datum('sl2')
    >>> vec_dot(d.simple_roots[0], (1,))
    2
    >>> len(d.roots), len(d.positive_roots)
    (2, 1)
    """

    def __init__(self, cartan, simple_coroots, simple_roots,
                 sigma_perm=None, sigma_matrix=None, name=''):
        self.name = name
        self.cartan = [list(r) for r in cartan]
        self.rank = len(cartan)  # number of simple roots
        self.simple_coroots = [tuple(v) for v in simple_coroots]
        self.simple_roots = [tuple(v) for v in simple_roots]
        self.dim = len(self.simple_coroots[0]) if self.rank else 0
        if sigma_perm is None:
            sigma_perm = tuple(range(self.rank))
        self.sigma_perm = tuple(sigma_perm)
        if sigma_matrix is None:
            if all(p == i for i, p in enumerate(self.sigma_perm)):
                sigma_matrix = mat_identity(self.dim)
            else:
                raise ValueError('nontrivial sigma_perm needs sigma_matrix')
        self.sigma_matrix = [list(r) for r in sigma_matrix]
        self._validate_basic()
        self._generate_roots()
        self._finish()

    # -- construction ---------------------------------------------------

    def _validate_basic(self):
        n, d = self.rank, self.dim
        for i in range(n):
            for j in range(n):
                got = vec_dot(self.simple_roots[j], self.simple_coroots[i])
                if got != self.cartan[i][j]:
                    raise ValueError(
                        'pairing <coroot %d, root %d> = %s, cartan says %s'
                        % (i, j, got, self.cartan[i][j]))
                if i == j and self.cartan[i][j] != 2:
                    raise ValueError('cartan diagonal must be 2')
                if i != j and (self.cartan[i][j] > 0
                               or (self.cartan[i][j] == 0) != (self.cartan[j][i] == 0)):
                    raise ValueError('invalid cartan matrix')
        if rational_rank(self.simple_coroots) != n and n > 0:
            raise ValueError('simple coroots must be linearly independent')
        # sigma_perm first, so that a permutation that is no diagram
        # automorphism is not blamed on sigma_matrix
        p = self.sigma_perm
        if sorted(p) != list(range(n)):
            raise ValueError('sigma_perm is not a permutation')
        _check_diagram_automorphism(self.cartan, p)
        self.sigma_inv_matrix = mat_inverse_unimodular(self.sigma_matrix)
        s = self.sigma_matrix
        for i in range(n):
            if mat_vec(s, self.simple_coroots[i]) != self.simple_coroots[p[i]]:
                raise ValueError('sigma_matrix does not permute coroots as sigma_perm')
        # character side: sigma(alpha_i) must be alpha_{p(i)}
        for i in range(n):
            # row vector times sigma^{-1}
            moved = self._covec_times(self.simple_roots[i], self.sigma_inv_matrix)
            if moved != self.simple_roots[p[i]]:
                raise ValueError('sigma_matrix does not permute roots as sigma_perm')

    @staticmethod
    def _covec_times(covec, matrix):
        """Row vector times matrix."""
        d = len(matrix[0]) if matrix else 0
        return tuple(sum(covec[i] * matrix[i][j] for i in range(len(covec)))
                     for j in range(d))

    def _generate_roots(self):
        closure = root_closure(self.cartan)
        pos = sorted((c for c in closure if min(c) >= 0),
                     key=lambda c: (sum(c), c))
        coords = [(c, closure[c]) for c in pos]
        coords += [(vec_scale(-1, c), vec_scale(-1, k)) for c, k in coords]
        self.roots = [
            _Root(self._covec_times(c, self.simple_roots),
                  self._covec_times(k, self.simple_coroots), c, k)
            for c, k in coords]
        self.root_index = {r.covec: i for i, r in enumerate(self.roots)}
        if len(self.root_index) != len(self.roots):
            raise ValueError('duplicate roots')
        self.positive_roots = self.roots[:len(pos)]
        self.num_positive = len(pos)

    def _finish(self):
        self.two_rho = tuple(sum(r.covec[i] for r in self.positive_roots)
                             for i in range(self.dim))
        self.simple_indices = [self.root_index[a] for a in self.simple_roots]
        self.components = diagram_components(self.cartan)
        self.highest_roots = [self._highest_root(c) for c in self.components]
        # simple_orbit[i]: the sigma-orbit of the simple index i
        self.simple_orbit = tuple(frozenset(perm_orbit(self.sigma_perm, i))
                                  for i in range(self.rank))
        self.sigma_order, self._sigma_sum = self._sigma_powers()
        self._block_inverses = {}
        self._coordinates = self._coroot_coordinates(range(self.rank))
        self._projection_memo = {}
        self._hull_memo = {}

    def weyl_order(self):
        """|W|: det C times the product over the Dynkin components of rank
        n of n! a_1 ... a_n, where a_1 alpha_1 + ... + a_n alpha_n is the
        component's highest root (Bourbaki, *Lie Groups and Lie Algebras*,
        VI §2) and det C, the product over the components, is the product
        of the Smith divisors of the Cartan matrix C.

        >>> [datum_from_config({'type': t}).weyl_order()
        ...  for t in ('E6', 'B6', 'A2xG2')]
        [51840, 46080, 72]
        """
        _, divisors, _ = _column_snf(self.cartan, self.rank)
        order = math.prod(divisors)
        for comp, h in zip(self.components, self.highest_roots):
            coords = self.positive_roots[h].coords
            order *= (math.factorial(len(comp))
                      * math.prod(coords[i] for i in comp))
        return order

    def _highest_root(self, comp):
        """Index of the highest root of a connected set of simple indices:
        the last of the positive roots, sorted by height, supported in it."""
        return max(idx for idx, r in enumerate(self.positive_roots)
                   if all(c == 0 or i in comp for i, c in enumerate(r.coords)))

    def _sigma_powers(self):
        """(order of sigma, the integer matrix 1 + sigma + sigma^2 + ...
        summed over one period), in a loop of derived length.  sigma
        permutes the simple coroots by sigma_perm, of order p, and keeps
        the kernel K of the roots, which it permutes (_validate_basic), of
        rank k = dim - rank: 0, or 1 for "gl".  A finite-order unimodular
        map of Z^k has m-th roots of unity as eigenvalues, phi(m) <= k, so
        m <= 2 k^2 as phi(m) >= sqrt(m / 2); ord(sigma) divides lcm(p, 1,
        ..., 2 k^2), which for k <= 1 divides 2 p (sigma is +-1 on K)."""
        k = self.dim - self.rank
        bound = math.lcm(*map(len, self.simple_orbit),
                         *range(1, 2 * k * k + 1))
        ident = mat_identity(self.dim)
        power, total = self.sigma_matrix, ident
        for n in range(1, bound + 1):
            if power == ident:
                return n, total
            total = [list(map(add, a, b)) for a, b in zip(total, power)]
            power = mat_mul(power, self.sigma_matrix)
        if k > 1:
            raise ValueError('sigma does not have finite order')
        raise InvariantError(self.name, 'sigma has not closed after %d '
                             'powers, a multiple of its order' % bound)

    # -- basic operations -----------------------------------------------

    def sigma_vec(self, mu):
        return mat_vec(self.sigma_matrix, mu)

    def sigma_root(self, root_idx):
        """Index of sigma(alpha) for a root index.

        >>> builtin_datum('sl3_flip').sigma_root(0)
        1
        """
        return self._sigma_root_perm[root_idx]

    @cached_property
    def _sigma_root_perm(self):
        """sigma as a permutation of the root indices, built on first use.
        sigma maps alpha_i to alpha_{sigma_perm[i]}, so it moves the
        simple-root coordinates of every root the same way."""
        index = {r.coords: i for i, r in enumerate(self.roots)}
        out = []
        for r in self.roots:
            image = [0] * self.rank
            for i, c in zip(self.sigma_perm, r.coords):
                image[i] = c
            out.append(index[tuple(image)])
        return tuple(out)

    def negative(self, root_idx):
        r = self.roots[root_idx]
        return self.root_index[vec_scale(-1, r.covec)]

    def is_positive_root(self, root_idx):
        return root_idx < self.num_positive

    def is_dominant(self, mu):
        return all(vec_dot(a, mu) >= 0 for a in self.simple_roots)

    def sigma_orbits(self, subset=None):
        """Orbits of sigma on a set of simple indices (default all).

        >>> builtin_datum('sl3_flip').sigma_orbits()
        [(0, 1)]
        """
        if subset is None:
            subset = range(self.rank)
        subset = set(subset)
        out = []
        seen = set()
        for i in sorted(subset):
            if i in seen:
                continue
            orb = perm_orbit(self.sigma_perm, i)
            if not subset.issuperset(orb):
                raise ValueError('subset is not sigma stable')
            seen.update(orb)
            out.append(tuple(orb))
        return out

    def is_sigma_stable(self, subset):
        return all(self.sigma_perm[i] in subset for i in subset)

    # -- dominance order and averaged projections -----------------------
    #
    # The class layer runs on integer numerators over one denominator: a
    # vector mu is cleared to (den, num) once, the per-subset matrices and
    # the simple-coroot coordinates are integer matrices over their own
    # scales, and each public wrapper on ints or Fractions
    # (dominance_leq, pi_projection, convex_hull_point) has one integer
    # form (numerators_leq, pi_numerators, hull_numerators).  A BGClass
    # is built from the integer forms, so Fractions are formed only in
    # the wrappers and in failure messages.

    def dominance_leq(self, a, b):
        """Dominance order: b - a a nonnegative rational combination of
        simple coroots.

        a and b (ints or Fractions) are cleared to integers, and the test
        reads the signs of the integer coordinates of the difference (see
        :meth:`coroot_difference`); no Fraction is formed.

        >>> d = builtin_datum('gl3')
        >>> d.dominance_leq((1, 0, 0), (Fraction(1, 3),) * 3)
        False
        >>> d.dominance_leq((0, 1, 0), (1, 0, 0))
        True
        """
        return self.numerators_leq(_common_denominator(a),
                                   _common_denominator(b))

    def numerators_leq(self, a, b):
        """:meth:`dominance_leq` for a and b given as (den, nums) with
        integer nums: the signs of the coordinates of b - a over the simple
        coroots (see :meth:`coroot_difference`)."""
        found = self.coroot_difference(b, a)
        return found is not None and all(c >= 0 for c in found[1])

    def coroot_numerators(self, num, den):
        """The coefficients of the vector num / den (num integers, den > 0)
        over the simple coroots as (D, k), meaning k / D, k integers; None
        when the vector is outside their span.  The signs of k are the
        signs of the coefficients.  With (D0, K) = _coordinates, k = K num
        and num is in the span exactly when D0 num = G k (G: the simple
        coroots as columns).

        >>> d = builtin_datum('gl3')
        >>> d.coroot_numerators([2, 1, -3], 2)
        (6, [6, 9])
        >>> d.coroot_numerators([1, 0, 0], 1) is None
        True
        """
        scale, matrix = self._coordinates
        coeffs = [vec_dot(row, num) for row in matrix]
        if any(scale * x != sum(map(mul, coeffs, column))
               for column, x in zip(self._coroot_columns, num)):
            return None
        return scale * den, coeffs

    def coroot_difference(self, a, b):
        """a - b over the simple coroots, for a and b given as (den, nums)
        with integer nums: (D, k) as :meth:`coroot_numerators` gives it,
        or None off their span.  The dominance test, the certificate of
        the convex hull point and the lambda checks read it."""
        (p, x), (q, y) = a, b
        common = math.lcm(p, q)
        return self.coroot_numerators(
            [u * (common // p) - v * (common // q) for u, v in zip(x, y)],
            common)

    @cached_property
    def _coroot_columns(self):
        """The i-th coordinates of the simple coroots, one tuple per i."""
        return list(zip(*self.simple_coroots))

    def _coroot_coordinates(self, subset):
        """(D, K) with K / D = (C_J^T)^{-1} A_J, K an integer matrix, C_J
        the Cartan block of J and A_J the roots of J (sorted) as rows: the
        coordinates over the J-coroots of the part of a vector in their
        span, along the annihilator of the J-roots.

        C_J is block diagonal over the Dynkin components of J, so each
        component's block is inverted on its own and kept by its entries:
        equal blocks (the A1 components of gl6, say) share one inverse.
        The inverse comes from the integer elimination kernel as (D, A),
        an integer matrix over its denominator (``lattice._inverse_over_z``),
        so no Fraction is formed."""
        parts = []
        for comp in diagram_components(self.cartan, subset):
            cs = sorted(comp)
            block = tuple(tuple(self.cartan[i][j] for i in cs) for j in cs)
            if block not in self._block_inverses:
                try:
                    self._block_inverses[block] = _inverse_over_z(block)
                except ValueError:
                    raise InvariantError(
                        self.name, 'the Cartan block of J = %s is singular'
                        % sorted(j + 1 for j in subset)) from None
            scale, inverse = self._block_inverses[block]
            parts.append((scale, cs, mat_mul(
                inverse, [self.simple_roots[j] for j in cs])))
        den = math.lcm(*(scale for scale, _, _ in parts))
        rows = {j: [x * (den // scale) for x in r]
                for scale, cs, coords in parts for j, r in zip(cs, coords)}
        g = math.gcd(den, *(x for r in rows.values() for x in r))
        return den // g, [[x // g for x in rows[j]] for j in sorted(rows)]

    def pi_numerators(self, subset, num):
        """The averaged projection pi_J of an integer vector num, as
        (den, nums) with pi_J(num) = nums / den: the one integer form of
        :meth:`pi_projection`, which the convex hull point, the minimal
        class and the lambda checks read.

        >>> d = builtin_datum('gl3')
        >>> d.pi_numerators(frozenset({0}), (1, 0, 0))
        (2, (1, 1, 0))
        """
        scale, matrix = self._projection(frozenset(subset))
        return scale, tuple([vec_dot(row, num) for row in matrix])

    def _projection(self, subset):
        """(D, M) with pi_J = M / D, M an integer matrix, built for the
        sigma-stable subset J on first use and kept."""
        found = self._projection_memo.get(subset)
        if found is None:
            if not self.is_sigma_stable(subset):
                raise ValueError('subset must be sigma stable')
            scale, coords = self._coroot_coordinates(subset)
            gens = [self.simple_coroots[j] for j in sorted(subset)]
            levi = [[scale * (i == k)
                     - sum(g[i] * row[k] for g, row in zip(gens, coords))
                     for k in range(self.dim)] for i in range(self.dim)]
            if self.sigma_order > 1:
                levi = mat_mul(levi, self._sigma_sum)
            found = self._projection_memo[subset] = (
                scale * self.sigma_order, levi)
        return found

    def pi_projection(self, subset, mu):
        """Averaged projection onto the J-fixed subspace, then sigma-averaged.

        The Levi projection P_J = 1 - G_J (C_J^T)^{-1} A_J (columns of
        G_J the coroots of J; see _coroot_coordinates) keeps the roots of
        J at zero and moves mu within mu + span(coroots of J), like
        averaging over W_J.  J is sigma stable, so P_J commutes with
        sigma and pi_J = P_J (1 + sigma + ... + sigma^(n-1)) / n for sigma
        of order n.

        mu (ints or Fractions) is cleared to integers over one
        denominator and projected by :meth:`pi_numerators`, on the integer
        matrix that :meth:`_projection` builds per subset on first use;
        this wrapper forms the Fractions.

        >>> d = builtin_datum('gl3')
        >>> d.pi_projection(frozenset({0}), (1, 0, 0))
        (Fraction(1, 2), Fraction(1, 2), Fraction(0, 1))
        >>> d.pi_projection(frozenset({0, 1}), (1, 0, 0))
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        """
        den, vec = _common_denominator(mu)
        scale, nums = self.pi_numerators(subset, vec)
        return tuple([Fraction(x, scale * den) for x in nums])

    def convex_hull_point(self, mu):
        """conv(mu) (Chai, "Newton polygons as lattice points", Amer. J.
        Math. 122, 2000): the averaged projection pi_J(mu), J sigma
        stable, that dominates all the others.

        mu (ints or Fractions) is cleared to integers over one
        denominator and taken by :meth:`hull_numerators` (conv is linear
        under positive scaling); this wrapper forms the Fractions.

        >>> builtin_datum('sl2').convex_hull_point((1,))
        (Fraction(1, 1),)
        >>> builtin_datum('gl3').convex_hull_point((0, 0, 1))
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        """
        den, vec = _common_denominator(mu)
        scale, nums = self.hull_numerators(vec)
        return tuple([Fraction(x, scale * den) for x in nums])

    def hull_numerators(self, mu):
        """The convex hull point of an integer vector mu as (D, nums) in
        lowest terms (D >= 1, gcd(D, *nums) = 1), conv(mu) = nums / D:
        the one integer form of :meth:`convex_hull_point`, which the class
        layer reads.  Kept per tuple(mu).

        A monotone pivot on the integers of :meth:`pi_numerators`: from J
        = {}, while some simple root i outside J has <alpha_i, pi_J(mu)> <
        0, add the sigma-orbits of all such i to J and project again, at
        most (number of sigma-orbits) + 1 times.  The result is checked by
        a certificate, the linear complementarity problem of the Cartan
        matrix (Chandrasekaran, Opsearch 7, 1970): nu is dominant; nu -
        avg = sum_{j in J} c_j alpha_j^vee with all c_j >= 0 (read off
        :meth:`coroot_difference`; avg = pi_{}(mu)); <alpha_j, nu> = 0 on
        J.  A failure is an InvariantError naming the datum and mu.

        Proof.  C_ij = <alpha_i, alpha_j^vee> is a nonsingular M-matrix:
        C_ij <= 0 for i != j and each principal block has C_JJ^{-1} >= 0.
        Write pi_J(mu) = avg + sum_j d_J,j alpha_j^vee, d_J zero off J.
        (1) Steps raise d: from J to J', e = d_J' - d_J has (C e)_j = 0 on
        J and -<alpha_j, pi_J(mu)> > 0 on J' - J (pi_J(mu) is sigma-fixed,
        so whole orbits pair negatively), so e_J' = C_J'J'^{-1} (C e)_J' >=
        0; from d_{} = 0 the certificate holds at exit.  (2) A certified nu
        is pi_J(mu) and dominates every candidate: for sigma-stable K let e
        = c - d_K; e = c >= 0 off K, and C_KK e_K = <alpha_K, nu> -
        C_{K,K^c} e_{K^c} >= 0, so e_K >= 0: pi_K(mu) <= nu.

        >>> builtin_datum('gl3').hull_numerators((0, 0, 1))
        (3, (1, 1, 1))
        """
        mu = tuple(mu)
        found = self._hull_memo.get(mu)
        if found is not None:
            return found
        subset = frozenset()
        avg = scale, nums = self.pi_numerators(subset, mu)
        while True:
            pairs = [vec_dot(a, nums) for a in self.simple_roots]
            low = [self.simple_orbit[i] for i, p in enumerate(pairs)
                   if p < 0 and i not in subset]
            if not low:
                break
            subset = subset.union(*low)
            scale, nums = self.pi_numerators(subset, mu)
        excess = self.coroot_difference((scale, nums), avg)
        if excess is None or any(
                c < 0 or p < 0 or (p if j in subset else c)
                for j, (c, p) in enumerate(zip(excess[1], pairs))):
            raise InvariantError(
                self.name, 'the convex hull point of mu = %s fails its '
                'certificate: nu = %s, J = %s' % (
                    _vec_text(mu),
                    _vec_text([Fraction(x, scale) for x in nums]),
                    sorted(j + 1 for j in subset)))
        g = math.gcd(scale, *nums)
        found = self._hull_memo[mu] = (scale // g,
                                       tuple([x // g for x in nums]))
        return found

    # -- quotients ------------------------------------------------------

    def twist_relations(self, images=None):
        """Generators sigma(w e_j) - e_j of (sigma w - 1) X, one per basis
        vector e_j, zero vectors included; ``images`` lists the integer
        vectors w e_j for a map w of X (default the identity), such as
        ``[W.act(e, e_j) for e_j in ...]`` for a Weyl element e.

        >>> d = builtin_datum('sl3_flip')
        >>> d.twist_relations()
        [(-1, 1), (1, -1)]
        >>> d.twist_relations([(-1, 0), (1, 1)])     # s_1 on X
        [(-1, -1), (1, 0)]
        """
        out = []
        for j in range(self.dim):
            e = tuple(int(i == j) for i in range(self.dim))
            image = e if images is None else images[j]
            out.append(vec_sub(self.sigma_vec(image), e))
        return out

    def fundamental_group_presentation(self):
        """pi_1 = X / (coroot lattice), as a quotient presentation."""
        return QuotientPresentation(self.dim, list(self.simple_coroots))

    def galois_coinvariants(self):
        """X_Gamma = X / (sigma - 1) X."""
        return QuotientPresentation(self.dim, self.twist_relations())

    def kottwitz_presentation(self):
        """pi_1(G)_Gamma = X / (coroot lattice + (sigma - 1) X)."""
        return QuotientPresentation(
            self.dim, list(self.simple_coroots) + self.twist_relations())

    def describe(self):
        return {
            'name': self.name,
            'rank': self.rank,
            'dim': self.dim,
            'num_roots': len(self.roots),
            'sigma_order': self.sigma_order,
            'components': [sorted(i + 1 for i in c) for c in self.components],
        }


# -- config loading -----------------------------------------------------


_CONFIG_KEYS = frozenset({'type', 'cartan', 'lattice_basis', 'sigma_perm',
                         'sigma_matrix', 'name'})


def datum_from_config(config):
    """Build a RootDatum from a JSON-style dict.  See module docstring.

    >>> datum_from_config({'type': 'A1', 'lattice_basis': 'sc'}).rank
    1
    """
    if not isinstance(config, dict):
        raise ValueError('a datum config must be a JSON object, got %s'
                         % _show(config))
    unknown = ', '.join(sorted(map(str, set(config) - _CONFIG_KEYS)))
    if unknown:
        raise ValueError('unknown config key(s) %s; the keys are %s'
                         % (unknown, ', '.join(sorted(_CONFIG_KEYS))))
    if 'cartan' in config:
        cartan = _int_matrix(config, 'cartan')
        what = 'the Cartan matrix'
        _check_rank(what, [len(c) for c in diagram_components(cartan)])
    elif 'type' in config:
        if not isinstance(config['type'], str):
            raise ValueError('type must be a string such as "A2" or '
                             '"C2xA1", got %s' % _show(config['type']))
        what = 'type %r' % config['type']
        cartan = cartan_matrix(config['type'])
    else:
        raise ValueError("config needs 'type' or 'cartan'")
    n = len(cartan)
    basis = config.get('lattice_basis', 'sc')
    name = config.get('name', config.get('type', 'custom'))
    if not isinstance(name, str):
        raise ValueError('name must be a string, got %s' % _show(name))
    if basis not in ('sc', 'adjoint', 'gl'):
        _int_matrix(config, 'lattice_basis', n, '"sc", "adjoint", "gl" or ')
    if 'sigma_matrix' in config:
        _int_matrix(config, 'sigma_matrix', n + 1 if basis == 'gl' else n)
    perm = _perm_from_config(config, n)
    _check_diagram_automorphism(cartan, perm)
    sig_mat = config.get('sigma_matrix')

    if basis == 'gl':
        # type A_{n} realized on the standard lattice of GL_{n+1}; the
        # block is built directly, so a product of n small parts is
        # refused for its shape, not for the order of W(A_n)
        if cartan != _cartan_block('A', n):
            raise ValueError('lattice_basis "gl" needs type A_n in chain '
                             'order, and %s is not A%d in chain order'
                             % (what, n))
        d = n + 1
        coroots = [tuple((1 if j == i else -1 if j == i + 1 else 0)
                         for j in range(d)) for i in range(n)]
        roots = coroots
    else:
        if basis == 'adjoint':
            b = mat_identity(n)
        elif basis == 'sc':
            # columns are the simple coroots in coweight coordinates
            b = [[cartan[j][i] for j in range(n)] for i in range(n)]
        else:
            b = [list(r) for r in basis]
        # B^{-1} = binv / den, binv an integer matrix
        den, binv = _inverse_over_z(b)
        # coroot i in lattice coordinates: B^{-1} (cartan row i)
        coroots = []
        for i in range(n):
            v = mat_vec(binv, cartan[i])
            if any(x % den for x in v):
                raise ValueError('lattice does not contain the coroot lattice')
            coroots.append(tuple(x // den for x in v))
        # root j as covector on lattice coordinates: row j of B
        roots = [tuple(b[j][k] for k in range(n)) for j in range(n)]
        if sig_mat is None and any(p != i for i, p in enumerate(perm)):
            # permutation of the coweight basis, transported to lattice coords
            p_mat = [[1 if perm[j] == i else 0 for j in range(n)]
                     for i in range(n)]
            m = mat_mul(mat_mul(binv, p_mat), b)
            # the simple coroots span X (x) Q, so m / den is the one map
            # that permutes them as perm does: no sigma_matrix can do better
            if any(x % den for row in m for x in row):
                raise ValueError(
                    'sigma_perm %s does not preserve the lattice: the one '
                    'linear map permuting the simple coroots as it does is '
                    'not integral on the lattice basis'
                    % _show(config['sigma_perm']))
            sig_mat = [[x // den for x in row] for row in m]
    datum = RootDatum(cartan, coroots, roots, perm, sig_mat, name=name)
    order = datum.weyl_order()
    if order > MAX_WEYL_ORDER:
        raise ValueError('%s has a Weyl group of order %d; the limit is %d'
                         % (what, order, MAX_WEYL_ORDER))
    return datum


def _show(value):
    return json.dumps(value, default=repr)


def _int_matrix(config, key, size=None, names=''):
    """config[key], refused with a ValueError naming the key unless it is
    a square list of lists of integers (not booleans), of the given size
    if one is given."""
    m = config[key]
    n = len(m) if size is None and isinstance(m, list) else size
    if not (isinstance(m, list) and len(m) == n
            and all(isinstance(r, list) and len(r) == n
                    and all(type(c) is int for c in r) for r in m)):
        raise ValueError('%s must be %sa square matrix of integers%s, got %s'
                         % (key, names,
                            '' if size is None else ' of size %d' % size,
                            _show(m)))
    return m


def _check_diagram_automorphism(cartan, perm):
    """Refuse a permutation of the simple indices (0-based) that does not
    preserve the Cartan matrix, naming it 1-based.

    >>> _check_diagram_automorphism(cartan_matrix('G2'), (1, 0))
    Traceback (most recent call last):
    ...
    ValueError: sigma_perm [2, 1] does not preserve the Cartan matrix
    """
    if any(cartan[p][q] != cartan[i][j] for i, p in enumerate(perm)
           for j, q in enumerate(perm)):
        raise ValueError('sigma_perm %s does not preserve the Cartan matrix'
                         % [p + 1 for p in perm])


def _perm_from_config(config, n):
    perm = config.get('sigma_perm')
    if perm is None:
        return tuple(range(n))
    if not (isinstance(perm, (list, tuple))
            and all(type(p) is int for p in perm)
            and sorted(perm) == list(range(1, n + 1))):
        raise ValueError('sigma_perm must be a permutation of 1..%d, got %r'
                         % (n, perm))
    return tuple(p - 1 for p in perm)


def _unique_keys(pairs):
    """The ``object_pairs_hook`` of the element and datum JSON readers:
    the object as a dict, refusing a repeated key, of which ``json``
    would silently keep the last value.

    >>> json.loads('{"w": [1], "w": [2]}', object_pairs_hook=_unique_keys)
    Traceback (most recent call last):
    ...
    ValueError: repeated key "w"
    """
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError('repeated key %s' % json.dumps(key))
        out[key] = value
    return out


def datum_from_json(path):
    """Load a RootDatum from a JSON file, named by the path unless the
    config has a "name", so every message about it names the file."""
    with open(path) as f:
        config = json.load(f, object_pairs_hook=_unique_keys)
    if isinstance(config, dict):
        config.setdefault('name', str(path))
    return datum_from_config(config)


BUILTIN_DATA = {
    'sl2': {'type': 'A1', 'lattice_basis': 'sc'},
    'pgl2': {'type': 'A1', 'lattice_basis': 'adjoint'},
    'sl3': {'type': 'A2', 'lattice_basis': 'sc'},
    'pgl3': {'type': 'A2', 'lattice_basis': 'adjoint'},
    'gl2': {'type': 'A1', 'lattice_basis': 'gl'},
    'gl3': {'type': 'A2', 'lattice_basis': 'gl'},
    'gl4': {'type': 'A3', 'lattice_basis': 'gl'},
    'gl6': {'type': 'A5', 'lattice_basis': 'gl'},
    'sl4': {'type': 'A3', 'lattice_basis': 'sc'},
    'sl3_flip': {'type': 'A2', 'lattice_basis': 'sc', 'sigma_perm': [2, 1]},
    'sl4_flip': {'type': 'A3', 'lattice_basis': 'sc', 'sigma_perm': [3, 2, 1]},
    'sp4': {'type': 'C2', 'lattice_basis': 'sc'},
    'psp4': {'type': 'C2', 'lattice_basis': 'adjoint'},
    'so5': {'type': 'B2', 'lattice_basis': 'sc'},
    'g2': {'type': 'G2', 'lattice_basis': 'sc'},
    'e6_adjoint': {'type': 'E6', 'lattice_basis': 'adjoint'},
}


def builtin_datum(name):
    """One of the named built-in data.

    >>> builtin_datum('sp4').describe()['num_roots']
    8
    """
    cfg = dict(BUILTIN_DATA[name])
    cfg.setdefault('name', name)
    return datum_from_config(cfg)


def load_datum(name_or_path):
    """A built-in datum by name, else the datum of a JSON config file."""
    if name_or_path in BUILTIN_DATA:
        return builtin_datum(name_or_path)
    return datum_from_json(name_or_path)


if __name__ == '__main__':
    import doctest
    doctest.testmod()
