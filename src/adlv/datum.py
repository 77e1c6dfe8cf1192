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
      "sigma_matrix": [[...]]    # optional, action on lattice coordinates
    }

An explicit ``lattice_basis`` matrix has columns expressing a basis of X
in fundamental-coweight coordinates; "sc" is the coroot lattice,
"adjoint" the full coweight lattice, and "gl" (type A_{n-1} only) the
standard lattice of GL_n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (QuotientPresentation, mat_identity,
                      mat_inverse_rational, mat_inverse_unimodular, mat_mul,
                      mat_vec, rational_rank, solve_rational_combination,
                      vec_add, vec_dot, vec_scale, vec_sub)

__all__ = [
    'RootDatum',
    'cartan_matrix',
    'datum_from_config',
    'datum_from_json',
    'builtin_datum',
    'load_datum',
    'BUILTIN_DATA',
    'diagram_components',
    'perm_orbit',
]


def cartan_matrix(type_name):
    """Cartan matrix of a (product of) finite type(s), e.g. "A2" or "C2xA1".

    Convention: entry [i][j] is the pairing of the i-th simple coroot
    with the j-th simple root.

    >>> cartan_matrix('C2')
    [[2, -2], [-1, 2]]
    >>> cartan_matrix('G2')
    [[2, -1], [-3, 2]]
    """
    blocks = [_cartan_block(part.strip()) for part in type_name.split('x')]
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def _cartan_block(name):
    family, rank = name[0].upper(), int(name[1:])
    if rank < 1:
        raise ValueError('rank must be positive: %r' % name)
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, a=-1, b=-1):
        c[i][j] = a
        c[j][i] = b

    if family == 'A':
        for i in range(rank - 1):
            link(i, i + 1)
    elif family == 'B':
        # alpha_rank is short
        if rank < 2:
            raise ValueError('B needs rank >= 2')
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -1, -2)
    elif family == 'C':
        # alpha_rank is long
        if rank < 2:
            raise ValueError('C needs rank >= 2')
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -2, -1)
    elif family == 'D':
        if rank < 3:
            raise ValueError('D needs rank >= 3')
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif family == 'E':
        if rank not in (6, 7, 8):
            raise ValueError('E needs rank 6, 7 or 8')
        # Bourbaki: chain 1-3-4-5-...-rank, node 2 attached to 4
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif family == 'F':
        if rank != 4:
            raise ValueError('F needs rank 4')
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif family == 'G':
        if rank != 2:
            raise ValueError('G needs rank 2')
        link(0, 1, -1, -3)
    else:
        raise ValueError('unknown family %r' % family)
    return c


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


@dataclass(frozen=True)
class _Root:
    """One root: covector on X, its coroot in X, and simple-root coords."""
    covec: tuple
    coroot: tuple
    coords: tuple  # expansion in simple roots

    @property
    def positive(self):
        return all(c >= 0 for c in self.coords)

    @property
    def height(self):
        return sum(self.coords)


class RootDatum:
    """A root system realized on a cocharacter lattice, with sigma.

    >>> d = builtin_datum('sl2')
    >>> d.pairing((1,), d.simple_roots[0])
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
        self.sigma_inv_matrix = mat_inverse_unimodular(self.sigma_matrix)
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
        s = self.sigma_matrix
        for i in range(n):
            if mat_vec(s, self.simple_coroots[i]) != self.simple_coroots[self.sigma_perm[i]]:
                raise ValueError('sigma_matrix does not permute coroots as sigma_perm')
        p = self.sigma_perm
        if sorted(p) != list(range(n)):
            raise ValueError('sigma_perm is not a permutation')
        for i in range(n):
            for j in range(n):
                if self.cartan[p[i]][p[j]] != self.cartan[i][j]:
                    raise ValueError('sigma_perm does not preserve the Cartan matrix')
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
        seen = {}
        order = []
        for i in range(self.rank):
            coords = tuple(1 if j == i else 0 for j in range(self.rank))
            r = _Root(self.simple_roots[i], self.simple_coroots[i], coords)
            seen[r.covec] = r
            order.append(r)
        frontier = list(order)
        while frontier:
            nxt = []
            for r in frontier:
                for i in range(self.rank):
                    c = vec_dot(r.covec, self.simple_coroots[i])
                    new = _Root(
                        vec_sub(r.covec, vec_scale(c, self.simple_roots[i])),
                        vec_sub(r.coroot, vec_scale(
                            vec_dot(self.simple_roots[i], r.coroot),
                            self.simple_coroots[i])),
                        tuple(x - c * (j == i) for j, x in enumerate(r.coords)))
                    if new.covec not in seen:
                        seen[new.covec] = new
                        order.append(new)
                        nxt.append(new)
            frontier = nxt
        pos = [r for r in order if r.positive]
        neg = [r for r in order if not r.positive]
        if len(pos) != len(neg) or len(pos) + len(neg) != len(order):
            raise ValueError('root generation produced a non-symmetric system')
        pos.sort(key=lambda r: (r.height, r.coords))
        self.roots = pos + [_Root(vec_scale(-1, r.covec), vec_scale(-1, r.coroot),
                                  vec_scale(-1, r.coords)) for r in pos]
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
        self.sigma_order = self._order_of_sigma()

    def _highest_root(self, comp):
        best = None
        for idx, r in enumerate(self.positive_roots):
            if all((r.coords[i] == 0) == (i not in comp) for i in range(self.rank)):
                if set(i for i in range(self.rank) if r.coords[i]) <= comp:
                    if best is None or r.height > self.positive_roots[best].height:
                        best = idx
        return best

    def _order_of_sigma(self):
        m = self.sigma_matrix
        ident = mat_identity(self.dim)
        acc = [row[:] for row in m]
        n = 1
        while acc != ident:
            acc = mat_mul(acc, m)
            n += 1
            if n > 10000:
                raise ValueError('sigma does not have finite order')
        return n

    # -- basic operations -----------------------------------------------

    def pairing(self, mu, alpha):
        """Pairing of a cocharacter with a character (covector)."""
        return vec_dot(alpha, mu)

    def sigma_vec(self, mu):
        return mat_vec(self.sigma_matrix, mu)

    def sigma_inv_vec(self, mu):
        return mat_vec(self.sigma_inv_matrix, mu)

    def sigma_covec(self, alpha):
        return self._covec_times(alpha, self.sigma_inv_matrix)

    def sigma_root(self, root_idx):
        """Index of sigma(alpha) for a root index."""
        return self.root_index[self.sigma_covec(self.roots[root_idx].covec)]

    def sigma_avg(self, mu):
        """Average of mu over the sigma orbit, a Fraction vector.

        >>> d = builtin_datum('sl2')
        >>> d.sigma_avg((3,))
        (Fraction(3, 1),)
        """
        total = tuple(Fraction(x) for x in mu)
        cur = tuple(mu)
        for _ in range(self.sigma_order - 1):
            cur = self.sigma_vec(cur)
            total = vec_add(total, cur)
        return tuple(x / self.sigma_order for x in total)

    def negative(self, root_idx):
        r = self.roots[root_idx]
        return self.root_index[vec_scale(-1, r.covec)]

    def is_positive_root(self, root_idx):
        return root_idx < self.num_positive

    def is_dominant(self, mu):
        return all(vec_dot(a, mu) >= 0 for a in self.simple_roots)

    def reflection_matrix(self, root_idx):
        """Matrix of the reflection through a root, acting on X."""
        r = self.roots[root_idx]
        return [[(1 if i == j else 0) - r.covec[j] * r.coroot[i]
                 for j in range(self.dim)] for i in range(self.dim)]

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

    def dominance_leq(self, a, b, integral=None):
        """Dominance order: b - a a nonnegative combination of simple coroots.

        Coefficients must be integers when both vectors are integral
        (override with ``integral=False`` for the rational order).

        >>> d = builtin_datum('gl3')
        >>> d.dominance_leq((1, 0, 0), (Fraction(1, 3),) * 3, integral=False)
        False
        >>> d.dominance_leq((0, 1, 0), (1, 0, 0))
        True
        """
        diff = vec_sub(tuple(b), tuple(a))
        coeffs = solve_rational_combination(self.simple_coroots, diff)
        if coeffs is None:
            return False
        if integral is None:
            integral = all(isinstance(x, int) or
                           (isinstance(x, Fraction) and x.denominator == 1)
                           for x in list(a) + list(b))
        for c in coeffs:
            if c < 0:
                return False
            if integral and Fraction(c).denominator != 1:
                return False
        return True

    def pi_projection(self, subset, mu):
        """Averaged projection onto the J-fixed subspace, then sigma-averaged.

        Equals the sigma-average of the image of mu under averaging over
        the parabolic subgroup W_J; computed as the unique vector in
        mu + span(coroots of J) pairing to zero with every root of J.
        J must be sigma stable.

        >>> d = builtin_datum('sl2')
        >>> d.pi_projection(frozenset(), (1,))
        (Fraction(1, 1),)
        >>> d.pi_projection(frozenset({0}), (1,))
        (Fraction(0, 1),)
        """
        subset = frozenset(subset)
        if not self.is_sigma_stable(subset):
            raise ValueError('subset must be sigma stable')
        proj = self._levi_average(subset, mu)
        return self.sigma_avg(proj)

    def _levi_average(self, subset, mu):
        js = sorted(subset)
        if not js:
            return tuple(Fraction(x) for x in mu)
        gens = [self.simple_coroots[j] for j in js]
        # find coefficients c with <mu - sum c_j coroot_j, alpha_i> = 0, i in J
        rows = [[vec_dot(self.simple_roots[i], g) for g in gens] for i in js]
        rhs = [vec_dot(self.simple_roots[i], mu) for i in js]
        coeffs = solve_rational_combination(
            [tuple(rows[i][j] for i in range(len(js))) for j in range(len(js))],
            tuple(rhs))
        assert coeffs is not None
        out = tuple(Fraction(x) for x in mu)
        for c, g in zip(coeffs, gens):
            out = vec_sub(out, vec_scale(c, g))
        return out

    def convex_hull_point(self, mu):
        """The maximal averaged projection of mu over sigma-stable subsets.

        Runtime-checks that the maximum is unique.

        >>> d = builtin_datum('sl2')
        >>> d.convex_hull_point((1,))
        (Fraction(1, 1),)
        """
        candidates = {}
        for bits in range(1 << self.rank):
            subset = frozenset(i for i in range(self.rank) if bits >> i & 1)
            if not self.is_sigma_stable(subset):
                continue
            candidates[subset] = self.pi_projection(subset, mu)
        best = None
        for subset, val in candidates.items():
            if best is None or self.dominance_leq(candidates[best], val,
                                                  integral=False):
                best = subset
        top = candidates[best]
        for subset, val in candidates.items():
            if not self.dominance_leq(val, top, integral=False):
                raise RuntimeError('convex hull point is not unique: %r vs %r'
                                   % (top, val))
        return top

    # -- quotients ------------------------------------------------------

    def twist_relations(self, m=None):
        """Generators sigma(m e_j) - e_j of (sigma m - 1) X, one per basis
        vector e_j, zero vectors included; m is an integer matrix acting
        on X (default the identity).

        >>> builtin_datum('sl3_flip').twist_relations()
        [(-1, 1), (1, -1)]
        """
        out = []
        for j in range(self.dim):
            e = tuple(int(i == j) for i in range(self.dim))
            image = e if m is None else mat_vec(m, e)
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


def datum_from_config(config):
    """Build a RootDatum from a JSON-style dict.  See module docstring.

    >>> datum_from_config({'type': 'A1', 'lattice_basis': 'sc'}).rank
    1
    """
    if 'cartan' in config:
        cartan = config['cartan']
    elif 'type' in config:
        cartan = cartan_matrix(config['type'])
    else:
        raise ValueError("config needs 'type' or 'cartan'")
    n = len(cartan)
    basis = config.get('lattice_basis', 'sc')
    name = config.get('name', config.get('type', 'custom'))

    if basis == 'gl':
        # type A_{n} realized on the standard lattice of GL_{n+1}
        d = n + 1
        coroots = [tuple((1 if j == i else -1 if j == i + 1 else 0)
                         for j in range(d)) for i in range(n)]
        roots = coroots
        sig_mat = config.get('sigma_matrix')
        perm = _perm_from_config(config, n)
        return RootDatum(cartan, coroots, roots, perm, sig_mat, name=name)

    if basis == 'adjoint':
        b = mat_identity(n)
    elif basis == 'sc':
        # columns are the simple coroots in coweight coordinates
        b = [[cartan[j][i] for j in range(n)] for i in range(n)]
    else:
        b = [list(r) for r in basis]
    binv = mat_inverse_rational(b)
    # coroot i in lattice coordinates: B^{-1} (cartan row i)
    coroots = []
    for i in range(n):
        v = mat_vec(binv, cartan[i])
        if any(x.denominator != 1 for x in v):
            raise ValueError('lattice does not contain the coroot lattice')
        coroots.append(tuple(int(x) for x in v))
    # root j as covector on lattice coordinates: row j of B
    roots = [tuple(b[j][k] for k in range(n)) for j in range(n)]
    perm = _perm_from_config(config, n)
    sig_mat = config.get('sigma_matrix')
    if sig_mat is None and any(p != i for i, p in enumerate(perm)):
        # permutation of the coweight basis, transported to lattice coords
        p_mat = [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]
        m = mat_mul(mat_mul(binv, p_mat), b)
        if any(x.denominator != 1 for row in m for x in row):
            raise ValueError('sigma_perm does not preserve the lattice; '
                             'give sigma_matrix explicitly')
        sig_mat = [[int(x) for x in row] for row in m]
    return RootDatum(cartan, coroots, roots, perm, sig_mat, name=name)


def _perm_from_config(config, n):
    perm = config.get('sigma_perm')
    if perm is None:
        return tuple(range(n))
    return tuple(p - 1 for p in perm)


def datum_from_json(path):
    """Load a RootDatum from a JSON file."""
    with open(path) as f:
        return datum_from_config(json.load(f))


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
