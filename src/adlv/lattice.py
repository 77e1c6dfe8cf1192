"""Exact integer and rational linear algebra for lattice computations.

Everything here works over arbitrary-precision integers and
`fractions.Fraction`; no floating point is used anywhere.  The vector
kernels (``mat_vec``, ``vec_dot``, ``vec_add``, ``vec_sub``,
``vec_scale``) are ``operator`` maps: they form the same products and
sums in the same order as a coordinate loop, so an int input gives an
int result and a ``Fraction`` anywhere gives a ``Fraction``.  Each ring
has one elimination kernel, and every rank, inverse, solve, kernel and
quotient reads it: ``_gauss_jordan`` (fraction-free Gauss-Jordan over
Z, whose rows over its last pivot are the reduced row echelon form over
Q) and ``_column_snf`` (Smith normal form over Z of a matrix given by
its columns).  Ranks, integer inverses (``_inverse_over_z``,
``mat_inverse_unimodular``) and quotients form no Fraction; only the
two rational wrappers, ``mat_inverse_rational`` and
``solve_rational_combination``, turn the kernel's integers into
Fractions.  On top sit quotients of free abelian groups with canonical
residue forms and an integer cone solver, ``solve_in_cone``, whose
search is bounded exactly by a functional positive on the cone (its
value on the target), optionally modulo such a quotient.  The library
reads interval witnesses off ``PCT.bgx_interval`` and coroot coordinates
off ``RootDatum``; it no longer calls ``solve_in_cone`` or
``solve_rational_combination``, the independent solvers of the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import add, mul, sub

__all__ = [
    'mat_identity',
    'mat_mul',
    'mat_vec',
    'vec_add',
    'vec_sub',
    'vec_scale',
    'vec_dot',
    'mat_inverse_rational',
    'mat_inverse_unimodular',
    'smith_normal_form',
    'rational_rank',
    'solve_rational_combination',
    'integer_kernel',
    'solve_integer_combination',
    'solve_in_cone',
    'QuotientPresentation',
]


def mat_identity(n):
    """n-by-n identity matrix as a list of row lists."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Matrix product of two lists-of-rows."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(m, v):
    """Apply a matrix (list of rows) to a vector, returning a tuple.

    >>> mat_vec([[0, 1], [1, 0]], (3, 4))
    (4, 3)
    """
    return tuple([sum(map(mul, row, v)) for row in m])


def vec_add(a, b):
    return tuple(map(add, a, b))


def vec_sub(a, b):
    return tuple(map(sub, a, b))


def vec_scale(c, a):
    return tuple([c * x for x in a])


def vec_dot(a, b):
    """Plain coordinate pairing of a covector with a vector."""
    return sum(map(mul, a, b))


def _common_denominator(vec):
    """(den, v): a positive integer and an integer list with vec = v / den,
    for vec a vector of ints or Fractions; no Fraction is formed.

    >>> _common_denominator((Fraction(1, 2), 3, Fraction(-2, 3)))
    (6, [3, 18, -4])
    """
    den = lcm(*(x.denominator for x in vec))
    return den, [x.numerator * (den // x.denominator) for x in vec]


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination over Z, pivoting on the
    first ncols columns (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968).

    Any further (augmented) columns are carried along.  A row holding
    Fractions is first cleared by the lcm of its denominators: scaling a
    row by a positive integer keeps its rank and its solutions.  Returns
    (d, rows, pivots) with integer rows whose reduced row echelon form
    over Q is rows / d: row r has the entry d in column pivots[r] and 0
    in every other pivot column, the rows from len(pivots) on are zero
    in the first ncols columns, and d is the last pivot (1 with none).

    With p the new pivot, in row top and column c, and prev the last
    one, a step replaces every other row by (p * a[r] - a[r][c] *
    a[top]) / prev.  The division is exact: below the pivots an entry is
    then a minor of the cleared matrix (Sylvester's identity), and in a
    pivot row it is p times a Cramer quotient with denominator p.

    >>> _gauss_jordan([[2, 4, 1], [1, 3, 0]], 2)
    (2, [[2, 0, 3], [0, 2, -1]], [0, 1])
    """
    a = [_common_denominator(row)[1] for row in rows]
    pivots = []
    prev = 1
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        prow = a[top]
        p = prow[col]
        for r, row in enumerate(a):
            if r != top:
                y = row[col]
                a[r] = [(p * x - y * z) // prev for x, z in zip(row, prow)]
        prev = p
        pivots.append(col)
    return prev, a, pivots


def _inverse_over_z(m):
    """(D, A) with m^-1 = A / D: A an integer matrix, D > 0 and
    gcd(D, A) = 1.  Raises ValueError when the matrix is singular.

    >>> _inverse_over_z([[2, 1], [0, 2]])
    (4, [[2, -1], [0, 2]])
    """
    n = len(m)
    d, a, pivots = _gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(m)], n)
    if len(pivots) < n:
        raise ValueError('matrix is singular: %r' % (m,))
    g = gcd(d, *(x for row in a for x in row[n:]))
    if d < 0:
        g = -g
    return d // g, [[x // g for x in row[n:]] for row in a]


def mat_inverse_rational(m):
    """Inverse of a square matrix over the rationals: the integer inverse
    of :func:`_inverse_over_z`, over its denominator.

    Entries of the result are Fractions.  Raises ValueError when the
    matrix is singular.

    >>> mat_inverse_rational([[2, 0], [0, 1]])
    [[Fraction(1, 2), Fraction(0, 1)], [Fraction(0, 1), Fraction(1, 1)]]
    """
    den, inverse = _inverse_over_z(m)
    return [[Fraction(x, den) for x in row] for row in inverse]


def mat_inverse_unimodular(m):
    """Inverse of an integer matrix with determinant +-1.

    Raises ValueError when the matrix is singular or its inverse is not
    integral (the denominator of :func:`_inverse_over_z` is not 1).

    >>> mat_inverse_unimodular([[1, 1], [0, 1]])
    [[1, -1], [0, 1]]
    """
    den, inverse = _inverse_over_z(m)
    if den != 1:
        raise ValueError('matrix is not unimodular: %r' % (m,))
    return inverse


def smith_normal_form(m):
    """Smith normal form with transforms: returns (u, d, v), u*m*v = d.

    ``u`` and ``v`` are unimodular and ``d`` is diagonal with each
    diagonal entry dividing the next, all entries nonnegative.

    >>> u, d, v = smith_normal_form([[2, 4], [6, 8]])
    >>> [d[0][0], d[1][1]]
    [2, 4]
    >>> mat_mul(mat_mul(u, [[2, 4], [6, 8]]), v) == d
    True
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = mat_identity(rows)
    v = mat_identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a pivot of smallest absolute value in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None
                                     or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the rest of the block by the pivot
        stuck = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    add_row(i, t, 1)
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v


def rational_rank(vectors):
    """Rank over the rationals of a list of integer or Fraction vectors.

    >>> rational_rank([(1, 2), (2, 4), (0, 1)])
    2
    """
    return len(_gauss_jordan(vectors, len(vectors[0]) if vectors else 0)[2])


def solve_rational_combination(generators, target):
    """Fraction coefficients c with sum c_i * g_i = target, or None.

    When the generators are linearly independent the solution is unique;
    otherwise each generator in the span of the earlier ones gets zero.

    >>> solve_rational_combination([(2, 0), (0, 3)], (1, 1))
    (Fraction(1, 2), Fraction(1, 3))
    >>> solve_rational_combination([(1, 0)], (0, 1)) is None
    True
    """
    k = len(generators)
    den, a, pivots = _gauss_jordan(
        [[g[i] for g in generators] + [t] for i, t in enumerate(target)], k)
    if any(row[k] for row in a[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for row, col in zip(a, pivots):
        coeffs[col] = Fraction(row[k], den)
    for i, t in enumerate(target):
        if sum(c * g[i] for c, g in zip(coeffs, generators)) != t:
            return None
    return tuple(coeffs)


def _column_snf(columns, dim):
    """Smith normal form of the dim-by-k matrix with the given columns.

    Returns (u, divisors, v) with u and v unimodular and u*M*v diagonal;
    ``divisors`` are its nonzero diagonal entries, which come first, so
    len(divisors) is the rank of M.
    """
    u, d, v = smith_normal_form([[c[i] for c in columns] for i in range(dim)])
    divisors = [d[i][i] for i in range(min(dim, len(columns))) if d[i][i] != 0]
    return u, divisors, v


def integer_kernel(generators):
    """Basis of the lattice of integer relations among the generators.

    Returns coefficient vectors c (tuples) with sum c_i * g_i = 0.

    >>> integer_kernel([(1, 1), (2, 2)])
    [(-2, 1)]
    """
    if not generators:
        return []
    k = len(generators)
    _, divisors, v = _column_snf(generators, len(generators[0]))
    return [tuple(row[j] for row in v) for j in range(len(divisors), k)]


def solve_integer_combination(generators, target):
    """Integer coefficients c with sum c_i * g_i = target, or None.

    >>> solve_integer_combination([(2, 0), (1, 1)], (3, 1))
    (1, 1)
    >>> solve_integer_combination([(2, 0)], (1, 0)) is None
    True
    """
    return _snf_solve(_column_snf(generators, len(target)), target)


def _snf_solve(snf, target):
    """Integer coefficients c with sum c_i * g_i = target, or None, given
    snf = _column_snf(generators, len(target)): a caller that solves many
    targets against one set of generators forms their Smith form once."""
    u, divisors, v = snf
    y = mat_vec(u, target)
    r = len(divisors)
    if any(x % dv for x, dv in zip(y, divisors)) or any(y[r:]):
        return None
    z = [x // dv for x, dv in zip(y, divisors)] + [0] * (len(v) - r)
    return mat_vec(v, z)


def solve_in_cone(generators, target, positive_functional, modulo=None):
    """Nonnegative integer coefficients c with sum c_i*g_i = target, or None.

    ``positive_functional`` is a covector f with <f, g_i> > 0 for every
    generator.  It makes the search finite and exact: every solution has
    sum c_i <f, g_i> = <f, target>, so c_i <= <f, target> / <f, g_i>.
    With ``modulo`` (a QuotientPresentation on whose relations f
    vanishes), the remainder target - sum c_i g_i need only be zero in
    that quotient; the weighted sum is still <f, target>.

    >>> solve_in_cone([(1, 0), (1, 1)], (3, 1), (1, 1))
    (2, 1)
    >>> solve_in_cone([(2,)], (-2,), (1,)) is None
    True
    >>> flip = QuotientPresentation(2, [(1, -1)])
    >>> solve_in_cone([(1, 0)], (0, 2), (1, 1), modulo=flip)
    (2,)
    """
    f = positive_functional
    weights = [vec_dot(f, g) for g in generators]
    if any(w <= 0 for w in weights):
        raise ValueError('functional must be positive on every generator')
    if modulo is not None and any(vec_dot(f, r) for r in modulo.relations):
        raise ValueError('functional must vanish on the relations')
    k = len(generators)
    coeffs = [0] * k

    def rec(i, rem, budget):
        if i == k:
            return budget == 0 and (not any(rem) if modulo is None
                                    else modulo.is_zero(rem))
        g = generators[i]
        for c in range(budget // weights[i] + 1):
            coeffs[i] = c
            if rec(i + 1, tuple(x - c * y for x, y in zip(rem, g)),
                   budget - c * weights[i]):
                return True
        coeffs[i] = 0
        return False

    # a negative budget leaves every range empty: no solution
    if rec(0, tuple(target), vec_dot(f, target)):
        return tuple(coeffs)
    return None


class QuotientPresentation:
    """A quotient Z^n / L with a canonical residue normal form.

    The lattice L is spanned by the given relation columns.  Residues
    are read off in Smith normal form coordinates: torsion coordinates
    are reduced modulo the elementary divisors and free coordinates are
    kept exactly, so ``project`` is a homomorphism onto tuples under the
    induced mixed-radix arithmetic and equality of residues is equality
    in the quotient.

    >>> q = QuotientPresentation(2, [(2, 0), (0, 3)])
    >>> q.invariants
    (6,)
    >>> q.order()
    6
    >>> q.is_zero((4, -3))
    True
    >>> q.project((5, 5)) == q.add(q.project((5, 0)), q.project((0, 5)))
    True
    """

    def __init__(self, ambient_dim, relations):
        self.ambient_dim = ambient_dim
        self.relations = [tuple(r) for r in relations]
        for r in self.relations:
            if len(r) != self.ambient_dim:
                raise ValueError('relation has wrong dimension')
        # a residue has one coordinate mod each divisor (1s included),
        # then free_rank free coordinates
        self._u, divisors, _ = _column_snf(self.relations, self.ambient_dim)
        self.divisors = tuple(divisors)
        self.invariants = tuple(x for x in self.divisors if x != 1)
        self.free_rank = self.ambient_dim - len(self.divisors)

    @cached_property
    def _uinv(self):
        return mat_inverse_unimodular(self._u)

    def project(self, v):
        """Canonical residue tuple of an ambient vector.

        The first coordinates are reduced mod the elementary divisors,
        the rest (free part) are exact integers.
        """
        y = mat_vec(self._u, tuple(v))
        return (tuple(x % dv for x, dv in zip(y, self.divisors))
                + y[len(self.divisors):])

    def is_zero(self, v):
        return all(x == 0 for x in self.project(v))

    def lift(self, residue):
        """An ambient vector projecting to the given residue tuple."""
        return mat_vec(self._uinv, tuple(residue))

    def add(self, res_a, res_b):
        """Sum of two residues, renormalized."""
        return self.project(vec_add(self.lift(res_a), self.lift(res_b)))

    def order(self):
        """Number of elements of the quotient, or None if infinite."""
        return None if self.free_rank else prod(self.divisors)
