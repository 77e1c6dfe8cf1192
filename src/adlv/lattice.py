"""Exact integer and rational linear algebra for lattice computations.

Everything here works over arbitrary-precision integers and
`fractions.Fraction`; no floating point is used anywhere.  The main
tools are the Smith normal form, finitely presented quotients of free
abelian groups with canonical residue forms, and small integer conic
feasibility solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

__all__ = [
    'Vec',
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

Vec = tuple


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
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_dot(a, b):
    """Plain coordinate pairing of a covector with a vector."""
    return sum(x * y for x, y in zip(a, b))


def mat_inverse_rational(m):
    """Inverse of a square matrix over the rationals, by Gauss-Jordan.

    Entries of the result are Fractions.  Raises ValueError when the
    matrix is singular.

    >>> mat_inverse_rational([[2, 0], [0, 1]])
    [[Fraction(1, 2), Fraction(0, 1)], [Fraction(0, 1), Fraction(1, 1)]]
    """
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError('matrix is singular: %r' % (m,))
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [[a[i][n + j] for j in range(n)] for i in range(n)]


def mat_inverse_unimodular(m):
    """Inverse of an integer matrix with determinant +-1.

    Raises ValueError when the matrix is singular or its inverse is not
    integral.

    >>> mat_inverse_unimodular([[1, 1], [0, 1]])
    [[1, -1], [0, 1]]
    """
    inv = mat_inverse_rational(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError('matrix is not unimodular: %r' % (m,))
    return [[int(x) for x in row] for row in inv]


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
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while col < ncols and rank < len(rows):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = rows[rank][col]
        rows[rank] = [x / scale for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def solve_rational_combination(generators, target):
    """Fraction coefficients c with sum c_i * g_i = target, or None.

    When the generators are linearly independent the solution is unique.

    >>> solve_rational_combination([(2, 0), (0, 3)], (1, 1))
    (Fraction(1, 2), Fraction(1, 3))
    >>> solve_rational_combination([(1, 0)], (0, 1)) is None
    True
    """
    k = len(generators)
    if k == 0:
        return () if all(x == 0 for x in target) else None
    n = len(target)
    a = [[Fraction(generators[j][i]) for j in range(k)] + [Fraction(target[i])]
         for i in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        scale = a[row][col]
        a[row] = [x / scale for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if a[r][k] != 0:
            return None
    coeffs = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        coeffs[col] = a[r][k]
    # free columns get coefficient zero; verify
    for i in range(n):
        if sum(coeffs[j] * generators[j][i] for j in range(k)) != target[i]:
            return None
    return tuple(coeffs)


def integer_kernel(generators):
    """Basis of the lattice of integer relations among the generators.

    Returns coefficient vectors c (tuples) with sum c_i * g_i = 0.

    >>> integer_kernel([(1, 1), (2, 2)])
    [(-2, 1)]
    """
    if not generators:
        return []
    dim = len(generators[0])
    matrix = [[g[i] for g in generators] for i in range(dim)]
    u, d, v = smith_normal_form(matrix)
    rank = sum(1 for i in range(min(len(d), len(d[0]) if d else 0))
               if d[i][i] != 0)
    k = len(generators)
    basis = []
    for j in range(rank, k):
        basis.append(tuple(v[i][j] for i in range(k)))
    return basis


def solve_integer_combination(generators, target):
    """Integer coefficients c with sum c_i * g_i = target, or None.

    >>> solve_integer_combination([(2, 0), (1, 1)], (3, 1))
    (1, 1)
    >>> solve_integer_combination([(2, 0)], (1, 0)) is None
    True
    """
    if not generators:
        return () if all(x == 0 for x in target) else None
    dim = len(target)
    k = len(generators)
    matrix = [[g[i] for g in generators] for i in range(dim)]
    u, d, v = smith_normal_form(matrix)
    y = mat_vec(u, target)
    rank = sum(1 for i in range(min(dim, k)) if d[i][i] != 0)
    z = [0] * k
    for i in range(dim):
        if i < rank:
            if y[i] % d[i][i] != 0:
                return None
            z[i] = y[i] // d[i][i]
        elif y[i] != 0:
            return None
    coeffs = mat_vec(v, tuple(z))
    return coeffs


def solve_in_cone(generators, target, positive_functional=None, bound=None):
    """Nonnegative integer coefficients c with sum c_i*g_i = target, or None.

    ``positive_functional`` is a covector taking a strictly positive
    value on every generator; it turns its value on the target into a
    finite search budget.  Without one, a crude per-coefficient bound is
    used (default: max(10, sum of |target| coordinates)), which is only
    appropriate for small inputs.

    >>> solve_in_cone([(1, 0), (1, 1)], (3, 1), positive_functional=(1, 1))
    (2, 1)
    >>> solve_in_cone([(2,)], (-2,), positive_functional=(1,)) is None
    True
    """
    k = len(generators)
    if k == 0:
        return () if all(x == 0 for x in target) else None
    if positive_functional is not None:
        weights = [vec_dot(positive_functional, g) for g in generators]
        if any(w <= 0 for w in weights):
            raise ValueError('functional must be positive on every generator')
        budget = vec_dot(positive_functional, target)
        if budget < 0:
            return None
    else:
        weights = None
        if bound is None:
            bound = max(10, sum(abs(x) for x in target))

    coeffs = [0] * k

    def rec(i, rem, rem_budget):
        if i == k:
            return all(x == 0 for x in rem)
        g = generators[i]
        cap = rem_budget // weights[i] if weights is not None else bound
        for c in range(cap + 1):
            coeffs[i] = c
            nxt = tuple(rem[j] - c * g[j] for j in range(len(rem)))
            nb = rem_budget - c * weights[i] if weights is not None else rem_budget
            if weights is not None and i == k - 1:
                if nb != 0:
                    continue
            if rec(i + 1, nxt, nb):
                return True
        coeffs[i] = 0
        return False

    start_budget = vec_dot(positive_functional, target) if positive_functional else 0
    if rec(0, tuple(target), start_budget):
        return tuple(coeffs)
    return None


@dataclass
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

    ambient_dim: int
    relations: Sequence[Vec]
    invariants: tuple = field(init=False)
    free_rank: int = field(init=False)

    def __post_init__(self):
        self.relations = [tuple(r) for r in self.relations]
        for r in self.relations:
            if len(r) != self.ambient_dim:
                raise ValueError('relation has wrong dimension')
        n = self.ambient_dim
        if self.relations:
            matrix = [[r[i] for r in self.relations] for i in range(n)]
            u, d, v = smith_normal_form(matrix)
            k = len(self.relations)
            diag = [d[i][i] for i in range(min(n, k))]
        else:
            u = mat_identity(n)
            diag = []
        self._u = u
        self._uinv = mat_inverse_unimodular(u)
        rank = sum(1 for x in diag if x != 0)
        self._diag = [x for x in diag if x != 0]
        self.invariants = tuple(x for x in self._diag if x != 1)
        self.free_rank = n - rank

    def project(self, v):
        """Canonical residue tuple of an ambient vector.

        The first coordinates are reduced mod the elementary divisors,
        the rest (free part) are exact integers.
        """
        y = mat_vec(self._u, tuple(v))
        r = len(self._diag)
        out = []
        for i, x in enumerate(y):
            if i < r:
                out.append(x % self._diag[i])
            else:
                out.append(x)
        return tuple(out)

    def is_zero(self, v):
        return all(x == 0 for x in self.project(v))

    def lift(self, residue):
        """An ambient vector projecting to the given residue tuple."""
        return mat_vec(self._uinv, tuple(residue))

    def add(self, res_a, res_b):
        """Sum of two residues, renormalized."""
        return self.project(vec_add(self.lift(res_a), self.lift(res_b)))

    def neg(self, res):
        return self.project(vec_scale(-1, self.lift(res)))

    def order(self):
        """Number of elements of the quotient, or None if infinite."""
        if self.free_rank:
            return None
        n = 1
        for x in self._diag:
            n *= x
        return n
