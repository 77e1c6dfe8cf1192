"""Exact integer linear algebra primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlv.lattice import (QuotientPresentation, _gauss_jordan,
                          integer_kernel, mat_identity,
                          mat_inverse_rational, mat_inverse_unimodular,
                          mat_mul, mat_vec,
                          rational_rank, smith_normal_form,
                          solve_in_cone, solve_integer_combination,
                          solve_rational_combination, vec_add, vec_dot,
                          vec_scale, vec_sub)

small_int = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(square(1), square(2), square(3)))
def test_snf_factorization_and_divisibility(m):
    u, d, v = smith_normal_form(m)
    n = len(m)
    assert mat_mul(mat_mul(u, m), v) == [list(r) for r in d] or \
        mat_mul(mat_mul(u, m), v) == d
    diag = [d[i][i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # u and v are unimodular
    assert mat_mul(u, mat_inverse_unimodular(u)) == mat_identity(n)
    assert mat_mul(v, mat_inverse_unimodular(v)) == mat_identity(n)


@settings(max_examples=40, deadline=None)
@given(square(3), st.lists(small_int, min_size=3, max_size=3))
def test_integer_combination_roundtrip(gens, coeffs):
    target = (0, 0, 0)
    for c, g in zip(coeffs, gens):
        target = vec_add(target, vec_scale(c, tuple(g)))
    sol = solve_integer_combination([tuple(g) for g in gens], target)
    assert sol is not None
    rebuilt = (0, 0, 0)
    for c, g in zip(sol, gens):
        rebuilt = vec_add(rebuilt, vec_scale(c, tuple(g)))
    assert rebuilt == target


def test_integer_combination_infeasible():
    assert solve_integer_combination([(2, 0), (0, 2)], (1, 0)) is None


def test_rational_combination():
    sol = solve_rational_combination([(2, 0), (0, 3)], (1, 1))
    assert sol == (Fraction(1, 2), Fraction(1, 3))
    assert solve_rational_combination([(1, 1)], (1, 0)) is None


def test_rational_rank():
    assert rational_rank([(1, 2), (2, 4)]) == 1
    assert rational_rank([(1, 0), (0, 1)]) == 2
    assert rational_rank([]) == 0


def test_integer_kernel_annihilates():
    gens = [(2, 4), (1, 2), (3, 0)]
    for k in integer_kernel(gens):
        total = (0, 0)
        for c, g in zip(k, gens):
            total = vec_add(total, vec_scale(c, g))
        assert total == (0, 0)


def test_solve_in_cone():
    assert solve_in_cone([(1, 0), (1, 1)], (3, 1),
                         positive_functional=(1, 1)) == (2, 1)
    assert solve_in_cone([(2,)], (-2,), positive_functional=(1,)) is None
    assert solve_in_cone([], (0, 0), (1, 1)) == ()
    assert solve_in_cone([], (1, 0), (1, 1)) is None
    # modulo the flip relation (1, -1): (0, 3) = 3 (1, 0) in the quotient,
    # and (1, 0) is not a multiple of (2, 0) there
    flip = QuotientPresentation(2, [(1, -1)])
    assert solve_in_cone([(1, 0)], (0, 3), (1, 1), modulo=flip) == (3,)
    assert solve_in_cone([(1, 0)], (0, 3), (1, 1)) is None
    assert solve_in_cone([(2, 0)], (0, 1), (1, 1), modulo=flip) is None
    assert solve_in_cone([], (1, -1), (1, 1), modulo=flip) == ()
    with pytest.raises(ValueError):
        solve_in_cone([(1, 0)], (1, 0), (1, 0), modulo=flip)


def test_quotient_presentation_homomorphism():
    q = QuotientPresentation(2, [(2, 0), (0, 3)])
    assert q.order() == 6
    assert q.invariants == (6,)
    rng = random.Random(7)
    for _ in range(50):
        a = (rng.randint(-9, 9), rng.randint(-9, 9))
        b = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert q.project(vec_add(a, b)) == q.add(q.project(a), q.project(b))
        assert q.project(q.lift(q.project(a))) == q.project(a)
    assert q.is_zero((2, 3)) and q.is_zero((0, 0)) and not q.is_zero((1, 0))


def test_quotient_presentation_free_part():
    q = QuotientPresentation(2, [(1, 1)])
    assert q.order() is None
    assert q.free_rank == 1
    assert q.is_zero((5, 5))
    assert not q.is_zero((1, 0))


def vectors(n, min_size, max_size):
    return st.lists(st.lists(small_int, min_size=n, max_size=n).map(tuple),
                    min_size=min_size, max_size=max_size)


def combination(coeffs, gens, n):
    total = (0,) * n
    for c, g in zip(coeffs, gens):
        total = vec_add(total, vec_scale(c, g))
    return total


@settings(max_examples=80, deadline=None)
@given(st.one_of(square(1), square(2), square(3), square(4)))
def test_inverse_exists_exactly_at_full_rank(m):
    n = len(m)
    if rational_rank(m) == n:
        assert mat_mul(mat_inverse_rational(m), m) == mat_identity(n)
    else:
        with pytest.raises(ValueError, match='matrix is singular'):
            mat_inverse_rational(m)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(vectors(n, 0, 3), vectors(n, 1, 1), st.lists(
        st.fractions(max_denominator=5, min_value=-4, max_value=4),
        min_size=4, max_size=4))))
def test_rational_combination_solves_exactly_in_span(data):
    gens, (other,), coeffs = data
    n = len(other)
    # a dependent generator: the sum of the first two (or a zero vector)
    gens = gens + [combination((1, 1), gens, n)]
    inside = combination(coeffs, gens, n)
    sol = solve_rational_combination(gens, inside)
    assert sol is not None and len(sol) == len(gens)
    assert combination(sol, gens, n) == inside
    sol = solve_rational_combination(gens, other)
    if rational_rank(gens + [other]) > rational_rank(gens):
        assert sol is None
    else:
        assert combination(sol, gens, n) == other


def test_zero_generators():
    assert solve_rational_combination([], (0, 0)) == ()
    assert solve_rational_combination([], (0, 1)) is None
    assert solve_integer_combination([], (0, 0)) == ()
    assert solve_integer_combination([], (1, 0)) is None
    assert integer_kernel([]) == []
    q = QuotientPresentation(3, [])
    assert q.free_rank == 3 and q.invariants == () and q.order() is None
    rng = random.Random(3)
    for _ in range(20):
        a = tuple(rng.randint(-9, 9) for _ in range(3))
        assert q.project(a) == a and q.lift(a) == a
    assert QuotientPresentation(0, []).order() == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(vectors(n, 0, 4), vectors(n, 1, 6))))
def test_lift_inverts_project_after_lazy_build(data):
    rels, points = data
    n = len(points[0])
    q = QuotientPresentation(n, rels)
    residues = [q.project(a) for a in points]
    # projecting never builds the inverse transform; the first lift does
    assert '_uinv' not in vars(q)
    for a, res in zip(points, residues):
        back = q.lift(res)
        assert q.project(back) == res
        assert q.is_zero(vec_add(a, vec_scale(-1, back)))
    assert '_uinv' in vars(q)


# the generator forms the vector kernels had before they became
# operator maps, kept as oracles
def mat_vec_oracle(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def vec_add_oracle(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub_oracle(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale_oracle(c, a):
    return tuple(c * x for x in a)


def vec_dot_oracle(a, b):
    return sum(x * y for x, y in zip(a, b))


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)
ENTRIES = {'int': small_int, 'fraction': small_fraction,
           'mixed': st.one_of(small_int, small_fraction)}


def typed(value):
    """A value with the type of every entry, so that 2 and Fraction(2)
    differ."""
    if isinstance(value, tuple):
        return ('tuple', [(type(x), x) for x in value])
    return (type(value), value)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)), st.integers(0, 6), st.integers(0, 6),
       st.data())
def test_vector_kernels_match_generator_oracles(kind, dim, rows, data):
    """Values and entry types on int, Fraction and mixed input of
    dimension 0-6; the matrix has ``rows`` rows, so it is often not
    square."""
    entry = ENTRIES[kind]
    vec = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    a, b = data.draw(vec), data.draw(vec)
    c = data.draw(entry)
    m = data.draw(st.lists(vec.map(list), min_size=rows, max_size=rows))
    for got, want in [(mat_vec(m, a), mat_vec_oracle(m, a)),
                      (vec_add(a, b), vec_add_oracle(a, b)),
                      (vec_sub(a, b), vec_sub_oracle(a, b)),
                      (vec_scale(c, a), vec_scale_oracle(c, a)),
                      (vec_dot(a, b), vec_dot_oracle(a, b))]:
        assert typed(got) == typed(want)


def fraction_rref(rows, ncols):
    """The Gauss-Jordan routine over Q that the integer kernel replaced,
    kept as its oracle: the reduced rows as Fractions and the pivot
    columns, pivoting on the first ncols columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        scale = a[top][col]
        a[top] = [x / scale for x in a[top]]
        for r in range(len(a)):
            if r != top and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        pivots.append(col)
    return a, pivots


def inverse_oracle(m):
    """m^-1 as Fractions from the oracle RREF of [m | 1], or None."""
    n = len(m)
    a, pivots = fraction_rref([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(m)], n)
    return [row[n:] for row in a] if len(pivots) == n else None


def solve_oracle(generators, target):
    """solve_rational_combination as it read the oracle RREF."""
    k = len(generators)
    a, pivots = fraction_rref(
        [[g[i] for g in generators] + [t] for i, t in enumerate(target)], k)
    if any(row[k] != 0 for row in a[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for row, col in zip(a, pivots):
        coeffs[col] = row[k]
    return tuple(coeffs)


@st.composite
def eliminable(draw, entry, rows=(1, 4), cols=(1, 6)):
    """A matrix of up to 4 x 6 entries, often with a zero column, a
    repeated row or a row that is a combination of two others."""
    nrows = draw(st.integers(*rows))
    ncols = draw(st.integers(*cols)) if cols else nrows
    m = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in m:
            row[col] = 0
    if nrows > 1 and draw(st.booleans()):
        m[draw(st.integers(1, nrows - 1))] = list(m[0])
    if nrows > 2 and draw(st.booleans()):
        c = draw(small_int)
        m[2] = [x + c * y for x, y in zip(m[0], m[1])]
    return m


def proportional(a, b):
    """a = c b for some c > 0 (both zero counts)."""
    k = next((i for i, y in enumerate(b) if y), None)
    if k is None:
        return not any(a)
    c = a[k] / b[k]
    return c > 0 and all(x == c * y for x, y in zip(a, b))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)), st.data())
def test_elimination_kernel_matches_fraction_rref(kind, data):
    """The kernel's integer rows over d are the oracle's reduced rows, on
    int, Fraction and mixed matrices: the pivot rows exactly, the rest up
    to the positive factor that cleared a row of its denominators (1 for
    an integer row).  The pivot entries are all d."""
    m = data.draw(eliminable(ENTRIES[kind]))
    width = len(m[0])
    ncols = data.draw(st.integers(0, width))
    d, rows, pivots = _gauss_jordan(m, ncols)
    want, want_pivots = fraction_rref(m, ncols)
    assert pivots == want_pivots
    assert type(d) is int and d != 0
    assert all(type(x) is int for row in rows for x in row)
    assert [rows[r][c] for r, c in enumerate(pivots)] == [d] * len(pivots)
    got = [[Fraction(x, d) for x in row] for row in rows]
    top = len(pivots)
    assert got[:top] == want[:top]
    integral = all(type(x) is int for row in m for x in row)
    for row, other in zip(got[top:], want[top:]):
        assert not any(row[:ncols])
        assert row == other if integral else proportional(row, other)
    assert rational_rank(m) == len(fraction_rref(m, width)[1])


def typed_matrix(m):
    return [typed(tuple(row)) for row in m]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)), st.data())
def test_inverses_and_solves_match_fraction_rref(kind, data):
    """mat_inverse_rational, mat_inverse_unimodular and
    solve_rational_combination against the readers of the oracle RREF,
    refusals included, on square matrices of size 1-4 and on the rows of
    a matrix as generators."""
    entry = ENTRIES[kind]
    m = data.draw(eliminable(entry, cols=None))
    want = inverse_oracle(m)
    if want is None:
        for inverse in (mat_inverse_rational, mat_inverse_unimodular):
            with pytest.raises(ValueError, match='^matrix is singular: '):
                inverse(m)
    else:
        assert typed_matrix(mat_inverse_rational(m)) == typed_matrix(want)
        if all(x.denominator == 1 for row in want for x in row):
            assert typed_matrix(mat_inverse_unimodular(m)) == typed_matrix(
                [[int(x) for x in row] for row in want])
        else:
            with pytest.raises(ValueError, match='^matrix is not unimodular'):
                mat_inverse_unimodular(m)
    gens = [tuple(row) for row in data.draw(eliminable(entry))]
    n = len(gens[0])
    coeffs = data.draw(st.lists(entry, min_size=len(gens),
                                max_size=len(gens)))
    for target in (data.draw(st.lists(entry, min_size=n, max_size=n)),
                   combination(coeffs, gens, n)):
        got = solve_rational_combination(gens, tuple(target))
        assert typed(got) == typed(solve_oracle(gens, tuple(target)))

