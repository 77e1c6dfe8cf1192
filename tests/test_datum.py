"""Root data: generation, positivity, sigma, projections, quotients."""

import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from adlv.cli import main
from adlv.datum import (BUILTIN_DATA, MAX_WEYL_ORDER, InvariantError,
                        RootDatum, _common_denominator, builtin_datum,
                        cartan_matrix, datum_from_config)
from adlv.lattice import (solve_rational_combination, vec_dot, vec_scale,
                          vec_sub)
from adlv.weyl import WeylGroup

# numbers of positive roots, frozen from the classical count formulas
POSITIVE_COUNTS = {'sl2': 1, 'sl3': 3, 'sl4': 6, 'gl6': 15, 'sp4': 4,
                   'so5': 4, 'g2': 6, 'e6_adjoint': 36}


def test_cartan_matrices():
    assert cartan_matrix('A2') == [[2, -1], [-1, 2]]
    assert cartan_matrix('C2') == [[2, -2], [-1, 2]]
    assert cartan_matrix('G2') == [[2, -1], [-3, 2]]
    assert cartan_matrix('B2') == [[2, -1], [-2, 2]]


@pytest.mark.parametrize('family,rank', [
    ('A', 1), ('A', 4), ('B', 3), ('C', 3), ('D', 4), ('D', 5), ('F', 4),
    ('G', 2)])
def test_weyl_order_formula_matches_weyl_group(family, rank):
    config = {'type': '%s%d' % (family, rank), 'lattice_basis': 'adjoint'}
    d = datum_from_config(config)
    assert d.weyl_order() == WeylGroup(d).size


def test_weyl_order_formula_matches_builtin_weyl_groups():
    """Every built-in but e6_adjoint, whose order the next test reads."""
    for name in BUILTIN_DATA:
        if name != 'e6_adjoint':
            d = builtin_datum(name)
            assert d.weyl_order() == WeylGroup(d).size, name


def test_weyl_order_limit_admits_every_builtin():
    orders = [builtin_datum(name).weyl_order() for name in BUILTIN_DATA]
    assert max(orders) == MAX_WEYL_ORDER == 51840


# orders from the classical formulas: (n+1)! for A_n, 2^n n! for B_n and
# C_n, 2^(n-1) n! for D_n, and the tabulated E, F and G orders
KNOWN_ORDERS = {'A1': 2, 'A5': 720, 'B3': 48, 'B6': 46080, 'C4': 384,
                'D4': 192, 'D5': 1920, 'E6': 51840, 'E7': 2903040,
                'E8': 696729600, 'F4': 1152, 'G2': 12, 'A2xG2': 72}


@pytest.mark.parametrize('type_name', sorted(KNOWN_ORDERS))
def test_weyl_order_formula_matches_known_orders(type_name):
    """B6 and E6 share rank 6 and 72 roots; the formula tells them apart.
    The datum is built directly on the adjoint lattice, since
    datum_from_config refuses E7 and E8."""
    cartan = cartan_matrix(type_name)
    n = len(cartan)
    d = RootDatum(cartan, cartan, [[int(i == j) for j in range(n)]
                                   for i in range(n)])
    assert d.weyl_order() == KNOWN_ORDERS[type_name]


@pytest.mark.parametrize('key', ['type', 'cartan'])
def test_weyl_order_limit_on_both_config_paths(key):
    """B6 (46 080) is admitted and E7 refused, by type or by matrix."""
    def config(type_name):
        if key == 'type':
            return {'type': type_name}
        return {'cartan': cartan_matrix(type_name)}

    assert datum_from_config(config('B6')).rank == 6
    with pytest.raises(ValueError, match='order 2903040; the limit is'):
        datum_from_config(config('E7'))


@pytest.mark.parametrize('name,count', sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(name, count):
    d = builtin_datum(name)
    assert d.num_positive == count
    assert len(d.roots) == 2 * count


def reflection_matrix(d, root_idx):
    """Matrix of the reflection through a root, acting on X."""
    r = d.roots[root_idx]
    return [[(1 if i == j else 0) - r.covec[j] * r.coroot[i]
             for j in range(d.dim)] for i in range(d.dim)]


def test_pairing_integrality_and_reflections():
    for name in ('sl3', 'sp4', 'g2', 'gl3', 'psp4'):
        d = builtin_datum(name)
        for r in d.roots:
            assert vec_dot(r.covec, r.coroot) == 2
        for i in range(len(d.roots)):
            m = reflection_matrix(d, i)
            # involutive
            assert [[sum(m[a][t] * m[t][b] for t in range(d.dim))
                     for b in range(d.dim)] for a in range(d.dim)] \
                == [[int(a == b) for b in range(d.dim)]
                    for a in range(d.dim)]


def test_sigma_validation_rejects_non_automorphism():
    with pytest.raises(Exception):
        datum_from_config({'type': 'C2', 'lattice_basis': 'sc',
                           'sigma_perm': [2, 1]})


@pytest.mark.parametrize('type_name', ['B2', 'G2'])
def test_sigma_perm_off_the_diagram_is_blamed_on_the_permutation(
        type_name, tmp_path, capsys):
    """Swapping the two nodes of B2 or G2 is no diagram automorphism.  The
    config reader says so before it forms a sigma matrix, and the
    constructor checks sigma_perm before the sigma_matrix it is given,
    whether or not that matrix is unimodular."""
    message = 'sigma_perm [2, 1] does not preserve the Cartan matrix'
    config = {'type': type_name, 'sigma_perm': [2, 1]}
    with pytest.raises(ValueError, match='^%s$' % re.escape(message)):
        datum_from_config(config)
    path = tmp_path / 'datum.json'
    path.write_text(json.dumps(config))
    assert main(['datum', 'validate', '--datum', str(path)]) == 1
    err = capsys.readouterr().err
    assert err == 'usage error: --datum: %s\n' % message, err
    d = datum_from_config({'type': type_name})
    for sigma in ([[1, 0], [0, 1]], [[2, 0], [0, 1]]):
        with pytest.raises(ValueError, match='^%s$' % re.escape(message)):
            RootDatum(d.cartan, d.simple_coroots, d.simple_roots, (1, 0),
                      sigma)


# D4 on the lattice Q^vee + Z omega_1^vee (SO8): the columns are
# omega_1^vee, alpha_1^vee, alpha_2^vee, alpha_3^vee in coweight coordinates
SO8_BASIS = [[1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2], [0, 0, -1, 0]]


def test_sigma_perm_off_the_lattice_is_refused_without_advice(tmp_path,
                                                               capsys):
    """Triality moves omega_1^vee to omega_3^vee, off the SO8 lattice.
    With dim X = rank the simple coroots span X (x) Q, so no sigma_matrix
    exists either: the refusal says so and gives no advice.  The swap of
    nodes 3 and 4 fixes omega_1^vee and is accepted."""
    config = {'type': 'D4', 'lattice_basis': SO8_BASIS,
              'sigma_perm': [3, 2, 4, 1]}
    message = ('sigma_perm [3, 2, 4, 1] does not preserve the lattice: the '
               'one linear map permuting the simple coroots as it does is '
               'not integral on the lattice basis')
    with pytest.raises(ValueError, match='^%s$' % re.escape(message)):
        datum_from_config(config)
    path = tmp_path / 'so8.json'
    path.write_text(json.dumps(config))
    assert main(['datum', 'validate', '--datum', str(path)]) == 1
    err = capsys.readouterr().err
    assert err == 'usage error: --datum: %s\n' % message, err
    d = datum_from_config(dict(config, sigma_perm=[1, 2, 4, 3]))
    assert d.sigma_perm == (0, 1, 3, 2) and d.sigma_order == 2


def test_sigma_order_reaches_its_derived_bound():
    """On gl2, sigma = -(the swap) fixes the coroot (1, -1) and negates
    the central line of (1, 1): trivial sigma_perm, order 2 = 2 * 1."""
    d = datum_from_config({'type': 'A1', 'lattice_basis': 'gl',
                           'sigma_matrix': [[0, -1], [-1, 0]]})
    assert d.sigma_perm == (0,)
    assert d.sigma_order == 2
    assert d._sigma_sum == [[1, -1], [-1, 1]]


def test_sigma_past_its_bound_is_an_invariant_error():
    """On gl2 the bound is 2; a sigma of infinite order there cannot
    come from a valid datum, so it is a failed invariant."""
    d = builtin_datum('gl2')
    d.sigma_matrix = [[2, 1], [1, 1]]
    with pytest.raises(InvariantError, match=r"^datum 'gl2': sigma has not "
                       'closed after 2 powers'):
        d._sigma_powers()


def test_sigma_of_infinite_order_on_a_wide_kernel_is_refused():
    """With dim X - rank = 2, a unimodular sigma of infinite order on the
    kernel of the roots is valid input and is refused."""
    with pytest.raises(ValueError, match='sigma does not have finite order'):
        RootDatum([[2]], [(2, 0, 0)], [(1, 0, 0)],
                  sigma_matrix=[[1, 0, 0], [0, 2, 1], [0, 1, 1]])


def test_sigma_orbits_flip():
    d = builtin_datum('sl3_flip')
    assert d.sigma_order == 2
    orbits = d.sigma_orbits()
    assert sorted(sorted(o) for o in orbits) == [[0, 1]]
    assert d.is_sigma_stable(frozenset({0, 1}))
    assert not d.is_sigma_stable(frozenset({0}))


def test_dominance_order():
    d = builtin_datum('sl2')
    assert d.dominance_leq((0,), (1,))
    assert not d.dominance_leq((1,), (0,))
    d3 = builtin_datum('gl3')
    assert d3.dominance_leq((1, 1, 1), (2, 1, 0))
    assert not d3.dominance_leq((1, 1, 0), (2, 1, 0))   # different sums


def test_pi_projection():
    d = builtin_datum('sl2')
    assert d.pi_projection(frozenset(), (1,)) == (Fraction(1),)
    assert d.pi_projection(frozenset({0}), (1,)) == (Fraction(0),)
    d3 = builtin_datum('gl3')
    # averaging over the first A1 factor evens out the first two coords
    assert d3.pi_projection(frozenset({0}), (1, 0, 0)) == \
        (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_convex_hull_point():
    d = builtin_datum('gl3')
    assert d.convex_hull_point((1, 0, 0)) == \
        (Fraction(1), Fraction(0), Fraction(0))
    # the hull point of the basic lambda is the central Newton point
    assert d.convex_hull_point((0, 0, 1)) == (Fraction(1, 3),) * 3


def pi_projection_oracle(d, subset, mu):
    """Solve for the Levi average of mu per call, then sigma-average."""
    js = sorted(subset)
    out = tuple(Fraction(x) for x in mu)
    if js:
        gens = [d.simple_coroots[j] for j in js]
        columns = [tuple(vec_dot(d.simple_roots[i], g) for i in js)
                   for g in gens]
        rhs = tuple(vec_dot(d.simple_roots[i], mu) for i in js)
        for c, g in zip(solve_rational_combination(columns, rhs), gens):
            out = tuple(x - c * y for x, y in zip(out, g))
    return sigma_avg_by_powers(d, out)


def dominance_leq_oracle(d, a, b):
    """Solve for the simple-coroot coefficients of b - a per call."""
    diff = tuple(y - x for x, y in zip(a, b))
    coeffs = solve_rational_combination(d.simple_coroots, diff)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def convex_hull_oracle(d, mu):
    """The projection over sigma-stable subsets that dominates the rest,
    found by one pass and then checked against every candidate."""
    subsets = [frozenset(i for i in range(d.rank) if bits >> i & 1)
               for bits in range(1 << d.rank)]
    candidates = [pi_projection_oracle(d, subset, mu) for subset in subsets
                  if d.is_sigma_stable(subset)]
    top = candidates[0]
    for v in candidates:
        if dominance_leq_oracle(d, top, v):
            top = v
    assert all(dominance_leq_oracle(d, v, top)
               for v in candidates)
    return top


def typed(vec):
    return [(type(x), x) for x in vec]


# data beyond the built-ins for the oracle sweep: other types, adjoint
# lattices, and the twisted forms 3D4, 2A4, (A2 x A2, swap) and 2E6
ORACLE_DATA = {
    'B3': {'type': 'B3'},
    'C3_adjoint': {'type': 'C3', 'lattice_basis': 'adjoint'},
    'F4': {'type': 'F4'},
    'D4': {'type': 'D4'},
    '3D4': {'type': 'D4', 'sigma_perm': [3, 2, 4, 1]},
    '3D4_adjoint': {'type': 'D4', 'lattice_basis': 'adjoint',
                    'sigma_perm': [3, 2, 4, 1]},
    '2A4': {'type': 'A4', 'sigma_perm': [4, 3, 2, 1]},
    'B2xA1': {'type': 'B2xA1'},
    'A2xA2_swap': {'type': 'A2xA2', 'sigma_perm': [3, 4, 1, 2]},
    '2E6': {'type': 'E6', 'lattice_basis': 'adjoint',
            'sigma_perm': [6, 2, 5, 4, 3, 1]},
}


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA) + sorted(ORACLE_DATA))
def test_projection_and_dominance_match_oracles(name, monkeypatch):
    """The hull point against the subset scan, and dominance against a
    solver, on int and Fraction vectors; each fresh hull point makes at
    most (number of sigma-orbits) + 1 projections."""
    d = (builtin_datum(name) if name in BUILTIN_DATA
         else datum_from_config(ORACLE_DATA[name]))
    rng = random.Random(name)
    count = 2 if d.rank > 5 else 6   # the oracle is slow on E6
    vectors = [tuple(rng.randint(-3, 3) for _ in range(d.dim))
               for _ in range(count)]
    vectors += [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(d.dim)) for _ in range(count)]
    # pairs an integral step apart, so the True answers are exercised too
    vectors += [tuple(x + c for x, c in zip(v, d.simple_coroots[0]))
                for v in vectors[:3]]
    calls = []

    def counted(self, subset, num):
        calls.append(subset)
        return PI_NUMERATORS(self, subset, num)

    monkeypatch.setattr(RootDatum, 'pi_numerators', counted)
    for mu in vectors:
        calls.clear()
        d._hull_memo.clear()
        assert typed(d.convex_hull_point(mu)) == \
            typed(convex_hull_oracle(d, mu))
        assert 1 <= len(calls) <= len(d.sigma_orbits()) + 1, calls
        for other in vectors:
            assert d.dominance_leq(mu, other) == \
                dominance_leq_oracle(d, mu, other)


def sigma_covec(d, alpha):
    """sigma(alpha) = alpha o sigma^{-1}: the row vector alpha times the
    matrix of sigma^{-1}."""
    m = d.sigma_inv_matrix
    return tuple(sum(alpha[i] * m[i][j] for i in range(d.dim))
                 for j in range(d.dim))


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_sigma_root_matches_covector_lookup(name):
    d = builtin_datum(name)
    for i, r in enumerate(d.roots):
        assert d.sigma_root(i) == d.root_index[sigma_covec(d, r.covec)]


def test_pi_projection_rejects_unstable_subset():
    d = builtin_datum('sl3_flip')
    with pytest.raises(ValueError, match='sigma stable'):
        d.pi_projection(frozenset({0}), (1, 0))
    assert d._projection_memo == {}


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_build_path_forms_no_fraction(name, monkeypatch):
    """Building a datum, the first projection of every sigma-stable subset
    and the first Kottwitz lift of every unit residue run on the integer
    elimination kernel: not one Fraction is formed."""
    formed = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        formed.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, '__new__', staticmethod(counting_new))
    d = builtin_datum(name)
    stable = [s for s in (frozenset(j for j in range(d.rank) if bits >> j & 1)
                          for bits in range(1 << d.rank))
              if d.is_sigma_stable(s)]
    for subset in stable:
        d._projection(subset)
    q = d.kottwitz_presentation()
    width = len(q.divisors) + q.free_rank
    for i in range(width):
        q.lift(tuple(int(i == j) for j in range(width)))
    assert formed == []
    assert len(d._projection_memo) == len(stable) >= 2
    # the count is live: one Fraction is one call
    Fraction(1, 2)
    assert formed == [(1, 2)]


def test_quotient_presentations():
    assert builtin_datum('sl3').kottwitz_presentation().order() == 1
    assert builtin_datum('pgl3').kottwitz_presentation().order() == 3
    assert builtin_datum('sl2').kottwitz_presentation().order() == 1
    gl3 = builtin_datum('gl3').kottwitz_presentation()
    assert gl3.order() is None and gl3.free_rank == 1
    flip = builtin_datum('sl3_flip')
    gamma = flip.galois_coinvariants()
    assert gamma.free_rank == 1
    assert gamma.is_zero((1, -1))   # alpha1 - alpha2 coroot dies


def test_two_rho():
    d = builtin_datum('sl2')
    assert vec_dot(d.two_rho, (1,)) == 2
    d = builtin_datum('sp4')
    # <2rho, alpha_i^vee> = 2 for simple coroots
    for cr in d.simple_coroots:
        assert vec_dot(d.two_rho, cr) == 2


def test_describe_roundtrip():
    d = builtin_datum('sp4')
    info = d.describe()
    assert info['rank'] == 2 and info['num_roots'] == 8


# each case carries its id, so a case added anywhere renames no other;
# the configN prefixes keep the ids already in use
@pytest.mark.parametrize('config,message', [
    pytest.param({'type': 'A1', 'sigma_matrix': [[2]]}, 'not unimodular',
                 id='config0-not unimodular'),
    pytest.param({'type': 'A1', 'sigma_matrix': [[0]]}, 'singular',
                 id='config1-singular'),
    pytest.param({'type': 'A1', 'lattice_basis': [[0]]}, 'singular',
                 id='config2-singular'),
    pytest.param({'type': 'A1', 'extra': 1}, 'unknown config key.*extra',
                 id='config3-unknown config key.*extra'),
    pytest.param({'type': 'A2', 'sigma_perm': [2, 2]},
                 'sigma_perm must be a permutation',
                 id='config4-sigma_perm must be a permutation'),
    pytest.param(3, 'a datum config must be a JSON object, got 3',
                 id='3-a datum config must be a JSON object, got 3'),
    pytest.param({'type': 3}, 'type must be a string',
                 id='config6-type must be a string'),
    pytest.param({'type': 'A2x'},
                 "type part '' is not a family letter followed by a rank",
                 id="config7-type part '' is not a family letter followed "
                    'by a rank'),
    pytest.param({'type': 'A'}, "type part 'A' is not a family letter",
                 id="config8-type part 'A' is not a family letter"),
    pytest.param({'cartan': [[2, -1], [-1]]},
                 'cartan must be a square matrix of integers',
                 id='config9-cartan must be a square matrix of integers'),
    pytest.param({'cartan': [[2, -1.5], [-1, 2]]},
                 'cartan must be a square matrix',
                 id='config10-cartan must be a square matrix'),
    pytest.param({'cartan': 'A2'}, 'cartan must be a square matrix',
                 id='config11-cartan must be a square matrix'),
    pytest.param({'cartan': [[True, -1], [-1, 2]]},
                 'cartan must be a square matrix',
                 id='config12-cartan must be a square matrix'),
    pytest.param({'type': 'A2', 'lattice_basis': 'foo'},
                 'lattice_basis must be "sc", "adjoint", "gl" or a square '
                 'matrix of integers of size 2, got "foo"',
                 id='config13-lattice_basis must be "sc", "adjoint", "gl" or '
                    'a square matrix of integers of size 2, got "foo"'),
    pytest.param({'type': 'A2', 'lattice_basis': [[1, 0], [0, 1], [1, 1]]},
                 'lattice_basis must be .* of size 2',
                 id='config14-lattice_basis must be .* of size 2'),
    pytest.param({'type': 'A2', 'sigma_matrix': [[1, 0], [0]]},
                 'sigma_matrix must be a square matrix of integers of size 2',
                 id='config15-sigma_matrix must be a square matrix of '
                    'integers of size 2'),
    pytest.param({'type': 'A2', 'lattice_basis': 'gl',
                  'sigma_matrix': [[0, 1], [1, 0]]},
                 'sigma_matrix must be a square matrix of integers of size 3',
                 id='config16-sigma_matrix must be a square matrix of '
                    'integers of size 3'),
    # Weyl groups past W(E6) are refused before any matrix is built
    pytest.param({'type': 'A100000'}, "type 'A100000' has a Weyl group of "
                 'order at least 51090942171709440000; the limit is 51840',
                 id="config17-type 'A100000' has a Weyl group of order at "
                    'least 51090942171709440000; the limit is 51840'),
    pytest.param({'type': 'E8'}, "type 'E8' has a Weyl group of order "
                 '696729600; the limit is 51840',
                 id="config18-type 'E8' has a Weyl group of order 696729600; "
                    'the limit is 51840'),
    pytest.param({'type': 'A5xA5'}, "type 'A5xA5' has a Weyl group of order "
                 '518400; the limit is 51840',
                 id="config19-type 'A5xA5' has a Weyl group of order 518400; "
                    'the limit is 51840'),
    # an explicit Cartan matrix meets the same limit: A9 has 10! elements
    pytest.param({'cartan': cartan_matrix('A9')}, 'the Cartan matrix has a '
                 'Weyl group of order 3628800; the limit is 51840',
                 id='config20-the Cartan matrix has a Weyl group of order '
                    '3628800; the limit is 51840'),
    # a name must be a string, not any JSON value
    pytest.param({'type': 'A1', 'name': {'a': 1}},
                 'name must be a string, got {"a": 1}',
                 id='config21-name must be a string, got {"a": 1}'),
    pytest.param({'type': 'A1', 'name': None},
                 'name must be a string, got null',
                 id='config22-name must be a string, got null'),
])
def test_bad_matrix_raises_clear_value_error(config, message, tmp_path,
                                            capsys):
    with pytest.raises(ValueError, match=message):
        datum_from_config(config)
    path = tmp_path / 'datum.json'
    path.write_text(json.dumps(config))
    assert main(['datum', 'validate', '--datum', str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('usage error: --datum: ')
    assert re.search(message, err), err


def test_singular_levi_block_is_an_invariant_error():
    d = builtin_datum('gl3')
    d.cartan = [[2, -2], [-2, 2]]   # the affine A1 block, singular
    with pytest.raises(InvariantError, match=r"^datum 'gl3': the Cartan "
                       r'block of J = \[1, 2\] is singular$') as info:
        d.pi_projection(frozenset({0, 1}), (1, 0, 0))
    assert (info.value.datum, info.value.element,
            info.value.sigma_class) == ('gl3', None, None)


PI_NUMERATORS = RootDatum.pi_numerators


def shifted_projection(self, subset, num):
    """pi_numerators with the one-element subsets shifted by 1 off the
    coroot span, so that those projections are incomparable with the
    others and the hull point is no longer unique."""
    den, nums = PI_NUMERATORS(self, subset, num)
    if len(subset) == 1:
        nums = (nums[0] + den,) + nums[1:]
    return den, nums


# lambda(b) = (0, 1, 0) for this x: its pivot passes through J = {1}
HULL_ARGV = ['lambda', '--datum', 'gl3', '--x', '{"w":[1],"mu":[1,0,0]}']


def test_non_unique_hull_point_is_an_invariant_error(monkeypatch, capsys):
    """The pivot for mu = (0, 1, 0) passes through the singleton J = {1}
    (1-based), so the shifted projection there fails the certificate.
    A dominant mu such as (1, 0, 0) stops at J = {} and meets no
    singleton, so it is not the fault case."""
    monkeypatch.setattr(RootDatum, 'pi_numerators', shifted_projection)
    assert builtin_datum('gl3').convex_hull_point((1, 0, 0)) == (1, 0, 0)
    with pytest.raises(InvariantError,
                       match=r"^datum 'gl3': the convex hull point of mu = "
                       r'\(0, 1, 0\) fails its certificate: nu = '
                       r'\(3/2, 1/2, 0\), J = \[1\]$') as info:
        builtin_datum('gl3').convex_hull_point((0, 1, 0))
    assert info.value.datum == 'gl3'
    assert main(HULL_ARGV) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: datum 'gl3': the convex hull "
                          'point of mu = (0, 1, 0) fails its certificate'), err


def test_non_unique_hull_point_exits_3_under_optimize():
    tests = Path(__file__).resolve().parent
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, %r)
        from adlv.cli import main
        from adlv.datum import RootDatum
        from test_datum import shifted_projection
        if __debug__:
            sys.exit('assert statements are still enabled')
        RootDatum.pi_numerators = shifted_projection
        sys.exit(main(%r))
        """ % (str(tests), HULL_ARGV))
    done = run_python('-O', '-c', script)
    assert done.returncode == 3, done.stderr
    assert "invariant violation: datum 'gl3'" in done.stderr


def generate_roots_by_reflection(d):
    """The roots as (covector, coroot, coordinates), found by reflecting
    covectors and coroots in the lattice, positive ones sorted by
    (height, coordinates), then their negatives."""
    seen = {}
    for i in range(d.rank):
        seen[d.simple_roots[i]] = (d.simple_roots[i], d.simple_coroots[i],
                                   tuple(int(j == i) for j in range(d.rank)))
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for covec, coroot, coords in frontier:
            for i, (a, g) in enumerate(zip(d.simple_roots, d.simple_coroots)):
                c = vec_dot(covec, g)
                new = (vec_sub(covec, vec_scale(c, a)),
                       vec_sub(coroot, vec_scale(vec_dot(a, coroot), g)),
                       tuple(x - c * (j == i) for j, x in enumerate(coords)))
                if new[0] not in seen:
                    seen[new[0]] = new
                    nxt.append(new)
        frontier = nxt
    pos = sorted((r for r in seen.values() if min(r[2]) >= 0),
                 key=lambda r: (sum(r[2]), r[2]))
    return pos + [tuple(vec_scale(-1, v) for v in r) for r in pos]


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_roots_match_lattice_reflection_closure(name):
    d = builtin_datum(name)
    assert [(r.covec, r.coroot, r.coords) for r in d.roots] == \
        generate_roots_by_reflection(d)


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_root_coroot_coords_match_coroot_numerators(name):
    """The coroot coordinates that the root closure forms are the integer
    coordinates of each coroot over the simple coroots."""
    d = builtin_datum(name)
    for r in d.roots:
        den, nums = d.coroot_numerators(list(r.coroot), 1)
        assert all(k % den == 0 for k in nums), r.coords
        assert r.coroot_coords == tuple(k // den for k in nums), r.coords


def coroot_coefficients(d, vec):
    """The coefficients of vec over the simple coroots as Fractions, or
    None off their span, read off ``coroot_numerators``."""
    den, num = _common_denominator(vec)
    found = d.coroot_numerators(num, den)
    if found is None:
        return None
    scale, coeffs = found
    return tuple(Fraction(c, scale) for c in coeffs)


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_coroot_coefficients_match_solver(name):
    """Exact coefficients, types included, or None off the coroot span;
    the gl lattices have vectors off the span."""
    d = builtin_datum(name)
    rng = random.Random(name)
    vectors = [tuple(rng.randint(-4, 4) for _ in range(d.dim))
               for _ in range(20)]
    vectors += [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(d.dim)) for _ in range(20)]
    # combinations of the coroots, so that the span is hit on every lattice
    for coeffs in ([rng.randint(-3, 3) for _ in range(d.rank)],
                   [Fraction(rng.randint(-6, 6), 5) for _ in range(d.rank)]):
        vec = (0,) * d.dim
        for c, g in zip(coeffs, d.simple_coroots):
            vec = tuple(x + c * y for x, y in zip(vec, g))
        vectors.append(vec)
    outside = 0
    for vec in vectors:
        got = coroot_coefficients(d, vec)
        want = solve_rational_combination(d.simple_coroots, vec)
        assert got == want and (got is None or typed(got) == typed(want))
        outside += got is None
    assert (outside > 0) == (d.dim > d.rank)


def sigma_avg_by_powers(d, mu):
    """The sum of sigma^k mu over one period, divided by the period."""
    total, cur = tuple(Fraction(x) for x in mu), tuple(mu)
    for _ in range(d.sigma_order - 1):
        cur = d.sigma_vec(cur)
        total = tuple(x + y for x, y in zip(total, cur))
    return tuple(x / d.sigma_order for x in total)


@pytest.mark.parametrize('name', ['sl3_flip', 'sl4_flip'])
def test_sigma_avg_matches_power_loop(name):
    d = builtin_datum(name)
    rng = random.Random(name)
    for _ in range(100):
        mu = tuple(rng.choice([rng.randint(-5, 5),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
                   for _ in range(d.dim))
        assert typed(d.pi_projection(frozenset(), mu)) == \
            typed(sigma_avg_by_powers(d, mu))


INFINITE_TYPE = {'cartan': [[2, -3], [-3, 2]], 'lattice_basis': 'adjoint'}


def run_python(*args):
    """Run the interpreter on the package sources, for at most a minute."""
    src = Path(__file__).resolve().parent.parent / 'src'
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))


def test_infinite_type_datum_exits_1(tmp_path):
    """A Cartan matrix of infinite type has infinitely many roots; the
    closure stops at the finite-type bound (in a subprocess, so that a
    closure that never stops fails here instead of hanging)."""
    path = tmp_path / 'datum.json'
    path.write_text(json.dumps(INFINITE_TYPE))
    done = run_python('-m', 'adlv.cli', 'datum', 'validate', '--datum',
                      str(path))
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(
        'usage error: --datum: the Cartan matrix [[2, -3], [-3, 2]] is not '
        'of finite type'), done.stderr


def test_infinite_type_positive_root_count_raises():
    script = textwrap.dedent("""
        from adlv.pct import count_positive_roots
        try:
            count_positive_roots(%r)
        except ValueError as e:
            print(e)
        """ % (INFINITE_TYPE['cartan'],))
    done = run_python('-c', script)
    assert 'is not of finite type' in done.stdout, done.stderr
