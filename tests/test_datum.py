"""Root data: generation, positivity, sigma, projections, quotients."""

import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from adlv.cli import main
from adlv.datum import (BUILTIN_DATA, RootDatum, builtin_datum,
                        cartan_matrix, datum_from_config)
from adlv.lattice import solve_rational_combination, vec_dot

# numbers of positive roots, frozen from the classical count formulas
POSITIVE_COUNTS = {'sl2': 1, 'sl3': 3, 'sl4': 6, 'gl6': 15, 'sp4': 4,
                   'so5': 4, 'g2': 6, 'e6_adjoint': 36}


def test_cartan_matrices():
    assert cartan_matrix('A2') == [[2, -1], [-1, 2]]
    assert cartan_matrix('C2') == [[2, -2], [-1, 2]]
    assert cartan_matrix('G2') == [[2, -1], [-3, 2]]
    assert cartan_matrix('B2') == [[2, -1], [-2, 2]]


@pytest.mark.parametrize('name,count', sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(name, count):
    d = builtin_datum(name)
    assert d.num_positive == count
    assert len(d.roots) == 2 * count


def test_pairing_integrality_and_reflections():
    for name in ('sl3', 'sp4', 'g2', 'gl3', 'psp4'):
        d = builtin_datum(name)
        for r in d.roots:
            assert vec_dot(r.covec, r.coroot) == 2
        for i in range(len(d.roots)):
            m = d.reflection_matrix(i)
            # involutive
            assert [[sum(m[a][t] * m[t][b] for t in range(d.dim))
                     for b in range(d.dim)] for a in range(d.dim)] \
                == [[int(a == b) for b in range(d.dim)]
                    for a in range(d.dim)]


def test_sigma_validation_rejects_non_automorphism():
    with pytest.raises(Exception):
        datum_from_config({'type': 'C2', 'lattice_basis': 'sc',
                           'sigma_perm': [2, 1]})


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
    return d.sigma_avg(out)


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


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_projection_and_dominance_match_oracles(name):
    d = builtin_datum(name)
    rng = random.Random(name)
    count = 2 if d.rank > 5 else 6   # the oracle is slow on E6
    vectors = [tuple(rng.randint(-3, 3) for _ in range(d.dim))
               for _ in range(count)]
    vectors += [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(d.dim)) for _ in range(count)]
    # pairs an integral step apart, so the True answers are exercised too
    vectors += [tuple(x + c for x, c in zip(v, d.simple_coroots[0]))
                for v in vectors[:3]]
    for mu in vectors:
        assert typed(d.convex_hull_point(mu)) == \
            typed(convex_hull_oracle(d, mu))
        for other in vectors:
            assert d.dominance_leq(mu, other) == \
                dominance_leq_oracle(d, mu, other)


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_sigma_root_matches_covector_lookup(name):
    d = builtin_datum(name)
    for i, r in enumerate(d.roots):
        assert d.sigma_root(i) == d.root_index[d.sigma_covec(r.covec)]


def test_pi_projection_rejects_unstable_subset():
    d = builtin_datum('sl3_flip')
    with pytest.raises(ValueError, match='sigma stable'):
        d.pi_projection(frozenset({0}), (1, 0))
    assert d._projection_memo == {}


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


@pytest.mark.parametrize('config,message', [
    ({'type': 'A1', 'sigma_matrix': [[2]]}, 'not unimodular'),
    ({'type': 'A1', 'sigma_matrix': [[0]]}, 'singular'),
    ({'type': 'A1', 'lattice_basis': [[0]]}, 'singular'),
])
def test_bad_matrix_raises_clear_value_error(config, message, tmp_path,
                                            capsys):
    with pytest.raises(ValueError, match=message):
        datum_from_config(config)
    path = tmp_path / 'datum.json'
    path.write_text(json.dumps(config))
    assert main(['datum', 'validate', '--datum', str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('usage error: --datum: ') and message in err


def test_singular_levi_block_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr('adlv.datum.solve_rational_combination',
                        lambda gens, target: None)
    d = builtin_datum('gl3')
    with pytest.raises(AssertionError, match=r"'gl3'.*J = \[1, 2\]"):
        d.pi_projection(frozenset({0, 1}), (1, 0, 0))


PI_PROJECTION = RootDatum.pi_projection


def shifted_projection(self, subset, mu):
    """pi_projection with the one-element subsets shifted off the coroot
    span, so that they are incomparable with the other projections."""
    val = PI_PROJECTION(self, subset, mu)
    if len(subset) == 1:
        val = (val[0] + 1,) + val[1:]
    return val


HULL_ARGV = ['lambda', '--datum', 'gl3', '--x', '{"w":[1],"mu":[1,0,0]}']


def test_non_unique_hull_point_is_an_invariant_error(monkeypatch, capsys):
    monkeypatch.setattr(RootDatum, 'pi_projection', shifted_projection)
    with pytest.raises(AssertionError,
                       match=r"'gl3'.*mu = \(1, 0, 0\).*incomparable"):
        builtin_datum('gl3').convex_hull_point((1, 0, 0))
    assert main(HULL_ARGV) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: datum 'gl3'"), err


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
        RootDatum.pi_projection = shifted_projection
        sys.exit(main(%r))
        """ % (str(tests), HULL_ARGV))
    env = dict(os.environ, PYTHONPATH=str(tests.parent / 'src'))
    done = subprocess.run([sys.executable, '-O', '-c', script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert "invariant violation: datum 'gl3'" in done.stderr
