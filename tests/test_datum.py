"""Root data: generation, positivity, sigma, projections, quotients."""

import json
from fractions import Fraction

import pytest

from adlv.cli import main
from adlv.datum import builtin_datum, cartan_matrix, datum_from_config
from adlv.lattice import vec_dot

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
    assert main(['datum', 'validate', '--datum', str(path)]) == 2
    assert message in capsys.readouterr().err
