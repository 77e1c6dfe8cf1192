"""Class invariants: Newton, Kottwitz, lambda, defect, virtual dimension."""

import itertools
import random
from fractions import Fraction

import pytest

from adlv.affine import AffineElement, AffineWeyl
from adlv.bg import BGClass, BGInvariants
from adlv.cli import main
from adlv.datum import InvariantError, RootDatum, builtin_datum
from adlv.lattice import solve_rational_combination, vec_dot

from test_affine import SMALL_DATA, gl6_sample
from test_datum import sigma_avg_by_powers


@pytest.fixture(scope='module')
def sl2():
    return BGInvariants(AffineWeyl(builtin_datum('sl2')))


@pytest.fixture(scope='module')
def gl3():
    return BGInvariants(AffineWeyl(builtin_datum('gl3')))


def test_newton_of_translations(gl3):
    raw, dom = gl3.newton_of_element(AffineElement(0, (0, 2, 1)))
    assert raw == (Fraction(0), Fraction(2), Fraction(1))
    assert dom == (Fraction(2), Fraction(1), Fraction(0))


def test_newton_basic_sl2(sl2):
    raw, dom = sl2.newton_of_element(AffineElement(1, (1,)))
    assert raw == (Fraction(0),) and dom == (Fraction(0),)
    raw, dom = sl2.newton_of_element(AffineElement(1, (0,)))
    assert dom == (Fraction(0),)


def test_newton_flip_twisting():
    bg = BGInvariants(AffineWeyl(builtin_datum('sl3_flip')))
    # identity translation by alpha1^vee: sigma swaps the coroots, the
    # twisted average is the sigma-average
    raw, dom = bg.newton_of_element(AffineElement(0, (1, 0)))
    assert dom == (Fraction(1, 2), Fraction(1, 2))


def test_class_forms_share_one_class_and_hash():
    """Int, Fraction and unreduced integer input give one class, in
    lowest terms, with one hash."""
    forms = [BGClass.from_nu((0,), (1, 0)),
             BGClass.from_nu((0,), (Fraction(1), Fraction(0))),
             BGClass.from_nu((0,), (Fraction(2, 2), 0)),
             BGClass((0,), 2, (2, 0))]
    assert len(set(forms)) == 1 and len({hash(b) for b in forms}) == 1
    assert {(b.den, b.nums) for b in forms} == {(1, (1, 0))}
    third = BGClass((1,), 6, (2, 2, 2))
    assert (third.den, third.nums) == (3, (1, 1, 1))
    assert third.nu == (Fraction(1, 3),) * 3
    with pytest.raises(ValueError, match='denominator of nu must be '
                       'positive, got 0'):
        BGClass((0,), 0, (1, 0))


def test_invariant_error_renders_class_nu_as_rationals():
    b = BGClass((0, 0, 1), 3, (1, 1, 1))
    err = InvariantError('gl3', 'a check failed', {'w': [1], 'mu': [1, 0, 0]},
                         b)
    assert str(err) == ("datum 'gl3': a check failed, for x = "
                        '{"w": [1], "mu": [1, 0, 0]} and the class '
                        'kappa = (0, 0, 1), nu = (1/3, 1/3, 1/3)')
    assert err.sigma_class is b


def test_kottwitz_gl3(gl3):
    k1 = gl3.kottwitz_point(AffineElement(0, (1, 0, 0)))
    k0 = gl3.kottwitz_point(AffineElement(0, (0, 0, 0)))
    assert k1 != k0
    k3 = gl3.kottwitz_point(AffineElement(0, (1, 1, 1)))
    # the free generator is additive
    assert gl3.kottwitz.add(gl3.kottwitz.add(k1, k1), k1) == k3


def test_lambda_invariant_gl3_basic(gl3):
    b = BGClass.from_nu(gl3.kottwitz.project((1, 0, 0)),
                        (Fraction(1, 3),) * 3)
    res, lam = gl3.lambda_invariant(b)
    assert lam == (0, 0, 1)
    assert gl3.defect(b) == 2
    i_nu, i_one = gl3.strata_sets(b)
    assert sorted(i_nu) == [0, 1] and sorted(i_one) == [0, 1]


def test_lambda_invariant_invalid_class(gl3):
    bad = BGClass.from_nu(gl3.kottwitz.project((1, 0, 0)),
                          (Fraction(1),) * 3)
    with pytest.raises(ValueError):
        gl3.lambda_invariant(bad)


def lambda_by_averaged_coroots(bg, b):
    """The lambda-invariant from the coefficients of nu - avg(lift(kappa))
    over the averaged coroots avg(alpha_o^vee), one per sigma-orbit o,
    rounded down."""
    d = bg.datum
    lam0 = bg.kottwitz.lift(b.kappa)
    reps = [d.simple_coroots[orb[0]] for orb in d.sigma_orbits()]
    delta = tuple(x - y for x, y in zip(b.nu, sigma_avg_by_powers(d, lam0)))
    coeffs = solve_rational_combination(
        [sigma_avg_by_powers(d, r) for r in reps], delta)
    if coeffs is None:
        raise ValueError('outside the averaged coroot span')
    lam = tuple(lam0)
    for c, rep in zip(coeffs, reps):
        lam = tuple(x + (c.numerator // c.denominator) * y
                    for x, y in zip(lam, rep))
    return bg.gamma.project(lam), lam


@pytest.mark.parametrize('name,bound,max_length', [
    ('gl3', 2, 6), ('sl3_flip', 3, 10), ('psp4', 2, 6)])
def test_lambda_invariant_matches_averaged_coroot_solve(name, bound,
                                                        max_length):
    """On every class met in a box scan, types included."""
    bg = BGInvariants(AffineWeyl(builtin_datum(name)))
    classes = {bg.element_class(x)
               for x in bg.aw.box_elements(bound, max_length)}
    for b in sorted(classes):
        res, lam = bg.lambda_invariant(b)
        want_res, want_lam = lambda_by_averaged_coroots(bg, b)
        assert res == want_res and typed(lam) == typed(want_lam), b


def test_lambda_invariant_rejects_newton_point_off_averaged_span():
    """nu = alpha_1^vee is in the coroot span but not sigma-invariant."""
    bg = BGInvariants(AffineWeyl(builtin_datum('sl3_flip')))
    b = BGClass.from_nu(bg.kottwitz.project((0, 0)),
                        (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match='averaged coroot span'):
        bg.lambda_invariant(b)
    with pytest.raises(ValueError):
        lambda_by_averaged_coroots(bg, b)


def test_strata_sets_off_coroot_span_is_an_invariant_error(monkeypatch):
    bg = BGInvariants(AffineWeyl(builtin_datum('gl3')))
    b = BGClass.from_nu(bg.kottwitz.project((1, 0, 0)),
                        (Fraction(1, 3),) * 3)
    # the avg <= nu check reads avg(lambda) = 0, which leaves nu, whose
    # coordinates sum to 1, off the span
    excess, calls = bg._excess, []

    def zero_lambda_in_check(nu, lam):
        calls.append(lam)
        return excess(nu, lam if len(calls) == 1 else (0, 0, 0))

    monkeypatch.setattr(bg, '_excess', zero_lambda_in_check)
    with pytest.raises(InvariantError, match="^datum 'gl3': lambda candidate "
                                             'fails avg <= nu') as info:
        bg.strata_sets(b)
    assert (info.value.datum, info.value.element, info.value.sigma_class) \
        == ('gl3', None, b)


def strata_sets_on_fractions(bg, b):
    """Oracle: I(nu) by pairing the simple roots with the Fraction nu, and
    I_1(b) from nu - avg(lambda(b)) formed again in Fractions (the sigma
    average by powers) and solved over the simple coroots."""
    d = bg.datum
    i_nu = frozenset(i for i in range(d.rank)
                     if vec_dot(d.simple_roots[i], b.nu) == 0)
    _, lam = bg.lambda_invariant(b)
    delta = [x - y for x, y in zip(b.nu, sigma_avg_by_powers(d, lam))]
    coeffs = solve_rational_combination(d.simple_coroots, delta)
    return i_nu, frozenset(i for i, c in enumerate(coeffs) if c != 0)


@pytest.mark.parametrize('name', ['gl3', 'sl3_flip', 'sp4', 'g2'])
def test_strata_sets_match_fraction_pairing(name):
    """On every class of box(2, 6)."""
    bg = BGInvariants(AffineWeyl(builtin_datum(name)))
    classes = {bg.element_class(x) for x in bg.aw.box_elements(2, 6)}
    for b in sorted(classes):
        assert bg.strata_sets(b) == strata_sets_on_fractions(bg, b), b


def test_conv_lambda_fault_exits_3_naming_datum_and_class(monkeypatch,
                                                         capsys):
    """A convex hull point moved off nu fails the conv(lambda) = nu check;
    the CLI exits 3 with a message naming the datum and the class.  The
    message prints the hull point the check compared, nu + (1, 1, 1),
    without forming it again through the Fraction wrapper."""
    hull = RootDatum.hull_numerators

    def shifted(self, num):
        den, nums = hull(self, num)
        return den, tuple(x + den for x in nums)

    def refused(self, mu):
        raise AssertionError('convex_hull_point called')

    monkeypatch.setattr(RootDatum, 'hull_numerators', shifted)
    monkeypatch.setattr(RootDatum, 'convex_hull_point', refused)
    argv = ['lambda', '--datum', 'gl3', '--x', '{"w":[1],"mu":[1,0,0]}']
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: datum 'gl3': "
                          'conv(lambda(b)) != nu(b): lambda = (0, 1, 0), '
                          'conv = (3/2, 3/2, 1), for the class'), err
    assert 'for the class kappa = (' in err and 'nu = (1/2, 1/2, 0)' in err


def test_sl2_defect_and_dimensions(sl2):
    x = AffineElement(1, (1,))            # s1 s0 s1, basic class
    b = sl2.element_class(x)
    assert b.nu == (Fraction(0),)
    assert sl2.defect(b) == 0
    assert sl2.virtual_dimension(x, b) == 2
    one = BGClass.from_nu(sl2.kottwitz_point(x), (Fraction(1),))
    assert sl2.virtual_dimension(x, one) == 1


def test_gl2_chain():
    """The split GL2 chain: x = s1 eps^{(1,0)} has length 2, eta of
    length 1, basic defect 1 and virtual dimension 1."""
    bg = BGInvariants(AffineWeyl(builtin_datum('gl2')))
    x = AffineElement(1, (1, 0))
    assert bg.aw.aff_length(x) == 2
    eta = bg.aw.eta_sigma(x)
    assert bg.W.lengths[eta] == 1
    b = bg.element_class(x)
    assert b.nu == (Fraction(1, 2), Fraction(1, 2))
    assert bg.defect(b) == 1
    assert bg.virtual_dimension(x, b) == 1


def class_integers_on_fractions(bg, x, b):
    """Oracle: <nu, 2 rho>, the defect and d_x(b), paired on the Fraction
    nu and divided as Fractions."""
    two_rho = bg.datum.two_rho
    _, lam = bg.lambda_invariant(b)
    two_rho_nu = vec_dot(two_rho, b.nu)
    defect = two_rho_nu - vec_dot(two_rho, lam)
    eta = bg.aw.eta_sigma(x)
    dim = Fraction(bg.aw.aff_length(x) + bg.W.lengths[eta] - two_rho_nu
                   - defect, 2)
    return two_rho_nu, defect, dim


@pytest.mark.parametrize('name,bound,max_length', [
    ('gl3', 2, 6), ('sl3_flip', 2, 7), ('sp4', 2, 6), ('psp4', 2, 6),
    ('g2', 2, 7)])
def test_class_record_integers_match_fraction_pairing(name, bound,
                                                      max_length):
    """On every element of the box and its class: ints equal to the
    Fraction formulas."""
    bg = BGInvariants(AffineWeyl(builtin_datum(name)))
    for x in bg.aw.box_elements(bound, max_length):
        b = bg.element_class(x)
        got = (bg.two_rho_nu(b), bg.defect(b), bg.virtual_dimension(x, b))
        assert [type(v) for v in got] == [int] * 3, x
        assert got == class_integers_on_fractions(bg, x, b), x


def test_negative_defect_names_datum_and_class(monkeypatch):
    """A 2 rho of the wrong sign makes the defect of the class with
    lambda = (0, 0, 1) negative: <nu, 2 rho> = 0 and <lambda, 2 rho> = 2."""
    bg = BGInvariants(AffineWeyl(builtin_datum('gl3')))
    monkeypatch.setattr(bg.datum, 'two_rho', (-2, 0, 2))
    b = BGClass.from_nu(bg.kottwitz.project((1, 0, 0)),
                        (Fraction(1, 3),) * 3)
    with pytest.raises(InvariantError, match=r"^datum 'gl3': the defect -2 "
                       r'is negative: lambda = \(0, 0, 1\), for the class '
                       r'kappa = \(0, 0, 1\), nu = \(1/3, 1/3, 1/3\)$') \
            as info:
        bg.defect(b)
    assert info.value.what == 'the defect -2 is negative: lambda = (0, 0, 1)'
    assert info.value.sigma_class == b


def test_virtual_dimension_kappa_mismatch(gl3):
    x = AffineElement(0, (1, 0, 0))
    b = BGClass.from_nu(gl3.kottwitz_point(AffineElement(0, (0, 0, 0))),
                        (Fraction(0),) * 3)
    with pytest.raises(ValueError):
        gl3.virtual_dimension(x, b)


@pytest.mark.parametrize('name', ['sl3', 'sp4', 'sl3_flip'])
def test_class_invariant_under_sigma_conjugation(name):
    aw = AffineWeyl(builtin_datum(name))
    bg = BGInvariants(aw)
    rng = random.Random(11)
    elements = [AffineElement(w, mu) for w in range(aw.W.size)
                for mu in itertools.product((-2, -1, 0, 1, 2), repeat=2)]
    for _ in range(40):
        x = rng.choice(elements)
        g = AffineElement(rng.randrange(aw.W.size),
                          tuple(rng.randint(-2, 2) for _ in range(2)))
        y = aw.mult(aw.mult(aw.inverse(g), x), aw.sigma(g))
        assert bg.element_class(y) == bg.element_class(x)


def test_bg_leq(sl2):
    z = sl2.kottwitz.project((0,))
    b0 = BGClass.from_nu(z, (Fraction(0),))
    b1 = BGClass.from_nu(z, (Fraction(1),))
    assert sl2.bg_leq(b0, b1) and not sl2.bg_leq(b1, b0)
    assert sl2.bg_leq(b0, b0)


def test_straight_translation_class(gl3):
    # dominant translation: nu equals mu, lambda lift in the same residue
    x = AffineElement(0, (2, 1, 0))
    b = gl3.element_class(x)
    assert b.nu == (Fraction(2), Fraction(1), Fraction(0))
    res, lam = gl3.lambda_invariant(b)
    assert gl3.gamma.project((2, 1, 0)) == res
    assert gl3.defect(b) == 0


def test_newton_bound_names_datum_and_element(monkeypatch):
    bg = BGInvariants(AffineWeyl(builtin_datum('sl2')))
    mult = bg.aw.mult
    # a product whose finite part is never the identity never closes up
    monkeypatch.setattr(bg.aw, 'mult',
                        lambda a, b: AffineElement(1, mult(a, b).mu))
    with pytest.raises(InvariantError,
                       match=r"'sl2': the twisted powers of .* = 2 factors") \
            as info:
        bg.newton_of_element(AffineElement(1, (1,)))
    assert (info.value.datum, info.value.element) == (
        'sl2', {'w': [1], 'mu': [1]})


def test_virtual_dimension_parity_names_element_and_class(gl3,
                                                          monkeypatch):
    """An odd virtual dimension numerator names both x and the class."""
    x = AffineElement(0, (1, 0, 0))
    b = gl3.element_class(x)
    monkeypatch.setattr(gl3, 'defect', lambda b: 1)
    with pytest.raises(InvariantError, match=r"^datum 'gl3': virtual "
                       r'dimension -1 / 2 is not an integer, for x = '
                       r'\{"w": \[\], "mu": \[1, 0, 0\]\} and the class '
                       r'kappa = \(0, 0, 1\), nu = \(1, 0, 0\)$') \
            as info:
        gl3.virtual_dimension(x, b)
    assert (info.value.element, info.value.sigma_class) == (
        {'w': [], 'mu': [1, 0, 0]}, b)


def newton_on_fractions(bg, x):
    """Oracle: the twisted powers divided by their number k first, then
    the dominant representative found by a descent on Fractions."""
    aw, d = bg.aw, bg.datum
    p, k, sx = x, 1, x
    while not (p.w == 0 and k % d.sigma_order == 0):
        sx = aw.sigma(sx)
        p = aw.mult(p, sx)
        k += 1
    nu_raw = tuple(Fraction(c, k) for c in p.mu)
    _, nu_dom = bg.W.dominant_representative(nu_raw)
    return nu_raw, nu_dom


def typed(vec):
    return [(type(c), c) for c in vec]


@pytest.mark.parametrize('name', SMALL_DATA)
def test_integer_newton_descent_matches_fraction_descent(name):
    """(nu_raw, nu_dom), element types included, on the box(2, 6)
    elements, or on 200 seeded elements for gl6."""
    aw = AffineWeyl(builtin_datum(name))
    bg = BGInvariants(aw)
    elements = gl6_sample(aw) if name == 'gl6' else aw.box_elements(2, 6)
    for x in elements:
        got, want = bg.newton_of_element(x), newton_on_fractions(bg, x)
        assert [typed(v) for v in got] == [typed(v) for v in want], x
