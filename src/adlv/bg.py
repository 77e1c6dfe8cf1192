"""Invariants of sigma-conjugacy classes: Newton point, Kottwitz point,
lambda-invariant, defect, the partial order on classes, strata sets and
the virtual dimension.

A class is identified by (kappa, nu): kappa is a canonical residue tuple
in the presentation of pi_1(G)_Gamma and nu is the dominant rational
Newton point.  Every class has nu = pi_J(lambda(b)) for an integral
lambda(b) (Chai, Amer. J. Math. 122, 2000; Viehmann, Amer. J. Math. 135,
2013), so a ``BGClass`` carries nu as integers over one denominator, in
lowest terms: it hashes and compares on ints, and the memos and sets
keyed by classes form no Fraction.  The class layer builds that form
from the integers it already has (the twisted power of an element, the
numerators of a projection or of a convex hull point), and ``nu`` as a
tuple of Fractions is a view for output and for the test oracles.

The integers of a class are formed once, in one record per class:
lambda(b), the strata sets, <nu, 2 rho> and the defect.  The record
checks that <nu, 2 rho> is an integer and that the defect is
nonnegative, so every reader of these numbers works on ints.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .datum import InvariantError, _vec_text
from .lattice import _common_denominator, vec_add, vec_dot, vec_scale

__all__ = ['BGClass', 'BGInvariants']


class BGClass(namedtuple('BGClass', 'kappa den nums')):
    """A sigma-conjugacy class: its kappa residue and its dominant Newton
    point nu = nums / den, in lowest terms (den >= 1 and gcd(den, *nums)
    = 1), so equal classes are equal tuples of ints with one hash.

    ``BGClass(kappa, den, nums)`` reduces any integer form;
    :meth:`from_nu` takes nu as ints or Fractions.  Classes sort by
    (kappa, nu as rationals), which is the order of the reports, and
    ``nu`` is the tuple of Fractions.

    >>> b = BGClass((0,), 2, (2, 0))
    >>> b == BGClass.from_nu((0,), (1, 0)), b.den, b.nu
    (True, 1, (Fraction(1, 1), Fraction(0, 1)))
    >>> sorted([BGClass((0,), 1, (1, 0)), BGClass((0,), 2, (1, 1))])[0].nu
    (Fraction(1, 2), Fraction(1, 2))
    """
    __slots__ = ()

    def __new__(cls, kappa, den, nums):
        if den < 1:
            raise ValueError('the denominator of nu must be positive, got %d'
                             % den)
        g = math.gcd(den, *nums)
        return super().__new__(cls, tuple(kappa), den // g,
                               tuple([n // g for n in nums]))

    @classmethod
    def from_nu(cls, kappa, nu):
        """The class (kappa, nu) for nu a vector of ints or Fractions."""
        return cls(kappa, *_common_denominator(nu))

    @property
    def nu(self):
        """The Newton point as a tuple of Fractions."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    def _cross(self, other):
        """(kappa, nu * den * other.den) of both classes, on ints: the
        order of (kappa, nu), as both denominators are positive."""
        return ((self.kappa, [n * other.den for n in self.nums]),
                (other.kappa, [n * self.den for n in other.nums]))

    def __lt__(self, other):
        a, b = self._cross(other)
        return a < b

    def __le__(self, other):
        a, b = self._cross(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._cross(other)
        return a > b

    def __ge__(self, other):
        a, b = self._cross(other)
        return a >= b

    def to_dict(self):
        return {'kappa': list(self.kappa), 'nu': [str(x) for x in self.nu]}


class BGInvariants:
    """Invariant computations bound to one extended affine Weyl group.

    >>> from adlv.datum import builtin_datum
    >>> from adlv.affine import AffineWeyl, AffineElement
    >>> bg = BGInvariants(AffineWeyl(builtin_datum('sl2')))
    >>> x = AffineElement(1, (1,))          # s_alpha eps^{alpha^vee}
    >>> bg.newton_of_element(x)[1]
    (Fraction(0, 1),)
    >>> bg.defect(bg.element_class(x))      # split simply connected: basic
    0
    """

    def __init__(self, aw):
        self.aw = aw
        self.W = aw.W
        self.datum = aw.datum
        self.kottwitz = self.datum.kottwitz_presentation()
        self.gamma = self.datum.galois_coinvariants()
        self._records = {}
        self._classes = {}    # element -> its BGClass

    # -- Newton and Kottwitz ------------------------------------------------

    def newton_of_element(self, x):
        """(nu_raw, nu_dom): the sigma-twisted average of x and its
        dominant representative, as Fractions: the translation part of
        the twisted power of :meth:`_twisted_power` and its dominant
        representative, divided by the number k of factors.  The
        descent only reads signs of pairings, which dividing by k > 0
        keeps, so it runs on the integer sum.
        """
        k, mu = self._twisted_power(x)
        _, lam = self.W.dominant_representative(mu)
        return (tuple([Fraction(c, k) for c in mu]),
                tuple([Fraction(c, k) for c in lam]))

    def _twisted_power(self, x):
        """(k, mu): the twisted powers x sigma(x) sigma^2(x) ... are
        multiplied out until the Weyl part is trivial and sigma has made a
        full cycle, k factors with translation part mu, so nu_raw = mu / k.
        k is the order of (w, sigma) in W x| <sigma>, so at most |W| *
        ord(sigma)."""
        aw, d = self.aw, self.datum
        bound = self.W.size * d.sigma_order
        p, k, sx = x, 1, x
        while not (p.w == 0 and k % d.sigma_order == 0):
            sx = aw.sigma(sx)
            p = aw.mult(p, sx)
            k += 1
            if k > bound:
                raise InvariantError(d.name, 'the twisted powers of x did not '
                                     'close up within |W| * ord(sigma) = %d '
                                     'factors' % bound, aw.element_to_dict(x))
        return k, p.mu

    def kottwitz_point(self, x):
        """Image of mu in pi_1(G)_Gamma.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl, AffineElement
        >>> bg = BGInvariants(AffineWeyl(builtin_datum('gl3')))
        >>> bg.kottwitz_point(AffineElement(0, (1, 0, 0)))   # free generator
        (0, 0, 1)
        """
        return self.kottwitz.project(x.mu)

    def element_class(self, x):
        """The BGClass of the sigma-conjugacy class of x, memoised per
        element: nu = lam / k for the dominant representative lam of the
        translation part of the k-th twisted power (see
        :meth:`newton_of_element`), on ints.  (kappa, nu) fixes the class
        (Kottwitz, Compositio Math. 56, 1985), so this is the one source
        of an element's class; class keys read it too."""
        b = self._classes.get(x)
        if b is None:
            k, mu = self._twisted_power(x)
            _, lam = self.W.dominant_representative(mu)
            b = self._classes[x] = BGClass(self.kottwitz_point(x), k, lam)
        return b

    # -- lambda-invariant ----------------------------------------------------

    def lambda_invariant(self, b):
        """(residue in X_Gamma, integral lift) of the lambda-invariant.

        lambda(b) is the maximal residue with avg_sigma(lambda) <= nu and
        kappa(lambda) = kappa(b).  All candidates with the right kappa
        are lambda_0 + sum over sigma-orbits of m_o alpha_o^vee modulo
        (sigma - 1)X, and avg_sigma <= nu pins m_o <= d_o where
        nu - avg(lambda_0) = sum d_o avg(alpha_o^vee); the maximum is the
        componentwise floor, which dominates every other candidate, so
        uniqueness holds by construction.  conv(lambda) = nu is asserted.
        As sigma permutes the coroots of an orbit o, avg(alpha_o^vee) =
        (1/|o|) sum_{i in o} alpha_i^vee, so d_o = sum_{i in o} c_i =
        |o| c_o for the coefficients c of nu - avg(lambda_0) over the
        simple coroots; c is constant on orbits exactly when
        nu - avg(lambda_0) is in the averaged coroot span.  c is read as
        integer numerators over one denominator (see :meth:`_excess`), so
        the floor and the avg <= nu check form no Fraction.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl
        >>> bg = BGInvariants(AffineWeyl(builtin_datum('gl3')))
        >>> b = BGClass(bg.kottwitz.project((1, 0, 0)), 3, (1, 1, 1))
        >>> bg.lambda_invariant(b)[1]
        (0, 0, 1)
        """
        return self._class_record(b)[0]

    def _class_record(self, b):
        """(lambda_invariant(b), strata_sets(b), <nu, 2 rho>, defect(b)),
        memoised per class.

        The memo is keyed by the class itself, a tuple of ints.  The
        pairings are read on the integer numerators of nu, and the one
        check that <nu, 2 rho> is an integer and the defect <nu, 2 rho> -
        <lambda(b), 2 rho> is nonnegative is made here.
        """
        record = self._records.get(b)
        if record is not None:
            return record
        d = self.datum
        lam0 = self.kottwitz.lift(b.kappa)
        excess = self._excess(b, lam0)
        if excess is None or any(excess[1][i] != excess[1][d.sigma_perm[i]]
                                 for i in range(d.rank)):
            raise ValueError('no lambda-invariant: nu - avg(lift(kappa)) '
                             'is outside the averaged coroot span '
                             '(invalid class (kappa, nu))')
        den, coeffs = excess
        lam = tuple(lam0)
        for orb in d.sigma_orbits():
            m = len(orb) * coeffs[orb[0]] // den   # floor of d_o
            lam = vec_add(lam, vec_scale(m, d.simple_coroots[orb[0]]))
        # runtime checks from the defining properties
        excess = self._excess(b, lam)
        if excess is None or any(c < 0 for c in excess[1]):
            raise InvariantError(d.name, 'lambda candidate fails avg <= nu: '
                                 'lambda = %s' % _vec_text(lam), sigma_class=b)
        if self.kottwitz.project(lam) != b.kappa:
            raise InvariantError(d.name, 'lambda candidate fails kappa match: '
                                 'lambda = %s' % _vec_text(lam), sigma_class=b)
        hull_den, hull_nums = d.hull_numerators(lam)
        if (hull_den, hull_nums) != (b.den, b.nums):
            raise InvariantError(
                d.name, 'conv(lambda(b)) != nu(b): lambda = %s, conv = %s'
                % (_vec_text(lam), _vec_text([Fraction(x, hull_den)
                                              for x in hull_nums])),
                sigma_class=b)
        den, num = b.den, b.nums
        pairing = vec_dot(d.two_rho, num)
        if pairing % den:
            raise InvariantError(d.name, '<nu, 2 rho> = %s is not an integer'
                                 % Fraction(pairing, den), sigma_class=b)
        two_rho_nu = pairing // den
        defect = two_rho_nu - vec_dot(d.two_rho, lam)
        if defect < 0:
            raise InvariantError(
                d.name, 'the defect %d is negative: lambda = %s'
                % (defect, _vec_text(lam)), sigma_class=b)
        i_nu = frozenset(i for i in range(d.rank)
                         if vec_dot(d.simple_roots[i], num) == 0)
        i_one = frozenset(i for i, c in enumerate(excess[1]) if c != 0)
        record = self._records[b] = ((self.gamma.project(lam), lam),
                                       (i_nu, i_one), two_rho_nu, defect)
        return record

    def _excess(self, b, lam):
        """nu(b) - avg_sigma(lam) over the simple coroots, on integers:
        (D, k) with coefficients k / D, or None off their span (see
        RootDatum.coroot_difference)."""
        d = self.datum
        return d.coroot_difference((b.den, b.nums),
                                   d.pi_numerators(frozenset(), lam))

    def two_rho_nu(self, b):
        """<nu(b), 2 rho>, an integer, read off the class record."""
        return self._class_record(b)[2]

    def defect(self, b):
        """<nu, 2 rho> - <lambda(b), 2 rho>, a nonnegative integer, read
        off the class record."""
        return self._class_record(b)[3]

    # -- order and strata -----------------------------------------------------

    def bg_leq(self, b1, b2):
        """Partial order: equal kappa and nu_1 <= nu_2 in dominance, on
        the integer numerators of both (RootDatum.numerators_leq).

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl
        >>> bg = BGInvariants(AffineWeyl(builtin_datum('sl2')))
        >>> z = bg.kottwitz.project((0,))
        >>> bg.bg_leq(BGClass(z, 1, (0,)), BGClass(z, 1, (1,)))
        True
        """
        return (b1.kappa == b2.kappa and self.datum.numerators_leq(
            (b1.den, b1.nums), (b2.den, b2.nums)))

    def strata_sets(self, b):
        """(I(nu), I_1(b)): simple roots vanishing on nu, read on the
        integer numerators of nu, and those with a nonzero coefficient in
        nu - avg_sigma(lambda(b)), read off the (D, k) that
        lambda_invariant formed (see :meth:`_excess`), memoised with
        lambda(b)."""
        return self._class_record(b)[1]

    # -- virtual dimension ------------------------------------------------------

    def virtual_dimension(self, x, b):
        """d_x(b) = (ell(x) + ell(eta_sigma(x)) - <nu(b), 2rho> - defect(b))/2.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl, AffineElement
        >>> bg = BGInvariants(AffineWeyl(builtin_datum('sl2')))
        >>> x = AffineElement(1, (1,))
        >>> bg.virtual_dimension(x, bg.element_class(x))
        2
        """
        if b.kappa != self.kottwitz_point(x):
            raise ValueError('kappa(b) differs from kappa(x)')
        eta = self.aw.eta_sigma(x)
        total = self.aw.aff_length(x) + self.W.lengths[eta] \
            - self.two_rho_nu(b) - self.defect(b)
        if total % 2:
            raise InvariantError(
                self.datum.name, 'virtual dimension %d / 2 is not an '
                'integer' % total, self.aw.element_to_dict(x), b)
        return total // 2
