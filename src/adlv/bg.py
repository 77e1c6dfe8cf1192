"""Invariants of sigma-conjugacy classes: Newton point, Kottwitz point,
lambda-invariant, defect, the partial order on classes, strata sets and
the virtual dimension.

A class is identified by the pair (kappa, nu): kappa is a canonical
residue tuple in the presentation of pi_1(G)_Gamma and nu is the
dominant rational Newton point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (Fraction, solve_rational_combination, vec_add,
                      vec_dot, vec_scale, vec_sub)

__all__ = ['BGClass', 'BGInvariants']


@dataclass(frozen=True, order=True)
class BGClass:
    """(kappa residue, dominant Newton point) of a sigma-conjugacy class."""
    kappa: tuple
    nu: tuple

    def to_dict(self):
        return {'kappa': list(self.kappa),
                'nu': [str(Fraction(x)) for x in self.nu]}


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
        self._lambda_memo = {}

    # -- Newton and Kottwitz ------------------------------------------------

    def newton_of_element(self, x):
        """(nu_raw, nu_dom): the sigma-twisted average of x and its
        dominant representative.

        The twisted powers x sigma(x) sigma^2(x) ... are multiplied out
        until the Weyl part is trivial and sigma has made a full cycle;
        nu_raw is the accumulated translation part divided by the number
        of factors.
        """
        aw = self.aw
        p = x
        k = 1
        sx = x
        while not (p.w == 0 and k % self.datum.sigma_order == 0):
            sx = aw.sigma(sx)
            p = aw.mult(p, sx)
            k += 1
            if k > 10000:
                raise RuntimeError('twisted power did not close up')
        nu_raw = tuple(Fraction(c, k) for c in p.mu)
        _, nu_dom = self.W.dominant_representative(nu_raw)
        return nu_raw, nu_dom

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
        """The BGClass of the sigma-conjugacy class of x."""
        _, nu_dom = self.newton_of_element(x)
        return BGClass(self.kottwitz_point(x), nu_dom)

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

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl
        >>> bg = BGInvariants(AffineWeyl(builtin_datum('gl3')))
        >>> b = BGClass(bg.kottwitz.project((1, 0, 0)), (Fraction(1, 3),) * 3)
        >>> bg.lambda_invariant(b)[1]
        (0, 0, 1)
        """
        key = (b.kappa, b.nu)
        if key in self._lambda_memo:
            return self._lambda_memo[key]
        d = self.datum
        lam0 = self.kottwitz.lift(b.kappa)
        orbits = d.sigma_orbits()
        reps = [d.simple_coroots[orb[0]] for orb in orbits]
        avg_reps = [d.sigma_avg(r) for r in reps]
        delta = vec_sub(tuple(Fraction(x) for x in b.nu), d.sigma_avg(lam0))
        coeffs = solve_rational_combination(avg_reps, delta)
        if coeffs is None:
            raise ValueError('no lambda-invariant: nu - avg(lift(kappa)) '
                             'is outside the averaged coroot span '
                             '(invalid class (kappa, nu))')
        lam = tuple(lam0)
        for c, rep in zip(coeffs, reps):
            m = c.numerator // c.denominator  # floor
            lam = vec_add(lam, vec_scale(m, rep))
        # runtime checks from the defining properties
        if not d.dominance_leq(d.sigma_avg(lam), b.nu, integral=False):
            raise AssertionError('lambda candidate fails avg <= nu')
        if self.kottwitz.project(lam) != b.kappa:
            raise AssertionError('lambda candidate fails kappa match')
        conv = d.convex_hull_point(lam)
        if conv != tuple(Fraction(x) for x in b.nu):
            raise AssertionError('conv(lambda(b)) != nu(b): %r vs %r'
                                 % (conv, b.nu))
        result = (self.gamma.project(lam), lam)
        self._lambda_memo[key] = result
        return result

    def pair_two_rho(self, vec):
        return vec_dot(self.datum.two_rho, vec)

    def defect(self, b):
        """<nu, 2 rho> - <lambda(b), 2 rho>, a nonnegative integer."""
        _, lam = self.lambda_invariant(b)
        val = self.pair_two_rho(b.nu) - self.pair_two_rho(lam)
        val = Fraction(val)
        if val.denominator != 1 or val < 0:
            raise AssertionError('defect must be a nonnegative integer, '
                                 'got %s' % val)
        return int(val)

    # -- order and strata -----------------------------------------------------

    def bg_leq(self, b1, b2):
        """Partial order: equal kappa and nu_1 <= nu_2 in dominance.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl
        >>> bg = BGInvariants(AffineWeyl(builtin_datum('sl2')))
        >>> z = bg.kottwitz.project((0,))
        >>> bg.bg_leq(BGClass(z, (Fraction(0),)), BGClass(z, (Fraction(1),)))
        True
        """
        return (b1.kappa == b2.kappa
                and self.datum.dominance_leq(b1.nu, b2.nu, integral=False))

    def strata_sets(self, b):
        """(I(nu), I_1(b)): simple roots vanishing on nu, and those with a
        nonzero coefficient in nu - avg_sigma(lambda(b))."""
        d = self.datum
        i_nu = frozenset(i for i in range(d.rank)
                         if vec_dot(d.simple_roots[i], b.nu) == 0)
        _, lam = self.lambda_invariant(b)
        diff = vec_sub(tuple(Fraction(x) for x in b.nu), d.sigma_avg(lam))
        coeffs = solve_rational_combination(d.simple_coroots, diff)
        if coeffs is None:
            raise AssertionError('nu - avg(lambda) not in the coroot span')
        i_one = frozenset(i for i, c in enumerate(coeffs) if c != 0)
        return i_nu, i_one

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
        total = Fraction(self.aw.aff_length(x) + self.W.lengths[eta]) \
            - self.pair_two_rho(b.nu) - self.defect(b)
        if total % 2 != 0:
            raise AssertionError('virtual dimension is not an integer')
        return int(total // 2)
