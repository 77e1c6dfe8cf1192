"""Positive Coxeter type classification and its consequences.

An element x = w eps^mu is of positive Coxeter type when some length
positive v makes c = v^{-1} sigma(w v) a sigma-Coxeter element of a
standard parabolic subgroup.  This module enumerates such pairs and
computes everything that follows: the interval of sigma-conjugacy
classes meeting the associated varieties, exact dimension and path
counting formulas, J-points and their quotient point spaces, the
sigma-conjugacy class of reduction-tree endpoints by congruences, the
converse characterization, minimal-length criteria, and very special
parahoric data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .affine import AffineElement
from .datum import diagram_components, perm_orbit
from .lattice import (QuotientPresentation, solve_in_cone,
                      solve_integer_combination, vec_add, vec_dot, vec_scale,
                      vec_sub)
from .qbg import QuantumBruhatGraph
from .reduction import Reduction

__all__ = ['PositiveCoxeterPair', 'PCT', 'count_positive_roots',
           'very_special_subsets']


@dataclass(frozen=True)
class PositiveCoxeterPair:
    """A pair (x, v) with v length positive for x and c = v^{-1} sigma(wv)
    a sigma-Coxeter element of W_J, J = its sigma-support."""
    x: AffineElement
    v: int
    J: frozenset
    c: int
    c_word: tuple


class PCT:
    """Positive Coxeter computations bound to one extended affine Weyl
    group (with its reduction machinery).

    >>> from adlv.datum import builtin_datum
    >>> from adlv.affine import AffineWeyl, AffineElement
    >>> pct = PCT(AffineWeyl(builtin_datum('sl2')))
    >>> x = AffineElement(1, (1,))          # s_alpha eps^{alpha^vee}
    >>> [(p.v, sorted(p.J)) for p in pct.positive_coxeter_pairs(x)]
    [(0, [0])]
    >>> pct.has_finite_coxeter_part(x)
    True
    """

    def __init__(self, aw, reduction=None, qbg=None):
        self.aw = aw
        self.W = aw.W
        self.datum = aw.datum
        self.red = reduction if reduction is not None else Reduction(aw)
        self.bg = self.red.bg
        self.qbg = qbg if qbg is not None else QuantumBruhatGraph(self.W)
        self.gamma = self.bg.gamma

    # -- pairs ---------------------------------------------------------------

    def make_pair(self, x, v):
        """The positive Coxeter pair (x, v), or None when v does not
        qualify (not length positive, or c not sigma-Coxeter)."""
        if v not in self.aw.lp_set(x):
            return None
        c = self._coxeter_candidate(x.w, v)
        if not self.W.is_partial_sigma_coxeter(c):
            return None
        J = self.W.sigma_support(c)
        return PositiveCoxeterPair(x, v, J, c, self.W.words[c])

    def _coxeter_candidate(self, w, v):
        """c = v^{-1} sigma(w v)."""
        return self.W.mult(self.W.inv[v], self.W.sigma(self.W.mult(w, v)))

    def positive_coxeter_pairs(self, x):
        """All positive Coxeter pairs on x, in (length of v, word) order.

        The containments I_1 of the minimal class <= J <= I(nu of the
        minimal class) are asserted for every pair.
        """
        out = []
        for v in self.aw.lp_set(x):
            c = self._coxeter_candidate(x.w, v)
            if not self.W.is_partial_sigma_coxeter(c):
                continue
            pair = PositiveCoxeterPair(x, v, self.W.sigma_support(c), c,
                                       self.W.words[c])
            b_min = self.minimal_class(pair)
            i_nu, i_one = self.bg.strata_sets(b_min)
            if not (i_one <= pair.J <= i_nu):
                raise AssertionError('support violates I_1 <= J <= I(nu)')
            out.append(pair)
        return out

    def is_positive_coxeter(self, x):
        return any(self.make_pair(x, v) is not None
                   for v in self.aw.lp_set(x))

    def has_finite_coxeter_part(self, x):
        """Test the canonical finite part eta for being partial
        sigma-Coxeter (v the unique minimal element with v^{-1} mu
        dominant)."""
        return self.W.is_partial_sigma_coxeter(self.aw.eta_sigma(x))

    # -- transport along conjugation moves -----------------------------------

    def pct_transport(self, pair, aroot):
        """Transport a pair along conjugation by a simple affine root.

        Length-preserving move: returns ('keep', pair') where pair' is a
        pair on r_a x r_{sigma a} with the same support.  Down move:
        returns ('down', pair_I, pair_II, i) with the pair (r_a x, v) of
        smaller support, the pair (r_a x r_{sigma a}, s_{sigma alpha} v)
        of equal support, and the dropped simple index i (type I child
        support = J minus the sigma-orbit of alpha_i).
        """
        aw, W = self.aw, self.W
        x = pair.x
        both, kind, left = aw.simple_sigma_conjugate(x, aroot)
        idx, _ = aroot
        s_sigma_alpha = W.root_reflection[self.datum.sigma_root(idx)]
        if kind == 'up':
            raise ValueError('transport is defined for keep and down moves')
        if kind == 'keep':
            for v2 in (pair.v, W.mult(s_sigma_alpha, pair.v)):
                p2 = self.make_pair(both, v2)
                if p2 is not None and p2.J == pair.J:
                    return ('keep', p2)
            for v2 in aw.lp_set(both):
                p2 = self.make_pair(both, v2)
                if p2 is not None and p2.J == pair.J:
                    return ('keep', p2)
            raise AssertionError('length-preserving move lost the support')
        # down move
        pair_i = self.make_pair(left, pair.v)
        if pair_i is None:
            pair_i = next((p for p in self.positive_coxeter_pairs(left)
                           if p.J < pair.J), None)
        if pair_i is None or not (pair_i.J < pair.J):
            raise AssertionError('type I child is not a pair of smaller '
                                 'support')
        pair_ii = self.make_pair(both, W.mult(s_sigma_alpha, pair.v))
        if pair_ii is None or pair_ii.J != pair.J:
            for v2 in aw.lp_set(both):
                p2 = self.make_pair(both, v2)
                if p2 is not None and p2.J == pair.J:
                    pair_ii = p2
                    break
        if pair_ii is None or pair_ii.J != pair.J:
            raise AssertionError('type II child is not a pair of equal '
                                 'support')
        dropped = pair.J - pair_i.J
        if not dropped:
            raise AssertionError('no dropped orbit on a down move')
        i = min(dropped)
        return ('down', pair_i, pair_ii, i)

    # -- Newton extremes ------------------------------------------------------

    def minimal_class(self, pair):
        """The minimal class: nu = pi_J(v^{-1} mu), kappa = kappa(x)."""
        x, v = pair.x, pair.v
        vinv_mu = self.W.act(self.W.inv[v], x.mu)
        nu = self.datum.pi_projection(pair.J, vinv_mu)
        _, nu_dom = self.W.dominant_representative(nu)
        return self._bgclass(x, nu_dom)

    def _bgclass(self, x, nu_dom):
        from .bg import BGClass
        return BGClass(self.bg.kottwitz_point(x), tuple(nu_dom))

    def generic_lambda(self, pair):
        """lambda of the generic class: v^{-1} mu - wt(v => sigma(wv)),
        as a lattice vector."""
        x, v = pair.x, pair.v
        target = self.W.sigma(self.W.mult(x.w, v))
        _, wt = self.qbg.distance_weight(v, target)
        vinv_mu = self.W.act(self.W.inv[v], x.mu)
        return vec_sub(vinv_mu, self.qbg.weight_vector(wt))

    def generic_class(self, pair):
        """The generic (maximal) class of the pair, with its lambda lift.

        The lambda vector is asserted to be the lambda-invariant of the
        returned class.
        """
        lam = self.generic_lambda(pair)
        nu = self.datum.convex_hull_point(lam)
        b = self._bgclass(pair.x, nu)
        res, _ = self.bg.lambda_invariant(b)
        if res != self.gamma.project(lam):
            raise AssertionError('generic lambda is not the lambda-invariant '
                                 'of its class')
        return b, lam

    def min_and_generic_newton(self, pair):
        """(minimal class, (generic class, lambda lift))."""
        return self.minimal_class(pair), self.generic_class(pair)

    # -- the interval of classes ---------------------------------------------

    def membership_witness(self, pair, b):
        """Nonnegative coefficients k with lambda_max - lambda(b) =
        sum k_j alpha_j^vee (j in J) in the Galois coinvariants, or None.

        Residues are lifted to canonical representatives and the cone
        equation is solved in the ambient lattice, absorbing the
        coinvariant relations by signed twist generators.
        """
        lam_max = self.generic_lambda(pair)
        _, lam_b = self.bg.lambda_invariant(b)
        t = vec_sub(self.gamma.lift(self.gamma.project(lam_max)),
                    self.gamma.lift(self.gamma.project(lam_b)))
        js = sorted(pair.J)
        gens = [self.datum.simple_coroots[j] for j in js]
        twists = [r for r in self.datum.twist_relations() if any(r)]
        if not twists:
            sol = solve_in_cone(gens, t,
                                positive_functional=self.datum.two_rho)
            return None if sol is None else dict(zip(js, sol))
        all_gens = gens + twists + [vec_scale(-1, v) for v in twists]
        budget = max(10, sum(abs(c) for c in t),
                     self.aw.aff_length(pair.x))
        sol = solve_in_cone(all_gens, t, bound=budget)
        return None if sol is None else dict(zip(js, sol[:len(js)]))

    def bgx_interval(self, pair):
        """All classes of the pair's interval, generated downward from the
        generic lambda by subtracting J-coroots within the length budget,
        each candidate validated as a genuine lambda-invariant above the
        minimal class.  Sorted by (nu via dominance-compatible key)."""
        d = self.datum
        b_min = self.minimal_class(pair)
        b_max, lam_max = self.generic_class(pair)
        budget = self.aw.aff_length(pair.x) - int(self.bg.pair_two_rho(
            b_min.nu))
        js = sorted(pair.J)
        weights = [vec_dot(d.two_rho, d.simple_coroots[j]) for j in js]
        found = {}
        for ks in _budget_tuples(weights, budget):
            lam = lam_max
            for k, j in zip(ks, js):
                lam = vec_sub(lam, vec_scale(k, d.simple_coroots[j]))
            nu = d.convex_hull_point(lam)
            b = self._bgclass(pair.x, nu)
            if b in found:
                continue
            try:
                res, _ = self.bg.lambda_invariant(b)
            except (ValueError, AssertionError):
                continue
            if res != self.gamma.project(lam):
                continue
            if not self.bg.bg_leq(b_min, b):
                continue
            found[b] = dict(zip(js, ks))
        if b_min not in found or b_max not in found:
            raise AssertionError('interval misses an extreme class')
        return found

    # -- the full report -------------------------------------------------------

    def orbit_count(self, subset):
        return len(self.datum.sigma_orbits(frozenset(subset)))

    def class_data(self, pair, b, witness=None):
        """Exact per-class data: path counts l_I, l_II, the endpoint
        support J(b) and its length, and the dimension."""
        d = self.datum
        i_nu, i_one = self.bg.strata_sets(b)
        l_i = self.orbit_count(pair.J - i_nu)
        _, lam_max = self.generic_class(pair)
        _, lam_b = self.bg.lambda_invariant(b)
        doubled = vec_dot(d.two_rho, vec_sub(lam_max, lam_b))
        if doubled % 2:
            raise AssertionError('l_II is not an integer')
        l_ii = doubled // 2
        jb = frozenset(pair.J & i_nu)
        two_rho_nu = int(self.bg.pair_two_rho(b.nu))
        end_length = two_rho_nu + self.orbit_count(jb - i_one)
        dim = l_i + l_ii + end_length - two_rho_nu
        return {'class': b, 'witness': witness, 'l_i': l_i, 'l_ii': l_ii,
                'endpoint_support': jb, 'endpoint_length': end_length,
                'dimension': dim}

    def thmA_report(self, x, cross_validate=True):
        """Full report for a positive Coxeter type x: the pairs, the
        interval of classes with membership witnesses, and per-class
        dimension and path-count data, cross-validated against the
        reduction tree."""
        pairs = self.positive_coxeter_pairs(x)
        if not pairs:
            raise ValueError('x is not of positive Coxeter type')
        pair = pairs[0]
        interval = self.bgx_interval(pair)
        b_min = self.minimal_class(pair)
        b_max, lam_max = self.generic_class(pair)
        classes = [self.class_data(pair, b, witness)
                   for b, witness in sorted(interval.items())]
        report = {'x': x, 'pair': pair, 'pairs': pairs, 'b_min': b_min,
                  'b_max': b_max, 'lambda_max': lam_max, 'classes': classes}
        if cross_validate:
            self._validate_against_tree(report)
        return report

    def _validate_against_tree(self, report):
        """The interval, path statistics and class polynomials must agree
        with the reduction tree."""
        from .reduction import POLY_ONE, POLY_Q, POLY_Q_MINUS_ONE, poly_mul
        x = report['x']
        tree = self.red.build_reduction_tree(x)
        tree_data = self.red.bgx_from_tree(x, tree)
        if set(tree_data) != {c['class'] for c in report['classes']}:
            raise AssertionError('interval differs from tree endpoint '
                                 'classes')
        for cd in report['classes']:
            entry = tree_data[cd['class']]
            if len(entry['paths']) != 1:
                raise AssertionError('path to a class is not unique')
            ni, nii, end_len, dim = entry['paths'][0]
            if (ni, nii, end_len) != (cd['l_i'], cd['l_ii'],
                                      cd['endpoint_length']):
                raise AssertionError('path statistics differ from formulas')
            if dim != cd['dimension']:
                raise AssertionError('dimension statistic mismatch')
            expected = POLY_ONE
            for _ in range(cd['l_i']):
                expected = poly_mul(expected, POLY_Q_MINUS_ONE)
            for _ in range(cd['l_ii']):
                expected = poly_mul(expected, POLY_Q)
            if entry['polynomial'] != expected:
                raise AssertionError('class polynomial is not '
                                     'q^l_II (q-1)^l_I')

    # -- J-points and point spaces --------------------------------------------

    def _act_word_coroot(self, word, coroot):
        out = coroot
        for i in reversed(word):
            out = self.W.act(self.W.simple[i], out)
        return out

    def coinvariants(self, elem):
        """Coinvariants of sigma composed with a finite Weyl element."""
        d = self.datum
        return QuotientPresentation(d.dim,
                                    d.twist_relations(self.W.mats[elem]))

    def point_space(self, c, j_prime):
        """X(c, J'): coinvariants of sigma c^{(J')} modulo the rotated
        coroots attached to the deleted letters of the fixed reduced word
        of c."""
        d, W = self.datum, self.W
        j_prime = frozenset(j_prime)
        if not d.is_sigma_stable(j_prime):
            raise ValueError("J' must be sigma stable")
        word = W.words[c]
        kept_positions = [p for p, i in enumerate(word) if i in j_prime]
        trunc = W.from_word([word[p] for p in kept_positions])
        rels = d.twist_relations(W.mats[trunc])
        last_kept = kept_positions[-1] if kept_positions else -1
        for p, i in enumerate(word):
            if i in j_prime:
                continue
            coroot = d.simple_coroots[i]
            if p > last_kept:
                rels.append(d.sigma_vec(W.act(c, coroot)))
            else:
                prefix = [word[q] for q in kept_positions if q < p]
                rels.append(d.sigma_vec(
                    self._act_word_coroot(prefix, coroot)))
        return QuotientPresentation(d.dim, rels)

    def j_point_space(self, pair):
        """X(J) presented through the pair's Coxeter element: coinvariants
        of sigma c."""
        return self.coinvariants(pair.c)

    def j_point_vector(self, pair):
        """sigma(v^{-1} mu), the ambient representative of the J-point."""
        return self.datum.sigma_vec(
            self.W.act(self.W.inv[pair.v], pair.x.mu))

    def j_point_image(self, pair, j_prime):
        """Residue of the J-point in X(c, J')."""
        return self.point_space(pair.c, j_prime).project(
            self.j_point_vector(pair))

    # -- truncation -----------------------------------------------------------

    def reduced_words(self, e):
        """All reduced words of a finite Weyl element."""
        if e == 0:
            return [()]
        out = []
        for i in self.W.descents_right(e):
            for w in self.reduced_words(self.W.right[e][i]):
                out.append(w + (i,))
        return out

    def j_truncation(self, c, j_prime):
        """Order-preserving subword of c on the letters of J'.

        Well-definedness (independence of the reduced word) is asserted
        by recomputation on every reduced word when the length is at
        most 6.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl
        >>> pct = PCT(AffineWeyl(builtin_datum('sl4')))
        >>> c = pct.W.from_word([0, 1, 2])
        >>> pct.W.word(pct.j_truncation(c, frozenset({0, 2})))
        (0, 2)
        """
        j_prime = frozenset(j_prime)
        if not self.datum.is_sigma_stable(j_prime):
            raise ValueError("J' must be sigma stable")
        word = self.W.words[c]
        result = self.W.from_word([i for i in word if i in j_prime])
        if self.W.lengths[c] <= 6:
            for rw in self.reduced_words(c):
                other = self.W.from_word([i for i in rw if i in j_prime])
                if other != result:
                    raise AssertionError('truncation depends on the reduced '
                                         'word')
        return result

    # -- endpoint classes ------------------------------------------------------

    def endpoint_class(self, pair, b, validate=True):
        """Certificate for the class of the reduction-tree endpoint of b:
        (class key, c' = the J(b)-truncation, lambda).

        lambda solves the two congruences: lambda = lambda(b) modulo the
        J(b)-coroots and the coinvariant relations, and lambda =
        sigma(v^{-1} mu) modulo the relations of X(c, J(b)).  The key of
        c' eps^lambda must equal the key of the actual tree leaf.
        """
        d = self.datum
        i_nu, _ = self.bg.strata_sets(b)
        jb = frozenset(pair.J & i_nu)
        c_prime = self.j_truncation(pair.c, jb)
        _, lam_b = self.bg.lambda_invariant(b)
        s = self.j_point_vector(pair)
        lattice_one = [d.simple_coroots[j] for j in sorted(jb)] \
            + [r for r in d.twist_relations() if any(r)]
        lattice_two = [r for r in self.point_space(pair.c, jb).relations
                       if any(r)]
        gens = lattice_one + lattice_two
        sol = solve_integer_combination(gens, vec_sub(s, lam_b))
        if sol is None:
            raise ValueError('endpoint congruence system is infeasible')
        lam = lam_b
        for coeff, g in zip(sol[:len(lattice_one)], lattice_one):
            lam = vec_add(lam, vec_scale(coeff, g))
        endpoint = AffineElement(c_prime, lam)
        key = self.red.class_key(endpoint)
        if validate:
            tree = self.red.build_reduction_tree(pair.x)
            leaf_keys = {self.red.class_key(leaf.x)
                         for leaf in tree.leaves()
                         if self.bg.element_class(leaf.x) == b}
            if leaf_keys != {key}:
                raise AssertionError('endpoint certificate differs from the '
                                     'tree leaf class')
        return {'key': key, 'c_prime': c_prime, 'lambda': lam,
                'endpoint': endpoint, 'support': jb}

    # -- converse characterization ---------------------------------------------

    def pct_characterize(self, x):
        """(flag, v): x is of positive Coxeter type iff (i) its finite part
        is sigma-conjugate in W to a partial sigma-Coxeter element and
        (ii) the dimension of the all-type-II reduction path matches
        (l(x) + l(v^{-1} sigma(wv)) - <nu, 2rho> - defect)/2 for some
        length positive v."""
        if not self.W.sigma_conjugate_to_partial_coxeter(x.w):
            return False, None
        x_min, moves = self.red.descend_to_minimal(x)
        b = self.bg.element_class(x)
        two_rho_nu = self.bg.pair_two_rho(b.nu)
        dim_path = len(moves) + self.aw.aff_length(x_min) - two_rho_nu
        defect = self.bg.defect(b)
        lx = self.aw.aff_length(x)
        for v in self.aw.lp_set(x):
            c = self._coxeter_candidate(x.w, v)
            target = Fraction(lx + self.W.lengths[c] - two_rho_nu - defect, 2)
            if dim_path == target:
                return True, v
        return False, None

    def min_length_pct(self, x):
        """For a minimal-length x: positive Coxeter type iff the finite
        part is sigma-conjugate in W to a partial sigma-Coxeter element.
        Both sides are computed independently and compared."""
        if not self.red.is_minimal(x):
            raise ValueError('x is not of minimal length in its class')
        finite_side = self.W.sigma_conjugate_to_partial_coxeter(x.w)
        pct_side = self.is_positive_coxeter(x)
        if finite_side != pct_side:
            raise AssertionError('minimal-length criterion mismatch: '
                                 'finite %r vs pairs %r'
                                 % (finite_side, pct_side))
        return pct_side

    def large_support_check(self, pair):
        """When J contains no sigma-component of I(nu of the minimal
        class), x must be of minimal length; the minimality is asserted
        and True returned.  Otherwise False (no claim)."""
        b_min = self.minimal_class(pair)
        i_nu, _ = self.bg.strata_sets(b_min)
        d = self.datum
        hypothesis = all(not comp <= pair.J for comp in diagram_components(
            d.cartan, i_nu, d.sigma_perm))
        if not hypothesis:
            return False
        if not self.red.is_minimal(pair.x):
            raise AssertionError('large support hypothesis holds but x is '
                                 'not minimal')
        return True

    # -- very special parahoric data ----------------------------------------------

    def _component_affine_roots(self, subset):
        """Affine simple roots of the Levi of the subset: (root, 0) for
        each simple index plus (-theta, 1) per component of the
        sub-root-system."""
        d = self.datum
        out = [(d.simple_indices[j], 0) for j in sorted(subset)]
        for comp in diagram_components(d.cartan, subset):
            best = None
            for idx in range(d.num_positive):
                coords = d.roots[idx].coords
                if all(c == 0 or j in comp
                       for j, c in enumerate(coords)) and any(coords):
                    h = sum(coords)
                    if best is None or h > best[0]:
                        best = (h, idx)
            out.append((d.negative(best[1]), 1))
        return out

    def very_special_data(self, pair, b):
        """(tau, K, c_K) for the endpoint class of b.

        tau is a length-zero element of the Levi extended affine Weyl
        group over J(b) with matching Kottwitz point and Newton point; K
        is the canonical very special subset of the Levi affine diagram
        under the twist by conjugation with tau composed with sigma; c_K
        is the twisted Coxeter witness with endpoint = c_K tau when the
        endpoint decomposes, else None.
        """
        aw, d, W = self.aw, self.datum, self.W
        ep = self.endpoint_class(pair, b, validate=False)
        jb = ep['support']
        tau = self._find_levi_tau(jb, b, ep['lambda'])
        aroots = self._component_affine_roots(jb)
        perm = self._tau_sigma_perm(tau, aroots)
        cartan = [[vec_dot(d.roots[a[0]].covec, d.roots[bb[0]].coroot)
                   for bb in aroots] for a in aroots]
        subsets, _ = very_special_subsets(cartan, perm)
        k_nodes = subsets[0]
        k_aroots = [aroots[i] for i in sorted(k_nodes)]
        c_k = self._coxeter_witness(ep['endpoint'], tau, k_aroots, perm,
                                    [i for i in sorted(k_nodes)], aroots)
        return {'tau': tau, 'K': tuple(k_aroots), 'K_nodes': k_nodes,
                'c_K': c_k, 'endpoint': ep}

    def _find_levi_tau(self, jb, b, lam):
        """Length-zero element of the Levi group over jb with the Kottwitz
        point of b whose Newton point is nu(b)."""
        aw, d, W = self.aw, self.datum, self.W
        js = sorted(jb)
        shifts = itertools.product(range(-2, 3), repeat=len(js))
        for ks in shifts:
            mu = lam
            for k, j in zip(ks, js):
                mu = vec_add(mu, vec_scale(k, d.simple_coroots[j]))
            if self.bg.kottwitz.project(mu) != b.kappa:
                continue
            for w in W.parabolic(tuple(js)):
                t = AffineElement(w, mu)
                if aw.aff_length(t, subset=jb) != 0:
                    continue
                nu_raw, nu_dom = self.bg.newton_of_element(t)
                if tuple(nu_dom) != tuple(Fraction(c) for c in b.nu):
                    continue
                if any(vec_dot(d.simple_roots[j], nu_raw) != 0 for j in js):
                    continue
                return t
        raise ValueError('no length-zero Levi element matches the class')

    def _tau_sigma_perm(self, tau, aroots):
        """Permutation of the Levi affine simple roots by conjugation with
        tau after sigma."""
        aw = self.aw
        perm = []
        for a in aroots:
            image = aw.act_affine_root(tau, aw.sigma_affine_root(a))
            if image not in aroots:
                raise AssertionError('twist does not permute the Levi '
                                     'affine diagram')
            perm.append(aroots.index(image))
        return perm

    def _coxeter_witness(self, endpoint, tau, k_aroots, perm, k_nodes,
                         aroots):
        """Word of twisted-Coxeter reflections with endpoint = product of
        the reflections times tau, or None."""
        aw = self.aw
        u = aw.mult(endpoint, aw.inverse(tau))
        orbits = []
        for i in k_nodes:
            if not any(i in orb for orb in orbits):
                orbits.append(perm_orbit(perm, i))
        for reps in itertools.product(*orbits):
            for order in itertools.permutations(reps):
                prod = AffineElement(0, (0,) * self.datum.dim)
                for i in order:
                    prod = aw.mult(prod, aw.reflection(aroots[i]))
                if prod == u:
                    return tuple(aroots[i] for i in order)
        return None


def _budget_tuples(weights, budget):
    """All nonnegative integer tuples k with sum k_i * weights_i <= budget."""
    if not weights:
        yield ()
        return
    w = weights[0]
    for k in range(budget // w + 1):
        for rest in _budget_tuples(weights[1:], budget - k * w):
            yield (k,) + rest


def count_positive_roots(cartan):
    """Number of positive roots of the finite root system with this Cartan
    matrix, by reflection closure over simple-root coordinates.

    >>> count_positive_roots([[2, -1], [-1, 2]])     # A2
    3
    >>> count_positive_roots([[2, -2], [-1, 2]])     # C2
    4
    """
    n = len(cartan)
    simple = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                pairing = sum(r[j] * cartan[j][i] for j in range(n))
                s = tuple(r[j] - (pairing if j == i else 0)
                          for j in range(n))
                if s not in roots:
                    roots.add(s)
                    nxt.append(s)
        frontier = nxt
        if len(roots) > 2400:
            raise ValueError('root system is not finite (or too large)')
    positive = [r for r in roots if all(c >= 0 for c in r)]
    if 2 * len(positive) != len(roots):
        raise AssertionError('root count parity failure')
    return len(positive)


def very_special_subsets(affine_cartan, perm):
    """(maximizers, max count): the twist-stable spherical proper subsets
    of an affine diagram maximizing the number of positive roots.

    ``affine_cartan`` is the generalized Cartan matrix of a disjoint
    union of affine diagrams; ``perm`` a diagram automorphism.  A subset
    is spherical when it omits at least one node of every affine
    component.  Maximizers are sorted; the first one is canonical.
    """
    n = len(affine_cartan)
    components = diagram_components(affine_cartan)
    best, winners = -1, []
    for bits in itertools.product((0, 1), repeat=n):
        k = frozenset(i for i in range(n) if bits[i])
        if any(comp <= k for comp in components):
            continue
        if any(perm[i] not in k for i in k):
            continue
        total = sum(count_positive_roots(
            [[affine_cartan[i][j] for j in sorted(comp)]
             for i in sorted(comp)])
            for comp in diagram_components(affine_cartan, k))
        if total > best:
            best, winners = total, [k]
        elif total == best:
            winners.append(k)
    winners.sort(key=lambda s: tuple(sorted(s)))
    return winners, best
