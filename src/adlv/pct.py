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
from typing import NamedTuple

from .affine import AffineElement
from .bg import BGClass
from .datum import (InvariantError, diagram_components, perm_orbit,
                    root_closure)
from .lattice import (QuotientPresentation, _column_snf, _snf_solve,
                      mat_identity, vec_add, vec_dot, vec_scale, vec_sub)
from .qbg import QuantumBruhatGraph
from .reduction import Reduction

__all__ = ['PositiveCoxeterPair', 'PCT', 'count_positive_roots',
           'very_special_subsets']


class PositiveCoxeterPair(NamedTuple):
    """A pair (x, v) with v length positive for x and c = v^{-1} sigma(wv)
    a sigma-Coxeter element of W_J, J = its sigma-support, with its
    minimal class b_min: nu = pi_J(v^{-1} mu) made dominant, kappa =
    kappa(x).  Formed by PCT._pair alone."""
    x: AffineElement
    v: int
    J: frozenset
    c: int
    c_word: tuple
    b_min: BGClass


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
        # (c, J(b)) -> the first endpoint lattice and the Smith form of
        # both endpoint lattices' generators
        self._endpoint_snf = {}
        self._pairs = {}    # x -> its positive Coxeter pairs

    # -- pairs ---------------------------------------------------------------

    def make_pair(self, x, v):
        """The positive Coxeter pair (x, v), or None when v does not
        qualify (not length positive, or c not sigma-Coxeter)."""
        if v not in self.aw.lp_set(x):
            return None
        return self._pair(x, v)

    def _pair(self, x, v):
        """The pair (x, v) for a v already known to be length positive,
        or None when c is not sigma-Coxeter.  Every pair is formed here,
        where I_1 <= J <= I(nu) of its minimal class is checked.

        The minimal class has nu = pi_J(v^{-1} mu), taken as integer
        numerators over one denominator (RootDatum.pi_numerators); the
        dominant representative is found on the numerators, which are the
        numerators of nu: the descent is linear and reads only signs of
        pairings, which a positive denominator keeps.

        >>> from adlv.context import Context
        >>> ctx = Context('gl3')
        >>> x = ctx.aw.mult(AffineElement(0, (1, 0, 0)),
        ...                 ctx.aw.from_weyl(ctx.W.simple[0]))
        >>> ctx.pct.positive_coxeter_pairs(x)[0].b_min.nu
        (Fraction(1, 2), Fraction(1, 2), Fraction(0, 1))
        """
        W = self.W
        c = self._coxeter_candidate(x.w, v)
        if not W.is_partial_sigma_coxeter(c):
            return None
        J = W.sigma_support(c)
        den, nums = self.datum.pi_numerators(J, W.act(W.inv[v], x.mu))
        _, lam = W.dominant_representative(nums)
        b_min = BGClass(self.bg.kottwitz_point(x), den, lam)
        i_nu, i_one = self.bg.strata_sets(b_min)
        if not (i_one <= J <= i_nu):
            raise InvariantError(
                self.datum.name, 'the pair with v = %s: support J = %s '
                'violates I_1 <= J <= I(nu)'
                % ([i + 1 for i in W.words[v]], sorted(i + 1 for i in J)),
                self.aw.element_to_dict(x))
        return PositiveCoxeterPair(x, v, J, c, W.words[c], b_min)

    def _coxeter_candidate(self, w, v):
        """c = v^{-1} sigma(w v)."""
        return self.W.mult(self.W.inv[v], self.W.sigma(self.W.mult(w, v)))

    def positive_coxeter_pairs(self, x):
        """All positive Coxeter pairs on x, in (length of v, word) order.
        They are formed once per element per ``PCT`` and kept, and
        :meth:`is_positive_coxeter` reads the same record; a pair whose
        check raises leaves nothing kept.  Each call returns a new list.
        """
        pairs = self._pairs.get(x)
        if pairs is None:
            found = (self._pair(x, v) for v in self.aw.lp_set(x))
            pairs = self._pairs[x] = tuple(p for p in found if p is not None)
        return list(pairs)

    def is_positive_coxeter(self, x):
        return bool(self.positive_coxeter_pairs(x))

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
            raise ValueError('transport is defined for keep and down moves, '
                             'not up: the affine root %s moves x = %s up'
                             % (aroot, aw.format_element(x)))
        if kind == 'keep':
            p2 = self._pair_with_support(
                both, pair.J, (pair.v, W.mult(s_sigma_alpha, pair.v)))
            if p2 is not None:
                return ('keep', p2)
            problem = 'length-preserving move lost the support'
        else:
            pair_i = self.make_pair(left, pair.v)
            if pair_i is None:
                pair_i = next((p for p in self.positive_coxeter_pairs(left)
                               if p.J < pair.J), None)
            pair_ii = self._pair_with_support(
                both, pair.J, (W.mult(s_sigma_alpha, pair.v),))
            if pair_i is None or not (pair_i.J < pair.J):
                problem = 'type I child is not a pair of smaller support'
            elif pair_ii is None:
                problem = 'type II child is not a pair of equal support'
            else:
                # pair_i.J < pair.J, so some orbit is dropped
                return ('down', pair_i, pair_ii, min(pair.J - pair_i.J))
        raise InvariantError(
            self.datum.name, 'transport along the affine root %s: %s'
            % (aroot, problem), aw.element_to_dict(x))

    def _pair_with_support(self, y, J, candidates):
        """The first pair on y with support J, or None: the lemma's
        candidates v first, then LP(y) in order, LP(y) computed once."""
        lp = self.aw.lp_set(y)
        for v in itertools.chain([v for v in candidates if v in lp], lp):
            p = self._pair(y, v)
            if p is not None and p.J == J:
                return p
        return None

    # -- Newton extremes ------------------------------------------------------

    def generic_lambda(self, pair):
        """lambda of the generic class: v^{-1} mu - wt(v => sigma(wv)),
        as a lattice vector.

        sigma(wv) = v c, so the weight is that of the walk from v along
        the word of c (QuantumBruhatGraph.coxeter_path), which forms no
        QBG edge."""
        x, v = pair.x, pair.v
        _, wt = self.qbg.coxeter_path(v, pair.c_word)
        vinv_mu = self.W.act(self.W.inv[v], x.mu)
        return vec_sub(vinv_mu, self.qbg.weight_vector(wt))

    def generic_class(self, pair):
        """The generic (maximal) class of the pair, with its lambda lift.

        The lambda vector is asserted to be the lambda-invariant of the
        returned class.
        """
        lam = self.generic_lambda(pair)
        b = BGClass(pair.b_min.kappa, *self.datum.hull_numerators(lam))
        res, _ = self.bg.lambda_invariant(b)
        if res != self.gamma.project(lam):
            raise InvariantError(
                self.datum.name, 'generic lambda is not the lambda-invariant '
                'of its class', self.aw.element_to_dict(pair.x))
        return b, lam

    # -- the interval of classes ---------------------------------------------

    def membership_witness(self, pair, b):
        """Nonnegative coefficients k with lambda_max - lambda(b) =
        sum k_j alpha_j^vee (j in J) in the Galois coinvariants, read off
        :meth:`bgx_interval`; None means b is not in the interval."""
        return self.bgx_interval(pair).get(b)

    def bgx_interval(self, pair):
        """All classes of the pair's interval, generated downward from the
        generic lambda by subtracting J-coroots within the length budget,
        each candidate validated as a genuine lambda-invariant above the
        minimal class.

        Maps each class b to its membership witness: the lexicographically
        first k >= 0 with lambda_max - sum k_j alpha_j^vee = lambda(b)
        modulo (sigma - 1) X.  <2 rho, .> vanishes on (sigma - 1) X, so
        every such k has sum k_j <2 rho, alpha_j^vee> = <2 rho,
        lambda_max - lambda(b)>."""
        return self._interval(pair, *self.generic_class(pair))

    def _interval(self, pair, b_max, lam_max):
        """:meth:`bgx_interval` up to a generic class already formed, with
        its lambda lift."""
        d, b_min = self.datum, pair.b_min
        budget = self.aw.aff_length(pair.x) - self.bg.two_rho_nu(b_min)
        js = sorted(pair.J)
        weights = [vec_dot(d.two_rho, d.simple_coroots[j]) for j in js]
        found = {}
        for ks in _budget_tuples(weights, budget):
            lam = lam_max
            for k, j in zip(ks, js):
                lam = vec_sub(lam, vec_scale(k, d.simple_coroots[j]))
            b = BGClass(b_min.kappa, *d.hull_numerators(lam))
            if b in found:
                continue
            res, _ = self.bg.lambda_invariant(b)
            if res != self.gamma.project(lam):
                continue
            if not self.bg.bg_leq(b_min, b):
                continue
            found[b] = dict(zip(js, ks))
        if b_min not in found or b_max not in found:
            raise InvariantError(self.datum.name, 'interval misses an extreme '
                                 'class', self.aw.element_to_dict(pair.x))
        return found

    # -- the full report -------------------------------------------------------

    def orbit_count(self, subset):
        return len(self.datum.sigma_orbits(frozenset(subset)))

    def class_data(self, pair, b, witness, lam_max):
        """Exact per-class data: path counts l_I, l_II, the endpoint
        support J(b) and its length, and the dimension; lam_max is the
        generic lambda of the pair (see :meth:`generic_class`)."""
        d = self.datum
        i_nu, i_one = self.bg.strata_sets(b)
        l_i = self.orbit_count(pair.J - i_nu)
        _, lam_b = self.bg.lambda_invariant(b)
        doubled = vec_dot(d.two_rho, vec_sub(lam_max, lam_b))
        if doubled % 2:
            raise InvariantError(self.datum.name, 'l_II is not an integer',
                                 self.aw.element_to_dict(pair.x))
        l_ii = doubled // 2
        jb = frozenset(pair.J & i_nu)
        two_rho_nu = self.bg.two_rho_nu(b)
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
        b_max, lam_max = self.generic_class(pair)
        interval = self._interval(pair, b_max, lam_max)
        classes = [self.class_data(pair, b, witness, lam_max)
                   for b, witness in sorted(interval.items())]
        report = {'x': x, 'pair': pair, 'pairs': pairs, 'b_min': pair.b_min,
                  'b_max': b_max, 'lambda_max': lam_max, 'classes': classes}
        problem = cross_validate and self._tree_disagreement(x, classes)
        if problem:
            raise InvariantError(self.datum.name, problem,
                                 self.aw.element_to_dict(x))
        return report

    def _tree_disagreement(self, x, classes):
        """The first way the interval or path statistics of the per-class
        data disagree with the reduction tree of x.  A class with one
        path whose (l_I, l_II, end length) match has the tree's dimension,
        the same sum, and the tree's polynomial, that path's monomial
        (q-1)^l_I q^l_II."""
        tree_data = self.red.bgx_from_tree(x)
        if set(tree_data) != {c['class'] for c in classes}:
            return 'interval differs from tree endpoint classes'
        for cd in classes:
            entry = tree_data[cd['class']]
            if len(entry['paths']) != 1:
                return 'path to a class is not unique'
            if entry['paths'][0][:3] != (cd['l_i'], cd['l_ii'],
                                         cd['endpoint_length']):
                return 'path statistics differ from formulas'
        return None

    # -- J-points and point spaces --------------------------------------------

    def point_space(self, c, j_prime):
        """X(c, J'): coinvariants of sigma c^{(J')} modulo the rotated
        coroots attached to the deleted letters of the fixed reduced word
        of c."""
        return QuotientPresentation(self.datum.dim,
                                    self._point_relations(c, j_prime))

    def _point_relations(self, c, j_prime):
        """The relations of X(c, J'), in order: the twist relations of
        sigma c^{(J')}, then one rotated coroot per deleted letter."""
        d, W = self.datum, self.W
        j_prime = frozenset(j_prime)
        if not d.is_sigma_stable(j_prime):
            raise ValueError("J' must be sigma stable")
        word = W.words[c]
        kept_positions = [p for p, i in enumerate(word) if i in j_prime]
        trunc = W.from_word([word[p] for p in kept_positions])
        rels = d.twist_relations([W.act(trunc, e)
                                  for e in mat_identity(d.dim)])
        last_kept = kept_positions[-1] if kept_positions else -1
        for p, i in enumerate(word):
            if i in j_prime:
                continue
            coroot = d.simple_coroots[i]
            if p > last_kept:
                rels.append(d.sigma_vec(W.act(c, coroot)))
            else:
                prefix = [word[q] for q in kept_positions if q < p]
                rels.append(d.sigma_vec(W.act(W.from_word(prefix), coroot)))
        return rels

    def j_point_vector(self, pair):
        """sigma(v^{-1} mu), the ambient representative of the J-point."""
        return self.datum.sigma_vec(
            self.W.act(self.W.inv[pair.v], pair.x.mu))

    def j_point_image(self, pair, j_prime):
        """Residue of the J-point in X(c, J')."""
        return self.point_space(pair.c, j_prime).project(
            self.j_point_vector(pair))

    # -- truncation -----------------------------------------------------------

    def j_truncation(self, c, j_prime):
        """Order-preserving subword of a partial sigma-Coxeter c on the
        letters of J'.

        The result does not depend on the reduced word of c.  The letters
        of c are distinct, so its reduced words differ only by
        commutations st = ts of commuting letters (Matsumoto-Tits, see
        WeylGroup.is_partial_sigma_coxeter).  Deleting the letters
        outside J' turns such a commutation into a commutation of the
        truncated words, when both letters are kept, or into no move.  So
        the truncations of any two reduced words of c differ only by
        commutations, and their products are equal.

        >>> from adlv.datum import builtin_datum
        >>> from adlv.affine import AffineWeyl
        >>> pct = PCT(AffineWeyl(builtin_datum('sl4')))
        >>> c = pct.W.from_word([0, 1, 2])
        >>> pct.W.words[pct.j_truncation(c, frozenset({0, 2}))]
        (0, 2)
        """
        j_prime = frozenset(j_prime)
        if not self.datum.is_sigma_stable(j_prime):
            raise ValueError("J' must be sigma stable")
        if not self.W.is_partial_sigma_coxeter(c):
            raise ValueError('c must be partial sigma-Coxeter')
        return self.W.from_word([i for i in self.W.words[c] if i in j_prime])

    # -- endpoint classes ------------------------------------------------------

    def endpoint_class(self, pair, b, validate=True):
        """Certificate for the class of the reduction-tree endpoint of b:
        (class key, c' = the J(b)-truncation, lambda).

        lambda solves the two congruences: lambda = lambda(b) modulo the
        J(b)-coroots and the coinvariant relations, and lambda =
        sigma(v^{-1} mu) modulo the relations of X(c, J(b)).  The key of
        c' eps^lambda must equal the key of the actual tree leaf of class
        b: the leaves are filtered by their class
        (BGInvariants.element_class), and only those of class b are keyed
        and compared by interned key id.  The leaves come from the kept
        seed-None path record of ``Reduction.leaf_paths``, so a report's
        tree cross-check and the checks of all its endpoints walk the
        tree of x once.
        """
        i_nu, _ = self.bg.strata_sets(b)
        jb = frozenset(pair.J & i_nu)
        c_prime = self.j_truncation(pair.c, jb)
        _, lam_b = self.bg.lambda_invariant(b)
        s = self.j_point_vector(pair)
        lattice_one, snf = self._endpoint_lattices(pair.c, jb)
        sol = _snf_solve(snf, vec_sub(s, lam_b))
        if sol is None:
            raise InvariantError(
                self.datum.name, 'the endpoint congruence system is '
                'infeasible', self.aw.element_to_dict(pair.x), b)
        lam = lam_b
        for coeff, g in zip(sol[:len(lattice_one)], lattice_one):
            lam = vec_add(lam, vec_scale(coeff, g))
        endpoint = AffineElement(c_prime, lam)
        red = self.red
        key_id = red.class_id(endpoint)
        if validate:
            leaf_ids = {red.class_id(leaf)
                        for leaf, _, _ in red.leaf_paths(pair.x)
                        if self.bg.element_class(leaf) == b}
            if leaf_ids != {key_id}:
                raise InvariantError(
                    self.datum.name, 'endpoint certificate differs from the '
                    'tree leaf class', self.aw.element_to_dict(pair.x))
        return {'key': red.class_key(endpoint), 'c_prime': c_prime,
                'lambda': lam, 'endpoint': endpoint, 'support': jb}

    def _endpoint_lattices(self, c, jb):
        """(lattice one, Smith form of lattice one + lattice two) for the
        endpoint congruences of :meth:`endpoint_class`.  Both lattices
        depend on (c, J(b)) alone, so their Smith form is formed once."""
        key = (c, jb)
        if key not in self._endpoint_snf:
            d = self.datum
            lattice_one = [d.simple_coroots[j] for j in sorted(jb)] \
                + [r for r in self.gamma.relations if any(r)]
            lattice_two = [r for r in self._point_relations(c, jb) if any(r)]
            self._endpoint_snf[key] = (
                lattice_one, _column_snf(lattice_one + lattice_two, d.dim))
        return self._endpoint_snf[key]

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
        b = self.bg.element_class(x_min)
        two_rho_nu = self.bg.two_rho_nu(b)
        dim_path = len(moves) + self.aw.aff_length(x_min) - two_rho_nu
        defect = self.bg.defect(b)
        lx = self.aw.aff_length(x)
        for v in self.aw.lp_set(x):
            c = self._coxeter_candidate(x.w, v)
            if 2 * dim_path == lx + self.W.lengths[c] - two_rho_nu - defect:
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
            raise InvariantError(
                self.datum.name, 'minimal-length criterion mismatch: finite '
                '%r vs pairs %r' % (finite_side, pct_side),
                self.aw.element_to_dict(x))
        return pct_side

    def large_support_check(self, pair):
        """When J contains no sigma-component of I(nu of the minimal
        class), x must be of minimal length; the minimality is asserted
        and True returned.  Otherwise False (no claim)."""
        i_nu, _ = self.bg.strata_sets(pair.b_min)
        d = self.datum
        hypothesis = all(not comp <= pair.J for comp in diagram_components(
            d.cartan, i_nu, d.sigma_perm))
        if not hypothesis:
            return False
        if not self.red.is_minimal(pair.x):
            raise InvariantError(
                self.datum.name, 'large support hypothesis holds but x is not '
                'minimal', self.aw.element_to_dict(pair.x))
        return True

    # -- very special parahoric data ----------------------------------------------

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
        aroots = aw.levi_simple_affine(jb)
        perm = self._tau_sigma_perm(tau, aroots)
        cartan = [[vec_dot(d.roots[a[0]].covec, d.roots[bb[0]].coroot)
                   for bb in aroots] for a in aroots]
        subsets, _ = very_special_subsets(cartan, perm)
        k_nodes = subsets[0]
        k_aroots = [aroots[i] for i in sorted(k_nodes)]
        c_k = self._coxeter_witness(ep['endpoint'], tau, perm,
                                    sorted(k_nodes), aroots)
        return {'tau': tau, 'K': tuple(k_aroots), 'K_nodes': k_nodes,
                'c_K': c_k, 'endpoint': ep}

    def _find_levi_tau(self, jb, b, lam):
        """The length-zero element of the Levi group over jb in the coset
        eps^lam W_{a,J}, checked to have the Kottwitz point of b and a
        Newton point that is nu(b) and central in the Levi."""
        aw, d = self.aw, self.datum
        tau = aw.length_zero_part(aw.translation(lam),
                                  aw.levi_simple_affine(jb))
        nu_raw, nu_dom = self.bg.newton_of_element(tau)
        if self.bg.kottwitz_point(tau) != b.kappa:
            problem = 'Kottwitz point'
        elif nu_dom != b.nu:
            problem = 'Newton point'
        elif any(vec_dot(d.simple_roots[j], nu_raw) != 0 for j in jb):
            problem = 'non-central Newton point'
        else:
            return tau
        raise InvariantError(
            d.name, 'x, the Levi length-zero element over J = %s, has the '
            'wrong %s' % (sorted(j + 1 for j in jb), problem),
            aw.element_to_dict(tau), b)

    def _tau_sigma_perm(self, tau, aroots):
        """Permutation of the Levi affine simple roots by conjugation with
        tau after sigma."""
        aw = self.aw
        perm = []
        for a in aroots:
            image = aw.act_affine_root(tau, aw.sigma_affine_root(a))
            if image not in aroots:
                raise InvariantError(
                    self.datum.name, 'conjugation by x after sigma does not '
                    'permute the Levi affine diagram', aw.element_to_dict(tau))
            perm.append(aroots.index(image))
        return perm

    def _coxeter_witness(self, endpoint, tau, perm, k_nodes, aroots):
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
                prod = aw.identity
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
    matrix.

    >>> count_positive_roots([[2, -1], [-1, 2]])     # A2
    3
    >>> count_positive_roots([[2, -2], [-1, 2]])     # C2
    4
    """
    return sum(min(r) >= 0 for r in root_closure(cartan))


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
