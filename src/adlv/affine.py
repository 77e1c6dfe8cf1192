"""The extended affine Weyl group W x X, with lengths and LP sets.

An element x = w eps^mu is a pair of a finite Weyl group element (by
index) and an integer cocharacter.  Affine roots are pairs
(root_index, level); the positive ones are (alpha, k) with
k >= 1 when alpha < 0 and k >= 0 otherwise.  x acts on affine roots by
(w eps^mu)(alpha, k) = (w alpha, k - <mu, alpha>), and
r_{(alpha,k)} = s_alpha eps^{k alpha^vee}.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from operator import add, mul
from typing import NamedTuple

from .datum import InvariantError, _unique_keys, diagram_components
from .lattice import vec_add, vec_dot, vec_scale
from .weyl import WeylGroup

__all__ = ['AffineElement', 'AffineWeyl']


# kind of a move r_a x r_{sigma a}, by how many of its two sides lengthen
_KINDS = ('down', 'keep', 'up')


class AffineElement(NamedTuple):
    w: int
    mu: tuple


class AffineWeyl:
    """Arithmetic of the extended affine Weyl group of a root datum.

    >>> from adlv.datum import builtin_datum
    >>> aw = AffineWeyl(builtin_datum('sl2'))
    >>> x = aw.translation((1,))      # eps^{alpha^vee}
    >>> aw.aff_length(x)
    2
    >>> aw.aff_length(aw.mult(x, x))
    4
    """

    def __init__(self, datum, weyl=None):
        self.datum = datum
        self.W = weyl if weyl is not None else WeylGroup(datum)
        d = datum
        self.simple_affine = self.levi_simple_affine(range(d.rank))
        self.identity = AffineElement(0, (0,) * d.dim)
        self._positive_covecs = tuple(r.covec for r in d.positive_roots)
        # for each simple affine root (alpha, k): the index of sigma alpha
        # and the simple positions of alpha and sigma alpha (None for the
        # affine roots)
        pos = {r: i for i, r in enumerate(d.simple_indices)}
        self._conjugation = {a: (d.sigma_root(a[0]), pos.get(a[0]),
                                 pos.get(d.sigma_root(a[0])))
                             for a in self.simple_affine}

    # -- group law --------------------------------------------------------

    def translation(self, mu):
        return AffineElement(0, tuple(mu))

    def from_weyl(self, e):
        return AffineElement(e, (0,) * self.datum.dim)

    def mult(self, x, y):
        w = self.W.mult(x.w, y.w)
        mu = vec_add(self.W.act(self.W.inv[y.w], x.mu), y.mu)
        return AffineElement(w, mu)

    def inverse(self, x):
        return AffineElement(self.W.inv[x.w],
                             vec_scale(-1, self.W.act(x.w, x.mu)))

    def sigma(self, x):
        return AffineElement(self.W.sigma(x.w), self.datum.sigma_vec(x.mu))

    # -- affine roots -------------------------------------------------------

    def levi_simple_affine(self, subset):
        """The simple affine roots of the Levi of a set of simple indices:
        (alpha_j, 0) for each j in it, in order, then (-theta, 1) for the
        highest root theta of each Dynkin component of it.  All indices
        give ``simple_affine``.

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl4'))
        >>> aw.levi_simple_affine({0, 2})
        [(2, 0), (0, 0), (8, 1), (6, 1)]
        """
        d = self.datum
        out = [(d.simple_indices[j], 0) for j in sorted(subset)]
        for comp in diagram_components(d.cartan, subset):
            out.append((d.negative(d._highest_root(comp)), 1))
        return out

    def reflection(self, aroot):
        """r_a as an affine element, a = (root index, level)."""
        idx, k = aroot
        return AffineElement(self.W.root_reflection[idx],
                             vec_scale(k, self.datum.roots[idx].coroot))

    def sigma_affine_root(self, aroot):
        idx, k = aroot
        return (self.datum.sigma_root(idx), k)

    def act_affine_root(self, x, aroot):
        idx, k = aroot
        return (self.W.root_action[x.w][idx],
                k - vec_dot(self.datum.roots[idx].covec, x.mu))

    # -- length -------------------------------------------------------------

    def aff_length(self, x):
        """Affine length, by the Iwahori-Matsumoto formula

            ell(w eps^mu) = sum over alpha > 0 of |<mu, alpha> + [w alpha < 0]|.

        The affine roots (alpha, k) and (-alpha, k) with alpha > 0 are
        inverted by x for the levels 0 <= k < <mu, alpha> + [w alpha < 0]
        and 1 <= k <= -<mu, alpha> - [w alpha < 0] respectively, so at
        most one of the pair contributes, and it contributes the
        absolute value (Iwahori-Matsumoto, Publ. IHES 25, 1965).  The
        positive roots come first in the root list, so the first entries
        of the root action row of w are their images.

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl3'))
        >>> aw.aff_length(aw.translation((1, 1)))
        4
        >>> aw.aff_length(AffineElement(aw.W.from_word([0, 1]), (1, -1)))
        6
        """
        npos = self.datum.num_positive
        mu = x.mu
        return sum([abs(sum(map(mul, covec, mu)) + (image >= npos))
                    for covec, image in zip(self._positive_covecs,
                                            self.W.root_action[x.w])])

    def length_functional(self, x, root_idx):
        """ell(x, alpha) = -Phi+(w alpha) + <mu, alpha> + Phi+(alpha).

        It is odd: ell(x, -alpha) = -ell(x, alpha), as <mu, -alpha> =
        -<mu, alpha> and Phi+(-gamma) = 1 - Phi+(gamma) for every root
        gamma, here gamma = alpha and gamma = w alpha.
        """
        d = self.datum
        wa = self.W.root_action[x.w][root_idx]
        return (vec_dot(d.roots[root_idx].covec, x.mu)
                + (1 if d.is_positive_root(root_idx) else 0)
                - (1 if d.is_positive_root(wa) else 0))

    # -- LP sets ------------------------------------------------------------

    @cached_property
    def _chamber_masks(self):
        """(every, masks): masks[b] is the little-endian integer of |W|
        bytes whose byte v is 1 if the positive root b lies in v(Phi+),
        else 0; ``every`` has all |W| bytes 1.  b lies in v(Phi+) iff
        v^{-1}(b) > 0, that is iff byte b of ``W.root_action[W.inv[v]]``
        is below ``num_positive`` (the positive roots come first).  The
        rows are joined in index order of v, so mask b is one strided
        slice of the join and one byte translation."""
        W, npos = self.W, self.datum.num_positive
        joined = b''.join([W.root_action[u] for u in W.inv])
        positive = bytes(k < npos for k in range(256))
        stride = len(self.datum.roots)
        return (int.from_bytes(b'\x01' * W.size, 'little'),
                [int.from_bytes(joined[b::stride].translate(positive),
                                'little')
                 for b in range(npos)])

    def lp_set(self, x):
        """All v in W with ell(x, v alpha) >= 0 for every positive alpha,
        sorted by (length, word).

        v is in LP(x) iff v(Phi+) misses N(x) = {gamma : ell(x, gamma) <
        0}.  As ell(x, -beta) = -ell(x, beta), N(x) is read off the
        positive roots beta alone, by the term ell(x, beta) = <mu, beta>
        + [w beta < 0] of ``aff_length``.  Exactly one of +-beta lies in
        v(Phi+), so ell(x, beta) < 0 asks beta not in v(Phi+) and
        ell(x, beta) > 0 asks beta in v(Phi+).  The chamber table
        ``_chamber_masks`` holds, per positive root beta, the set of v
        with beta in v(Phi+) as one |W|-byte integer, so LP(x) is the AND
        of the masks with ell > 0, less the OR of those with ell < 0: a
        few big-integer operations per positive root and no Python loop
        over W.  The table is built at the first call: 0.06 ms and 12 KB
        on gl6 (|W| = 720, 15 positive roots), 13 ms and 2.0 MB on
        e6_adjoint (|W| = 51 840, 36 positive roots).

        The members are the positions of the 1 bytes, in index order;
        W indices already run in (length, least reduced word) order, so
        the list needs no sort.

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl2'))
        >>> aw.lp_set(AffineElement(0, (0,)))   # identity: all of W
        [0, 1]
        >>> aw = AffineWeyl(builtin_datum('sl3'))
        >>> aw.lp_set(aw.from_weyl(aw.W.simple[0]))
        [0, 2, 4]
        """
        lp, masks = self._chamber_masks
        npos, mu = self.datum.num_positive, x.mu
        neg = 0
        for covec, image, mask in zip(self._positive_covecs,
                                      self.W.root_action[x.w], masks):
            ell = sum(map(mul, covec, mu)) + (image >= npos)
            if ell > 0:
                lp &= mask
            elif ell < 0:
                neg |= mask
        lp &= ~neg
        if not lp:
            raise InvariantError(self.datum.name, 'the LP set is empty',
                                 self.element_to_dict(x))
        # the runs of 0s around the 1s: the k-th member has k members and
        # the first k + 1 runs before it
        runs = lp.to_bytes(self.W.size, 'little').split(b'\x01')
        return list(map(add, itertools.accumulate(map(len, runs)),
                        range(len(runs) - 1)))

    def lp_transport(self, x, aroot):
        """Compare LP(x) and LP(x r_a) for a simple affine root a.

        Returns (case, lp_x, lp_xr, transported) where case is the sign
        of ell(x, cl(a)) and transported maps each v in LP(x) to an
        element of LP(x r_a) following the case analysis:

        * ell > 0: s_alpha v works whenever |LP(x)| > 1 or directly;
        * ell < 0: s_alpha LP(x) = LP(x r_a) exactly;
        * ell = 0: s_alpha v if v^{-1} alpha < 0, else v itself.

        All containments are re-verified extensionally.
        """
        idx, _ = aroot
        ell = self.length_functional(x, idx)
        case = 0 if ell == 0 else (1 if ell > 0 else -1)
        lp_x = self.lp_set(x)
        lp_xr = self.lp_set(self.mult(x, self.reflection(aroot)))
        s_alpha = self.W.root_reflection[idx]
        transported = {}
        for v in lp_x:
            sv = self.W.mult(s_alpha, v)
            if case > 0:
                cand = sv if sv in lp_xr else None
            elif case < 0:
                cand = sv
            else:
                vinv_a = self.W.root_action[self.W.inv[v]][idx]
                cand = sv if not self.datum.is_positive_root(vinv_a) else v
            transported[v] = cand
        if set(transported.values()) - {None} - set(lp_xr):
            problem = 'target not length positive'
        elif case < 0 and set(transported.values()) != set(lp_xr):
            problem = 'case < 0 must give equality of LP sets'
        else:
            return case, lp_x, lp_xr, transported
        raise InvariantError(
            self.datum.name, 'transport along the affine root %s: %s'
            % (aroot, problem), self.element_to_dict(x))

    # -- sigma-conjugation moves ---------------------------------------------

    def simple_sigma_conjugate(self, x, aroot):
        """(r_a x r_{sigma a}, kind, r_a x) with kind 'keep', 'down' or 'up',
        for a simple affine root a.

        Both products come from the reflection formula, with no matrix
        action.  For x = w eps^mu, a = (alpha, k) and b = sigma a =
        (beta, k):

            r_a x = w' eps^{mu'},   w' = s_alpha w,
                                    mu' = mu + k (w^{-1} alpha)^vee;
            r_a x r_b = (w' s_beta) eps^{mu' + k' beta^vee},
                                    k' = k - <beta, mu'>.

        The Weyl parts are table steps for a finite simple root, s_alpha w
        = (w^{-1} s_alpha)^{-1} off ``W.inv`` and ``W.right`` and w' s_beta
        off ``W.right``, and a product with the reflection in the highest
        root for an affine one.  Each side changes the length by
        +-1, read off from a sign instead of a recount: ell(r_a x) -
        ell(x) = +1 iff x^{-1}(a) > 0, and ell(y r_b) - ell(y) = +1 iff
        y(b) > 0, for y = r_a x.  Both roots are already at hand:
        x^{-1}(a) = (w^{-1} alpha, k + <w^{-1} alpha, mu>) and y(b) =
        (w' beta, k'), where (gamma, l) > 0 iff l > 0, or l = 0 and
        gamma > 0.

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl2'))
        >>> a1, a0 = aw.simple_affine
        >>> aw.simple_sigma_conjugate(aw.from_weyl(1), a1)[1]
        'keep'
        >>> aw.simple_sigma_conjugate(AffineElement(1, (1,)), a1)[1]
        'down'
        >>> aw.simple_sigma_conjugate(aw.from_weyl(1), a0)[1]
        'up'

        On sl3, with a0 = (-theta, 1) and x = eps^{alpha_1^vee}: w = 1,
        so mu' = alpha_1^vee - theta^vee = -alpha_2^vee and w' = s_theta;
        then k' = 1 - <-theta, -alpha_2^vee> = 0, so r_a0 x r_a0 is the
        translation by s_theta(alpha_1^vee) = -alpha_2^vee:

        >>> aw = AffineWeyl(builtin_datum('sl3'))
        >>> a0 = aw.simple_affine[-1]
        >>> x = aw.translation((1, 0))
        >>> both, kind, left = aw.simple_sigma_conjugate(x, a0)
        >>> left == aw.mult(aw.reflection(a0), x), left.mu
        (True, (0, -1))
        >>> both, kind
        (AffineElement(w=0, mu=(0, -1)), 'keep')
        """
        W, roots, npos = self.W, self.datum.roots, self.datum.num_positive
        idx, k = aroot
        sidx, i, j = self._conjugation[aroot]
        w, mu = x
        winv = W.inv[w]
        # x^{-1}(a) = (back, k_back)
        back = W.root_action[winv][idx]
        k_back = k + sum(map(mul, roots[back].covec, mu))
        w1 = W.inv[W.right[winv][i]] if i is not None else W.mult(
            W.root_reflection[idx], w)
        if k:
            mu = tuple([m + k * c for m, c in zip(mu, roots[back].coroot)])
        left = AffineElement(w1, mu)
        # (r_a x)(sigma a) = (fwd, k_fwd)
        fwd = W.root_action[w1][sidx]
        k_fwd = k - sum(map(mul, roots[sidx].covec, mu))
        w2 = W.right[w1][j] if j is not None else W.mult(
            w1, W.root_reflection[sidx])
        if k_fwd:
            mu = tuple([m + k_fwd * c
                        for m, c in zip(mu, roots[sidx].coroot)])
        up = ((k_back > 0 or (k_back == 0 and back < npos))
              + (k_fwd > 0 or (k_fwd == 0 and fwd < npos)))
        return AffineElement(w2, mu), _KINDS[up], left

    # -- eta ---------------------------------------------------------------

    def eta_sigma(self, x):
        """sigma^{-1}(v)^{-1} w v, v minimal with v^{-1} mu dominant.

        sigma^n fixes X for n = ``datum.sigma_order``, so it fixes W, and
        sigma^{-1}(v) is sigma^{n-1}(v): n - 1 steps of ``W.sigma_elem``,
        none on untwisted data.
        """
        W = self.W
        v, _ = W.dominant_representative(x.mu)
        u = v
        for _ in range(self.datum.sigma_order - 1):
            u = W.sigma_elem[u]
        return W.mult(W.mult(W.inv[u], x.w), v)

    # -- length-zero elements --------------------------------------------------

    def length_zero_part(self, x, aroots=None):
        """The element of length zero in the coset x W_a, by right descents.

        The extended affine Weyl group is W_a x| Omega with Omega = pi_1
        (Iwahori-Matsumoto), so each coset x W_a holds exactly one
        element of length zero.  While x(a) < 0 for a simple affine root
        a, x is replaced by x r_a, which is one shorter; so the descent
        ends after exactly ell(x) steps, whichever descents it takes.
        With ``aroots`` the affine simple roots of a Levi subgroup (as
        built by :meth:`levi_simple_affine`), the same holds for
        the Levi: the result is the element of x W_{a,J} of Levi length
        zero.

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('pgl2'))
        >>> aw.length_zero_part(aw.translation((1,)))    # eps^{omega^vee}
        AffineElement(w=1, mu=(-1,))
        >>> aw.length_zero_part(aw.translation((2,)))    # eps^{alpha^vee}
        AffineElement(w=0, mu=(0,))
        """
        d = self.datum
        aroots = self.simple_affine if aroots is None else aroots
        while True:
            for a in aroots:
                beta, level = self.act_affine_root(x, a)
                if level < 0 or (level == 0 and not d.is_positive_root(beta)):
                    x = self.mult(x, self.reflection(a))
                    break
            else:
                return x

    def omega_elements(self):
        """Length-zero elements, one per residue r of pi_1 = X / Q^vee.

        r runs over every residue when pi_1 is finite, so the list is all
        of Omega (|pi_1| elements); otherwise the free coordinates of r
        are 0 or 1.  The element for r is the length-zero part of the
        translation by lift(r), which lies in the coset of W_a over r;
        each takes ell(eps^lift(r)) descent steps.  Every element is
        checked to have length zero and residue r.

        >>> from adlv.datum import builtin_datum
        >>> len(AffineWeyl(builtin_datum('pgl3')).omega_elements())
        3
        >>> len(AffineWeyl(builtin_datum('sl3')).omega_elements())
        1
        """
        pi1 = self.datum.fundamental_group_presentation()
        out = []
        for r in itertools.product(*[range(n) for n in pi1.divisors],
                                   *[range(2)] * pi1.free_rank):
            tau = self.length_zero_part(self.translation(pi1.lift(r)))
            if self.aff_length(tau) != 0 or pi1.project(tau.mu) != r:
                raise InvariantError(self.datum.name, 'x is not the length-'
                                     'zero element over the pi_1 residue %s'
                                     % (r,), self.element_to_dict(tau))
            out.append(tau)
        return out

    def box_elements(self, bound, max_length):
        """All w eps^mu with every |mu_i| <= bound and length at most
        max_length, sorted by (length, mu, word).

        >>> from adlv.datum import builtin_datum
        >>> for x in AffineWeyl(builtin_datum('sl2')).box_elements(1, 1):
        ...     print(x)
        AffineElement(w=0, mu=(0,))
        AffineElement(w=1, mu=(-1,))
        AffineElement(w=1, mu=(0,))
        """
        rows = []
        for mu in itertools.product(range(-bound, bound + 1),
                                    repeat=self.datum.dim):
            for w in range(self.W.size):
                x = AffineElement(w, mu)
                length = self.aff_length(x)
                if length <= max_length:
                    rows.append(((length, mu, self.W.words[w]), x))
        rows.sort()
        return [x for _, x in rows]

    # -- parsing and printing ---------------------------------------------------

    def parse_element(self, text):
        """Parse {"w": [1, 2], "mu": [...]} (1-based word letters).

        Both fields are optional lists of integers (not booleans); any
        other input raises ValueError naming the field.

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl2'))
        >>> aw.parse_element('{"w": [1], "mu": [1]}')
        AffineElement(w=1, mu=(1,))
        >>> aw.parse_element('{"w": [1], "mu": [1.5]}')
        Traceback (most recent call last):
        ...
        ValueError: "mu" must be a list of integers, got [1.5]
        """
        if isinstance(text, str):
            try:
                data = json.loads(text, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as e:
                raise ValueError('element is not JSON: %s' % e) from None
        else:
            data = text
        if not isinstance(data, dict):
            raise ValueError('element must be a JSON object '
                             '{"w": [...], "mu": [...]}, got %s'
                             % json.dumps(data))
        for field in data:
            if field not in ('w', 'mu'):
                raise ValueError('unknown element field %r' % field)
        mu = data.get('mu', [0] * self.datum.dim)
        if not (isinstance(mu, list) and all(type(i) is int for i in mu)):
            raise ValueError('"mu" must be a list of integers, got %s'
                             % json.dumps(mu))
        if len(mu) != self.datum.dim:
            raise ValueError('"mu" has dimension %d, expected %d'
                             % (len(mu), self.datum.dim))
        return AffineElement(self.W.parse_word(data.get('w', []), '"w"'),
                             tuple(mu))

    def element_to_dict(self, x):
        return {'w': [i + 1 for i in self.W.words[x.w]], 'mu': list(x.mu)}

    def format_element(self, x):
        return json.dumps(self.element_to_dict(x))
