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
from typing import NamedTuple

from .lattice import (integer_kernel, solve_integer_combination, vec_add,
                      vec_dot, vec_scale)
from .weyl import WeylGroup

__all__ = ['AffineElement', 'AffineWeyl']


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
        # simple affine roots: the finite simple roots at level 0 and the
        # negated highest root of each component at level 1
        self.simple_affine = [(idx, 0) for idx in d.simple_indices]
        self.simple_affine += [(d.negative(h), 1) for h in d.highest_roots]
        self.identity = AffineElement(0, (0,) * d.dim)

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

    def sigma_inv(self, x):
        return AffineElement(self.W.sigma_inv(x.w),
                             self.datum.sigma_inv_vec(x.mu))

    # -- affine roots -------------------------------------------------------

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
        return (self.W.act_root(x.w, idx),
                k - vec_dot(self.datum.roots[idx].covec, x.mu))

    # -- length -------------------------------------------------------------

    def aff_length(self, x, subset=None):
        """Affine length, by counting inverted positive affine roots.

        With a subset J of simple indices, only affine roots over the
        sub-root-system Phi_J are counted (the length in W_J x X).

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl3'))
        >>> aw.aff_length(aw.translation((1, 1)))
        4
        """
        d = self.datum
        total = 0
        act = self.W.root_action[x.w]
        for idx, r in enumerate(d.roots):
            if subset is not None and any(
                    r.coords[i] != 0 and i not in subset for i in range(d.rank)):
                continue
            lo = 0 if r.positive else 1
            wpos = d.is_positive_root(act[idx])
            # inverted levels: lo <= k <= <mu, alpha> - 1 + (1 if w alpha < 0)
            hi = vec_dot(r.covec, x.mu) - 1 + (0 if wpos else 1)
            total += max(0, hi - lo + 1)
        return total

    def length_functional(self, x, root_idx):
        """ell(x, alpha) = -Phi+(w alpha) + <mu, alpha> + Phi+(alpha)."""
        d = self.datum
        wa = self.W.act_root(x.w, root_idx)
        return (vec_dot(d.roots[root_idx].covec, x.mu)
                + (1 if d.is_positive_root(root_idx) else 0)
                - (1 if d.is_positive_root(wa) else 0))

    # -- LP sets ------------------------------------------------------------

    def lp_set(self, x):
        """All v in W with ell(x, v alpha) >= 0 for every positive alpha,
        sorted by (length, word).

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl2'))
        >>> aw.lp_set(AffineElement(0, (0,)))   # identity: all of W
        [0, 1]
        """
        d = self.datum
        out = []
        for v in range(self.W.size):
            act = self.W.root_action[v]
            if all(self.length_functional(x, act[i]) >= 0
                   for i in range(d.num_positive)):
                out.append(v)
        out.sort(key=lambda v: (self.W.lengths[v], self.W.words[v]))
        if not out:
            raise AssertionError('LP set must never be empty')
        return out

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
        xr = self.mult(x, self.reflection(aroot))
        lp_x = self.lp_set(x)
        lp_xr = self.lp_set(xr)
        s_alpha = self.W.root_reflection[idx]
        transported = {}
        for v in lp_x:
            sv = self.W.mult(s_alpha, v)
            if case > 0:
                cand = sv if sv in lp_xr else None
            elif case < 0:
                cand = sv
            else:
                vinv_a = self.W.act_root(self.W.inv[v], idx)
                cand = sv if not self.datum.is_positive_root(vinv_a) else v
            if cand is not None and cand not in lp_xr:
                raise AssertionError('transport target not length positive')
            transported[v] = cand
        if case < 0:
            if {self.W.mult(s_alpha, v) for v in lp_x} != set(lp_xr):
                raise AssertionError('case <0 must give equality of LP sets')
        return case, lp_x, lp_xr, transported

    # -- sigma-conjugation moves ---------------------------------------------

    def simple_sigma_conjugate(self, x, aroot):
        """r_a x r_{sigma a} with its move type 'keep', 'down' or 'up'."""
        ra = self.reflection(aroot)
        rsa = self.reflection(self.sigma_affine_root(aroot))
        left = self.mult(ra, x)
        both = self.mult(left, rsa)
        d = self.aff_length(both) - self.aff_length(x)
        kind = {0: 'keep', -2: 'down', 2: 'up'}[d]
        return both, kind, left

    # -- eta ---------------------------------------------------------------

    def eta_sigma(self, x):
        """sigma^{-1}(v)^{-1} w v, v minimal with v^{-1} mu dominant."""
        v, _ = self.W.dominant_representative(x.mu)
        return self.W.mult(self.W.mult(self.W.inv[self.W.sigma_inv(v)], x.w), v)

    # -- length-zero elements --------------------------------------------------

    def omega_elements(self, shift_bound=2, coord_box=(0, 1)):
        """Length-zero elements with mu in a small box, one per visible
        residue of pi_1 = X / (coroot lattice).

        Writing x = eps^lam w, the constraints <lam, beta> = Phi+(beta) - 1
        for beta = w(alpha_i) pin lam up to the central sublattice, which
        is then scanned over a box; the box bounds the coordinates of lam
        (a minuscule-like coweight).  The list is sorted, deduplicated
        per pi_1 residue by (sum of coordinates, lexicographic), and
        covers all of pi_1 when pi_1 is finite.

        >>> from adlv.datum import builtin_datum
        >>> len(AffineWeyl(builtin_datum('pgl3')).omega_elements())
        3
        >>> len(AffineWeyl(builtin_datum('sl3')).omega_elements())
        1
        """
        d = self.datum
        pi1 = d.fundamental_group_presentation()
        found = {}
        for w in range(self.W.size):
            moved = [self.W.act_root(w, d.simple_indices[i])
                     for i in range(d.rank)]
            covecs = [d.roots[m].covec for m in moved]
            cols = [tuple(cv[j] for cv in covecs) for j in range(d.dim)]
            target = tuple((1 if d.is_positive_root(m) else 0) - 1
                           for m in moved)
            lam0 = solve_integer_combination(cols, target)
            if lam0 is None:
                continue
            kernel = integer_kernel(cols) if d.rank else \
                [tuple(int(i == j) for i in range(d.dim))
                 for j in range(d.dim)]
            for shift in itertools.product(
                    range(-shift_bound, shift_bound + 1), repeat=len(kernel)):
                lam = lam0
                for c, k in zip(shift, kernel):
                    lam = vec_add(lam, vec_scale(c, k))
                if not all(coord_box[0] <= c <= coord_box[1] for c in lam):
                    continue
                x = AffineElement(w, self.W.act(self.W.inv[w], lam))
                if self.aff_length(x) != 0:
                    continue
                res = pi1.project(lam)
                cur = found.get(res)
                if cur is None or (sum(lam), lam) < cur[0]:
                    found[res] = ((sum(lam), lam), x)
        out = sorted((v for _, v in found.values()),
                     key=lambda x: (sum(x.mu), x.mu, x.w))
        order = pi1.order()
        if order is not None and len(out) != order:
            raise AssertionError('found %d length-zero classes, pi_1 has %d'
                                 % (len(out), order))
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

        >>> from adlv.datum import builtin_datum
        >>> aw = AffineWeyl(builtin_datum('sl2'))
        >>> aw.parse_element('{"w": [1], "mu": [1]}')
        AffineElement(w=1, mu=(1,))
        """
        data = json.loads(text) if isinstance(text, str) else text
        word = [i - 1 for i in data.get('w', [])]
        if any(i < 0 or i >= self.datum.rank for i in word):
            raise ValueError('word letter out of range')
        mu = tuple(data.get('mu', (0,) * self.datum.dim))
        if len(mu) != self.datum.dim:
            raise ValueError('mu has wrong dimension %d, expected %d'
                             % (len(mu), self.datum.dim))
        return AffineElement(self.W.from_word(word), mu)

    def element_to_dict(self, x):
        return {'w': [i + 1 for i in self.W.words[x.w]], 'mu': list(x.mu)}

    def format_element(self, x):
        return json.dumps(self.element_to_dict(x))
