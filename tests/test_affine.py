"""Extended affine Weyl group: lengths, LP sets, moves, length-zero
elements."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlv.affine import AffineElement, AffineWeyl
from adlv.datum import (BUILTIN_DATA, InvariantError, builtin_datum,
                         datum_from_config)
from adlv.lattice import (integer_kernel, solve_integer_combination, vec_add,
                          vec_dot, vec_scale)
from adlv.reduction import Reduction

# every built-in but e6_adjoint, whose Weyl group of order 51 840 is built
# once per session, by the e6_weyl fixture
SMALL_DATA = sorted(set(BUILTIN_DATA) - {'e6_adjoint'})


@pytest.fixture(scope='module')
def sl2():
    return AffineWeyl(builtin_datum('sl2'))


@pytest.fixture(scope='module')
def sl3():
    return AffineWeyl(builtin_datum('sl3'))


def bfs_lengths(aw, depth):
    """Independent length oracle: BFS word length over the simple affine
    generators (plus length-zero elements as seeds)."""
    seeds = aw.omega_elements()
    dist = {x: 0 for x in seeds}
    frontier = list(seeds)
    for d in range(1, depth + 1):
        nxt = []
        for x in frontier:
            for a in aw.simple_affine:
                for y in (aw.mult(x, aw.reflection(a)),
                          aw.mult(aw.reflection(a), x)):
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
        frontier = nxt
    return dist


@pytest.mark.parametrize('name,depth', [('sl2', 7), ('sl3', 6)])
def test_length_against_word_bfs(name, depth):
    aw = AffineWeyl(builtin_datum(name))
    for x, d in bfs_lengths(aw, depth).items():
        assert aw.aff_length(x) == d


def aff_length_all_roots(aw, x):
    """Oracle: count the inverted positive affine roots (alpha, k), alpha
    running over all roots, as aff_length did before the
    Iwahori-Matsumoto form merged alpha and -alpha."""
    d = aw.datum
    total = 0
    act = aw.W.root_action[x.w]
    for idx, r in enumerate(d.roots):
        lo = 0 if d.is_positive_root(idx) else 1
        wpos = d.is_positive_root(act[idx])
        # inverted levels: lo <= k <= <mu, alpha> - 1 + (1 if w alpha < 0)
        hi = sum(c * m for c, m in zip(r.covec, x.mu)) - 1 + (0 if wpos else 1)
        total += max(0, hi - lo + 1)
    return total


def gl6_sample(aw, count=200, seed=6):
    rng = random.Random(seed)
    return [AffineElement(rng.randrange(aw.W.size),
                          tuple(rng.randint(-2, 2) for _ in range(6)))
            for _ in range(count)]


@pytest.mark.parametrize('name', SMALL_DATA)
def test_aff_length_matches_all_roots_count(name):
    """Iwahori-Matsumoto against the all-roots count: on the box(2, 6)
    elements, or on 200 seeded elements for gl6."""
    aw = AffineWeyl(builtin_datum(name))
    if name == 'gl6':
        elements = gl6_sample(aw)
    else:
        elements = [x for x in (AffineElement(w, mu) for w in range(aw.W.size)
                                for mu in itertools.product(
                                    range(-2, 3), repeat=aw.datum.dim))
                    if aff_length_all_roots(aw, x) <= 6]
    assert elements
    for x in elements:
        length = aw.aff_length(x)
        assert type(length) is int
        assert length == aff_length_all_roots(aw, x), x


def random_elements(name, mu_lo, mu_hi):
    aw = AffineWeyl(builtin_datum(name))
    dim = aw.datum.dim
    return aw, [AffineElement(w, mu)
                for w in range(aw.W.size)
                for mu in itertools.product(range(mu_lo, mu_hi + 1),
                                            repeat=dim)]


def box_or_gl6_sample(aw):
    """The box(1, 6) elements, or 200 seeded elements for gl6."""
    return (gl6_sample(aw) if aw.datum.name == 'gl6'
            else aw.box_elements(1, 6))


@pytest.mark.parametrize('name', SMALL_DATA)
def test_length_functional_is_odd(name):
    """ell(x, -beta) = -ell(x, beta) for every root beta, which lets
    lp_set read the positive roots alone."""
    aw = AffineWeyl(builtin_datum(name))
    d = aw.datum
    for x in box_or_gl6_sample(aw):
        for b in range(len(d.roots)):
            assert (aw.length_functional(x, d.negative(b))
                    == -aw.length_functional(x, b)), (x, b)


@pytest.mark.parametrize('name', ['sl3', 'sp4', 'sl3_flip'])
def test_length_functional_sums_to_length(name):
    aw, elements = random_elements(name, -2, 2)
    n = aw.datum.num_positive
    for x in elements:
        total = sum(abs(aw.length_functional(x, i)) for i in range(n))
        assert total == aw.aff_length(x)


@pytest.mark.parametrize('name', ['sl3', 'sp4'])
def test_multiplication_length_subadditive(name):
    aw, elements = random_elements(name, -1, 1)
    for x in elements[:20]:
        for y in elements[::7]:
            lxy = aw.aff_length(aw.mult(x, y))
            assert abs(aw.aff_length(x) - aw.aff_length(y)) <= lxy \
                <= aw.aff_length(x) + aw.aff_length(y)


def test_group_law_and_inverse(sl3):
    aw = sl3
    xs = [AffineElement(w, mu) for w in range(aw.W.size)
          for mu in itertools.product((-1, 0, 1), repeat=2)]
    e = AffineElement(0, (0, 0))
    for x in xs[::5]:
        assert aw.mult(x, aw.inverse(x)) == e
        assert aw.aff_length(aw.inverse(x)) == aw.aff_length(x)


def test_reflections_and_simple_lengths(sl2, sl3):
    for aw in (sl2, sl3):
        for a in aw.simple_affine:
            r = aw.reflection(a)
            assert aw.aff_length(r) == 1
            assert aw.mult(r, r) == AffineElement(0, (0,) * aw.datum.dim)


def test_sl2_worked_identity(sl2):
    # s0 s1 = eps^{alpha^vee} in the group law
    s0 = sl2.reflection(sl2.simple_affine[1])
    s1 = sl2.reflection(sl2.simple_affine[0])
    assert sl2.mult(s0, s1) == sl2.translation((1,))
    assert sl2.aff_length(sl2.mult(s1, sl2.mult(s0, s1))) == 3


def test_lp_basic(sl2):
    # identity: LP = all of W; regular dominant translation: LP = {e}
    assert sl2.lp_set(AffineElement(0, (0,))) == [0, 1]
    assert sl2.lp_set(sl2.translation((1,))) == [0]
    # x = s1 eps^{alpha^vee} has LP = {e}
    assert sl2.lp_set(AffineElement(1, (1,))) == [0]


@pytest.mark.parametrize('name', ['sl3', 'sp4', 'sl3_flip'])
def test_lp_transport_cases(name):
    aw, elements = random_elements(name, -2, 2)
    for x in elements[::11]:
        for a in aw.simple_affine:
            case, lp_x, lp_xr, transported = aw.lp_transport(x, a)
            # the transport map itself re-verifies containments; check
            # the case < 0 bijection cardinality here as well
            if case < 0:
                assert len(lp_x) == len(lp_xr)


def lp_set_per_v(aw, x):
    """Oracle: LP(x) by testing ell(x, v alpha) >= 0 for every v and every
    positive alpha, read off one table of ell(x, .) over all roots."""
    ell = [aw.length_functional(x, b) for b in range(len(aw.datum.roots))]
    out = [v for v in range(aw.W.size)
           if all(ell[aw.W.root_action[v][i]] >= 0
                  for i in range(aw.datum.num_positive))]
    return sorted(out, key=lambda v: (aw.W.lengths[v], aw.W.words[v]))


@pytest.mark.parametrize('name', SMALL_DATA)
def test_lp_set_matches_per_v_oracle(name):
    """On every third box(1, 6) element, or on 200 seeded gl6 elements."""
    aw = AffineWeyl(builtin_datum(name))
    elements = (gl6_sample(aw) if name == 'gl6'
                else aw.box_elements(1, 6)[::3])
    sizes = []
    for x in elements:
        lp = aw.lp_set(x)
        assert lp == lp_set_per_v(aw, x), x
        sizes.append(len(lp))
    assert max(sizes) > 1


def positive_image_mask(d, root_action_row):
    """Bitmask over root indices of e(Phi+), from the root action of e."""
    return sum(1 << r for r in root_action_row[:d.num_positive])


def positive_image_masks(W):
    """The bitmask of v(Phi+) for each v in W, in index order."""
    return [positive_image_mask(W.datum, row) for row in W.root_action]


def lp_set_scan(aw, x, images):
    """Oracle: the scan lp_set replaced.  With N(x) = {beta : ell(x, beta)
    < 0} over all roots, v is in LP(x) iff v(Phi+) misses N(x): one AND
    of N(x) with the bitmask of v(Phi+) per element of W, from
    ``images = positive_image_masks(aw.W)``."""
    neg = sum(1 << b for b in range(len(aw.datum.roots))
              if aw.length_functional(x, b) < 0)
    return [v for v, m in enumerate(images) if not m & neg]


@pytest.mark.parametrize('name', SMALL_DATA + ['e6_adjoint'])
def test_lp_set_matches_scan(name, request):
    """On every box(1, 6) element, on 200 seeded gl6 elements, and on 50
    seeded e6_adjoint elements."""
    if name == 'e6_adjoint':
        e6_weyl = request.getfixturevalue('e6_weyl')
        aw = AffineWeyl(e6_weyl.datum, weyl=e6_weyl)
        rng = random.Random(50)
        elements = [AffineElement(rng.randrange(aw.W.size),
                                  tuple(rng.randint(-1, 1) for _ in range(6)))
                    for _ in range(50)]
    else:
        aw = AffineWeyl(builtin_datum(name))
        elements = box_or_gl6_sample(aw)
    images = positive_image_masks(aw.W)
    sizes = set()
    for x in elements:
        lp = aw.lp_set(x)
        assert lp == lp_set_scan(aw, x, images), x
        sizes.add(len(lp))
    assert len(sizes) > 1


# _BIT[k] translates each byte to its bit k, as the byte 0 or 1
_BIT = [bytes((b >> k) & 1 for b in range(256)) for k in range(8)]


def chamber_masks_by_bitmask(W):
    """Oracle for ``AffineWeyl._chamber_masks``, from the bitmasks of
    v(Phi+): join them in index order of v, each ceil(|Phi| / 8) bytes
    little-endian, then cut bit b of every v out of the join by one
    strided slice and one byte translation."""
    width = (len(W.datum.roots) + 7) // 8
    joined = b''.join([m.to_bytes(width, 'little')
                       for m in positive_image_masks(W)])
    return (int.from_bytes(b'\x01' * W.size, 'little'),
            [int.from_bytes(joined[b >> 3::width].translate(_BIT[b & 7]),
                            'little')
             for b in range(W.datum.num_positive)])


@pytest.mark.parametrize('name', sorted(BUILTIN_DATA))
def test_chamber_masks_match_bitmask_oracle(name, request):
    """On every built-in, W(E6) included."""
    if name == 'e6_adjoint':
        e6_weyl = request.getfixturevalue('e6_weyl')
        aw = AffineWeyl(e6_weyl.datum, weyl=e6_weyl)
    else:
        aw = AffineWeyl(builtin_datum(name))
    assert aw._chamber_masks == chamber_masks_by_bitmask(aw.W)


def test_empty_lp_set_names_datum_and_element(monkeypatch):
    aw = AffineWeyl(builtin_datum('sl3'))
    x = AffineElement(aw.W.simple[0], (1, -1))
    # a chamber table over no element of W
    monkeypatch.setattr(aw, '_chamber_masks', (0, [0] * 3))
    with pytest.raises(InvariantError, match="^datum 'sl3': the LP set is "
                       'empty, for x = ' + re.escape(aw.format_element(x))
                       + '$') as info:
        aw.lp_set(x)
    assert (info.value.datum, info.value.what, info.value.element,
            info.value.sigma_class) == ('sl3', 'the LP set is empty',
                                        aw.element_to_dict(x), None)


def test_omega_element_check_names_datum_and_element(monkeypatch):
    aw = AffineWeyl(builtin_datum('pgl2'))
    monkeypatch.setattr(aw, 'aff_length', lambda x: 1)
    with pytest.raises(InvariantError, match=r"^datum 'pgl2': x is not the "
                       r'length-zero element over the pi_1 residue \(0,\), '
                       r'for x = \{"w": \[\], "mu": \[0\]\}$') as info:
        aw.omega_elements()
    assert (info.value.element, info.value.sigma_class) == (
        {'w': [], 'mu': [0]}, None)


def test_lp_transport_errors_name_datum_element_and_root(monkeypatch):
    aw = AffineWeyl(builtin_datum('sl2'))
    x = aw.translation((-1,))
    a = aw.simple_affine[0]
    assert aw.length_functional(x, a[0]) < 0
    where = "^datum 'sl2': transport along the affine root %s: " \
        % re.escape(str(a))
    at = ', for x = %s$' % re.escape(aw.format_element(x))
    # LP(x r_a) empty: s_alpha v is not length positive
    monkeypatch.setattr(aw, 'lp_set', lambda y: [0] if y == x else [])
    with pytest.raises(InvariantError, match=where
                       + 'target not length positive' + at) as info:
        aw.lp_transport(x, a)
    assert info.value.element == aw.element_to_dict(x)
    # LP(x r_a) all of W: s_alpha LP(x) is a proper subset of it
    monkeypatch.setattr(aw, 'lp_set', lambda y: [0] if y == x else [0, 1])
    with pytest.raises(InvariantError, match=where + 'case < 0 must give '
                       'equality of LP sets' + at) as info:
        aw.lp_transport(x, a)
    assert (info.value.datum, info.value.element) == (
        'sl2', aw.element_to_dict(x))


@pytest.mark.parametrize('name', SMALL_DATA)
def test_simple_sigma_conjugate_kinds(name):
    """The sign rule against the recount ell(r_a x r_{sigma a}) - ell(x)."""
    if name == 'gl6':
        aw = AffineWeyl(builtin_datum(name))
        elements = gl6_sample(aw)
    else:
        aw, elements = random_elements(name, -2, 2)
        elements = elements[::7]
    for x in elements:
        for a in aw.simple_affine:
            both, step, left = aw.simple_sigma_conjugate(x, a)
            assert step == aw.aff_length(both) - aw.aff_length(x)
            assert aw.mult(aw.reflection(a), x) == left


def simple_sigma_conjugate_two_products(aw, x, aroot):
    """Oracle: r_a x and r_a x r_{sigma a} as two full products ``mult``,
    with the length change from the signs of x^{-1}(a) and
    (r_a x)(sigma a)."""
    d, W = aw.datum, aw.W
    idx, k = aroot
    sidx = d.sigma_root(idx)
    left = aw.mult(aw.reflection(aroot), x)
    both = aw.mult(left, aw.reflection((sidx, k)))
    back = W.root_action[W.inv[x.w]][idx]
    k_back = k + vec_dot(d.roots[back].covec, x.mu)
    fwd = W.root_action[left.w][sidx]
    k_fwd = k - vec_dot(d.roots[sidx].covec, left.mu)
    delta = 0
    for beta, level in ((back, k_back), (fwd, k_fwd)):
        up = level > 0 or (level == 0 and d.is_positive_root(beta))
        delta += 1 if up else -1
    return both, delta, left


@pytest.mark.parametrize('name', SMALL_DATA)
def test_simple_sigma_conjugate_matches_two_products(name):
    """The reflection formula against two products, for every simple
    affine root: on every w eps^mu with |mu_i| <= 2, or on 200 seeded
    elements for gl6."""
    if name == 'gl6':
        aw = AffineWeyl(builtin_datum(name))
        elements = gl6_sample(aw)
    else:
        aw, elements = random_elements(name, -2, 2)
    for x in elements:
        for a in aw.simple_affine:
            got = aw.simple_sigma_conjugate(x, a)
            assert got == simple_sigma_conjugate_two_products(aw, x, a), \
                (x, a)
            assert type(got[1]) is int
            assert all(type(c) is int for y in (got[0], got[2])
                       for c in y.mu)


def test_omega_counts():
    assert len(AffineWeyl(builtin_datum('sl2')).omega_elements()) == 1
    assert len(AffineWeyl(builtin_datum('pgl2')).omega_elements()) == 2
    assert len(AffineWeyl(builtin_datum('pgl3')).omega_elements()) == 3
    assert len(AffineWeyl(builtin_datum('psp4')).omega_elements()) == 2
    for tau in AffineWeyl(builtin_datum('pgl3')).omega_elements():
        pass


def test_omega_elements_have_length_zero():
    for name in ('pgl2', 'pgl3', 'psp4', 'gl3'):
        aw = AffineWeyl(builtin_datum(name))
        for tau in aw.omega_elements():
            assert aw.aff_length(tau) == 0


def box_omega_elements(aw):
    """Oracle: for each w in W, solve <lam, w(alpha_i)> = Phi+(w alpha_i) - 1
    for x = eps^lam w, scan lam over shifts by -2..2 times a basis of the
    kernel lattice with coordinates 0 or 1, and keep one length-zero x per
    pi_1 residue (the least by (sum of lam, lam))."""
    d, W = aw.datum, aw.W
    pi1 = d.fundamental_group_presentation()
    found = {}
    for w in range(W.size):
        moved = [W.root_action[w][i] for i in d.simple_indices]
        cols = [tuple(d.roots[m].covec[j] for m in moved)
                for j in range(d.dim)]
        target = tuple(int(d.is_positive_root(m)) - 1 for m in moved)
        lam0 = solve_integer_combination(cols, target)
        if lam0 is None:
            continue
        kernel = integer_kernel(cols)
        for shift in itertools.product(range(-2, 3), repeat=len(kernel)):
            lam = lam0
            for c, k in zip(shift, kernel):
                lam = vec_add(lam, vec_scale(c, k))
            if not all(0 <= c <= 1 for c in lam):
                continue
            x = AffineElement(w, W.act(W.inv[w], lam))
            if aw.aff_length(x) != 0:
                continue
            res = pi1.project(lam)
            if res not in found or (sum(lam), lam) < found[res][0]:
                found[res] = ((sum(lam), lam), x)
    return [x for _, x in found.values()]


@pytest.mark.parametrize('name', [
    n for n in SMALL_DATA
    if builtin_datum(n).fundamental_group_presentation().order()])
def test_omega_elements_match_box_scan(name):
    aw = AffineWeyl(builtin_datum(name))
    new = aw.omega_elements()
    assert len(new) == aw.datum.fundamental_group_presentation().order()
    assert set(new) == set(box_omega_elements(aw))


def seeded_sample(aw, count, seed, bound=2, max_length=8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = AffineElement(rng.randrange(aw.W.size),
                          tuple(rng.randint(-bound, bound)
                                for _ in range(aw.datum.dim)))
        if aw.aff_length(x) <= max_length:
            out.append(x)
    return out


@pytest.mark.parametrize('name', ['gl3', 'gl4'])
def test_class_key_under_box_scan_omega(name):
    """pi_1 = Z: omega_elements gives 1 and tau, the box scan also tau^2,
    tau^3, ...; the class keys must not depend on which list is used."""
    aw = AffineWeyl(builtin_datum(name))
    new, old = Reduction(aw), Reduction(aw)
    old._omega_pairs = [(aw.inverse(t), aw.sigma(t))
                        for t in box_omega_elements(aw)]
    assert len(old._omega_pairs) > len(new._omega_pairs) == 1
    assert (aw.identity, aw.identity) not in new._omega_pairs
    elements = (aw.box_elements(2, 6) if name == 'gl3'
                else seeded_sample(aw, 60, seed=4))
    for x in elements:
        assert new.class_key(x) == old.class_key(x)


def test_parse_and_format_roundtrip(sl3):
    x = AffineElement(3, (1, -2))
    text = sl3.format_element(x)
    assert sl3.parse_element(text) == x
    with pytest.raises(ValueError):
        sl3.parse_element('{"w": [9], "mu": [0, 0]}')
    with pytest.raises(ValueError):
        sl3.parse_element('{"w": [1], "mu": [0]}')


def test_eta_sigma(sl2):
    # x = s1 eps^{alpha^vee}: mu dominant, v = e, eta = s1
    assert sl2.eta_sigma(AffineElement(1, (1,))) == 1
    # dominant translation: eta = e
    assert sl2.eta_sigma(sl2.translation((1,))) == 0


# twisted data: sigma of order 2 on sl3_flip, sl4_flip and unitary GU_3,
# of order 3 on triality 3D4, the one where sigma^{-1} != sigma
TWISTED_ETA = {
    'sl3_flip': 'sl3_flip',
    'sl4_flip': 'sl4_flip',
    'gu3': {'type': 'A2', 'lattice_basis': 'gl', 'sigma_perm': [2, 1],
            'sigma_matrix': [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]},
    '3d4': {'type': 'D4', 'lattice_basis': 'sc', 'sigma_perm': [3, 2, 4, 1]},
}


@pytest.mark.parametrize('name', sorted(TWISTED_ETA))
def test_eta_sigma_twisted_matches_preimage_oracle(name):
    """eta_sigma, which reads sigma^{-1}(v) as sigma^{n-1}(v), against
    sigma^{-1}(v) found as the preimage of v in sigma_elem, on box(1, 4)."""
    config = TWISTED_ETA[name]
    d = (builtin_datum(config) if isinstance(config, str)
         else datum_from_config(config))
    aw = AffineWeyl(d)
    W = aw.W
    assert d.sigma_order == (3 if name == '3d4' else 2)
    for x in aw.box_elements(1, 4):
        v, _ = W.dominant_representative(x.mu)
        u = W.sigma_elem.index(v)
        assert aw.eta_sigma(x) == W.mult(W.mult(W.inv[u], x.w), v), x


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.integers(0, 2))
def test_length_change_by_simple_reflection(w, mu, i):
    aw = AffineWeyl(builtin_datum('sp4'))
    w = w % aw.W.size
    x = AffineElement(w, mu)
    a = aw.simple_affine[i]
    xr = aw.mult(x, aw.reflection(a))
    assert abs(aw.aff_length(xr) - aw.aff_length(x)) == 1
