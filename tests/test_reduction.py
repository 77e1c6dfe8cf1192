"""Reduction trees, minimal descent, class keys, class polynomials."""

import copy
import fractions
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from adlv import reduction
from adlv.affine import AffineElement, AffineWeyl
from adlv.bg import BGClass
from adlv.cli import main
from adlv.datum import InvariantError, builtin_datum, datum_from_config
from adlv.lattice import vec_dot
from adlv.reduction import (ClassKey, Reduction, TreeNode, poly_add,
                            poly_str)

from test_affine import seeded_sample, simple_sigma_conjugate_two_products


@pytest.fixture(scope='module')
def red2():
    return Reduction(AffineWeyl(builtin_datum('sl2')))


@pytest.fixture(scope='module')
def red3():
    return Reduction(AffineWeyl(builtin_datum('sl3')))


POLY_ONE = (1,)
POLY_Q = (0, 1)
POLY_Q_MINUS_ONE = (-1, 1)


def poly_mul(p, q):
    """
    >>> poly_mul((-1, 1), (0, 1))   # (q-1) * q
    (0, -1, 1)
    """
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def elements(aw, bound, max_len):
    return [AffineElement(w, mu) for w in range(aw.W.size)
            for mu in itertools.product(range(-bound, bound + 1),
                                        repeat=aw.datum.dim)
            if aw.aff_length(AffineElement(w, mu)) <= max_len]


def test_poly_arithmetic():
    assert poly_mul((-1, 1), (0, 1)) == (0, -1, 1)
    assert poly_add((1, 2), (-1, -2)) == ()
    assert poly_add((), (0, 1)) == (0, 1)
    assert poly_str((0, -1, 1)) == 'q^2-q'
    assert poly_str(()) == '0'
    assert poly_str((1,)) == '1'


def test_sl2_chain_tree(red2):
    x = AffineElement(1, (1,))           # s1 s0 s1
    tree = red2.build_reduction_tree(x)
    leaves = {leaf.x for leaf in tree.leaves()}
    assert leaves == {AffineElement(0, (1,)), AffineElement(1, (-1,))}
    paths = {(ni, nii) for _, ni, nii in tree.paths()}
    assert paths == {(1, 0), (0, 1)}
    polys = red2.class_polynomials(x)
    assert sorted(polys.values()) == [(-1, 1), (0, 1)]


def test_minimal_elements(red2):
    # length-zero and straight elements are minimal
    assert red2.is_minimal(AffineElement(0, (0,)))
    assert red2.is_minimal(AffineElement(0, (1,)))
    x = AffineElement(1, (1,))
    x_min, moves = red2.descend_to_minimal(x)
    assert red2.aw.aff_length(x_min) == 1
    assert len(moves) == 1
    assert red2.is_minimal(x_min)


def test_class_keys_sl2(red2):
    # eps^{alpha^vee} and eps^{-alpha^vee} are conjugate by s1
    k1 = red2.class_key(AffineElement(0, (1,)))
    k2 = red2.class_key(AffineElement(0, (-1,)))
    assert k1 == k2
    # distinct Newton points separate without search
    assert red2.class_key(AffineElement(0, (0,))) != k1
    # x and r_a x r_{sigma a} have equal keys
    x = AffineElement(1, (2,))
    for a in red2.aw.simple_affine:
        y, _, _ = red2.aw.simple_sigma_conjugate(x, a)
        assert red2.class_key(y) == red2.class_key(x)


def test_degree_bookkeeping(red3):
    aw = red3.aw
    for x in elements(aw, 2, 5)[::3]:
        tree = red3.build_reduction_tree(x)
        lx = aw.aff_length(x)
        for leaf, ni, nii in tree.paths():
            assert ni + 2 * nii + aw.aff_length(leaf.x) == lx


def test_q_equals_one_picks_unique_path(red3):
    # at q=1 the fold (q-1)*f_I + q*f_II kills every type I branch, so the
    # polynomials sum to 1: there is exactly one all-type-II path
    aw = red3.aw
    for x in elements(aw, 2, 5)[::5]:
        tree = red3.build_reduction_tree(x)
        polys = red3.class_polynomials(x, tree=tree)
        assert sum(sum(p) for p in polys.values()) == 1
        assert sum(1 for _, ni, _ in tree.paths() if ni == 0) == 1


def test_polynomials_base_case(red3):
    x = AffineElement(0, (1, 1))
    assert red3.is_minimal(x)
    polys = red3.class_polynomials(x)
    assert list(polys.values()) == [POLY_ONE]


def test_endpoint_kappa_matches(red3):
    bg = red3.bg
    for x in elements(red3.aw, 1, 4)[::4]:
        kx = bg.kottwitz_point(x)
        for leaf in red3.build_reduction_tree(x).leaves():
            assert bg.kottwitz_point(leaf.x) == kx


def test_seeded_trees_same_polynomials(red2):
    x = AffineElement(1, (2,))
    base = red2.class_polynomials(x)
    for seed in (1, 2, 3):
        assert red2.class_polynomials(x, seed=seed) == base


def class_polynomials_by_fold(red, tree):
    """Oracle: the recursion f_x = (q-1) f_{r_a x'} + q f_{r_a x' r_{sigma a}}
    folded up the tree, one dict of class polynomials per node."""
    def fold(node):
        if node.is_leaf:
            return {red.class_key(node.x): POLY_ONE}
        out = {}
        for child, factor in ((node.child_i, POLY_Q_MINUS_ONE),
                              (node.child_ii, POLY_Q)):
            for key, p in fold(child).items():
                out[key] = poly_add(out.get(key, ()), poly_mul(factor, p))
        return out

    return fold(tree.root)


@pytest.mark.parametrize('name,bound,max_length,seeds', [
    ('sl4', 1, 8, (None, 1, 2, 3)), ('gl3', 2, 6, (None,)),
    ('sl3_flip', 2, 8, (None,)), ('pgl3', 2, 8, (None,)),
    ('psp4', 2, 8, (None,))])
def test_class_polynomials_match_per_node_fold(name, bound, max_length,
                                               seeds):
    """The leaf-monomial sum against the per-node fold, key order and
    empty polynomials included, under each branch policy."""
    red = Reduction(AffineWeyl(builtin_datum(name)))
    for x in red.aw.box_elements(bound, max_length):
        for seed in seeds:
            got = red.class_polynomials(x, seed=seed)
            want = class_polynomials_by_fold(
                red, red.build_reduction_tree(x, seed=seed))
            assert list(got.items()) == list(want.items()), (x, seed)


def test_class_key_interned_per_reduction():
    """Every member of one closure, and every element of one class key,
    gets the same key object."""
    red = Reduction(AffineWeyl(builtin_datum('gl3')))
    interned = {}
    for x in red.aw.box_elements(2, 6):
        key = red.class_key(x)
        assert interned.setdefault(key, key) is key
        x_min, _ = red.descend_to_minimal(x)
        for y in red._closure(x_min):
            assert red.class_key(y) is key


# sigma acts as -1 on the free part of pi_1 = X / Q^vee: unitary GU_3 and
# GL_2 twisted by sigma(x) = -(x swapped)
SIGMA_MOVES_FREE_PI1 = {
    'gu3': {'type': 'A2', 'lattice_basis': 'gl', 'sigma_perm': [2, 1],
            'sigma_matrix': [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]},
    'gl2_twisted': {'type': 'A1', 'lattice_basis': 'gl',
                    'sigma_matrix': [[0, -1], [-1, 0]]},
}


def refusal(datum_name):
    """The start of the class-key refusal for a datum."""
    return ("datum %r: sigma moves the free part of pi_1 = X / Q^vee"
            % datum_name)


@pytest.mark.parametrize('name', sorted(SIGMA_MOVES_FREE_PI1))
def test_class_key_refused_when_sigma_moves_free_pi1(name):
    """sigma(tau) = tau^{-1} for the length-zero tau over the free residue
    1, so conjugating by tau never returns and a class has infinitely
    many minimal-length elements.  The key is refused before a closure
    forms a move; what needs no key still runs."""
    d = datum_from_config(SIGMA_MOVES_FREE_PI1[name])
    aw = AffineWeyl(d)
    red = Reduction(aw)
    x = aw.identity
    with pytest.raises(ValueError, match='^' + re.escape(refusal(d.name))):
        red.class_key(x)
    assert red._keys == [] and list(red._moves) == [x]
    assert aw.lp_set(x) and red.bg.element_class(x).nu == (0,) * d.dim


def test_tree_dot(red2):
    tree = red2.build_reduction_tree(AffineElement(1, (1,)))
    dot = red2.tree_to_dot(tree)
    assert dot.startswith('digraph') and 'solid' in dot and 'dashed' in dot


def test_bgx_from_tree_minimal(red3):
    x = AffineElement(0, (1, 1))        # dominant, straight
    data = red3.bgx_from_tree(x)
    assert len(data) == 1
    (b, entry), = data.items()
    assert entry['paths'] == [(0, 0, red3.aw.aff_length(x),
                               red3.aw.aff_length(x)
                               - vec_dot(red3.datum.two_rho, b.nu))]
    # straight element: dim statistic 0
    assert entry['paths'][0][3] == 0


def bgx_by_leaf_fold(red, x, leaf_class):
    """Oracle: bgx_from_tree as a fold over the leaves, each leaf's class
    read by leaf_class, and each class's polynomial summed over its
    leaves' class polynomials, by key."""
    tree = red.build_reduction_tree(x)
    polys = red.class_polynomials(x, tree=tree)
    out, leaf_keys = {}, {}
    for leaf, ni, nii in tree.paths():
        b = leaf_class(leaf.x)
        end_len = red.aw.aff_length(leaf.x)
        dim = ni + nii + end_len - vec_dot(red.datum.two_rho, b.nu)
        out.setdefault(b, {'paths': []})['paths'].append(
            (ni, nii, end_len, dim))
        leaf_keys.setdefault(b, set()).add(red.class_key(leaf.x))
    for b, entry in out.items():
        polysum = ()
        for k in leaf_keys[b]:
            polysum = poly_add(polysum, polys[k])
        entry['polynomial'] = polysum
    return out


@pytest.mark.parametrize('name,bound,max_length', [
    ('gl3', 2, 6), ('sl3_flip', 2, 7), ('sp4', 3, 6)])
def test_bgx_from_tree_matches_per_leaf_newton(name, bound, max_length):
    """bgx_from_tree against the fold with a Newton point per leaf, class
    order, paths and polynomials included."""
    red = Reduction(AffineWeyl(builtin_datum(name)))
    for x in red.aw.box_elements(bound, max_length):
        got = red.bgx_from_tree(x)
        want = bgx_by_leaf_fold(red, x, red.bg.element_class)
        assert list(got.items()) == list(want.items()), x


def key_read_class(red, y):
    """Oracle: the class of y read back out of its class key, the (kappa,
    nu) of a slack-bounded closure."""
    return BGClass.from_nu(*red.class_key(y)[:2])


@pytest.mark.parametrize('name,bound,max_length', [
    ('gl3', 2, 6), ('sl3_flip', 2, 7), ('sp4', 2, 6), ('g2', 2, 7),
    ('psp4', 2, 6)])
def test_leaf_classes_match_key_read(name, bound, max_length):
    """element_class of every tree leaf is the (kappa, nu) of its class
    key, and bgx_from_tree equals the key-read fold, class order, paths
    and polynomials included.  The oracle keys on a Reduction of its
    own, so it shares no memo with the one under test."""
    d = builtin_datum(name)
    red, oracle = Reduction(AffineWeyl(d)), Reduction(AffineWeyl(d))
    leaves = 0
    for x in red.aw.box_elements(bound, max_length):
        want = bgx_by_leaf_fold(oracle, x,
                                lambda y: key_read_class(oracle, y))
        assert list(red.bgx_from_tree(x).items()) == list(want.items()), x
        for leaf in oracle.build_reduction_tree(x).leaves():
            assert red.bg.element_class(leaf.x) \
                == key_read_class(oracle, leaf.x), (x, leaf.x)
            leaves += 1
    assert leaves > len(oracle._keys) > 1


def leaves_by_stack(tree):
    """Oracle: the leaves by a stack walk, type I child popped first."""
    out = []
    stack = [tree.root]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            out.append(n)
        else:
            stack.extend([n.child_ii, n.child_i])
    return out


def test_leaves_match_stack_walk():
    """On sl4 box(1, 8) under four branch policies."""
    red = Reduction(AffineWeyl(builtin_datum('sl4')))
    for x in red.aw.box_elements(1, 8):
        for seed in (None, 1, 2, 3):
            tree = red.build_reduction_tree(x, seed=seed)
            assert tree.leaves() == leaves_by_stack(tree), (x, seed)


def tree_by_recursion(red, x, seed=None, find=None):
    """Oracle: the reduction tree built by recursion, each node expanded
    before its type I subtree and that before its type II subtree.  The
    down move of a node is ``find(el, rng)``, by default
    ``red.find_down_move``; the rng is seeded before the first node."""
    rng = random.Random(seed) if seed is not None else None
    find = red.find_down_move if find is None else find

    def build(el):
        found = find(el, rng)
        if found is None:
            return TreeNode(el)
        y, a = found
        z, _, left = red._moves_of(y)[red.aw.simple_affine.index(a)]
        node = TreeNode(el, x_prime=y, aroot=a)
        node.child_i = build(left)
        node.child_ii = build(z)
        return node

    return build(x)


def paths_by_recursion(root):
    """Oracle: the root-to-leaf paths (leaf, n_I, n_II) by a recursive
    walk, type I subtree first."""
    out = []

    def walk(node, ni, nii):
        if node.is_leaf:
            out.append((node, ni, nii))
            return
        walk(node.child_i, ni + 1, nii)
        walk(node.child_ii, ni, nii + 1)

    walk(root, 0, 0)
    return out


def dot_by_recursion(red, root):
    """Oracle: the DOT rendering by a recursive walk, in which each edge
    line follows its child's whole subtree."""
    lines = ['digraph reduction {']
    numbers = itertools.count()

    def visit(node):
        name = 'n%d' % next(numbers)
        lines.append('  %s [label="%s (l=%d)"];'
                     % (name, red.aw.format_element(node.x).replace('"', "'"),
                        red.aw.aff_length(node.x)))
        if not node.is_leaf:
            for child, style, label in ((node.child_i, 'solid', 'I'),
                                        (node.child_ii, 'dashed', 'II')):
                lines.append('  %s -> %s [style=%s, label="%s"];'
                             % (name, visit(child), style, label))
        return name

    visit(root)
    lines.append('}')
    return '\n'.join(lines)


def preorder(node):
    """Oracle: (x, x_prime, aroot) of every node by recursion, type I
    subtree first."""
    if node.is_leaf:
        return [(node.x, None, None)]
    return ([(node.x, node.x_prime, node.aroot)] + preorder(node.child_i)
            + preorder(node.child_ii))


@pytest.mark.parametrize('name,bound,max_length,seeds', [
    ('sl4', 1, 8, (None, 1, 2, 3)), ('gl3', 2, 6, (None,))])
def test_tree_walk_matches_recursive_oracles(name, bound, max_length, seeds):
    """The stack-built tree against the recursive build, under each
    branch policy: the same nodes, the same paths and leaves in the same
    order, and the same DOT lines, edge lines moved up to their child's
    node line."""
    red = Reduction(AffineWeyl(builtin_datum(name)))
    for x, seed in itertools.product(red.aw.box_elements(bound, max_length),
                                     seeds):
        tree = red.build_reduction_tree(x, seed=seed)
        root = tree_by_recursion(red, x, seed=seed)
        assert preorder(tree.root) == preorder(root), (x, seed)
        got = [(leaf.x, ni, nii) for leaf, ni, nii in tree.paths()]
        want = [(leaf.x, ni, nii)
                for leaf, ni, nii in paths_by_recursion(root)]
        assert got == want, (x, seed)
        assert [leaf.x for leaf in tree.leaves()] == [el for el, _, _ in want]
        got = red.tree_to_dot(tree).split('\n')
        want = dot_by_recursion(red, root).split('\n')
        assert ([line for line in got if '->' not in line]
                == [line for line in want if '->' not in line]), (x, seed)
        assert sorted(got) == sorted(want), (x, seed)


@pytest.mark.parametrize('name,bound,max_length,seeds', [
    ('sl4', 1, 8, (None, 1, 2, 3)), ('gl3', 2, 6, (None,))])
def test_leaf_paths_match_recursive_oracle(name, bound, max_length, seeds):
    """The node-free path record against the paths of the recursive
    build, element by element and in order, under each branch policy;
    the class polynomials read off it equal those read off the tree."""
    red = Reduction(AffineWeyl(builtin_datum(name)))
    for x, seed in itertools.product(red.aw.box_elements(bound, max_length),
                                     seeds):
        got = red.leaf_paths(x, seed=seed)
        want = [(leaf.x, ni, nii) for leaf, ni, nii in
                paths_by_recursion(tree_by_recursion(red, x, seed=seed))]
        assert got == want, (x, seed)
        assert (red.class_polynomials(x, seed=seed)
                == red.class_polynomials(
                    x, tree=red.build_reduction_tree(x, seed=seed))), (x, seed)


def test_class_polynomials_and_bgx_form_no_tree_node(monkeypatch):
    """Over sl4 box(1, 8): class_polynomials without a tree and
    bgx_from_tree read the path record and form no TreeNode."""
    red = Reduction(AffineWeyl(builtin_datum('sl4')))
    xs = red.aw.box_elements(1, 8)
    want = [(red.class_polynomials(x, tree=red.build_reduction_tree(x)),
             red.bgx_from_tree(x)) for x in xs]

    def refused(*args):
        raise AssertionError('a tree node was formed')

    monkeypatch.setattr(reduction, 'TreeNode', refused)
    red = Reduction(AffineWeyl(builtin_datum('sl4')))
    assert [(red.class_polynomials(x), red.bgx_from_tree(x))
            for x in xs] == want


def test_class_keys_store_their_hash(monkeypatch):
    """Each key of the sl4 box(1, 8) class polynomials is the plain
    4-tuple to every reader: equal, of the same hash, unpacked the same,
    and kept by copy and pickle.  A second class_polynomials call on an
    element hashes no Fraction."""
    red = Reduction(AffineWeyl(builtin_datum('sl4')))
    xs = red.aw.box_elements(1, 8)
    outs = [red.class_polynomials(x) for x in xs]
    keys = {k for out in outs for k in out}
    assert any(c.denominator > 1 for _, nu, _, _ in keys for c in nu)
    for k in keys:
        plain = tuple(k)
        assert type(k) is ClassKey and type(plain) is tuple
        assert k == plain and hash(k) == hash(plain)
        kappa, nu, lmin, canon = k
        assert (kappa, nu, lmin, canon) == plain
        for other in (copy.copy(k), pickle.loads(pickle.dumps(k))):
            assert type(other) is ClassKey
            assert other == k and hash(other) == hash(plain)
    for out in outs:
        assert {tuple(k): p for k, p in out.items()} == out
    hashed = []
    fraction_hash = fractions.Fraction.__hash__

    def counted(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(fractions.Fraction, '__hash__', counted)
    assert hash(fractions.Fraction(1, 3)) and len(hashed) == 1
    del hashed[:]
    assert [red.class_polynomials(x) for x in xs] == outs
    assert hashed == []


def test_tree_deeper_than_the_recursion_limit(capsys):
    """sl2 x = s1 eps^L, whose tree is about L deep, with L past the
    recursion limit: the tree, its readers and the CLI still run."""
    depth = sys.getrecursionlimit() + 100
    red = Reduction(AffineWeyl(builtin_datum('sl2')))
    x = AffineElement(1, (depth,))
    tree = red.build_reduction_tree(x)
    assert max(ni + nii for _, ni, nii in tree.paths()) >= depth
    polys = red.class_polynomials(x, tree=tree)
    assert len(polys) == len(tree.paths())
    data = red.bgx_from_tree(x)
    assert sum(len(e['paths']) for e in data.values()) == len(tree.paths())
    dot = red.tree_to_dot(tree)
    assert dot.count('->') == 2 * (len(tree.paths()) - 1)
    code = main(['classpoly', '--datum', 'sl2', '--x',
                 '{"w": [1], "mu": [%d]}' % depth])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert len(json.loads(out)) == len(polys)


def scan_find_down_move(red, x, rng=None, memo=None):
    """Oracle: find_down_move by scanning the whole orbit of x, walked by
    equal_length_orbit_per_walk, with move types from recounted lengths.
    A ``memo`` dict keeps the down moves of each x scanned."""
    aw = red.aw
    candidates = None if memo is None else memo.get(x)
    if candidates is None:
        candidates = []
        for y in equal_length_orbit_per_walk(aw, x)[0]:      # BFS order
            for a in aw.simple_affine:
                z, _, _ = aw.simple_sigma_conjugate(y, a)
                if aw.aff_length(z) - aw.aff_length(y) == -2:
                    candidates.append((y, a))
        if memo is not None:
            memo[x] = candidates
    if not candidates:
        return None
    return candidates[0] if rng is None else rng.choice(candidates)


@pytest.mark.parametrize('name', ['sl3', 'sp4', 'g2', 'sl3_flip', 'pgl3'])
def test_find_down_move_matches_orbit_scan(name):
    red = Reduction(AffineWeyl(builtin_datum(name)))
    xs = red.aw.box_elements(1, 6)
    for x in xs:
        assert red.find_down_move(x) == scan_find_down_move(red, x)
    for seed in (1, 2, 3):
        rng, rng_scan = random.Random(seed), random.Random(seed)
        for x in xs:
            assert (red.find_down_move(x, rng)
                    == scan_find_down_move(red, x, rng_scan))


def equal_length_orbit_per_walk(aw, x):
    """Oracle: the whole equal-length orbit walk with no move table,
    forming every move of every element afresh by two products: (parents,
    downs), parents in BFS order."""
    parents = {x: None}
    downs = []
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for a in aw.simple_affine:
                z, step, _ = simple_sigma_conjugate_two_products(aw, y, a)
                if step < 0:
                    downs.append((y, a))
                elif not step and z not in parents:
                    parents[z] = (y, a)
                    nxt.append(z)
        frontier = nxt
    return parents, downs


def walked_members(walk):
    """The members an orbit walk record has processed: all of an ended
    walk, those before the next member of an open one."""
    return walk[0] if len(walk) == 2 else walk[0][:walk[3]]


@pytest.mark.parametrize('name', ['sl4', 'sl4_flip'])
@pytest.mark.parametrize('order_seed', [None, 4])
def test_equal_length_orbit_matches_per_walk(name, order_seed):
    """The orbits and down edges read off one move table against walks
    that share nothing, on box(1, 8) in box order and in a seeded order,
    insertion order included, each walk first stopped at its first down
    edge; then every record of the table, the elements only a class-key
    closure reached included, against the two products."""
    aw = AffineWeyl(builtin_datum(name))
    red = Reduction(aw)
    xs = aw.box_elements(1, 8)
    if order_seed is not None:
        random.Random(order_seed).shuffle(xs)
    for x in xs:
        parents, downs = equal_length_orbit_per_walk(aw, x)
        assert red.find_down_move(x) == (downs[0] if downs else None), x
        assert red.equal_length_orbit(x) == tuple(parents), x
        assert red._walks[x] == (tuple(parents), tuple(
            (y, a, simple_sigma_conjugate_two_products(aw, y, a))
            for y, a in downs)), x
        red.class_key(x)
    members = {y for walk in red._walks.values()
               for y in walked_members(walk)}
    assert members < set(red._moves)
    for y, records in red._moves.items():
        assert records == tuple(simple_sigma_conjugate_two_products(aw, y, a)
                                for a in aw.simple_affine), y


def nodes_in_preorder(root):
    """Every node of a tree, each before its type I subtree and that
    before its type II subtree: the order of the rng draws."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if not node.is_leaf:
            stack += [node.child_ii, node.child_i]
    return out


PARTIAL_WALK_BOXES = [('gl3', 2, 6), ('sl4', 1, 8), ('sl3_flip', 1, 6),
                      ('sp4', 3, 6)]


@pytest.mark.parametrize('name,bound,max_length', PARTIAL_WALK_BOXES)
def test_partial_walks_pick_the_whole_orbit_edge(name, bound, max_length):
    """At every node of the deterministic tree and of the trees seeded 1,
    2 and 3, built on one Reduction whose walks stop at a first down edge
    or run whole, the edge taken is the one a scan of the whole orbit
    picks, and the children are its moves; a leaf's orbit has no down
    edge.  Every element a walk marked minimal has none by the oracle."""
    aw = AffineWeyl(builtin_datum(name))
    red, memo = Reduction(aw), {}
    for x in aw.box_elements(bound, max_length):
        for seed in (None, 1, 2, 3):
            rng = None if seed is None else random.Random(seed)
            for node in nodes_in_preorder(
                    red.build_reduction_tree(x, seed=seed).root):
                want = scan_find_down_move(red, node.x, rng, memo)
                if node.is_leaf:
                    assert want is None, (x, seed, node.x)
                    continue
                assert (node.x_prime, node.aroot) == want, (x, seed, node.x)
                z, _, left = aw.simple_sigma_conjugate(*want)
                assert (node.child_i.x, node.child_ii.x) == (left, z)
    assert red._minimal
    for y in red._minimal:
        assert equal_length_orbit_per_walk(aw, y)[1] == [], y


@pytest.mark.parametrize('name,bound,max_length', PARTIAL_WALK_BOXES)
@pytest.mark.parametrize('order_seed', [None, 4])
def test_resumed_orbit_walks_match_per_walk(name, bound, max_length,
                                            order_seed):
    """After the deterministic class polynomials of the box have walked
    orbits part of the way, equal_length_orbit resumes each
    walk and gives the orbit and down edges of one uninterrupted walk, in
    box order and in a seeded order."""
    aw = AffineWeyl(builtin_datum(name))
    red = Reduction(aw)
    xs = aw.box_elements(bound, max_length)
    if order_seed is not None:
        random.Random(order_seed).shuffle(xs)
    for x in xs:
        red.class_polynomials(x)
    resumed = 0
    for x in xs:
        resumed += len(red._walks.get(x, ())) == 4
        parents, downs = equal_length_orbit_per_walk(aw, x)
        assert red.equal_length_orbit(x) == tuple(parents), x
        assert [(y, a) for y, a, _ in red._walks[x][1]] == downs, x
    assert resumed
    for y in red._minimal:
        assert equal_length_orbit_per_walk(aw, y)[1] == [], y


def count_calls(monkeypatch, obj, name):
    """Wrap the method obj.name on the instance; return the call list."""
    calls = []
    method = getattr(obj, name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(obj, name, counted)
    return calls


def test_bgx_walks_each_orbit_to_its_first_down_edge():
    """gl4 s1s2s3 eps^(4,2,-1,-3): bgx_from_tree on a fresh Reduction
    forms the moves of at most 782 elements, where whole-orbit walks
    formed 1 501, and its tree is the one whose every edge is the first
    down edge of a scan of the whole orbit."""
    aw = AffineWeyl(builtin_datum('gl4'))
    x = AffineElement(aw.W.from_word([0, 1, 2]), (4, 2, -1, -3))
    red = Reduction(aw)
    got = red.bgx_from_tree(x)
    assert len(red._moves) <= 782
    oracle = Reduction(aw)
    root = tree_by_recursion(
        oracle, x, find=lambda el, rng: scan_find_down_move(oracle, el))
    want = [(leaf.x, ni, nii) for leaf, ni, nii in paths_by_recursion(root)]
    assert red.leaf_paths(x) == want
    assert list(got.items()) == list(
        bgx_by_leaf_fold(oracle, x, oracle.bg.element_class).items())


def test_each_move_formed_once(monkeypatch):
    """Orbit walks, descents, trees under four branch policies and
    class-key closures over sl4 box(1, 8) form each element's moves once,
    one per simple affine root."""
    aw = AffineWeyl(builtin_datum('sl4'))
    red = Reduction(aw)
    calls = count_calls(monkeypatch, aw, 'simple_sigma_conjugate')
    for x in aw.box_elements(1, 8):
        for seed in (None, 1, 2, 3):
            red.class_polynomials(x, seed=seed)
        red.class_key(x)
    assert len(calls) == len(aw.simple_affine) * len(red._moves)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize('name,bound,max_length',
                         [('gl3', 2, 6), ('sl4', 1, 8)])
def test_one_closure_per_class_key(name, bound, max_length, monkeypatch):
    """A class-key closure is formed only for an x_min that no earlier
    closure holds, so once per distinct key."""
    red = Reduction(AffineWeyl(builtin_datum(name)))
    calls = count_calls(monkeypatch, red, '_closure')
    keys = {red.class_key(x) for x in red.aw.box_elements(bound, max_length)}
    assert len(calls) == len(keys) == len(red._keys)


@pytest.mark.parametrize('name,x,two_rho,what', [
    pytest.param('sl2', AffineElement(1, (1,)), (Fraction(1, 2),),
                 r'<nu, 2 rho> = 1/2 is not an integer', id='fractional'),
    pytest.param('gl3', AffineElement(1, (1, 0, 0)), (-2, 0, 2),
                 r'the defect -1 is negative: lambda = \(0, 1, 0\)',
                 id='negative-defect')])
def test_bgx_class_record_check_names_datum_and_class(monkeypatch, name, x,
                                                      two_rho, what):
    """bgx_from_tree reads <nu, 2 rho> off the class record, whose checks
    see a 2 rho that makes the pairing fractional or the defect
    negative."""
    red = Reduction(AffineWeyl(builtin_datum(name)))
    monkeypatch.setattr(red.datum, 'two_rho', two_rho)
    with pytest.raises(InvariantError,
                       match="^datum '%s': %s, for the class kappa = "
                       % (name, what)) as info:
        red.bgx_from_tree(x)
    assert info.value.datum == name and info.value.element is None
    assert info.value.sigma_class in {
        red.bg.element_class(leaf.x)
        for leaf in red.build_reduction_tree(x).leaves()}


def test_invariant_check_survives_python_O():
    script = textwrap.dedent("""
        import sys
        from adlv.affine import AffineElement, AffineWeyl
        from adlv.datum import InvariantError, builtin_datum, datum_from_config
        from adlv.reduction import Reduction
        if __debug__:
            sys.exit('assert statements are still enabled')
        red = Reduction(AffineWeyl(builtin_datum('sl2')))
        x = AffineElement(1, (1,))
        y, a = red.find_down_move(x)
        # the first down edge of the walk from x now carries a move
        # record that reads as a length preserving move to the identity,
        # which has no down move
        e = red.aw.identity
        walk = red._walks[x]
        downs = list(walk[1])
        assert downs[0][:2] == (y, a)
        downs[0] = (y, a, (e, 0, e))
        red._walks[x] = (tuple(walk[0]), tuple(downs))
        red.descend_to_minimal(x)
        """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / 'src'))
    done = subprocess.run([sys.executable, '-O', '-c', script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "InvariantError: datum 'sl2': the move by the affine root" \
        in done.stderr
    assert 'changes the length by +0, not -2' in done.stderr


def class_key_recount(red, x):
    """Oracle: the class_key closure with every neighbour's length
    recounted by aff_length instead of carried through the search."""
    aw = red.aw
    x_min, _ = red.descend_to_minimal(x)
    lmin = aw.aff_length(x_min)
    cap = lmin + reduction.DEFAULT_SLACK
    seen = {x_min}
    frontier = [x_min]
    while frontier:
        nxt = []
        for y in frontier:
            neighbors = [aw.simple_sigma_conjugate(y, a)[0]
                         for a in aw.simple_affine]
            neighbors += [aw.mult(aw.mult(tinv, y), st)
                          for tinv, st in red._omega_pairs]
            for z in neighbors:
                if z not in seen and aw.aff_length(z) <= cap:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    canon = min((y for y in seen if aw.aff_length(y) == lmin),
                key=lambda y: (red.W.words[y.w], y.mu))
    b = red.bg.element_class(x_min)
    return (b.kappa, b.nu, lmin, canon)


@pytest.mark.parametrize('name', ['gl3', 'sl3_flip', 'gl4'])
def test_class_key_matches_recounting_closure(name):
    """On gl3 box(2, 6), sl3_flip box(2, 7) and 60 seeded gl4 elements."""
    aw = AffineWeyl(builtin_datum(name))
    elements = {'gl3': lambda: aw.box_elements(2, 6),
                'sl3_flip': lambda: aw.box_elements(2, 7),
                'gl4': lambda: seeded_sample(aw, 60, seed=4)}[name]()
    red = Reduction(aw)
    for x in elements:
        assert red.class_key(x) == class_key_recount(red, x), x


@pytest.mark.parametrize('name,bound,max_length', [
    ('sl4_flip', 1, 8), ('g2', 2, 8), ('sp4', 2, 8), ('sl3_flip', 2, 8),
    ('gl4', 1, 8)])
def test_type_ii_leaf_has_the_class_key_of_x(name, bound, max_length):
    """A cheap detector of one class split over two keys.  A type II child
    r_a x' r_{sigma a} is sigma-conjugate to x, as x' is, so under any
    branch choice exactly one leaf has n_I = 0, it lies in the class of
    x, and its key must be class_key(x)."""
    red = Reduction(AffineWeyl(builtin_datum(name)))
    for x in red.aw.box_elements(bound, max_length):
        for seed in range(1, 6):
            tree = red.build_reduction_tree(x, seed=seed)
            leaves = [leaf for leaf, ni, _ in tree.paths() if ni == 0]
            assert len(leaves) == 1, (x, seed)
            assert red.class_key(leaves[0].x) is red.class_key(x), (x, seed)
