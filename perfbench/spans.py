"""Per-layer tracing of the adlv library from outside.

A ``Tracer`` wraps the functions named in ``TARGETS`` where they are
bound (module-level functions in every ``adlv`` module that imported them
by name, methods on their class, classes through ``__init__``) and records
one span per call: name, start, end, parent span and the item it served.
Self time is a span's duration minus the durations of its direct child
spans.  Untraced runs never call ``install``, so they run the library
unwrapped.
"""

import array
import functools
import gzip
import importlib
import json
import sys
import time

MODULES = ('datum', 'lattice', 'weyl', 'affine', 'qbg', 'bg', 'reduction',
           'pct', 'cli')

# (metric name, adlv module, attribute path in that module); a class is
# traced through its __init__
TARGETS = (
    ('datum.builtin_datum', 'datum', 'builtin_datum'),
    ('datum.convex_hull_point', 'datum', 'RootDatum.convex_hull_point'),
    ('datum.dominance_leq', 'datum', 'RootDatum.dominance_leq'),
    ('datum.pi_projection', 'datum', 'RootDatum.pi_projection'),
    ('lattice.solve_rational_combination', 'lattice',
     'solve_rational_combination'),
    ('lattice.solve_in_cone', 'lattice', 'solve_in_cone'),
    ('lattice.QuotientPresentation.project', 'lattice',
     'QuotientPresentation.project'),
    ('weyl.WeylGroup', 'weyl', 'WeylGroup'),
    ('weyl.dominant_representative', 'weyl',
     'WeylGroup.dominant_representative'),
    ('weyl.is_partial_sigma_coxeter', 'weyl',
     'WeylGroup.is_partial_sigma_coxeter'),
    ('weyl.sigma_conjugate_to_partial_coxeter', 'weyl',
     'WeylGroup.sigma_conjugate_to_partial_coxeter'),
    ('affine.aff_length', 'affine', 'AffineWeyl.aff_length'),
    ('affine.simple_sigma_conjugate', 'affine',
     'AffineWeyl.simple_sigma_conjugate'),
    ('affine.lp_set', 'affine', 'AffineWeyl.lp_set'),
    ('affine.eta_sigma', 'affine', 'AffineWeyl.eta_sigma'),
    ('qbg.QuantumBruhatGraph', 'qbg', 'QuantumBruhatGraph'),
    ('qbg.distance_weight', 'qbg', 'QuantumBruhatGraph.distance_weight'),
    ('bg.newton_of_element', 'bg', 'BGInvariants.newton_of_element'),
    ('bg.lambda_invariant', 'bg', 'BGInvariants.lambda_invariant'),
    ('bg.strata_sets', 'bg', 'BGInvariants.strata_sets'),
    ('reduction.equal_length_orbit', 'reduction',
     'Reduction.equal_length_orbit'),
    ('reduction.find_down_move', 'reduction', 'Reduction.find_down_move'),
    ('reduction.class_key', 'reduction', 'Reduction.class_key'),
    ('reduction.build_reduction_tree', 'reduction',
     'Reduction.build_reduction_tree'),
    ('reduction.class_polynomials', 'reduction',
     'Reduction.class_polynomials'),
    ('pct.positive_coxeter_pairs', 'pct', 'PCT.positive_coxeter_pairs'),
    ('pct.pct_characterize', 'pct', 'PCT.pct_characterize'),
    ('pct.thmA_report', 'pct', 'PCT.thmA_report'),
    ('pct.bgx_interval', 'pct', 'PCT.bgx_interval'),
    ('pct.membership_witness', 'pct', 'PCT.membership_witness'),
    ('pct.endpoint_class', 'pct', 'PCT.endpoint_class'),
    ('cli.main', 'cli', 'main'),
)

# functions whose repeated arguments a memo could serve
REPEAT = ('datum.convex_hull_point', 'bg.lambda_invariant',
          'weyl.dominant_representative', 'reduction.class_key',
          'qbg.distance_weight')

SIZES = ('reduction.equal_length_orbit.size_max', 'reduction.tree.nodes',
         'reduction.tree.depth_max')

# spans kept for the trace file; aggregates count every span
SPAN_CAP = 200_000


def metric_names():
    """(name, unit) of every per-layer metric a traced pass yields."""
    out = []
    for name, _, _ in TARGETS:
        out += [(name + '.calls', 'count'), (name + '.self_s', 's')]
    for mod in MODULES:
        out += [(mod + '.calls', 'count'), (mod + '.self_s', 's')]
    out += [(name + '.repeat_ratio', 'ratio') for name in REPEAT]
    out += [(name, 'count') for name in SIZES]
    return out


def _tree_stats(tree):
    nodes, depth, todo = 0, 0, [(tree.root, 1)]
    while todo:
        node, d = todo.pop()
        nodes += 1
        depth = max(depth, d)
        if not node.is_leaf:
            todo += [(node.child_i, d + 1), (node.child_ii, d + 1)]
    return nodes, depth


class Tracer:
    """Spans and per-pass aggregates for the wrapped library functions."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.item = -1          # current item index; -1 is set-up
        self.active = False     # wrappers only record while active
        self._undo = []
        self._children = []     # child time of each open span
        self._parent = -1
        self._next_id = 0
        self.kept = 0
        self.dropped = 0
        self._spans = {k: array.array(t) for k, t in
                       (('id', 'q'), ('name', 'H'), ('start', 'd'),
                        ('end', 'd'), ('parent', 'q'), ('item', 'q'))}
        self.begin_pass()

    def begin_pass(self):
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self._seen = {name: set() for name in REPEAT}
        self._repeats = dict.fromkeys(REPEAT, 0)
        self.sizes = dict.fromkeys(SIZES, 0)

    # -- wrapping ----------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module('adlv.' + m) for m in MODULES}
        bound = [m for n, m in list(sys.modules.items())
                 if n == 'adlv' or n.startswith('adlv.')]
        for i, (_, mod, path) in enumerate(TARGETS):
            obj = mods[mod]
            parts = path.split('.')
            if len(parts) == 1 and isinstance(getattr(obj, path), type):
                parts = [path, '__init__']
            if len(parts) == 2:
                cls = getattr(obj, parts[0])
                orig = cls.__dict__[parts[1]]
                setattr(cls, parts[1], self._wrap(i, orig))
                self._undo.append((cls, parts[1], orig))
                continue
            orig = getattr(obj, path)
            wrapped = self._wrap(i, orig)
            for m in bound:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def _wrap(self, i, fn):
        tracer = self
        name = self.names[i]
        repeat = name in REPEAT
        orbit = name == 'reduction.equal_length_orbit'
        tree = name == 'reduction.build_reduction_tree'
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if repeat:
                tracer._note_args(name, args)
            children = tracer._children
            parent = tracer._parent
            span = tracer._next_id
            tracer._next_id = span + 1
            tracer._parent = span
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                tracer.self_s[i] += dur - children.pop()
                tracer.calls[i] += 1
                if children:
                    children[-1] += dur
                tracer._parent = parent
                tracer._record(span, i, start, end, parent)
            if orbit:
                s = tracer.sizes
                key = 'reduction.equal_length_orbit.size_max'
                s[key] = max(s[key], len(result))
            elif tree:
                nodes, depth = _tree_stats(result)
                s = tracer.sizes
                s['reduction.tree.nodes'] += nodes
                s['reduction.tree.depth_max'] = max(
                    s['reduction.tree.depth_max'], depth)
            return result

        return wrapper

    def _note_args(self, name, args):
        owner = args[0]
        datum = getattr(owner, 'datum', owner)
        key = (getattr(datum, 'name', None), args[1:])
        seen = self._seen[name]
        if key in seen:
            self._repeats[name] += 1
        else:
            seen.add(key)

    def _record(self, span, i, start, end, parent):
        if self.kept >= SPAN_CAP:
            self.dropped += 1
            return
        self.kept += 1
        s = self._spans
        s['id'].append(span)
        s['name'].append(i)
        s['start'].append(start)
        s['end'].append(end)
        s['parent'].append(parent)
        s['item'].append(self.item)

    # -- results -------------------------------------------------------------

    def pass_metrics(self):
        """Per-layer metrics of the pass since ``begin_pass``."""
        out = {}
        for i, name in enumerate(self.names):
            out[name + '.calls'] = self.calls[i]
            out[name + '.self_s'] = self.self_s[i]
        for mod in MODULES:
            idx = [i for i, n in enumerate(self.names)
                   if n.split('.')[0] == mod]
            out[mod + '.calls'] = sum(self.calls[i] for i in idx)
            out[mod + '.self_s'] = sum(self.self_s[i] for i in idx)
        for name in REPEAT:
            calls = self.calls[self.names.index(name)]
            out[name + '.repeat_ratio'] = (self._repeats[name] / calls
                                           if calls else 0.0)
        out.update(self.sizes)
        return out

    def write(self, path):
        """Write the kept spans as gzipped JSON: one row per span."""
        s = self._spans
        rows = zip(s['id'], s['name'], s['start'], s['end'], s['parent'],
                   s['item'])
        doc = {'columns': ['id', 'name', 'start', 'end', 'parent', 'item'],
               'names': self.names, 'kept': self.kept,
               'dropped': self.dropped,
               'spans': [list(r) for r in rows]}
        with gzip.open(path, 'wt') as f:
            json.dump(doc, f)
