"""One lazily built computation stack per root datum.

A :class:`Context` owns every layer for one datum, each built on first
use and then shared: the Weyl group, the affine group, the sigma-class
invariants, the quantum Bruhat graph, the reduction machinery and the
positive Coxeter layer.  Each layer keeps its own memo tables, so one
context is also one set of caches.
"""

from __future__ import annotations

from functools import cached_property

from .affine import AffineWeyl
from .bg import BGInvariants
from .datum import load_datum
from .pct import PCT
from .qbg import QuantumBruhatGraph
from .reduction import Reduction
from .weyl import WeylGroup

__all__ = ['Context']


class Context:
    """The layers of one datum, given by built-in name or JSON path.

    >>> ctx = Context('sl2')
    >>> ctx.W.size
    2
    >>> ctx.pct.qbg is ctx.qbg and ctx.red.bg is ctx.bg
    True
    """

    def __init__(self, name_or_path):
        self.name = name_or_path

    @cached_property
    def datum(self):
        return load_datum(self.name)

    @cached_property
    def W(self):
        return WeylGroup(self.datum)

    @cached_property
    def aw(self):
        return AffineWeyl(self.datum, self.W)

    @cached_property
    def bg(self):
        return BGInvariants(self.aw)

    @cached_property
    def red(self):
        return Reduction(self.aw, self.bg)

    @cached_property
    def qbg(self):
        return QuantumBruhatGraph(self.W)

    @cached_property
    def pct(self):
        return PCT(self.aw, self.red, self.qbg)
