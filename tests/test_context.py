"""The per-datum Context: lazy layers, each built once and shared."""

from adlv import Context


def test_weyl_group_alone_builds_no_later_layer():
    ctx = Context('gl6')
    assert ctx.W.size == 720
    assert ctx.aw.W is ctx.W
    assert not {'bg', 'qbg', 'red', 'pct'} & set(vars(ctx))


def test_layers_are_shared():
    ctx = Context('sl2')
    assert ctx.qbg is ctx.pct.qbg
    assert ctx.red is ctx.pct.red
    assert ctx.bg is ctx.red.bg is ctx.pct.bg
    assert ctx.pct is ctx.pct
