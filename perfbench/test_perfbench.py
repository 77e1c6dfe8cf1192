"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / 'src')]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from adlv.pct import PCT  # noqa: E402
from adlv.reduction import Reduction  # noqa: E402
from adlv.weyl import WeylGroup  # noqa: E402

BENCH = json.loads((HERE.parent / 'BENCHMARK.json').read_text())
LIMIT = 4


def printed(rec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(rec)
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize('name', list(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(name):
    rec = run.measure(name, run.DEFAULT_SEED, 0, False, limit=LIMIT)
    lines, result = printed(rec)
    assert result['correct'] and result['failed'] == 0
    assert result['attempted'] == LIMIT
    want = {m['name']: m['unit'] for m in BENCH['end_to_end']}
    assert {k: v['unit'] for k, v in result['metrics'].items()} == want
    for k, unit in want.items():
        value = result['metrics'][k]['value']
        assert isinstance(value, float) and value > 0
        assert any(line.startswith('%s = ' % k) and (' %s' % unit) in line
                   for line in lines)
    assert any(line.startswith('failed_ratio = ') for line in lines)


def test_smoke_trace_prints_every_per_layer_metric():
    orig = WeylGroup.dominant_representative
    rec = run.measure('cli_cold', run.DEFAULT_SEED, 0, True, limit=LIMIT)
    assert WeylGroup.dominant_representative is orig   # wrappers removed
    _, result = printed(rec)
    want = {m['name']: m['unit'] for m in BENCH['per_layer']}
    assert {k: v['unit'] for k, v in result['metrics'].items()} == want
    assert result['metrics']['cli.main.calls']['value'] == LIMIT
    assert result['metrics']['cli.self_s']['value'] > 0
    assert rec['tracer'].kept > 0


def test_benchmark_json_lists_what_the_code_measures():
    assert [m['name'] for m in BENCH['end_to_end']] \
        == [n for n, _ in run.END_TO_END]
    assert [(m['name'], m['unit']) for m in BENCH['per_layer']] \
        == spans.metric_names() + list(run.TRACE_EXTRA)
    assert [w['name'] for w in BENCH['workloads']] == list(workloads.WORKLOADS)


def test_wrong_classpoly_is_counted_not_dropped(monkeypatch):
    orig = Reduction.class_polynomials

    def wrong(self, x, seed=None, tree=None):
        polys = orig(self, x, seed=seed, tree=tree)
        if seed == 2:
            polys = {k: p + (1,) for k, p in polys.items()}
        return polys

    monkeypatch.setattr(Reduction, 'class_polynomials', wrong)
    rec = run.measure('classpoly_sl4', run.DEFAULT_SEED, 0, False,
                      limit=LIMIT)
    assert rec['attempted'] == LIMIT and rec['failed'] == LIMIT
    assert not rec['correct'] and rec['failed_ratio'] == 1
    assert all('branch seed 2' in f['errors'][0] for f in rec['failures'])


def test_wrong_pairs_are_counted_not_dropped(monkeypatch):
    monkeypatch.setattr(PCT, 'positive_coxeter_pairs', lambda self, x: [])
    rec = run.measure('scan_gl3', run.DEFAULT_SEED, 0, False, limit=LIMIT)
    _, result = printed(rec)
    assert result['attempted'] == LIMIT and not result['correct']
    assert result['failed'] >= 1


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, 'ROOT', tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(['--workload', 'scan_gl3', '--seconds', '1'])
    assert code != 0 and out.getvalue() == ''


def test_host_speed_takes_out_probes_and_slowness():
    host = run.HostSpeed(0.5)
    host.at = [0.0, 1.0, 1.05, 3.0]
    host.took = [0.001, 0.001, 0.002, 0.001]
    host.slow = [5.0, 2.0, 2.0, 5.0]
    # the probes at 1.0 and 1.05 ran inside the call and set its speed
    assert host.scale(0.99, 0.111) == pytest.approx((0.111 - 0.003) / 2)


def test_probe_ticks_stop_with_the_run():
    run.measure('cli_cold', run.DEFAULT_SEED, 0, False, limit=LIMIT)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
