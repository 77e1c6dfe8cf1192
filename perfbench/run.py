"""adlv benchmark: one workload, one seed, one process and thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan_gl3 --seed 0 --seconds 10 --trace 0

Workloads are described in ``workloads.py`` and ``README.md``.  The run
repeats passes (a fresh per-datum stack, then every item once) until
``--seconds`` have passed, checks every item's output, and prints each
metric by name with its unit.  Times are scaled to an unloaded host by
probes taken throughout the run (``HostSpeed``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``).  A record of the run goes to
``perfbench/out/``.
"""

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / 'out'
DEFAULT_SEED = 0
MIN_SETUPS = 3          # setup_s is the median of at least this many
SETUP_SHARE = 0.05      # extra set-ups between passes, up to this share
                        # of the item time
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
PROBE_LOOPS = 200       # Fraction steps of the first host probe
PROBE_KEYS = 2000       # dict size of the second host probe
PROBE_GAP_S = 0.04      # seconds between host probes
PROBE_WINDOW_S = 0.25   # probes this close to a call measure its host speed
REF_PROBE_S = (0.00045, 0.001)   # the probes' seconds on an unloaded host

END_TO_END = (('setup_s', 's'), ('items_per_s', '1/s'),
              ('item_p50_ms', 'ms'), ('item_tail_ms', 'ms'),
              ('peak_rss_mb', 'MB'))
TRACE_EXTRA = (('host.ref_loop_s', 's'), ('trace.items_per_s_untraced', '1/s'),
               ('trace.items_per_s_traced', '1/s'),
               ('trace.overhead_items_per_s', '1/s'))


def ref_loop():
    """Seconds for a fixed stdlib Fraction/dict loop: host speed drift."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 20001):
        acc += Fraction(i % 7, i % 11 + 1)
        table[i % 997] = acc
    return time.perf_counter() - start


def probe():
    """Seconds for the two host probes, GC off: a short Fraction/dict
    loop, then filling and sorting a dict of tuple keys."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, PROBE_LOOPS + 1):
        acc += Fraction(i % 7, i % 11 + 1)
        table[i % 97] = acc
    mid = time.perf_counter()
    table = {}
    for i in range(PROBE_KEYS):
        table[(i * 7919) % 100003, i & 7] = [i, i + 1]
    sorted(table)
    end = time.perf_counter()
    if enabled:
        gc.enable()
    return mid - start, end - mid


class HostSpeed:
    """Host speed over a run, from short probes every ``PROBE_GAP_S``.

    A shared host runs the same code up to twice as slowly, in phases of
    a few seconds to minutes, and the probes slow down with it.  While
    ticking, a SIGALRM handler runs the probes, on the one thread, in the
    middle of whatever call is being timed.  ``scale`` takes those probes
    out of the call's time, then divides what is left by the host's
    slowness: the median, over the probes within ``PROBE_WINDOW_S`` of
    the call, of a weighted geometric mean of each probe's time over its
    time on an unloaded host (``REF_PROBE_S``).  ``fraction_share`` is
    the weight of the Fraction probe.
    """

    def __init__(self, fraction_share):
        self.weights = (fraction_share, 1 - fraction_share)
        self.at, self.took, self.slow = [], [], []
        self.parts = []
        self.busy = False

    def probe(self, force=False):
        if self.busy:           # a tick during a probe
            return
        self.busy = True
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= PROBE_GAP_S:
            self.at.append(now)
            parts = probe()
            self.parts.append(parts)
            self.took.append(sum(parts))
            self.slow.append(math.prod(
                (t / ref) ** w
                for t, ref, w in zip(parts, REF_PROBE_S, self.weights)))
        self.busy = False

    def _tick(self, signum, frame):
        self.probe()

    def start_ticks(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)

    def stop_ticks(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, elapsed):
        end = start + elapsed
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        work = elapsed - sum(self.took[lo:hi])
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        return work / statistics.median(self.slow[lo:hi] or self.slow)


def quantile(values, p):
    """Linear-interpolated p-quantile, 0 <= p <= 1."""
    s = sorted(values)
    pos = p * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timed_setup(wl, host):
    host.probe(force=True)
    t0 = time.perf_counter()
    wl.setup()
    return t0, time.perf_counter() - t0


def measure(name, seed, seconds, trace, limit=None):
    """Run one workload; returns the run record (see ``main``)."""
    import spans
    import workloads
    recorded = json.loads((HERE / 'digests.json').read_text()).get(name, {})
    gen_start = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed, limit)
    gen_s = time.perf_counter() - gen_start
    tracer = spans.Tracer() if trace else None
    host = HostSpeed(wl.fraction_share)
    # timed calls as (start, wall seconds)
    setups, refs, layer = [], [], []
    lat = {False: [], True: []}
    first = {}
    attempted, failures = 0, []
    setup_s = item_s = 0.0     # wall seconds of untraced set-ups and items
    traced = False
    whole = 0                  # untraced passes run to their end
    start = time.perf_counter()
    try:
        while True:
            host.stop_ticks()
            refs.append(ref_loop())
            gc.collect()
            if not traced:
                host.start_ticks()
            if traced:
                tracer.begin_pass()
                tracer.install()
                tracer.item = -1 - len(layer)
                tracer.active = True
            host.probe(force=True)
            t0 = time.perf_counter()
            st = wl.setup()
            if not traced:
                setups.append((t0, time.perf_counter() - t0))
                setup_s += setups[-1][1]
            for item in wl.items:
                host.probe()
                if traced:
                    tracer.item = attempted
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    result, errors = wl.run(st, item.payload), []
                except Exception as e:
                    result, errors = None, ['raised %s: %s'
                                            % (type(e).__name__, e)]
                lat[traced].append((t0, time.perf_counter() - t0))
                if traced:
                    tracer.active = False
                attempted += 1
                if not errors:
                    try:
                        errors, canon = wl.check(st, item.payload, result)
                    except Exception as e:
                        errors, canon = ['oracle raised %s: %s'
                                         % (type(e).__name__, e)], None
                    if canon is not None:
                        d = workloads.digest(canon)
                        if first.setdefault(item.key, d) != d:
                            errors.append('output differs from the first '
                                          'pass')
                        if item.key in recorded and recorded[item.key] != d:
                            errors.append('output digest differs from '
                                          'digests.json')
                if errors:
                    failures.append({'item': item.key, 'errors': errors})
                if not traced:
                    item_s += lat[False][-1][1]
                    # an untraced run stops at --seconds, after a whole pass
                    if (whole and not trace
                            and time.perf_counter() - start >= seconds):
                        break
            else:
                whole += not traced
            if traced:
                tracer.active = False
                tracer.uninstall()
                layer.append(tracer.pass_metrics())
            del st
            gc.collect()
            # extra set-ups between passes, one stack alive at a time
            while not traced and setup_s < SETUP_SHARE * item_s:
                setups.append(timed_setup(wl, host))
                setup_s += setups[-1][1]
            done = time.perf_counter() - start >= seconds
            if trace:
                traced = not traced
                if done and layer:
                    break
            elif done:
                break
        host.start_ticks()
        gc.collect()
        while len(setups) < MIN_SETUPS:
            setups.append(timed_setup(wl, host))
        host.probe(force=True)
    finally:
        host.stop_ticks()

    def scaled(calls):
        return [host.scale(t0, d) for t0, d in calls]

    n_pass = len(wl.items)
    tail_p = max(0.5, 1 - TAIL_BEYOND / n_pass)
    # whole passes only: items early in a pass meet colder memos, so a
    # pass stopped early would over-weigh them
    whole_calls = lat[False][:whole * n_pass]
    plain = scaled(whole_calls)
    wall = [d for _, d in whole_calls]
    pass_rates = [n_pass / sum(plain[i:i + n_pass])
                  for i in range(0, len(plain), n_pass)]
    metrics = {
        'setup_s': statistics.median(scaled(setups)),
        'items_per_s': len(plain) / sum(plain),
        'item_p50_ms': 1000 * statistics.median(plain),
        'item_tail_ms': 1000 * quantile(plain, tail_p),
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    wall_metrics = {
        'setup_s': statistics.median(d for _, d in setups),
        'items_per_s': len(wall) / sum(wall),
        'item_p50_ms': 1000 * statistics.median(wall),
        'item_tail_ms': 1000 * quantile(wall, tail_p),
    }
    units = dict(END_TO_END)
    if trace:
        per_pass = {k: statistics.mean(p[k] for p in layer)
                    for k in layer[0]}
        for k in per_pass:
            if k.endswith('_max'):
                per_pass[k] = max(p[k] for p in layer)
        untraced = metrics['items_per_s']
        traced_rate = len(lat[True]) / sum(scaled(lat[True]))
        per_pass.update({
            'host.ref_loop_s': statistics.median(refs),
            'trace.items_per_s_untraced': untraced,
            'trace.items_per_s_traced': traced_rate,
            'trace.overhead_items_per_s': untraced - traced_rate})
        units = dict(spans.metric_names() + list(TRACE_EXTRA))
        metrics = per_pass
    failed = len(failures)
    return {
        'workload': name, 'seed': seed, 'seconds': seconds, 'trace': trace,
        'items_per_pass': n_pass, 'passes': whole,
        'traced_passes': len(layer), 'generate_s': gen_s,
        'setups': len(setups),
        'tail_percentile': 100 * tail_p, 'tail_samples': len(plain),
        'host_ref_loop_s': statistics.median(refs), 'host_ref_loops_s': refs,
        'host_probes': len(host.slow),
        'host_slowness': statistics.median(host.slow),
        'host_slowness_quartiles': statistics.quantiles(host.slow, n=4),
        'wall_metrics': wall_metrics,
        'item_calls': [[round(t0 - start, 4), round(d, 6), round(x, 6)]
                       for (t0, d), x in zip(lat[False],
                                             scaled(lat[False]))],
        'probes': [[round(t - start, 4)] + [round(d, 7) for d in parts]
                   for t, parts in zip(host.at, host.parts)],
        'pass_items_per_s': pass_rates, 'attempted': attempted, 'failed': failed,
        'failed_ratio': failed / attempted,
        'correct': failed == 0, 'failures': failures,
        'metrics': {k: {'value': v, 'unit': units[k]}
                    for k, v in metrics.items()},
        'digests': first, 'tracer': tracer,
        'meta': metadata(),
    }


def metadata():
    return {'git_sha': git_sha(), 'src_sha256': src_digest(),
            'python': platform.python_version(), 'nproc': os.cpu_count()}


def git_sha():
    head = ROOT / '.git' / 'HEAD'
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith('ref: '):
        return ref
    ref = ref[5:]
    loose = ROOT / '.git' / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / '.git' / 'packed-refs'
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / 'src' / 'adlv').glob('*.py')):
        h.update(path.name.encode() + b'\0' + path.read_bytes())
    return h.hexdigest()


def report(rec):
    """Human-readable lines, then the result object as the last line."""
    m = rec['metrics']
    meta = rec['meta']
    print('perfbench %s seed=%d items/pass=%d passes=%d traced_passes=%d '
          'python=%s nproc=%s git=%s' % (
              rec['workload'], rec['seed'], rec['items_per_pass'],
              rec['passes'], rec['traced_passes'], meta['python'],
              meta['nproc'], meta['git_sha']))
    for k, v in m.items():
        extra = ''
        if k == 'item_tail_ms':
            extra = '  (p%.1f of %d samples)' % (rec['tail_percentile'],
                                                 rec['tail_samples'])
        if k in rec['wall_metrics']:
            extra += '  (wall %.6g)' % rec['wall_metrics'][k]
        print('%s = %.6g %s%s' % (k, v['value'], v['unit'], extra))
    print('failed_ratio = %.6g ratio  (%d of %d items)' % (
        rec['failed_ratio'], rec['failed'], rec['attempted']))
    if 'host.ref_loop_s' not in m:
        print('host.ref_loop_s = %.6g s' % rec['host_ref_loop_s'])
    print('host slowness = %.4g median of %d probes, quartiles %s' % (
        rec['host_slowness'], rec['host_probes'],
        ' '.join('%.4g' % q for q in rec['host_slowness_quartiles'])))
    for f in rec['failures'][:10]:
        print('FAILED %s: %s' % (f['item'], '; '.join(f['errors'])),
              file=sys.stderr)
    print(json.dumps({'correct': rec['correct'],
                      'attempted': rec['attempted'],
                      'failed': rec['failed'],
                      'metrics': m}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument('--workload', required=True)
    p.add_argument('--seed', type=int, default=DEFAULT_SEED)
    p.add_argument('--seconds', type=float, required=True)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / 'src'
    if not (src / 'adlv' / '__init__.py').is_file():
        print('perfbench: no adlv sources under %s' % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print('perfbench: unknown workload %r (known: %s)' % (
            args.workload, ', '.join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = '%s-seed%d-trace%d' % (args.workload, args.seed, args.trace)
    tracer = rec.pop('tracer')
    if tracer is not None:
        tracer.write(OUT / (stem + '-spans.json.gz'))
    (OUT / (stem + '.json')).write_text(json.dumps(rec, indent=1))
    report(rec)
    return 0


if __name__ == '__main__':
    sys.exit(main())
