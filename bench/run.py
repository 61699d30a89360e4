'''avtag benchmark: runs the real ``avtag`` CLI on seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload wide --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --trace 0

Workloads (see ``gen.WORKLOADS`` for sizes and BENCHMARK.json for why):

* ``wide``   ``label`` with tags, compat and stats outputs on a VirusTotal-like
             corpus whose families the knowledge base knows;
* ``mining`` ``label --stats-out`` on a corpus whose families the knowledge
             base mostly does not know, with OEM engines copying labels;
* ``update`` ``update`` against the ``wide`` knowledge base on a synthetic
             stats file.

Each run generates its inputs from ``--seed``, warms up once, then for
``--seconds`` seconds repeats the set-up command (the same command on a
minimal input), the full command and ``calibrate.py``, each as a child
process, and reports medians of times normalized to the machine's speed (see
``Run.end_to_end``).  With ``--trace 1`` it instead alternates the untraced
command with a traced in-process run (``tracer.py``) and reports the
per-layer metrics.

Every run checks its outputs: exit code 0, the read/labeled/skipped (or
relation) counts in the stderr summary equal to what the generator planted,
output bytes identical across repetitions, between traced and untraced runs,
and equal to the digest in ``digests.json`` when one is recorded for the seed.
A failed check marks every operation of that repetition as failed.

A human-readable table goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
'''

import argparse
import collections
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen
import launch
import score
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, 'src')
WORK = os.path.join(ROOT, '.bench_work')
DIGESTS = os.path.join(BENCH_DIR, 'digests.json')
LAUNCH = os.path.join(BENCH_DIR, 'launch.py')

#: a normalized time is a measured time times REFERENCE_S over calibrate.py's
#: time measured around it; 0.5 s is a round figure a little below
#: calibrate.py's median time on the baseline machine (0.53-0.59 s), and only
#: sets the scale of normalized times
REFERENCE_S = 0.5

#: end-to-end metrics reported on every workload: name -> unit
END_TO_END = {
    'wall_s': 's',
    'ops_per_s': '1/s',
    'setup_s': 's',
    'peak_rss_mib': 'MiB',
}

#: output files each workload's command writes
OUTPUTS = {
    'wide': ('tags.tsv', 'families.tsv', 'stats.tsv'),
    'mining': ('stats.tsv',),
    'update': ('taxonomy', 'tagging', 'expansion', 'unhandled.tsv', 'changelog.txt'),
}

_LABEL_FLAGS = {'tags.tsv': '--tags-out', 'families.tsv': '--compat-out',
                'stats.tsv': '--stats-out'}
_LABEL_SUMMARY = re.compile(r'^samples read (\d+), labeled (\d+), skipped (\d+)', re.M)
_UPDATE_SUMMARY = re.compile(r'^relations: all (\d+), strong (\d+), os_removed (\d+),', re.M)


#: outcome of one command run as a child process
Child = collections.namedtuple('Child', 'code wall_s rss_mib stderr digest')


def cli_args(plan, outdir, minimal=False):
    '''avtag arguments for the workload's command, writing under outdir.'''
    files = plan['files']
    source = files['minimal' if minimal else 'input']
    kb = ['--taxonomy', files['taxonomy'], '--tagging', files['tagging'],
          '--expansion', files['expansion']]
    if plan['workload'] == 'update':
        return ['update', '--stats', source] + kb + ['-o', outdir]
    args = ['label', '-i', source] + kb
    for name in OUTPUTS[plan['workload']]:
        args += [_LABEL_FLAGS[name], os.path.join(outdir, name)]
    return args


def digest(workload, outdir):
    '''sha256 over the workload's output files, in a fixed order.'''
    sha = hashlib.sha256()
    for name in OUTPUTS[workload]:
        sha.update(name.encode() + b'\0')
        try:
            with open(os.path.join(outdir, name), 'rb') as handle:
                sha.update(handle.read())
        except FileNotFoundError:
            sha.update(b'<missing>')
        sha.update(b'\0')
    return sha.hexdigest()


def run_child(argv, rundir, workload=None):
    '''Runs argv (from src/, so avtag imports from the checkout) and measures it.

    Outputs go to rundir/out, stderr to rundir/stderr.txt; the digest covers
    the workload's outputs, if a workload is given.  The command is started
    by launch.py, which measures its wall time, from just before process
    start to just after exit, and its peak RSS, the ru_maxrss reported by
    wait4, without the runner's own memory in it.
    '''
    outdir = os.path.join(rundir, 'out')
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    err_path = os.path.join(rundir, 'stderr.txt')
    argv = [arg.replace('{out}', outdir) for arg in argv]
    with open(err_path, 'wb') as err:
        launcher = subprocess.run(
            [sys.executable, LAUNCH] + argv, cwd=SRC,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            timeout=launch.TIMEOUT_S + 30, check=True)
    code, wall, rss_kib = launcher.stdout.split()[-3:]
    with open(err_path, encoding='utf-8', errors='replace') as handle:
        stderr = handle.read()
    return Child(int(code), float(wall), int(rss_kib) / 1024.0, stderr,
                 digest(workload, outdir) if workload else None)


def summary_ok(workload, stderr, counts):
    '''True when the stderr summary reports exactly the planted counts.'''
    if workload == 'update':
        match = _UPDATE_SUMMARY.search(stderr)
        expected = (counts['all'], counts['strong'], counts['os_removed'])
    else:
        match = _LABEL_SUMMARY.search(stderr)
        expected = (counts['read'], counts['labeled'], counts['skipped'])
    return match is not None and tuple(map(int, match.groups())) == expected


class Checker:
    '''Output checks shared by every repetition of one run.'''

    def __init__(self, plan):
        self.plan = plan
        self.minimal_counts = ({'all': 0, 'strong': 0, 'os_removed': 0}
                               if plan['workload'] == 'update'
                               else {'read': 1, 'labeled': 1, 'skipped': 0})
        with open(DIGESTS, encoding='utf-8') as handle:
            recorded = json.load(handle)
        self.expected = recorded.get(plan['workload'], {}).get(str(plan['seed']))
        self.problems = []

    def check(self, child, what, minimal=False):
        '''Records problems with one child's result; returns True when it passed.'''
        workload = self.plan['workload']
        counts = self.minimal_counts if minimal else self.plan['counts']
        problems = []
        if child.code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or ['']
            problems.append('%s exited %d: %s' % (what, child.code, tail[0]))
        elif not summary_ok(workload, child.stderr, counts):
            problems.append('%s summary differs from the planted counts %s' % (what, counts))
        if not minimal:
            if self.expected is None:
                self.expected = child.digest
            if child.digest != self.expected:
                problems.append('%s output digest %s, expected %s'
                                % (what, child.digest, self.expected))
        self.problems.extend(problems)
        return not problems


def calibrate(work):
    '''Wall time of one calibrate.py run, the machine's current speed.'''
    child = run_child([sys.executable, os.path.join(BENCH_DIR, 'calibrate.py')],
                      os.path.join(work, 'calibrate'))
    if child.code != 0:
        raise RuntimeError('calibrate.py exited %d: %s' % (child.code, child.stderr[-500:]))
    return child.wall_s


class Run:
    '''Repetitions of one workload and what they measured.'''

    def __init__(self, plan, work):
        self.plan = plan
        self.work = work
        self.checker = Checker(plan)
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.families = None
        self.raw = {}
        self.trace_path = os.path.join(work, 'trace.json')

    def command(self, kind):
        python = sys.executable
        if kind == 'traced':
            return ([python, os.path.join(BENCH_DIR, 'tracer.py'), self.trace_path, '--']
                    + cli_args(self.plan, '{out}'))
        return [python, '-m', 'avtag.cli'] + cli_args(self.plan, '{out}', kind == 'setup')

    def run(self, kind):
        '''Runs and checks one setup, full or traced command; returns its Child.'''
        rundir = os.path.join(self.work, kind)
        child = run_child(self.command(kind), rundir, self.plan['workload'])
        if kind == 'setup':
            self.checker.check(child, 'setup run', minimal=True)
            return child
        self.attempted += self.plan['ops']
        if not self.checker.check(child, '%s run %d' % (kind, self.reps + 1)):
            self.failed += self.plan['ops']
        elif self.families is None and self.plan['workload'] == 'wide':
            self.families = score.cluster_scores(
                score.read_labels(self.plan['files']['truth']),
                score.read_labels(os.path.join(rundir, 'out', 'families.tsv')))
        return child

    def end_to_end(self, seconds):
        '''Alternates setup and full runs with calibrations for `seconds` seconds.

        Times are normalized to the machine's speed: each repetition's times
        are scaled by REFERENCE_S over the mean of the calibrations just
        before and just after it.
        '''
        self.run('setup')  # warm-up: compiles byte code, fills the file cache
        refs = [calibrate(self.work)]
        walls, setups, rss, setup_rss = [], [], [], []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            setup = self.run('setup')
            setups.append(setup.wall_s)
            setup_rss.append(setup.rss_mib)
            child = self.run('full')
            walls.append(child.wall_s)
            rss.append(child.rss_mib)
            refs.append(calibrate(self.work))
            self.reps += 1
        factors = [2 * REFERENCE_S / (before + after) for before, after in zip(refs, refs[1:])]
        wall = statistics.median([w * f for w, f in zip(walls, factors)])
        bare = run_child([sys.executable, '-c', 'pass'], os.path.join(self.work, 'bare'))
        self.raw = {
            'raw wall_s': (statistics.median(walls), 's'),
            'raw setup_s': (statistics.median(setups), 's'),
            'raw calibrate_s': (statistics.median(refs), 's'),
            # the floor under peak_rss_mib: a bare interpreter started the same way
            'setup peak_rss_mib': (statistics.median(setup_rss), 'MiB'),
            'bare python peak_rss_mib': (bare.rss_mib, 'MiB'),
            'runner peak_rss_mib': (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 'MiB'),
        }
        return {
            'wall_s': wall,
            'ops_per_s': self.plan['ops'] / wall,
            'setup_s': statistics.median([s * f for s, f in zip(setups, factors)]),
            'peak_rss_mib': statistics.median(rss),
        }

    def traced(self, seconds):
        '''Alternates untraced and traced full runs for `seconds` seconds.'''
        self.run('setup')
        walls, traced_walls, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            walls.append(self.run('full').wall_s)
            if os.path.exists(self.trace_path):
                os.remove(self.trace_path)
            traced_walls.append(self.run('traced').wall_s)
            with open(self.trace_path, encoding='utf-8') as handle:
                layers.append(json.load(handle))
            self.reps += 1
        metrics = {name: statistics.median([layer['metrics'][name] for layer in layers])
                   for name in layers[0]['metrics']}
        metrics['trace.wall_s'] = statistics.median(traced_walls)
        metrics['trace.overhead_s'] = statistics.median(
            [traced - plain for traced, plain in zip(traced_walls, walls)])
        metrics['trace.unaccounted_s'] = statistics.median(
            [wall - layer['main_s'] for wall, layer in zip(traced_walls, layers)])
        self.raw = {
            'untraced wall_s': (statistics.median(walls), 's'),
            'traced cli.main total': (
                statistics.median([layer['main_s'] for layer in layers]), 's'),
            'self times + bookkeeping': (statistics.median(
                [layer['self_sum_s'] + layer['metrics']['trace.bookkeeping_s']
                 for layer in layers]), 's'),
        }
        for layer in layers:
            if layer['hook_failures']:
                self.checker.problems.append(
                    'trace bookkeeping failed: %s' % (layer['hook_failures'],))
        return {name: metrics[name] for name in tracer.PER_LAYER}


def report(run, metrics, trace):
    '''Writes the human-readable table for one workload to stderr.'''
    plan = run.plan
    out = sys.stderr
    out.write('== %s seed %d: %d repetition(s), medians%s\n' % (
        plan['workload'], plan['seed'], run.reps,
        '' if trace else '; times normalized to calibrate.py = %gs' % REFERENCE_S))
    if trace:
        rows = [(name, metrics[name], tracer.PER_LAYER[name]) for name in tracer.PER_LAYER]
    else:
        wall = metrics['wall_s']
        label = plan['workload'] != 'update'
        scores = run.families or (None, None, None)
        rows = [
            ('wall_s', wall, 's'),
            ('ops_per_s', metrics['ops_per_s'], '1/s'),
            ('samples_per_s', plan['ops'] / wall if label else None, '1/s'),
            ('labels_per_s', plan['counts']['labels'] / wall if label else None, '1/s'),
            ('relations_per_s', None if label else plan['ops'] / wall, '1/s'),
            ('setup_s', metrics['setup_s'], 's'),
            ('peak_rss_mib', metrics['peak_rss_mib'], 'MiB'),
            ('family_precision', scores[0], 'share'),
            ('family_recall', scores[1], 'share'),
            ('family_f1', scores[2], 'share'),
        ]
    rows += [(name, value, unit) for name, (value, unit) in run.raw.items()]
    rows.append(('failed_share', run.failed / run.attempted if run.attempted else 0.0,
                 'share'))
    for name, value, unit in rows:
        text = 'n/a' if value is None else '%.6g' % value
        out.write('  %-38s %14s %-6s n=%d\n' % (name, text, unit, run.reps))
    out.write('  output sha256 %s\n' % (run.checker.expected,))
    for problem in run.checker.problems:
        out.write('  FAILED: %s\n' % (problem,))


def run_workload(workload, seed, seconds, trace):
    '''Generates, measures, checks and reports one workload; returns the Run and metrics.'''
    work = os.path.join(WORK, '%s-%d-%d' % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = Run(gen.build(workload, seed, work), work)
        metrics = run.traced(seconds) if trace else run.end_to_end(seconds)
        report(run, metrics, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n', 1)[0])
    parser.add_argument('--workload', required=True, choices=sorted(gen.WORKLOADS) + ['all'])
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, 'avtag', 'cli.py')):
        sys.stderr.write('error: avtag sources not found under %s\n' % (SRC,))
        return 2
    workloads = sorted(gen.WORKLOADS) if args.workload == 'all' else [args.workload]
    units = tracer.PER_LAYER if args.trace else END_TO_END
    correct = True
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        run, values = run_workload(workload, args.seed, args.seconds, args.trace)
        correct = correct and not run.checker.problems
        attempted += run.attempted
        failed += run.failed
        prefix = '' if len(workloads) == 1 else workload + '.'
        metrics.update({prefix + name: {'value': value, 'unit': units[name]}
                        for name, value in values.items()})
    print(json.dumps({'correct': correct, 'attempted': attempted, 'failed': failed,
                      'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
