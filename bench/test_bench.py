'''Tests for the benchmark itself: generator, scorer, launcher, tracer and BENCHMARK.json.'''

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if os.path.join(ROOT, 'src') not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, 'src'))

import gen  # noqa: E402
import run  # noqa: E402
import score  # noqa: E402
import tracer  # noqa: E402

#: small enough that every workload generates in well under a second
SCALE = 0.02


def _build_bytes(outdir, workload, seed):
    outdir.mkdir()
    gen.build(workload, seed, str(outdir), scale=SCALE)
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


@pytest.mark.parametrize('workload', sorted(gen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    first = _build_bytes(tmp_path / 'first', workload, 7)
    again = _build_bytes(tmp_path / 'again', workload, 7)
    other = _build_bytes(tmp_path / 'other', workload, 8)
    assert first == again
    assert first.keys() == other.keys()
    input_name = 'stats.tsv' if workload == 'update' else 'corpus.jsonl'
    assert first[input_name] != other[input_name]


def test_planted_counts_match_corpus(tmp_path):
    plan = gen.build('wide', 3, str(tmp_path), scale=SCALE)
    with open(plan['files']['input'], encoding='utf-8') as handle:
        lines = [line for line in handle.read().splitlines() if line]
    assert len(lines) == plan['counts']['read']
    assert len(score.read_labels(plan['files']['truth'])) == plan['counts']['labeled']


def test_scores_perfect_match():
    truth = {'s1': 'a', 's2': 'a', 's3': 'b'}
    assert score.cluster_scores(truth, {'s1': 'x', 's2': 'x', 's3': 'y'}) == (1.0, 1.0, 1.0)


def test_scores_all_singletons():
    truth = {'s1': 'a', 's2': 'a', 's3': 'a', 's4': 'b'}
    predicted = {sid: 'SINGLETON:' + sid for sid in truth}
    precision, recall, f1 = score.cluster_scores(truth, predicted)
    assert precision == 1.0
    assert recall == 2 / 4
    assert f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)


def test_scores_merged_cluster():
    truth = {'s1': 'a', 's2': 'a', 's3': 'a', 's4': 'b'}
    predicted = dict.fromkeys(truth, 'x')
    precision, recall, f1 = score.cluster_scores(truth, predicted)
    assert precision == 3 / 4
    assert recall == 1.0
    assert f1 == pytest.approx(2 * 0.75 / 1.75)


def test_scores_missing_sample_is_its_own_cluster():
    truth = {'s1': 'a', 's2': 'a'}
    assert score.cluster_scores(truth, {'s1': 'x'})[1] == 1 / 2


def test_traced_run_matches_untraced_and_accounts_for_its_time(tmp_path):
    plan = gen.build('wide', 5, str(tmp_path), scale=SCALE)
    outputs = {}
    for kind in ('plain', 'traced'):
        outdir = tmp_path / kind
        outdir.mkdir()
        args = run.cli_args(plan, str(outdir))
        if kind == 'plain':
            argv = [sys.executable, '-m', 'avtag.cli'] + args
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, 'tracer.py'),
                    str(tmp_path / 'trace.json'), '--'] + args
        done = subprocess.run(argv, cwd=os.path.join(ROOT, 'src'), capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert run.summary_ok('wide', done.stderr, plan['counts'])
        outputs[kind] = run.digest('wide', str(outdir))
    assert outputs['plain'] == outputs['traced']
    with open(tmp_path / 'trace.json', encoding='utf-8') as handle:
        trace = json.load(handle)
    metrics = trace['metrics']
    assert not trace['hook_failures']
    assert metrics['labeler.analyze_sample.calls'] == plan['counts']['labeled']
    assert metrics['cli.lines_read'] == plan['counts']['read']
    assert metrics['cli.lines_skipped'] == plan['counts']['skipped']
    assert metrics['tokenizer.tokenize.calls'] == plan['counts']['labels']
    accounted = trace['self_sum_s'] + metrics['trace.bookkeeping_s']
    assert accounted == pytest.approx(trace['main_s'], rel=1e-6)


def test_launched_command_reports_its_own_code_and_memory(tmp_path):
    ballast = bytearray(96 << 20)  # the runner's memory must not show in the child's RSS
    ballast[::4096] = b'\1' * len(ballast[::4096])
    quiet = run.run_child([sys.executable, '-c', 'import sys; sys.exit(3)'], str(tmp_path))
    big = run.run_child([sys.executable, '-c', 'x = bytearray(48 << 20); x[::4096] = '
                         'b"\\1" * len(x[::4096])'], str(tmp_path))
    del ballast
    assert quiet.code == 3
    assert quiet.wall_s > 0
    assert quiet.rss_mib < 40
    assert big.code == 0
    assert big.rss_mib > quiet.rss_mib + 40


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, 'BENCHMARK.json'), encoding='utf-8') as handle:
        spec = json.load(handle)
    assert [w['name'] for w in spec['workloads']] == list(gen.WORKLOADS)
    assert {m['name']: m['unit'] for m in spec['end_to_end']} == run.END_TO_END
    assert {m['name']: m['unit'] for m in spec['per_layer']} == tracer.PER_LAYER


@pytest.mark.xfail(raises=UnicodeDecodeError, strict=True,
                   reason='ROADMAP "Recent": one invalid UTF-8 byte in the input aborts '
                          '`label` with a UnicodeDecodeError traceback')
def test_invalid_utf8_line_is_skipped(tmp_path):
    from avtag import cli

    plan = gen.build('wide', 6, str(tmp_path), scale=SCALE)
    with open(plan['files']['minimal'], 'rb') as handle:
        good = handle.read()
    corpus = tmp_path / 'dirty.jsonl'
    corpus.write_bytes(good + b'{"sha256": "ab\xff", "av_labels": {}}\n' + good)
    files = plan['files']
    code = cli.main(['label', '-i', str(corpus), '--taxonomy', files['taxonomy'],
                     '--tagging', files['tagging'], '--expansion', files['expansion'],
                     '--tags-out', str(tmp_path / 'tags.tsv')])
    assert code == 0
    assert len((tmp_path / 'tags.tsv').read_text().splitlines()) == 2
