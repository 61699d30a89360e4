'''Shared fixtures: knowledge-base texts, sample builders, randomized generators.'''

import json
import os
import random
import re

import pytest

from avtag.labeler import STATS_HEADER
from avtag.ruleset import load_rules
from avtag.taxonomy import TagPath, Taxonomy, load_taxonomy

# child processes that run `python -m avtag.cli` import the sources under test
# too, also when pytest put them on its own path from pyproject's `pythonpath`
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'src')
os.environ['PYTHONPATH'] = os.pathsep.join(filter(None, (SRC, os.environ.get('PYTHONPATH'))))

# ---------------------------------------------------------------------------
# base knowledge files used by labeling tests

BASE_TAXONOMY = '''\
# one tag path per line; uppercase components are structural
BEH:infosteal
BEH:selfpropagate
CLASS:bot
CLASS:downloader
CLASS:grayware
CLASS:grayware:adware
CLASS:miner
CLASS:tool
CLASS:virus
CLASS:worm
FAM:bebeg
FAM:bitcoinminer
FAM:darkkomet
FAM:virut
FAM:zbot
FILE:OS:windows
FILE:irc
FILE:packed
FILE:packed:themida
'''

BASE_TAGGING = '''\
application\tGEN
dloader\tdownloader
downldr\tdownloader
ircbot\tirc,bot
malicious\tGEN
risktool\tgrayware,tool
trojan\tGEN
win\twindows
'''

BASE_EXPANSION = '''\
CLASS:worm\tselfpropagate
FAM:bitcoinminer\tminer
'''


@pytest.fixture(scope='session')
def base_taxonomy():
    return load_taxonomy(BASE_TAXONOMY)


@pytest.fixture(scope='session')
def base_rules(base_taxonomy):
    return load_rules(BASE_TAGGING, BASE_EXPANSION, base_taxonomy)


@pytest.fixture
def data_dir(tmp_path):
    '''Writes the base knowledge files to disk; returns their directory.'''
    (tmp_path / 'taxonomy').write_text(BASE_TAXONOMY)
    (tmp_path / 'tagging').write_text(BASE_TAGGING)
    (tmp_path / 'expansion').write_text(BASE_EXPANSION)
    return tmp_path


# ---------------------------------------------------------------------------
# sample report helpers

def sample_id(n):
    return '%064x' % n


def sample_line(sid, labels, **extra):
    obj = {'sha256': sid, 'av_labels': labels}
    obj.update(extra)
    return json.dumps(obj)


GOLDEN_SAMPLE_ID = sample_id(0xabc123)

#: four-engine report: one family agreed by three engines, one family implying
#: a class, a riskware token, a generic-only label, plus single-engine noise
#: (an unknown token and an OS tag) that must be pruned
GOLDEN_LABELS = {
    'FirstAV': 'Trojan.Win/Bebeg.RiskTool.eq',
    'SecondAV': 'Trojan:BitCoinMiner.Bebeg!skodna',
    'ThirdAV': 'RiskTool.BitCoinMiner.bebeg',
    'FourthAV': 'Malicious.Application.Gen',
}

GOLDEN_TAG_LINE = (GOLDEN_SAMPLE_ID + '\t'
                   + 'FAM:bebeg|3,CLASS:grayware|2,CLASS:miner|2,CLASS:tool|2,'
                   + 'FAM:bitcoinminer|2')

GOLDEN_FAMILY = 'bebeg'


# ---------------------------------------------------------------------------
# update-engine matrix fixture: one relation per rule-matrix row plus one
# equivalence, one already-known pair, one OS pair, one uncovered pair

MATRIX_TAXONOMY = '''\
BEH:infosteal
BEH:inject
BEH:selfpropagate
CLASS:downloader
CLASS:grayware
CLASS:grayware:adware
CLASS:miner
CLASS:virus
CLASS:worm
FAM:bebeg
FAM:darkkomet
FAM:packerfam
FAM:virlock
FAM:virut
FAM:zbot
FAM:zeus
FILE:bundle
FILE:exploit
FILE:OS:windows
FILE:packed
FILE:packed:themida
'''

#: (t_i, t_j, |t_i|, |t_j|, |(t_i,t_j)|)
MATRIX_ROWS = [
    ('UNK:fynloski', 'FAM:darkkomet', 50, 100, 50),            # token -> alias rule
    ('UNK:hiddapp', 'CLASS:grayware:adware', 40, 200, 40),     # token -> new family
    ('UNK:stealemall', 'BEH:infosteal', 30, 300, 30),          # token -> new family
    ('UNK:gingerbreak', 'FILE:exploit', 25, 125, 25),          # token -> child file tag
    ('UNK:aaanewfam', 'UNK:bbbnewfam', 45, 90, 45),            # two new families
    ('FAM:virlock', 'UNK:virlocker', 50, 100, 50),             # family renamed to token
    ('FILE:packed:themida', 'UNK:themidanew', 60, 120, 60),    # file tag renamed
    ('FAM:zeus', 'FAM:zbot', 70, 140, 70),                     # family alias
    ('FAM:packerfam', 'FILE:packed', 35, 175, 35),             # expansion
    ('FAM:bebeg', 'BEH:infosteal', 30, 300, 30),               # expansion
    ('FAM:virut', 'CLASS:virus', 100, 700, 100),               # expansion
    ('CLASS:downloader', 'FILE:bundle', 160, 320, 160),        # expansion
    ('CLASS:worm', 'BEH:selfpropagate', 90, 180, 90),          # expansion
    ('UNK:cryptomalware', 'CLASS:miner', 95, 100, 95),         # equivalence (both rels high)
    ('CLASS:grayware:adware', 'CLASS:grayware', 200, 500, 200),  # already known (ancestry)
    ('FAM:virut', 'FILE:OS:windows', 100, 1000, 100),          # dropped: OS tag
    ('BEH:inject', 'CLASS:downloader', 50, 160, 50),           # no matrix row
]

#: rows whose consumption is recognized as known on a second run with the
#: same statistics (the full set needs one extra cycle to settle: a token
#: promoted to a family re-enters the matrix as a family pair)
NON_FIXPOINT_T_I = {'UNK:hiddapp', 'UNK:stealemall', 'UNK:aaanewfam'}
MATRIX_ROWS_FIXPOINT = [row for row in MATRIX_ROWS if row[0] not in NON_FIXPOINT_T_I]


def stats_text(rows):
    '''Renders count rows as a stats TSV (rels derived from the counts).'''
    lines = [STATS_HEADER]
    for t_i, t_j, count_i, count_j, count_ij in rows:
        lines.append('%s\t%s\t%d\t%d\t%d\t%.6f\t%.6f'
                     % (t_i, t_j, count_i, count_j, count_ij,
                        count_ij / count_i, count_ij / count_j))
    return '\n'.join(lines) + '\n'


# ---------------------------------------------------------------------------
# randomized structure generators (seeded by the caller)

def random_taxonomy(rng, size=25):
    '''Random tree of taggable nodes with globally unique names.'''
    taxonomy = Taxonomy()
    nodes = [TagPath((category,)) for category in ('BEH', 'CLASS', 'FAM', 'FILE')]
    for index in range(size):
        parent = rng.choice(nodes)
        if len(parent.components) >= 4:
            parent = rng.choice([n for n in nodes if len(n.components) < 4])
        child = parent.child('n%03d%s' % (index, rng.choice('abcdef')))
        taxonomy.add(child)
        nodes.append(child)
    return taxonomy


def random_reports(rng, n_samples, items, engines):
    '''Reports whose labels are bare item tokens spread over random engines.

    Returns (reports, expected per-sample item sets), where an item counts as
    present only when at least two engines carry it.
    '''
    from avtag.labeler import SampleReport
    reports = []
    expected = []
    for index in range(n_samples):
        chosen = rng.sample(items, rng.randint(0, min(6, len(items))))
        engine_labels = {}
        present = set()
        for item in chosen:
            spread = rng.sample(engines, rng.randint(1, 3))
            for engine in spread:
                engine_labels.setdefault(engine, []).append(item)
            if len(spread) >= 2:
                present.add(item)
        labels = {engine: '.'.join(tokens) for engine, tokens in engine_labels.items()}
        reports.append(SampleReport(sample_id(index), labels))
        expected.append(present)
    return reports, expected


# ---------------------------------------------------------------------------
# acceptance reporting: one visible PASS/FAIL line per criterion

def pytest_configure(config):
    config._acceptance_lines = []


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == 'call':
        match = re.match(r'test_criterion_(\d+)', item.name)
        if match is not None:
            verdict = 'PASS' if report.passed else 'FAIL'
            doc = (item.function.__doc__ or '').strip().splitlines()
            description = doc[0] if doc else item.name
            item.config._acceptance_lines.append(
                'ACCEPTANCE %s: %s - %s' % (match.group(1), verdict, description))
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, '_acceptance_lines', None)
    if lines:
        terminalreporter.section('acceptance criteria')
        for line in lines:
            terminalreporter.write_line(line)
