'''Hostile-input property tests: `cli.main` run in process on mutated input files.

A knowledge-base, engines or stats file with a fault fails the run with one
`error:` line and writes nothing; a bad byte in one is named by its line and
file offset, as a brute-force decode of the file names it.  A dirty corpus
line is skipped and counted, and every row written is one clean sample id.
'''

import codecs
import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from avtag.cli import main

from conftest import (BASE_EXPANSION, BASE_TAGGING, BASE_TAXONOMY, GOLDEN_LABELS,
                      GOLDEN_SAMPLE_ID, STATS_HEADER, sample_id, sample_line)

#: each non-corpus input: its base content and the word its errors give a line
NON_CORPUS = {
    'taxonomy': (BASE_TAXONOMY.encode(), 'line'),
    'tagging': (BASE_TAGGING.encode(), 'tagging line'),
    'expansion': (BASE_EXPANSION.encode(), 'expansion line'),
    'engines': (b'FirstAV\nsecondav\n# a comment\nThirdAV\n', 'line'),
    'stats': (None, 'stats line'),
}

#: bytes inserted into a file: bad UTF-8 starts, an encoded surrogate, a BOM,
#: NUL, line breaks str.splitlines splits at, stray tabs and comment marks
PIECES = [b'\xff', b'\xc3', b'\xed', b'\xed\xa0\x80', codecs.BOM_UTF8, b'\x00', b'\x0b',
          '\u2028'.encode(), b'\r', b'\n', b'\t', b'\t\t', b'#', b' ']

#: counts for a stats row, the last two over the size of a float and past the
#: digits int() converts; every file stays under the 8 KiB the stats reader
#: decodes ahead, so a bad byte is always found before a row is parsed
COUNTS = ['30', '1' + '0' * 400, '9' * 4400]


def run(args):
    '''(exit code, stderr) of `avtag` run in process.'''
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(args)
    assert out.getvalue() == ''
    return code, err.getvalue()


def tree(directory):
    '''Every file under `directory`, relative to it.'''
    return sorted(os.path.relpath(os.path.join(root, name), directory)
                  for root, _, names in os.walk(directory) for name in names)


def first_bad_byte(data, path, what):
    '''The error line a bad byte in `data` gives, from one decode of the whole file.'''
    try:
        data.decode('utf-8')
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode('utf-8') + '.').splitlines())
        return 'error: %s: %s %d: %s\n' % (path, what, lineno, exc)
    return None


def stats_bytes(count):
    row = 'UNK:fynloski\tFAM:darkkomet\t%s\t%s\t%s\t1.000000\t1.000000\n'
    return (STATS_HEADER + '\n' + row % ('30', '30', '30')
            + row % (count, '40', '30') + row % ('40', '40', '30')).encode()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(NON_CORPUS)), command=st.sampled_from(['label', 'update']),
       count=st.sampled_from(COUNTS), data=st.data())
def test_a_fault_in_a_non_corpus_input_is_one_error_line(name, command, count, data):
    command = {'engines': 'label', 'stats': 'update'}.get(name, command)  # their one reader
    base, what = NON_CORPUS[name]
    content = bytearray(stats_bytes(count) if name == 'stats' else base)
    # a file keeps its last LF, so that no bad sequence is cut short at its end
    for _ in range(data.draw(st.integers(0, 3), label='mutations')):
        at = data.draw(st.integers(0, len(content) - 1), label='at')
        content[at:at] = data.draw(st.sampled_from(PIECES), label='piece')
    content = bytes(content)
    assert len(content) < 8192

    with tempfile.TemporaryDirectory() as directory:
        inputs = {kb: os.path.join(directory, kb) for kb in NON_CORPUS}
        for kb, (kb_base, _) in NON_CORPUS.items():
            with open(inputs[kb], 'wb') as handle:
                handle.write(content if kb == name else kb_base or stats_bytes('30'))
        corpus = os.path.join(directory, 'samples.jsonl')
        with open(corpus, 'w') as handle:
            handle.write(sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS) + '\n')
        kb_args = ['--taxonomy', inputs['taxonomy'], '--tagging', inputs['tagging'],
                   '--expansion', inputs['expansion']]
        outdir = os.path.join(directory, 'out')
        os.mkdir(outdir)
        if command == 'label':
            args = ['label', '-i', corpus, *kb_args, '--tags-out', os.path.join(outdir, 'tags'),
                    '--stats-out', os.path.join(outdir, 'stats.tsv')]
            if name == 'engines':
                args += ['--engines', inputs['engines']]
        else:
            args = ['update', '--stats', inputs['stats'], *kb_args, '-o', outdir]
        before = tree(directory)
        code, err = run(args)

        assert code in (0, 1), err
        assert not [path for path in tree(directory) if path.endswith('.tmp')]
        if code == 1:
            assert err.startswith('error: ') and err.count('\n') == 1, err
            assert tree(directory) == before
        expected = first_bad_byte(content, inputs[name], what)
        if expected is not None:
            assert (code, err) == (1, expected)


#: JSON strings a sample id is drawn from, each usable or not
CLEAN_IDS = [sample_id(n) for n in range(4)] + [' %s ' % sample_id(9)]
DIRTY_IDS = ['', '  ', 'a\tb', 'a\rb', 'a\nb', '\ud800' + sample_id(6)]

#: corpus lines that are skipped: deep nesting, JSON that is no object, numbers
#: past the digits int() converts, NUL, a BOM inside the file, no JSON at all
SKIPPED_LINES = ['[' * 5000, '{"a":' * 5000, '[' * 50 + ']' * 50, '[]', '1', '"x"', 'null',
                 '1' + '0' * 5000, '\x00', '{"sha256": "%s"}\x00' % sample_id(7),
                 '\ufeff' + sample_line(sample_id(8), {'A': 'zbot'}), 'not json',
                 '{"sha256": "%s", "av_labels": []}' % sample_id(8),
                 '{"sha256": "%s", "n": %s}' % (sample_id(8), '9' * 5000)]

#: lines that are not read at all
BLANK_LINES = ['', ' ', '\t', '\u2028', '\x0b ']

labels = st.dictionaries(
    st.sampled_from(['A', 'B', 'C', '\ud800', '']),
    st.sampled_from(['Zbot', 'W32.Zbot\u2028x', 'a\x00b', '\ud801', 'Trojan.Win32.Bebeg',
                     '1' * 40]), max_size=3)


@st.composite
def corpus_lines(draw):
    '''(corpus line, the id it is labeled under if usable, else None).'''
    kind = draw(st.sampled_from(['sample', 'sample', 'sample', 'skipped', 'blank']))
    if kind == 'skipped':
        return draw(st.sampled_from(SKIPPED_LINES)), None
    if kind == 'blank':
        return draw(st.sampled_from(BLANK_LINES)), None
    sid = draw(st.sampled_from(CLEAN_IDS + DIRTY_IDS))
    extra = draw(st.sampled_from([{}, {'n': 10 ** 100}, {'deep': [[[['x']]]]}]))
    line = json.dumps(dict({'sha256': sid, 'av_labels': draw(labels)}, **extra),
                      ensure_ascii=draw(st.booleans()))
    try:
        line.encode('utf-8')
    except UnicodeEncodeError:  # a lone surrogate is written as its JSON escape
        line = json.dumps(json.loads(line))
    return line, (sid.strip() if sid in CLEAN_IDS else None)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(corpus_lines(), max_size=8),
       ends=st.lists(st.sampled_from(['\n', '\r\n', '\r']), min_size=8, max_size=8),
       bom=st.booleans())
def test_a_hostile_corpus_is_labeled_or_skipped_line_by_line(lines, ends, bom):
    text = ''.join(line + end for (line, _), end in zip(lines, ends))
    bom = bom or text.startswith('\ufeff')  # else the BOM of its first line is the file's
    expected_ids = [sid for _, sid in lines if sid is not None]
    # universal newlines split at CR, LF and CRLF only; a line of whitespace is not read
    read = sum(1 for line in re.split('\r\n|\r|\n', text) if line.strip())

    with tempfile.TemporaryDirectory() as directory:
        for kb, content in (('taxonomy', BASE_TAXONOMY), ('tagging', BASE_TAGGING),
                            ('expansion', BASE_EXPANSION)):
            with open(os.path.join(directory, kb), 'w') as handle:
                handle.write(content)
        corpus = os.path.join(directory, 'samples.jsonl')
        with open(corpus, 'wb') as handle:
            handle.write((codecs.BOM_UTF8 if bom else b'') + text.encode('utf-8'))
        outputs = [os.path.join(directory, name) for name in ('tags', 'compat', 'stats.tsv')]
        before = tree(directory)
        code, err = run(['label', '-i', corpus,
                         *(arg for kb in ('taxonomy', 'tagging', 'expansion')
                           for arg in ('--' + kb, os.path.join(directory, kb))),
                         '--tags-out', outputs[0], '--compat-out', outputs[1],
                         '--stats-out', outputs[2]])

        assert not [path for path in tree(directory) if path.endswith('.tmp')]
        warnings = [line for line in err.splitlines() if line.startswith('warning: ')]
        if code == 1:
            assert expected_ids == [] and tree(directory) == before
            assert err.endswith('error: no samples parsed (%d lines read, %d skipped)\n'
                                % (read, len(warnings)))
            return
        assert code == 0, err
        assert read == len(expected_ids) + len(warnings)
        summary = 'samples read %d, labeled %d, skipped %d' % (
            read, len(expected_ids), len(warnings))
        assert err.splitlines()[-1].startswith(summary)
        for path in outputs[:2]:
            with open(path, encoding='utf-8', newline='') as handle:
                rows = handle.read().split('\n')
            assert rows.pop() == ''
            # one row per usable line, in order, its id alone before the one TAB (if any)
            assert [row.split('\t')[0] for row in rows] == expected_ids
            assert all(row.count('\t') <= 1 and '\r' not in row for row in rows)
