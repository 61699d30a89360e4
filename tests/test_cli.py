import codecs
import errno
import itertools
import os
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
import weakref

import pytest

from avtag import cli, labeler, updater
from avtag.cli import main
from avtag.ruleset import load_rules
from avtag.taxonomy import load_taxonomy

from conftest import (BASE_EXPANSION, BASE_TAGGING, BASE_TAXONOMY, GOLDEN_FAMILY,
                      GOLDEN_LABELS, GOLDEN_SAMPLE_ID, GOLDEN_TAG_LINE, MATRIX_ROWS,
                      MATRIX_ROWS_FIXPOINT, MATRIX_TAXONOMY, deep_chain_texts, sample_id,
                      sample_line, stats_text)

GOLDEN_STATS = '''\
t_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji
CLASS:grayware\tCLASS:tool\t1\t1\t1\t1.000000\t1.000000
CLASS:grayware\tFAM:bebeg\t1\t1\t1\t1.000000\t1.000000
CLASS:grayware\tFAM:bitcoinminer\t1\t1\t1\t1.000000\t1.000000
CLASS:tool\tFAM:bebeg\t1\t1\t1\t1.000000\t1.000000
CLASS:tool\tFAM:bitcoinminer\t1\t1\t1\t1.000000\t1.000000
FAM:bebeg\tFAM:bitcoinminer\t1\t1\t1\t1.000000\t1.000000
'''

# a two-tag knowledge base, as bytes: taxonomy, tagging (zeus aliases FAM:zbot), expansion
SMALL_KB = (b'FAM:zbot\nCLASS:worm\n', b'zeus\tFAM:zbot\n', b'')


#: a `python -c` program that runs `avtag`, its first step after staging made to say so and wait
SIGNALLED_RUN = '''
import signal, sys, time
from avtag import cli, labeler, updater

def staged(*args):
    print('staged', flush=True)
    time.sleep(60)

# Ctrl-C raises KeyboardInterrupt, also in a child of a shell's background job
signal.signal(signal.SIGINT, signal.default_int_handler)
if sys.argv[1] == 'label':
    labeler.label_reports = staged  # called once every output is staged
else:
    updater.format_changelog = staged  # called once four of the five are
sys.exit(cli.main(sys.argv[1:]))
'''


def label_args(data_dir, *extra):
    return ['label',
            '--taxonomy', str(data_dir / 'taxonomy'),
            '--tagging', str(data_dir / 'tagging'),
            '--expansion', str(data_dir / 'expansion'), *extra]


def update_args(data_dir, stats_path, outdir, *extra):
    return ['update',
            '--stats', str(stats_path),
            '--taxonomy', str(data_dir / 'taxonomy'),
            '--tagging', str(data_dir / 'tagging'),
            '--expansion', str(data_dir / 'expansion'),
            '-o', str(outdir), *extra]


def write_kb(data_dir, kb):
    '''Writes the taxonomy, tagging and expansion bytes given, if any, into data_dir.'''
    for name, data in zip(('taxonomy', 'tagging', 'expansion'), kb):
        (data_dir / name).write_bytes(data)


def files(directory):
    '''Name -> bytes of every file in `directory`, hidden temporary files included.'''
    return {path.name: path.read_bytes() for path in directory.iterdir() if path.is_file()}


def interrupted_run(args, capsys):
    '''(exit code, stderr) of a run that a patched function interrupts with Ctrl-C.'''
    capsys.readouterr()
    try:
        code = main(args)
    except KeyboardInterrupt:
        pytest.fail('KeyboardInterrupt escaped main')
    return code, capsys.readouterr().err


def write_deep_chain(data_dir, chain):
    '''Writes knowledge-base files whose `chain` rules (tagging or expansion) nest too deep.'''
    taxonomy_text, tagging, expansion = deep_chain_texts()
    (data_dir / 'taxonomy').write_text(taxonomy_text)
    (data_dir / 'tagging').write_text(tagging if chain == 'tagging' else '')
    (data_dir / 'expansion').write_text(expansion if chain == 'expansion' else '')


@pytest.mark.parametrize('brk', ['\x0b', '\x85', '\u2028'], ids=['VT', 'NEL', 'LS'])
@pytest.mark.parametrize('name, line, error', [
    ('taxonomy', 'FAM:Bad~name', '{path}: line 4: '),
    ('tagging', 'notab', 'tagging line 4: '),
    ('expansion', 'FAM:zbot', 'expansion line 4: '),
    ('stats', 'FAM:zbot\tFAM:virut', 'stats line 4: '),
    ('engines', 'FirstAV', None),
])
def test_text_files_share_one_line_rule(data_dir, name, line, error, brk):
    '''Each line-oriented input skips blank and '#' lines, and numbers lines as
    str.splitlines does: a \\x0b, \\x85 or U+2028 ends the comment before `line`.'''
    path = data_dir / name
    path.write_text('# a comment\n \t\n#c' + brk + line + '\n', encoding='utf-8')
    if error is None:  # the allowlist has no bad line: it keeps `line` alone
        assert cli._load_allowlist(str(path)) == {line.lower()}
        return
    with pytest.raises(ValueError) as err:
        if name == 'stats':
            with open(path, encoding='utf-8-sig') as handle:  # as `update` reads it
                updater.parse_stats(handle)
        else:
            cli._load_kb(*(str(data_dir / kb) for kb in ('taxonomy', 'tagging', 'expansion')))
    assert str(err.value).startswith(error.format(path=path))


def write_lines(path, lines):
    path.write_text(''.join(line + '\n' for line in lines))


def write_planted_corpus(path):
    '''240 samples: planted groups of tag names, rule tokens and unknown tokens, plus noise.'''
    rng = random.Random(3)
    groups = [('bebeg', 'skodna'), ('darkkomet', 'fynloski'), ('zeroaccess', 'gingerbreak'),
              ('virut', 'worm'), ('ircbot', 'themida', 'win'), ('zbot', 'trojan', 'dloader')]
    noise = [token for group in groups for token in group] + ['risktool', 'sality']
    lines = []
    for n in range(240):
        planted = '.'.join(groups[n % len(groups)])
        labels = {engine: planted for engine in 'ABC'}
        labels['D'] = '.'.join(rng.sample(noise, 2))
        labels['E'] = '.'.join(rng.sample(noise, 2))
        lines.append(sample_line(sample_id(n), labels))
    write_lines(path, lines)


def read_counts(changelog_path):
    counts = {}
    for line in changelog_path.read_text().splitlines():
        if not line:
            break
        words = line.split()
        counts[' '.join(words[:-1])] = int(words[-1])
    return counts


class TestLabelCommand:
    # knowledge base (empty: the base one), corpus, tags, compat and stats files, summary
    @pytest.mark.parametrize('kb,lines,outputs,summary', [
        ((), [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)],
         (GOLDEN_TAG_LINE + '\n', '%s\t%s\n' % (GOLDEN_SAMPLE_ID, GOLDEN_FAMILY), GOLDEN_STATS),
         'samples read 1, labeled 1, skipped 0, relations 6'),
        # the rarer endpoint of two pairs, FAM:zbot and UNK:newfam, is the larger string
        (SMALL_KB, [sample_line('bb', {'A': 'Worm.Zeus.Newfam', 'B': 'Worm.Zbot.Newfam'}),
                    sample_line('cc', {'A': 'Worm.Win32', 'B': 'Worm'})],
         ('bb\tCLASS:worm|2,FAM:zbot|2,UNK:newfam|2\ncc\tCLASS:worm|2\n',
          'bb\tzbot\ncc\tSINGLETON:cc\n',
          stats_text([('FAM:zbot', 'CLASS:worm', 1, 2, 1), ('FAM:zbot', 'UNK:newfam', 1, 1, 1),
                      ('UNK:newfam', 'CLASS:worm', 1, 2, 1)])),
         'samples read 2, labeled 2, skipped 0, relations 3'),
    ], ids=['golden', 'reversed_pairs'])
    def test_golden_sample_all_outputs(self, data_dir, capsys, kb, lines, outputs, summary):
        write_kb(data_dir, kb)
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, lines)
        tags, compat, stats = (data_dir / name for name in ('tags.out', 'compat.out', 'stats.out'))
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags),
                               '--compat-out', str(compat), '--stats-out', str(stats))) == 0
        assert (tags.read_text(), compat.read_text(), stats.read_text()) == outputs
        assert summary in capsys.readouterr().err

    def test_sample_without_items_still_listed(self, data_dir):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(sample_id(1), {'OnlyAV': 'Zbot'})])
        tags = data_dir / 'tags.out'
        compat = data_dir / 'compat.out'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags),
                               '--compat-out', str(compat))) == 0
        assert tags.read_text() == sample_id(1) + '\n'
        assert compat.read_text() == '%s\tSINGLETON:%s\n' % (sample_id(1), sample_id(1))

    def test_malformed_lines_skipped_with_warning(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        lines = [sample_line(sample_id(n), {'A': 'Zbot', 'B': 'zbot'})
                 for n in range(9)]
        lines.insert(4, 'this is not json')
        write_lines(inp, lines)
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp),
                               '--tags-out', str(tags))) == 0
        assert len(tags.read_text().splitlines()) == 9
        captured = capsys.readouterr()
        assert 'samples.jsonl:5: skipping malformed line' in captured.err
        assert 'samples read 10, labeled 9, skipped 1' in captured.err

    def test_malformed_variants_all_skipped(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, ['[1, 2]',                       # JSON but not an object
                          '{"av_labels": {"A": "x"}}',    # no hash field
                          '{bad json',
                          sample_line(sample_id(3), {'A': 'Zbot', 'B': 'zbot'})])
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp),
                               '--tags-out', str(tags))) == 0
        assert tags.read_text().startswith(sample_id(3))
        assert capsys.readouterr().err.count('skipping malformed line') == 3

    def test_sample_ids_with_tab_cr_or_lf_skipped(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        labels = {'A': 'Zbot', 'B': 'zbot'}
        write_lines(inp, [sample_line('ab\tcd', labels), sample_line('ab\rcd', labels),
                          sample_line('ab\ncd', labels), sample_line(sample_id(4), labels)])
        tags = data_dir / 'tags.out'
        compat = data_dir / 'compat.out'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags),
                               '--compat-out', str(compat))) == 0
        assert tags.read_text() == sample_id(4) + '\tFAM:zbot|2\n'
        assert compat.read_text() == sample_id(4) + '\tzbot\n'
        err = capsys.readouterr().err
        assert err.count('skipping malformed line (sample id contains a TAB, CR or LF)') == 3
        assert 'samples read 4, labeled 1, skipped 3' in err

    @pytest.mark.parametrize('outputs', [('--tags-out', '--compat-out'), ('--stats-out',)],
                             ids=['tags_compat', 'stats_only'])
    def test_sample_id_not_encodable_as_utf8_skipped(self, data_dir, capsys, outputs):
        inp = data_dir / 'samples.jsonl'
        labels = {'A': 'Zbot', 'B': 'zbot'}
        # json.dumps spells the lone surrogate as the escape \ud800, which loads restores
        write_lines(inp, [sample_line('ab\ud800', labels), sample_line(sample_id(2), labels)])
        args = label_args(data_dir, '-i', str(inp))
        for flag in outputs:
            args += [flag, str(data_dir / flag.lstrip('-'))]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err.count('skipping malformed line (sample id is not encodable as UTF-8)') == 1
        assert 'samples read 2, labeled 1, skipped 1' in err
        if '--tags-out' in outputs:
            assert (data_dir / 'tags-out').read_text() == sample_id(2) + '\tFAM:zbot|2\n'
            assert (data_dir / 'compat-out').read_text() == sample_id(2) + '\tzbot\n'

    def test_blank_lines_ignored(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        inp.write_text('\n\n%s\n\n' % sample_line(sample_id(1), {'A': 'Zbot'}))
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp),
                               '--tags-out', str(tags))) == 0
        assert 'samples read 1, labeled 1, skipped 0' in capsys.readouterr().err

    def test_no_parsable_samples_fails(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, ['nope', 'also nope'])
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp),
                               '--tags-out', str(tags))) == 1
        assert 'no samples parsed (2 lines read, 2 skipped)' in capsys.readouterr().err

    def test_empty_input_fails(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        inp.write_text('')
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp),
                               '--tags-out', str(tags))) == 1
        assert 'no samples parsed' in capsys.readouterr().err

    @pytest.mark.parametrize('broken', ['no_samples', 'stats_open', 'stats_dir', 'stats_format'])
    def test_failed_run_keeps_previous_outputs(self, data_dir, monkeypatch, capsys, broken):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        stats = data_dir / 'stats.out'
        args = label_args(data_dir, '-i', str(inp), '--tags-out', str(data_dir / 'tags.out'),
                          '--compat-out', str(data_dir / 'compat.out'),
                          '--stats-out', str(stats))
        assert main(args) == 0
        if broken == 'no_samples':
            write_lines(inp, ['nope', 'also nope'])
        else:
            # another corpus, whose tags and compat lines differ from the first run's
            write_lines(inp, [sample_line(sample_id(n), GOLDEN_LABELS) for n in (1, 2)])
        if broken == 'stats_open':
            # the stats output cannot be created: its directory does not exist
            stats = data_dir / 'gone' / 'stats.out'
            args[args.index('--stats-out') + 1] = str(stats)
        elif broken == 'stats_dir':
            # the stats output is a directory, which no file can be renamed over
            stats = data_dir / 'stats.dir'
            stats.mkdir()
            args[args.index('--stats-out') + 1] = str(stats)
        elif broken == 'stats_format':
            # the stats file a good run writes on this corpus
            good = data_dir / 'good' / 'stats.tsv'
            good.parent.mkdir()
            assert main(label_args(data_dir, '-i', str(inp), '--stats-out', str(good))) == 0
            good_text = good.read_text()
            first_i = good_text.splitlines()[1].split('\t')[0]
            first_group = ''.join(line for line in good_text.splitlines(keepends=True)[1:]
                                  if line.split('\t')[0] == first_i)
            # the disk fills up while the stats rows stream out: the header and the
            # first t_i group reach the temporary file, then the next write fails
            received = []

            class FullDisk:
                def __init__(self, handle):
                    self.handle = handle
                    self.writes = 0

                def write(self, text):
                    if self.writes == 2:
                        self.handle.flush()
                        with open(self.handle.name, encoding='utf-8') as staged:
                            received.append(staged.read())
                        raise OSError(28, 'No space left on device')
                    self.writes += 1
                    return self.handle.write(text)

            staged_open = cli._Staging.open

            def open_staged(staging, path, binary=False):
                handle = staged_open(staging, path, binary)
                return FullDisk(handle) if path == str(stats) else handle
            monkeypatch.setattr(cli._Staging, 'open', open_staged)
        before = files(data_dir)
        capsys.readouterr()
        assert main(args) == 1
        after = files(data_dir)
        assert after == before
        assert not (data_dir / 'gone').exists()
        if broken == 'stats_dir':
            err = capsys.readouterr().err
            assert err == "error: [Errno %d] %s: '%s'\n" % (
                errno.EISDIR, os.strerror(errno.EISDIR), stats)
            assert list(stats.iterdir()) == []
        if broken == 'stats_format':
            expected = labeler.STATS_HEADER + '\n' + first_group
            assert received == [expected]
            assert len(expected) < len(good_text)

    def test_interrupt_keeps_previous_outputs(self, data_dir, monkeypatch, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        args = label_args(data_dir, '-i', str(inp), '--tags-out', str(data_dir / 'tags.out'),
                          '--stats-out', str(data_dir / 'stats.out'))
        assert main(args) == 0
        before = files(data_dir)

        def interrupted(reports, kb, allowlist, tags_out, *sinks):
            tags_out.write('partial\n')  # both outputs are staged, one is written to
            raise KeyboardInterrupt
        monkeypatch.setattr(labeler, 'label_reports', interrupted)
        assert interrupted_run(args, capsys) == (130, 'error: interrupted\n')
        assert files(data_dir) == before  # no .tmp file either

    def test_sigterm_handler_lasts_the_command_on_the_main_thread_only(self, data_dir):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        args = label_args(data_dir, '-i', str(inp), '--tags-out', str(data_dir / 'tags.out'))
        previous = signal.getsignal(signal.SIGTERM)
        assert main(args) == 0
        assert signal.getsignal(signal.SIGTERM) is previous
        codes = []  # off the main thread no handler can be set: the command runs without
        thread = threading.Thread(target=lambda: codes.append(main(args)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and codes == [0]

    def test_output_that_cannot_be_created_is_named_as_given(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        tags = data_dir / 'gone' / 't.tsv'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags))) == 1
        err = capsys.readouterr().err
        assert "No such file or directory: '%s'" % tags in err
        assert '.tmp' not in err

    def test_file_left_by_an_earlier_run_does_not_block_the_output(self, data_dir):
        # a run killed mid-write leaves its temporary file; the process id in
        # its name may come up again
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        leftover = data_dir / ('.stats.tsv.%d.tmp' % os.getpid())
        leftover.write_text('partial')
        stats = data_dir / 'stats.tsv'
        assert main(label_args(data_dir, '-i', str(inp), '--stats-out', str(stats))) == 0
        assert stats.read_text() == GOLDEN_STATS
        assert leftover.read_text() == 'partial'

    def test_uncreatable_stats_output_fails_before_labeling(self, data_dir, monkeypatch,
                                                           capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(sample_id(n), GOLDEN_LABELS) for n in (1, 2)])
        calls = []
        analyze = labeler.analyze_sample

        def spy(*args):
            calls.append(args[0].sample_id)
            return analyze(*args)
        monkeypatch.setattr(labeler, 'analyze_sample', spy)
        stats = data_dir / 'gone' / 's.tsv'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(data_dir / 't.tsv'),
                               '--stats-out', str(stats))) == 1
        assert "No such file or directory: '%s'" % stats in capsys.readouterr().err
        assert calls == []
        assert sorted(path.name for path in data_dir.iterdir()) == sorted(
            ['samples.jsonl', 'taxonomy', 'tagging', 'expansion'])

    @pytest.mark.parametrize('first,second', [('--tags-out', '--compat-out'),
                                              ('--tags-out', '--stats-out'),
                                              ('--compat-out', '--stats-out')])
    def test_one_path_for_two_outputs_rejected(self, data_dir, monkeypatch, capsys,
                                               first, second):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        (data_dir / 'sub').mkdir()
        same = data_dir / 'same.tsv'

        def read_reports(paths, counts):
            raise AssertionError('input read')
        monkeypatch.setattr(cli, '_read_reports', read_reports)
        before = sorted(path.name for path in data_dir.iterdir())
        # the second spelling differs, the real path is the same
        assert main(label_args(data_dir, '-i', str(inp), first, str(same),
                               second, str(data_dir / 'sub' / '..' / 'same.tsv'))) == 1
        assert '%s and %s name the same file' % (first, second) in capsys.readouterr().err
        assert sorted(path.name for path in data_dir.iterdir()) == before

    @pytest.mark.parametrize('output,source', [('--tags-out', 'samples.jsonl'),
                                               ('--compat-out', 'taxonomy'),
                                               ('--stats-out', 'tagging'),
                                               ('--tags-out', 'expansion'),
                                               ('--compat-out', 'engines')])
    def test_output_that_is_an_input_refused(self, data_dir, monkeypatch, capsys,
                                             output, source):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        (data_dir / 'engines').write_text('firstav\nsecondav\n')
        (data_dir / 'sub').mkdir()

        def read_input(*args):
            raise AssertionError('input read')
        monkeypatch.setattr(cli, '_read_reports', read_input)
        monkeypatch.setattr(cli, '_read_bytes', read_input)
        before = files(data_dir)
        # the output's spelling differs from the input's, the real path is the same
        assert main(label_args(data_dir, '-i', str(inp), '--engines', str(data_dir / 'engines'),
                               output, str(data_dir / 'sub' / '..' / source))) == 1
        assert 'refusing to overwrite input file' in capsys.readouterr().err
        after = files(data_dir)
        assert after == before

    @pytest.mark.parametrize('source', ['taxonomy', 'tagging', 'expansion', 'engines'])
    def test_undecodable_data_file_is_an_error(self, data_dir, capsys, source):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        (data_dir / 'engines').write_text('firstav\nsecondav\n')
        with open(data_dir / source, 'ab') as handle:
            handle.write(b'FAM:\xff\n')
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp), '--engines', str(data_dir / 'engines'),
                               '--tags-out', str(tags))) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: %s: ' % (data_dir / source,))
        assert "can't decode byte 0xff" in err and err.count('\n') == 1
        assert not tags.exists()

    def test_taxonomy_that_does_not_parse_names_its_file(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        with open(data_dir / 'taxonomy', 'a') as handle:
            handle.write('FAM:Bad-x\n')
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags))) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: %s: line ' % (data_dir / 'taxonomy',))
        assert "'Bad-x'" in err and err.count('\n') == 1
        assert not tags.exists()

    def test_input_with_utf8_bom_read_from_its_first_line(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        line = sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS) + '\n'
        inp.write_bytes(codecs.BOM_UTF8 + line.encode())
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags))) == 0
        assert tags.read_text() == GOLDEN_TAG_LINE + '\n'
        assert 'samples read 1, labeled 1, skipped 0' in capsys.readouterr().err

    @pytest.mark.parametrize('source', ['taxonomy', 'tagging', 'expansion'])
    def test_data_file_with_utf8_bom_loads(self, data_dir, source):
        path = data_dir / source
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags))) == 0
        assert tags.read_text() == GOLDEN_TAG_LINE + '\n'

    def test_engine_allowlist_with_utf8_bom_matches_its_first_engine(self, data_dir):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        engines = data_dir / 'engines'
        engines.write_bytes(codecs.BOM_UTF8 + b'firstav\nsecondav\n')
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp), '--engines', str(engines),
                               '--tags-out', str(tags))) == 0
        assert tags.read_text() == '%s\tFAM:bebeg|2\n' % GOLDEN_SAMPLE_ID

    def test_deeply_nested_line_skipped(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        labels = {'A': 'Zbot', 'B': 'zbot'}
        write_lines(inp, [sample_line(sample_id(1), labels), '[' * 5000,
                          sample_line(sample_id(3), labels)])
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags))) == 0
        assert tags.read_text() == ''.join('%s\tFAM:zbot|2\n' % sample_id(n) for n in (1, 3))
        err = capsys.readouterr().err
        assert 'samples.jsonl:2: skipping malformed line' in err
        assert 'samples read 3, labeled 2, skipped 1' in err

    def test_alias_chain_deeper_than_recursion_limit_fails(self, tmp_path, capsys):
        write_deep_chain(tmp_path, 'tagging')
        inp = tmp_path / 'samples.jsonl'
        write_lines(inp, [sample_line(sample_id(1), {'A': 'fam0', 'B': 'fam0'})])
        tags = tmp_path / 'tags.out'
        assert main(label_args(tmp_path, '-i', str(inp), '--tags-out', str(tags))) == 1
        assert capsys.readouterr().err == (
            "error: tagging line 1: alias chain too deep\n")
        assert not tags.exists()

    def test_missing_input_file_fails(self, data_dir, capsys):
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(data_dir / 'nosuch.jsonl'),
                               '--tags-out', str(tags))) == 1
        assert 'input file not found' in capsys.readouterr().err
        assert not tags.exists()

    def test_missing_data_file_fails(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(sample_id(1), {'A': 'Zbot'})])
        (data_dir / 'tagging').unlink()
        assert main(label_args(data_dir, '-i', str(inp),
                               '--tags-out', str(data_dir / 'tags.out'))) == 1
        assert 'error:' in capsys.readouterr().err

    def test_no_output_flags_fails(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(sample_id(1), {'A': 'Zbot'})])
        assert main(label_args(data_dir, '-i', str(inp))) == 1
        assert '--tags-out/--compat-out/--stats-out' in capsys.readouterr().err

    def test_engine_allowlist(self, data_dir):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        engines = data_dir / 'engines'
        engines.write_text('# trusted engines\nFIRSTAV\nsecondav\n')
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(inp), '--engines', str(engines),
                               '--tags-out', str(tags))) == 0
        assert tags.read_text() == '%s\tFAM:bebeg|2\n' % GOLDEN_SAMPLE_ID

    def test_multiple_inputs_keep_order(self, data_dir):
        first = data_dir / 'a.jsonl'
        second = data_dir / 'b.jsonl'
        write_lines(first, [sample_line(sample_id(n), {'A': 'Zbot', 'B': 'zbot'})
                            for n in (1, 2)])
        write_lines(second, [sample_line(sample_id(3), {'A': 'Zbot', 'B': 'zbot'})])
        tags = data_dir / 'tags.out'
        assert main(label_args(data_dir, '-i', str(first), str(second),
                               '--tags-out', str(tags))) == 0
        ids = [line.split('\t')[0] for line in tags.read_text().splitlines()]
        assert ids == [sample_id(1), sample_id(2), sample_id(3)]


@pytest.fixture
def matrix_dir(tmp_path):
    (tmp_path / 'taxonomy').write_text(MATRIX_TAXONOMY)
    (tmp_path / 'tagging').write_text('')
    (tmp_path / 'expansion').write_text('')
    (tmp_path / 'stats').write_text(stats_text(MATRIX_ROWS))
    return tmp_path


class TestUpdateCommand:
    def test_matrix_run_outputs(self, matrix_dir, capsys):
        outdir = matrix_dir / 'out'
        code = main(update_args(matrix_dir, matrix_dir / 'stats', outdir))
        assert code == 0
        for name in ('taxonomy', 'tagging', 'expansion', 'unhandled.tsv',
                     'changelog.txt'):
            assert (outdir / name).is_file()
        taxonomy = load_taxonomy((outdir / 'taxonomy').read_text())
        load_rules((outdir / 'tagging').read_text(),
                   (outdir / 'expansion').read_text(), taxonomy)
        counts = read_counts(outdir / 'changelog.txt')
        assert counts == {'relations all': 17, 'relations strong': 17,
                          'relations os_removed': 1, 'relations known': 1,
                          'relations out': 1, 'taxonomy added': 7,
                          'taxonomy removed': 3, 'tagging added': 5,
                          'tagging removed': 0, 'expansion added': 5,
                          'expansion removed': 0}
        unhandled = (outdir / 'unhandled.tsv').read_text().splitlines()
        assert len(unhandled) == 2
        assert unhandled[1].startswith('BEH:inject\tCLASS:downloader\t')
        captured = capsys.readouterr()
        assert 'relations: all 17, strong 17, os_removed 1, known 1, out 1' in captured.err
        assert 'taxonomy +7 -3, tagging +5 -0, expansion +5 -0' in captured.err

    def test_rerun_on_settled_rows_changes_nothing(self, matrix_dir):
        (matrix_dir / 'stats').write_text(stats_text(MATRIX_ROWS_FIXPOINT))
        first = matrix_dir / 'out1'
        second = matrix_dir / 'out2'
        assert main(update_args(matrix_dir, matrix_dir / 'stats', first)) == 0
        assert main(update_args(first, matrix_dir / 'stats', second)) == 0
        counts = read_counts(second / 'changelog.txt')
        assert all(counts[key] == 0 for key in counts
                   if key.split()[0] in ('taxonomy', 'tagging', 'expansion'))
        for name in ('taxonomy', 'tagging', 'expansion'):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    # knowledge base (empty: the base one), stats file, the outputs copied, changelog head
    @pytest.mark.parametrize('kb,stats_data,copied,head', [
        # weak relation only: the inputs, comments, spacing and all, are copied
        ((), stats_text([('UNK:fynloski', 'FAM:darkkomet', 10, 20, 10)]).encode(),
         cli.UPDATE_OUTPUT_NAMES[:3], 'relations all 1\nrelations strong 0\n'),
        # the stats file label writes for a sample with one tag: its header alone
        (SMALL_KB, stats_text([]).encode(), cli.UPDATE_OUTPUT_NAMES[:3], 'relations all 0\n'),
        # BOM and CRLFs: a strong row aliases newfam, a weak and a FILE:OS row change nothing
        ((codecs.BOM_UTF8 + b'FAM:zbot\r\nCLASS:worm\r\n',) + SMALL_KB[1:],
         codecs.BOM_UTF8 + stats_text([('UNK:newfam', 'FAM:zbot', 30, 30, 30),
                                       ('CLASS:worm', 'FAM:zbot', 5, 30, 1),
                                       ('FAM:zbot', 'FILE:OS:windows', 30, 40, 30)]
                                      ).replace('\n', '\r\n').encode(),
         ('taxonomy', 'expansion'),
         'relations all 3\nrelations strong 2\nrelations os_removed 1\n'),
    ], ids=['weak_only', 'header_only', 'bom_crlf'])
    def test_unchanged_artifacts_copied_verbatim(self, data_dir, kb, stats_data, copied, head):
        write_kb(data_dir, kb)
        stats = data_dir / 'stats'
        stats.write_bytes(stats_data)
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 0
        for name in copied:
            assert (outdir / name).read_bytes() == (data_dir / name).read_bytes()
        assert (outdir / 'changelog.txt').read_text().startswith(head)

    def test_retired_family_rules_move_to_the_family_it_aliases(self, tmp_path):
        # FAM:zeus retires into an alias of FAM:zbot; its own expansion rule and
        # FAM:citadel's, which targets it, move to FAM:zbot
        write_kb(tmp_path, (b'FAM:zeus\nFAM:zbot\nFAM:citadel\nCLASS:worm\n', b'',
                            b'FAM:zeus\tworm\nFAM:citadel\tzeus\n'))
        (tmp_path / 'stats').write_text(stats_text([('FAM:zeus', 'FAM:zbot', 30, 31, 30)]))
        assert main(update_args(tmp_path, tmp_path / 'stats', tmp_path / 'out')) == 0
        assert (tmp_path / 'out' / 'expansion').read_text() == (
            'FAM:citadel\tFAM:zbot\nFAM:zbot\tCLASS:worm\n')
        assert (tmp_path / 'out' / 'changelog.txt').read_text().endswith(
            '\n\ntaxonomy - FAM:zeus\ntagging + zeus\nexpansion + FAM:citadel => FAM:zbot\n'
            'expansion + FAM:zbot => CLASS:worm\nexpansion - FAM:citadel => FAM:zeus\n'
            'expansion - FAM:zeus => CLASS:worm\n')

    def test_unchanged_artifact_is_the_version_parsed(self, data_dir, monkeypatch):
        # the expansion file is replaced while infer runs: the copy is still the
        # bytes the run read and parsed, not the new file
        expansion = data_dir / 'expansion'
        original = expansion.read_bytes()
        infer = updater.infer

        def replacing_infer(*args):
            expansion.write_text('FAM:bitcoinminer\tworm\n')
            return infer(*args)
        monkeypatch.setattr(updater, 'infer', replacing_infer)
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 30, 30, 30)]))
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 0
        assert 'fynloski\tFAM:darkkomet' in (outdir / 'tagging').read_text()
        assert (outdir / 'expansion').read_bytes() == original

    def test_inputs_freed_before_the_outputs_are_built(self, data_dir, monkeypatch):
        # once infer has returned its copies, the loaded taxonomy is no longer held
        infer, serialize_taxonomy = updater.infer, cli.serialize_taxonomy
        loaded, alive = [], []

        def recording_infer(strong, taxonomy, *args):
            loaded.append(weakref.ref(taxonomy))
            return infer(strong, taxonomy, *args)

        def checking_serialize_taxonomy(taxonomy):
            alive.append(loaded[0]() is not None)
            return serialize_taxonomy(taxonomy)
        monkeypatch.setattr(updater, 'infer', recording_infer)
        monkeypatch.setattr(cli, 'serialize_taxonomy', checking_serialize_taxonomy)
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:aaanewfam', 'CLASS:worm', 30, 40, 30)]))
        assert main(update_args(data_dir, stats, data_dir / 'out')) == 0
        assert alive == [False]
        assert 'FAM:aaanewfam' in (data_dir / 'out' / 'taxonomy').read_text()

    def test_rules_not_serialized_when_unchanged(self, data_dir, monkeypatch):
        def serialize_rules(rules):
            raise AssertionError('rules serialized though no rule changed')
        monkeypatch.setattr(cli, 'serialize_rules', serialize_rules)
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 10, 20, 10)]))
        assert main(update_args(data_dir, stats, data_dir / 'out')) == 0
        for name in ('tagging', 'expansion'):
            assert (data_dir / 'out' / name).read_bytes() == (data_dir / name).read_bytes()

    def test_thresholds_settable_on_command_line(self, data_dir):
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 10, 20, 10)]))
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir, '-n', '5', '-T', '0.9')) == 0
        assert 'fynloski\tFAM:darkkomet' in (outdir / 'tagging').read_text()
        counts = read_counts(outdir / 'changelog.txt')
        assert counts['relations strong'] == 1 and counts['tagging added'] == 1

    def test_stats_with_utf8_bom_read_from_its_first_row(self, data_dir):
        stats = data_dir / 'stats'
        text = stats_text([('UNK:fynloski', 'FAM:darkkomet', 30, 30, 30)])
        stats.write_bytes(codecs.BOM_UTF8 + text.encode())
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 0
        assert 'fynloski\tFAM:darkkomet' in (outdir / 'tagging').read_text()

    def test_invalid_thresholds_fail(self, data_dir, capsys):
        stats = data_dir / 'stats'
        stats.write_text(stats_text([]))
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir, '-T', '1.5')) == 1
        assert main(update_args(data_dir, stats, outdir, '-n', '0')) == 1
        assert capsys.readouterr().err.count('error:') == 2

    def test_refuses_to_overwrite_inputs(self, data_dir, capsys):
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 50, 100, 50)]))
        before = (data_dir / 'taxonomy').read_bytes()
        assert main(update_args(data_dir, stats, data_dir)) == 1
        assert 'refusing to overwrite input file' in capsys.readouterr().err
        assert (data_dir / 'taxonomy').read_bytes() == before

    def test_cross_category_equivalences_keep_class_tags(self, data_dir):
        '''In the planted corpus worm always comes with virut, and bot (from the rule
        ircbot -> irc,bot) with irc: neither class is retired into an alias.'''
        inp, stats, outdir = data_dir / 'samples.jsonl', data_dir / 'stats', data_dir / 'out'
        write_planted_corpus(inp)
        assert main(label_args(data_dir, '-i', str(inp), '--stats-out', str(stats))) == 0
        assert main(update_args(data_dir, stats, outdir, '-n', '10', '-T', '0.8')) == 0
        taxonomy = load_taxonomy((outdir / 'taxonomy').read_text())
        assert 'CLASS:worm' in taxonomy and 'CLASS:bot' in taxonomy
        changelog = (outdir / 'changelog.txt').read_text().splitlines()
        assert 'expansion + CLASS:bot => FILE:irc' in changelog
        assert not [line for line in changelog if line.startswith('taxonomy - CLASS:')]
        rows = [line.split('\t') for line in
                (outdir / 'unhandled.tsv').read_text().splitlines()[1:]]
        assert [(row[0], row[1], row[-1]) for row in rows if row[0].startswith('CLASS:')] == [
            ('CLASS:worm', 'FAM:virut', 'no update rule for category pair (CLASS, FAM)')]

    def test_output_clash_refused_before_the_stats_file_is_read(self, data_dir, capsys):
        stats = data_dir / 'stats'
        stats.write_text('UNK:tok\tFAM:zbot\t5\t10\n')  # malformed: 4 fields
        assert main(update_args(data_dir, stats, data_dir)) == 1
        assert capsys.readouterr().err == (
            'error: refusing to overwrite input file %s\n' % (data_dir / 'taxonomy'))

    @pytest.mark.parametrize('source', ['taxonomy', 'tagging', 'expansion'])
    def test_undecodable_data_file_is_an_error(self, data_dir, capsys, source):
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 30, 30, 30)]))
        with open(data_dir / source, 'ab') as handle:
            handle.write(b'FAM:\xff\n')
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: %s: ' % (data_dir / source,))
        assert "can't decode byte 0xff" in err and err.count('\n') == 1
        assert not outdir.exists()

    def test_taxonomy_that_does_not_parse_names_its_file(self, data_dir, capsys):
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 30, 30, 30)]))
        with open(data_dir / 'taxonomy', 'a') as handle:
            handle.write('FAM:Bad-x\n')
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: %s: line ' % (data_dir / 'taxonomy',))
        assert "'Bad-x'" in err and err.count('\n') == 1
        assert not outdir.exists()

    # 0 rows before the bad byte: decoding fails on the first read; 3,000 (about
    # 100 KB): it fails after the parser has consumed many rows
    @pytest.mark.parametrize('rows_before', [0, 3000])
    def test_stats_with_invalid_utf8_fails_without_output(self, data_dir, capsys,
                                                          rows_before):
        stats = data_dir / 'stats'
        rows = [('UNK:tok%d' % k, 'FAM:zbot', 30, 40, 30) for k in range(rows_before)]
        head = stats_text(rows).encode() + b'UNK:bad'
        stats.write_bytes(head + b'\xff\tFAM:zbot\t30\t40\t30\t1.000000\t0.750000\n')
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 1
        # the header and the rows come before the bad line; the position is in the file
        assert capsys.readouterr().err == (
            "error: %s: stats line %d: 'utf-8' codec can't decode byte 0xff in position %d:"
            ' invalid start byte\n' % (stats, rows_before + 2, len(head)))
        assert not outdir.exists()

    def test_stats_invalid_utf8_found_in_memory_well_under_the_file_size(self, tmp_path):
        stats = tmp_path / 'stats'
        rows = [('UNK:tok%d' % k, 'FAM:zbot', 30, 40, 30) for k in range(50000)]
        # the lines end in turn with each break parse_stats splits at: LF, CRLF, CR, U+2028
        ends = itertools.cycle(['\n', '\r\n', '\r', '\u2028'])
        head = ''.join(line + next(ends) for line in stats_text(rows).splitlines()).encode()
        head += b'UNK:bad'
        stats.write_bytes(head + b'\xff\tFAM:zbot\t30\t40\t30\t1.000000\t0.750000\n')
        tracemalloc.start()
        try:
            message = cli._first_bad_byte(str(stats), None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert message == (
            "%s: stats line 50002: 'utf-8' codec can't decode byte 0xff in position %d:"
            ' invalid start byte' % (stats, len(head)))
        assert len(head) > 2 ** 21 and peak < len(head) / 10

    def test_stats_invalid_utf8_position_counts_the_bom(self, data_dir, capsys):
        stats = data_dir / 'stats'
        rows = [('UNK:tok%d' % k, 'FAM:zbot', 30, 40, 30) for k in range(2)]
        head = codecs.BOM_UTF8 + stats_text(rows).replace('\n', '\r\n').encode() + b'UNK:bad'
        stats.write_bytes(head + b'\xff\tFAM:zbot\t30\t40\t30\t1.000000\t0.750000\r\n')
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 1
        assert capsys.readouterr().err == (
            "error: %s: stats line 4: 'utf-8' codec can't decode byte 0xff in position %d:"
            ' invalid start byte\n' % (stats, len(head)))
        assert not outdir.exists()

    @pytest.mark.parametrize('broken', ['serializer', 'write', 'changelog_dir'])
    def test_failed_run_keeps_previous_outputs(self, matrix_dir, monkeypatch, capsys, broken):
        outdir = matrix_dir / 'out'
        first = matrix_dir / 'first'
        first.write_text(stats_text(MATRIX_ROWS[:1]))
        assert main(update_args(matrix_dir, first, outdir)) == 0
        if broken == 'changelog_dir':
            # the last output is a directory, which no file can be renamed over
            changelog = outdir / 'changelog.txt'
            changelog.unlink()
            changelog.mkdir()
        before = files(outdir)
        if broken == 'changelog_dir':
            capsys.readouterr()
            assert main(update_args(matrix_dir, matrix_dir / 'stats', outdir)) == 1
            assert capsys.readouterr().err == "error: [Errno %d] %s: '%s'\n" % (
                errno.EISDIR, os.strerror(errno.EISDIR), changelog)
            assert list(changelog.iterdir()) == []
        else:
            if broken == 'serializer':
                def format_changelog(*args):
                    raise RuntimeError('serializer failed')
                expected = RuntimeError
            else:
                # the last output cannot be encoded: four temporary files exist by then
                def format_changelog(*args):
                    return 'relations all 17\n\udcff\n'
                expected = UnicodeEncodeError
            monkeypatch.setattr(updater, 'format_changelog', format_changelog)
            with pytest.raises(expected):
                main(update_args(matrix_dir, matrix_dir / 'stats', outdir))
        assert files(outdir) == before

    # infer runs before the first output is staged, format_changelog once four are
    @pytest.mark.parametrize('interrupted', ['infer', 'format_changelog'])
    def test_interrupt_keeps_previous_outputs(self, matrix_dir, monkeypatch, capsys,
                                              interrupted):
        outdir = matrix_dir / 'out'
        first = matrix_dir / 'first'
        first.write_text(stats_text(MATRIX_ROWS[:1]))
        assert main(update_args(matrix_dir, first, outdir)) == 0
        before = files(outdir)

        def interrupt(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(updater, interrupted, interrupt)
        assert interrupted_run(update_args(matrix_dir, matrix_dir / 'stats', outdir),
                               capsys) == (130, 'error: interrupted\n')
        assert files(outdir) == before  # no .tmp file either

    def test_files_left_by_an_earlier_run_do_not_block_the_outputs(self, matrix_dir):
        outdir = matrix_dir / 'out'
        outdir.mkdir()
        leftovers = [outdir / ('.%s.%d.tmp' % (name, os.getpid()))
                     for name in cli.UPDATE_OUTPUT_NAMES]
        for leftover in leftovers:
            leftover.write_text('partial')
        assert main(update_args(matrix_dir, matrix_dir / 'stats', outdir)) == 0
        assert read_counts(outdir / 'changelog.txt')['relations all'] == 17
        assert all(leftover.read_text() == 'partial' for leftover in leftovers)

    def test_structural_names_never_become_alias_tokens(self, tmp_path):
        (tmp_path / 'taxonomy').write_text('BEH:x2017\nFILE:PACKER:upx\nFAM:zbot\n')
        (tmp_path / 'tagging').write_text('')
        (tmp_path / 'expansion').write_text('')
        stats = tmp_path / 'stats'
        stats.write_text(stats_text([('BEH:OS', 'BEH:x2017', 20, 20, 20),
                                     ('FAM:OS', 'FAM:zbot', 20, 20, 20),
                                     ('FILE:PACKER', 'UNK:newpack', 30, 40, 30)]))
        outdir = tmp_path / 'out'
        assert main(update_args(tmp_path, stats, outdir)) == 0
        rows = [line.split('\t') for line in
                (outdir / 'unhandled.tsv').read_text().splitlines()[1:]]
        # an equivalence of two BEH tags aliases nothing; one of two families does
        assert [(row[0], row[1], row[-1]) for row in rows] == [
            ('BEH:OS', 'BEH:x2017', 'no update rule for category pair (BEH, BEH)'),
            ('FAM:OS', 'FAM:zbot', "alias token 'OS' is not a taggable name"),
            ('FILE:PACKER', 'UNK:newpack', "alias token 'PACKER' is not a taggable name")]
        # the outputs load again, as inputs of the next round
        assert main(update_args(outdir, stats, tmp_path / 'again')) == 0
        assert (tmp_path / 'again' / 'tagging').read_text() == ''

    def test_malformed_stats_fail(self, data_dir, capsys):
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 30, 30, 30)])
                         + 'UNK:tok\tFAM:zbot\t5\t10\n')
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 1
        assert capsys.readouterr().err == (
            'error: %s: stats line 3: expected 7 tab-separated fields\n' % (stats,))
        assert not outdir.exists()

    def test_expansion_chain_deeper_than_recursion_limit_fails(self, tmp_path, capsys):
        write_deep_chain(tmp_path, 'expansion')
        stats = tmp_path / 'stats'
        stats.write_text(stats_text([]))
        outdir = tmp_path / 'out'
        assert main(update_args(tmp_path, stats, outdir)) == 1
        assert capsys.readouterr().err == (
            'error: expansion chain from FAM:fam0 too deep\n')
        assert not outdir.exists()

    def test_missing_stats_file_fails(self, data_dir, capsys):
        assert main(update_args(data_dir, data_dir / 'nosuch', data_dir / 'out')) == 1
        assert 'error:' in capsys.readouterr().err

    def test_outputs_byte_identical_across_runs(self, matrix_dir):
        first = matrix_dir / 'out1'
        second = matrix_dir / 'out2'
        assert main(update_args(matrix_dir, matrix_dir / 'stats', first)) == 0
        assert main(update_args(matrix_dir, matrix_dir / 'stats', second)) == 0
        for name in ('taxonomy', 'tagging', 'expansion', 'unhandled.tsv',
                     'changelog.txt'):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestModuleInvocation:
    def test_runs_as_python_module(self, data_dir):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        tags = data_dir / 'tags.out'
        cmd = [sys.executable, '-m', 'avtag.cli',
               *label_args(data_dir, '-i', str(inp), '--tags-out', str(tags))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert tags.read_text() == GOLDEN_TAG_LINE + '\n'
        assert 'samples read 1, labeled 1, skipped 0' in proc.stderr

    def test_outputs_independent_of_hash_seed(self, tmp_path):
        '''label's three outputs and update's five are the same bytes under any hash seed.'''
        kb, matrix = tmp_path / 'kb', tmp_path / 'matrix'
        for directory, texts in ((kb, (BASE_TAXONOMY, BASE_TAGGING, BASE_EXPANSION)),
                                 (matrix, (MATRIX_TAXONOMY, '', ''))):
            directory.mkdir()
            for name, text in zip(('taxonomy', 'tagging', 'expansion'), texts):
                (directory / name).write_text(text)
        (matrix / 'stats').write_text(stats_text(MATRIX_ROWS))
        inp = tmp_path / 'samples.jsonl'
        write_planted_corpus(inp)

        outputs = {}
        for seed in ('0', '1'):
            out = tmp_path / ('seed' + seed)
            runs = [
                label_args(kb, '-i', str(inp), '--tags-out', str(out / 'tags'),
                           '--compat-out', str(out / 'compat'), '--stats-out', str(out / 'stats')),
                update_args(kb, out / 'stats', out / 'mined', '-n', '10', '-T', '0.8'),
                update_args(matrix, matrix / 'stats', out / 'matrix'),
            ]
            out.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed)
            for args in runs:
                proc = subprocess.run([sys.executable, '-m', 'avtag.cli', *args],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
            outputs[seed] = {path.relative_to(out): path.read_bytes()
                             for path in sorted(out.rglob('*')) if path.is_file()}
        assert len(outputs['0']) == 3 + 5 + 5
        assert outputs['0'] == outputs['1']
        for update in ('mined', 'matrix'):
            assert read_counts(tmp_path / 'seed0' / update / 'changelog.txt')['taxonomy added']

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(['frobnicate'])

    @pytest.mark.parametrize('command', ['label', 'update'])
    @pytest.mark.parametrize('signum, code, message', [
        (signal.SIGINT, 130, 'interrupted'), (signal.SIGTERM, 143, 'terminated'),
    ], ids=['SIGINT', 'SIGTERM'])
    def test_signal_keeps_previous_outputs(self, data_dir, command, signum, code, message):
        '''A SIGINT or SIGTERM sent once the outputs are staged exits with its code and
        one error line, and leaves the previous outputs and no temporary file.'''
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        (data_dir / 'stats').write_text(stats_text([]))
        out = data_dir / 'out'
        out.mkdir()
        args = (label_args(data_dir, '-i', str(inp), '--tags-out', str(out / 'tags'),
                           '--stats-out', str(out / 'stats')) if command == 'label'
                else update_args(data_dir, data_dir / 'stats', out))
        assert main(args) == 0
        before = files(out)
        with subprocess.Popen([sys.executable, '-c', SIGNALLED_RUN, *args], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                assert proc.stdout.readline() == 'staged\n'
                proc.send_signal(signum)
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # does nothing once it has exited
        assert (proc.returncode, err) == (code, 'error: %s\n' % message)
        assert files(out) == before  # no .tmp file either
