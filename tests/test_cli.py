import json
import subprocess
import sys

import pytest

from avtag import labeler, updater
from avtag.cli import main
from avtag.ruleset import load_rules
from avtag.taxonomy import load_taxonomy

from conftest import (BASE_EXPANSION, BASE_TAGGING, BASE_TAXONOMY,
                      GOLDEN_FAMILY, GOLDEN_LABELS, GOLDEN_SAMPLE_ID,
                      GOLDEN_TAG_LINE, MATRIX_ROWS, MATRIX_ROWS_FIXPOINT,
                      MATRIX_TAXONOMY, sample_id, sample_line, stats_text)

GOLDEN_STATS = '''\
t_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji
CLASS:grayware\tCLASS:tool\t1\t1\t1\t1.000000\t1.000000
CLASS:grayware\tFAM:bebeg\t1\t1\t1\t1.000000\t1.000000
CLASS:grayware\tFAM:bitcoinminer\t1\t1\t1\t1.000000\t1.000000
CLASS:tool\tFAM:bebeg\t1\t1\t1\t1.000000\t1.000000
CLASS:tool\tFAM:bitcoinminer\t1\t1\t1\t1.000000\t1.000000
FAM:bebeg\tFAM:bitcoinminer\t1\t1\t1\t1.000000\t1.000000
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


def write_lines(path, lines):
    path.write_text(''.join(line + '\n' for line in lines))


def read_counts(changelog_path):
    counts = {}
    for line in changelog_path.read_text().splitlines():
        if not line:
            break
        words = line.split()
        counts[' '.join(words[:-1])] = int(words[-1])
    return counts


class TestLabelCommand:
    def test_golden_sample_all_outputs(self, data_dir, capsys):
        inp = data_dir / 'samples.jsonl'
        write_lines(inp, [sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS)])
        tags = data_dir / 'tags.out'
        compat = data_dir / 'compat.out'
        stats = data_dir / 'stats.out'
        code = main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags),
                               '--compat-out', str(compat), '--stats-out', str(stats)))
        assert code == 0
        assert tags.read_text() == GOLDEN_TAG_LINE + '\n'
        assert compat.read_text() == '%s\t%s\n' % (GOLDEN_SAMPLE_ID, GOLDEN_FAMILY)
        assert stats.read_text() == GOLDEN_STATS
        captured = capsys.readouterr()
        assert 'samples read 1, labeled 1, skipped 0, relations 6' in captured.err

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

    @pytest.mark.parametrize('broken', ['no_samples', 'stats_open', 'stats_format'])
    def test_failed_run_keeps_previous_outputs(self, data_dir, monkeypatch, broken):
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
        elif broken == 'stats_format':
            def format_stats(relations):
                raise OSError(28, 'No space left on device')
            monkeypatch.setattr(labeler, 'format_stats', format_stats)
        before = {path.name: path.read_bytes() for path in data_dir.iterdir() if path.is_file()}
        assert main(args) == 1
        after = {path.name: path.read_bytes() for path in data_dir.iterdir() if path.is_file()}
        assert after == before
        assert not (data_dir / 'gone').exists()

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

    def test_unchanged_artifacts_copied_verbatim(self, data_dir):
        # weak relation only: nothing strong, so inputs (comments, spacing and
        # all) must be copied through byte for byte
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 10, 20, 10)]))
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir)) == 0
        for name in ('taxonomy', 'tagging', 'expansion'):
            assert (outdir / name).read_bytes() == (data_dir / name).read_bytes()
        counts = read_counts(outdir / 'changelog.txt')
        assert counts['relations all'] == 1 and counts['relations strong'] == 0

    def test_thresholds_settable_on_command_line(self, data_dir):
        stats = data_dir / 'stats'
        stats.write_text(stats_text([('UNK:fynloski', 'FAM:darkkomet', 10, 20, 10)]))
        outdir = data_dir / 'out'
        assert main(update_args(data_dir, stats, outdir, '-n', '5', '-T', '0.9')) == 0
        assert 'fynloski\tFAM:darkkomet' in (outdir / 'tagging').read_text()
        counts = read_counts(outdir / 'changelog.txt')
        assert counts['relations strong'] == 1 and counts['tagging added'] == 1

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

    @pytest.mark.parametrize('broken', ['serializer', 'write'])
    def test_failed_run_keeps_previous_outputs(self, matrix_dir, monkeypatch, broken):
        outdir = matrix_dir / 'out'
        first = matrix_dir / 'first'
        first.write_text(stats_text(MATRIX_ROWS[:1]))
        assert main(update_args(matrix_dir, first, outdir)) == 0
        before = {path.name: path.read_bytes() for path in outdir.iterdir()}
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
        assert {path.name: path.read_bytes() for path in outdir.iterdir()} == before

    def test_structural_names_never_become_alias_tokens(self, tmp_path):
        (tmp_path / 'taxonomy').write_text('BEH:x2017\nFILE:PACKER:upx\nFAM:zbot\n')
        (tmp_path / 'tagging').write_text('')
        (tmp_path / 'expansion').write_text('')
        stats = tmp_path / 'stats'
        stats.write_text(stats_text([('BEH:OS', 'BEH:x2017', 20, 20, 20),
                                     ('FILE:PACKER', 'UNK:newpack', 30, 40, 30)]))
        outdir = tmp_path / 'out'
        assert main(update_args(tmp_path, stats, outdir)) == 0
        rows = [line.split('\t') for line in
                (outdir / 'unhandled.tsv').read_text().splitlines()[1:]]
        assert [(row[0], row[1], row[-1]) for row in rows] == [
            ('BEH:OS', 'BEH:x2017', "alias token 'OS' is not a taggable name"),
            ('FILE:PACKER', 'UNK:newpack', "alias token 'PACKER' is not a taggable name")]
        # the outputs load again, as inputs of the next round
        assert main(update_args(outdir, stats, tmp_path / 'again')) == 0
        assert (tmp_path / 'again' / 'tagging').read_text() == ''

    def test_malformed_stats_fail(self, data_dir, capsys):
        stats = data_dir / 'stats'
        stats.write_text('UNK:tok\tFAM:zbot\t5\t10\n')
        assert main(update_args(data_dir, stats, data_dir / 'out')) == 1
        assert 'stats line 1' in capsys.readouterr().err

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

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(['frobnicate'])
