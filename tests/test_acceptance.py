'''End-to-end guarantees, one test per shipped claim.

Each test name carries a criterion number; a conftest hook turns its outcome
into a visible `ACCEPTANCE <n>: PASS/FAIL` line in the terminal summary.
'''

import json
import random
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from avtag.cli import main
from avtag.labeler import (CompiledKB, CooccurrenceCounter, SampleReport, analyze_sample,
                           format_tags_line)
from avtag.ruleset import RuleSet, load_rules
from avtag.taxonomy import TagPath, Taxonomy, load_taxonomy
from avtag.updater import UpdateConfig, infer, is_equivalent, parse_stats

from conftest import (GOLDEN_FAMILY, GOLDEN_LABELS, GOLDEN_SAMPLE_ID,
                      GOLDEN_TAG_LINE, MATRIX_ROWS, MATRIX_ROWS_FIXPOINT,
                      MATRIX_TAXONOMY, counted_relations, random_reports, sample_id,
                      sample_line, stats_file, stats_text)


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


def test_criterion_1_running_example(data_dir):
    '''four-engine running example produces the exact ranked-tag line and family'''
    inp = data_dir / 'samples.jsonl'
    inp.write_text(sample_line(GOLDEN_SAMPLE_ID, GOLDEN_LABELS) + '\n')
    tags = data_dir / 'tags.out'
    compat = data_dir / 'compat.out'
    started = time.perf_counter()
    code = main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags),
                           '--compat-out', str(compat)))
    elapsed = time.perf_counter() - started
    assert code == 0
    assert tags.read_text() == GOLDEN_TAG_LINE + '\n'
    assert compat.read_text() == '%s\t%s\n' % (GOLDEN_SAMPLE_ID, GOLDEN_FAMILY)
    assert elapsed < 1.0, 'labeling the running example took %.3fs' % elapsed


def oracle_relations(item_sets):
    '''Brute-force reference: plain dicts over per-sample unknown-name sets.'''
    counts = {}
    joints = {}
    for names in item_sets:
        ordered = sorted(names)
        for name in ordered:
            counts[name] = counts.get(name, 0) + 1
        for pos, left in enumerate(ordered):
            for right in ordered[pos + 1:]:
                joints[(left, right)] = joints.get((left, right), 0) + 1
    rows = []
    for (left, right), joint in joints.items():
        if (counts[left], left) <= (counts[right], right):
            t_i, t_j = left, right
        else:
            t_i, t_j = right, left
        rows.append(('UNK:' + t_i, 'UNK:' + t_j, counts[t_i], counts[t_j],
                     joint, joint / counts[t_i], joint / counts[t_j]))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def test_criterion_2_cooccurrence_oracle():
    '''co-occurrence statistics match a brute-force oracle on 50 random datasets'''
    rng = random.Random(20260814)
    pool = ['pool%02dtk' % k for k in range(15)]
    engines = ['E%d' % k for k in range(6)]
    taxonomy = Taxonomy()
    rules = RuleSet()
    started = time.perf_counter()
    for _ in range(50):
        items = rng.sample(pool, rng.randint(5, 15))
        reports, expected_sets = random_reports(rng, 500, items, engines)
        got = [tuple(r) for r in counted_relations(reports, rules, taxonomy)]
        assert got == oracle_relations(expected_sets)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, '50 oracle datasets took %.1fs' % elapsed


def test_criterion_3_threshold_boundaries(base_taxonomy, base_rules):
    '''strength thresholds are inclusive boundaries and rels come out exact'''
    config = UpdateConfig(n=20, T=0.94)
    # support 19 against n=20, then rel_ij 9399/10000 and 47/50 (0.94 exactly as a
    # float) against T=0.94, read as stats rows
    a, b = 'UNK:aaatok', 'UNK:bbbtok'
    rows = [(a, b, 19, 1000, 19), (a, b, 10000, 20000, 9399), (a, b, 50, 1000, 47),
            (a, b, 20, 1000, 20)]
    for row, want in zip(rows, (0, 0, 1, 1)):
        _, relations, strong = parse_stats(stats_text([row]).splitlines(), config)
        assert len(relations) == strong == want, row

    reports = []
    for n in range(100):
        reports.append(SampleReport(sample_id(n), {'A': 'Virut', 'B': 'virut!t',
                                                   'C': 'Virus', 'D': 'virus.gen'}))
    for n in range(100, 700):
        reports.append(SampleReport(sample_id(n), {'A': 'Virus', 'B': 'VIRUS'}))
    [rel] = counted_relations(reports, base_rules, base_taxonomy)
    assert tuple(rel)[:5] == ('FAM:virut', 'CLASS:virus', 100, 700, 100)
    assert abs(rel.rel_ij - 1.0) < 1e-9
    assert abs(rel.rel_ji - 1 / 7) < 1e-9
    assert parse_stats([rel.format_row()], config)[1] == [rel]
    assert not is_equivalent(rel, config)


def test_criterion_4_update_rule_matrix():
    '''the category-pair rule matrix consumes the 17-relation fixture exactly'''
    taxonomy = load_taxonomy(MATRIX_TAXONOMY)
    rules = load_rules('', '', taxonomy)
    config = UpdateConfig()
    rows, relations, strong = parse_stats(stats_text(MATRIX_ROWS).splitlines(), config)
    assert rows == strong == 17
    assert strong - len(relations) == 1        # one OS relation pre-filtered

    result = infer(relations, taxonomy, rules, config)
    assert len(result.consumed_topblock) == 8
    assert len(result.consumed_expansion) == 5
    assert len(result.consumed_equivalence) == 1
    assert len(result.consumed_known) == 1
    assert len(result.unhandled) == 1
    assert result.unhandled[0].reason == 'no update rule for category pair (BEH, CLASS)'

    assert {str(p) for p in result.changes.taxonomy_added} == {
        'FAM:aaanewfam', 'FAM:bbbnewfam', 'FAM:hiddapp', 'FAM:stealemall',
        'FAM:virlocker', 'FILE:exploit:gingerbreak', 'FILE:packed:themidanew'}
    assert {str(p) for p in result.changes.taxonomy_removed} == {
        'FAM:virlock', 'FAM:zeus', 'FILE:packed:themida'}
    expected_aliases = {'fynloski': 'FAM:darkkomet',
                        'cryptomalware': 'CLASS:miner',
                        'virlock': 'FAM:virlocker',
                        'themida': 'FILE:packed:themidanew',
                        'zeus': 'FAM:zbot'}
    assert set(result.changes.tagging_added) == set(expected_aliases)
    for token, dest in expected_aliases.items():
        assert result.rules.tagging[token] == frozenset(
            {TagPath.parse(dest)})
    assert {(str(s), str(t)) for s, t in result.changes.expansion_added} == {
        ('FAM:packerfam', 'FILE:packed'), ('FAM:bebeg', 'BEH:infosteal'),
        ('FAM:virut', 'CLASS:virus'), ('CLASS:downloader', 'FILE:bundle'),
        ('CLASS:worm', 'BEH:selfpropagate')}
    assert result.changes.tagging_removed == []
    assert result.changes.expansion_removed == []


def test_criterion_5_rerun_is_stable(tmp_path):
    '''rerunning the update on its own outputs changes nothing and reloads cleanly'''
    (tmp_path / 'taxonomy').write_text(MATRIX_TAXONOMY)
    (tmp_path / 'tagging').write_text('')
    (tmp_path / 'expansion').write_text('')
    stats = tmp_path / 'stats'
    stats.write_text(stats_text(MATRIX_ROWS_FIXPOINT))
    first = tmp_path / 'out1'
    second = tmp_path / 'out2'
    assert main(update_args(tmp_path, stats, first)) == 0
    assert main(update_args(first, stats, second)) == 0

    changelog = (second / 'changelog.txt').read_text().splitlines()
    counts = {line.rsplit(' ', 1)[0]: int(line.rsplit(' ', 1)[1])
              for line in changelog if line}
    for artifact in ('taxonomy', 'tagging', 'expansion'):
        assert counts['%s added' % artifact] == 0
        assert counts['%s removed' % artifact] == 0
    for name in ('taxonomy', 'tagging', 'expansion'):
        assert (second / name).read_bytes() == (first / name).read_bytes()
    reloaded = load_taxonomy((second / 'taxonomy').read_text())
    load_rules((second / 'tagging').read_text(),
               (second / 'expansion').read_text(), reloaded)


def unknown_fraction(tags_path):
    unknown = total = 0
    for line in tags_path.read_text().splitlines():
        parts = line.split('\t')
        if len(parts) != 2:
            continue
        for entry in parts[1].split(','):
            total += 1
            if entry.startswith('UNK:'):
                unknown += 1
    assert total > 0
    return unknown / total


def test_criterion_6_unknown_fraction_decreases(data_dir):
    '''one update cycle strictly reduces the unknown-token share of labelings'''
    inp = data_dir / 'samples.jsonl'
    lines = [sample_line(sample_id(n), {'A': 'Fynloski', 'B': 'Fynloski!gen',
                                        'C': 'DarkKomet', 'D': 'darkkomet.x'})
             for n in range(30)]
    lines += [sample_line(sample_id(100 + n), {'A': 'DarkKomet', 'B': 'darkkomet'})
              for n in range(10)]
    inp.write_text(''.join(line + '\n' for line in lines))

    tags_before = data_dir / 'tags.before'
    stats = data_dir / 'stats.tsv'
    assert main(label_args(data_dir, '-i', str(inp), '--tags-out', str(tags_before),
                           '--stats-out', str(stats))) == 0
    outdir = data_dir / 'out'
    assert main(update_args(data_dir, stats, outdir)) == 0
    tags_after = data_dir / 'tags.after'
    assert main(label_args(outdir, '-i', str(inp),
                           '--tags-out', str(tags_after))) == 0

    before = unknown_fraction(tags_before)
    after = unknown_fraction(tags_after)
    assert before > 0
    assert after < before
    assert after == 0.0


def test_criterion_7_expansion_engine_count(base_taxonomy, base_rules):
    '''expansion-implied tags accumulate engine counts from direct and implied hits'''
    labels = {'A': 'Worm', 'B': 'worm!x', 'C': 'SelfPropagate',
              'D': 'selfpropagate', 'E': 'SELFPROPAGATE'}
    report = SampleReport(sample_id(7), labels)
    ranking = analyze_sample(report, CompiledKB(base_taxonomy, base_rules))[0]
    by_item = {str(a.item): a.count for a in ranking}
    assert by_item == {'BEH:selfpropagate': 5, 'CLASS:worm': 2}
    assert (format_tags_line(report.sample_id, ranking).split('\t')[1]
            == 'BEH:selfpropagate|5,CLASS:worm|2')


SCALE_FAMILIES = ['Bebeg', 'BitCoinMiner', 'DarkKomet', 'Virut', 'Zbot']
SCALE_WORDS = ['Trojan', 'Malicious', 'Application', 'Win', 'RiskTool', 'IRCBot',
               'Worm', 'SelfPropagate', 'Downloader', 'dloader', 'Adware',
               'Miner', 'Packed', 'Themida', 'Virus', 'Bot', 'Tool', 'Grayware']
SCALE_UNKNOWNS = ['mystery%03dtk' % k for k in range(40)]
SCALE_NOISE = ['2017', '32', 'deadbeef', 'abcd', 'gen', 'x', 'eq']
SCALE_POOL = SCALE_FAMILIES + SCALE_WORDS + SCALE_UNKNOWNS + SCALE_NOISE
SCALE_ENGINES = ['AV%d' % k for k in range(8)]


def scale_record(rng, n):
    engines = rng.sample(SCALE_ENGINES, rng.randint(2, 6))
    labels = {}
    for engine in engines:
        parts = [rng.choice(SCALE_POOL) for _ in range(rng.randint(1, 4))]
        labels[engine] = rng.choice('./!:-_').join(parts)
    return sample_line(sample_id(n), labels)


def test_criterion_8_scale_determinism(data_dir, request):
    '''labeling is byte-deterministic, partition-mergeable and flat-memory at 100K records'''
    rng = random.Random(0x5eed)
    big = data_dir / 'big.jsonl'
    small = data_dir / 'small.jsonl'
    records = [scale_record(rng, n) for n in range(100_000)]
    big.write_text(''.join(line + '\n' for line in records))
    small.write_text(''.join(line + '\n' for line in records[:10_000]))

    def run(tag, inputs, with_stats=True):
        tags = data_dir / ('tags.%s' % tag)
        compat = data_dir / ('compat.%s' % tag)
        stats = data_dir / ('stats.%s' % tag)
        args = label_args(data_dir, '-i', str(inputs), '--tags-out', str(tags),
                          '--compat-out', str(compat))
        if with_stats:
            args += ['--stats-out', str(stats)]
        assert main(args) == 0
        return tags, compat, stats

    started = time.perf_counter()
    first = run('one', big)
    elapsed = time.perf_counter() - started
    request.config._acceptance_lines.append(
        'ACCEPTANCE 8 runtime: 100000 records labeled in %.2fs'
        ' (tags+compat+stats, single worker)' % elapsed)

    second = run('two', big)
    for fresh, repeat in zip(first, second):
        assert fresh.read_bytes() == repeat.read_bytes()

    # partitioned run: 8 workers over contiguous chunks, merged in order
    taxonomy = load_taxonomy((data_dir / 'taxonomy').read_text())
    rules = load_rules((data_dir / 'tagging').read_text(),
                       (data_dir / 'expansion').read_text(), taxonomy)
    kb = CompiledKB(taxonomy, rules)  # one compiled knowledge base shared by all workers
    reports = [SampleReport.from_dict(json.loads(line))
               for line in big.read_text().splitlines()]
    chunk_size = (len(reports) + 7) // 8
    chunks = [reports[k:k + chunk_size] for k in range(0, len(reports), chunk_size)]
    assert len(chunks) == 8

    def work(chunk):
        counter = CooccurrenceCounter()
        lines = []
        for report in chunk:
            ranking, items = analyze_sample(report, kb, with_stats=True)
            lines.append(format_tags_line(report.sample_id, ranking))
            counter.add_items(items)
        return lines, counter

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, chunks))
    merged = CooccurrenceCounter()
    all_lines = []
    for lines, counter in results:
        all_lines.extend(lines)
        merged.merge(counter)
    assert ''.join(line + '\n' for line in all_lines) == first[0].read_text()
    assert stats_file(merged) == first[2].read_text()

    # memory: tag-only streaming must not grow with the input
    def peak_labeling(path, tag):
        tracemalloc.start()
        assert main(label_args(data_dir, '-i', str(path), '--tags-out',
                               str(data_dir / ('tags.mem%s' % tag)))) == 0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    peak_labeling(small, 'warm')
    peak_small = peak_labeling(small, '10k')
    peak_big = peak_labeling(big, '100k')
    request.config._acceptance_lines.append(
        'ACCEPTANCE 8 memory: tag-only peak %.1f MiB at 10K vs %.1f MiB at 100K'
        % (peak_small / 2**20, peak_big / 2**20))
    assert peak_big <= max(2 * peak_small, peak_small + 4 * 2**20), (
        'peak grew from %d to %d bytes' % (peak_small, peak_big))
