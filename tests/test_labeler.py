import io
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from avtag import labeler
from avtag.labeler import (
    CompiledKB,
    CooccurrenceCounter,
    SampleReport,
    analyze_sample,
    compat_family,
    expand,
    format_compat_line,
    label_reports,
    tag_tokens,
)
from avtag.ruleset import RuleSet, load_rules
from avtag.taxonomy import TagPath, Taxonomy, UnknownToken, parse_item
from avtag.tokenizer import tokenize
from avtag.updater import Relation, parse_stats

from conftest import GOLDEN_LABELS, counted_relations, random_reports, sample_id, stats_file


def paths(*texts):
    return {TagPath.parse(t) for t in texts}


def report(labels, n=1):
    return SampleReport(sample_id(n), labels)


class TestSampleReport:
    def test_hash_field_precedence(self):
        obj = {'sha256': 'aa', 'sha1': 'bb', 'md5': 'cc', 'av_labels': {}}
        assert SampleReport.from_dict(obj).sample_id == 'aa'

    def test_hash_fallback(self):
        assert SampleReport.from_dict({'md5': 'cc'}).sample_id == 'cc'
        assert SampleReport.from_dict({'sha1': 'bb', 'md5': 'cc'}).sample_id == 'bb'

    def test_missing_hash_rejected(self):
        for obj in ({}, {'sha256': ''}, {'sha256': '   '}, {'sha256': 7}, ['x']):
            with pytest.raises(ValueError):
                SampleReport.from_dict(obj)

    def test_id_with_line_or_field_break_rejected(self):
        for sid in ('ab\tcd', 'ab\rcd', 'ab\ncd', ' ab\tcd '):
            with pytest.raises(ValueError):
                SampleReport.from_dict({'sha256': sid})
        assert SampleReport.from_dict({'sha256': ' ab cd\t'}).sample_id == 'ab cd'

    def test_missing_av_labels_tolerated(self):
        assert SampleReport.from_dict({'sha256': 'aa'}).av_labels == {}

    def test_av_labels_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            SampleReport.from_dict({'sha256': 'aa', 'av_labels': ['x']})

    def test_non_string_pairs_dropped(self):
        obj = {'sha256': 'aa', 'av_labels': {'A': 'Zbot', 'B': None, 'C': 3, '': 'x'}}
        assert SampleReport.from_dict(obj).av_labels == {'A': 'Zbot'}


class TestTagTokens:
    def test_golden_first_engine(self, base_rules, base_taxonomy):
        tokens = tokenize(GOLDEN_LABELS['FirstAV'])
        tags, unknowns = tag_tokens(tokens, base_rules, base_taxonomy)
        assert tags == paths('FILE:OS:windows', 'FAM:bebeg',
                             'CLASS:grayware', 'CLASS:tool')
        assert unknowns == set()  # 'trojan' generic, 'eq' too short

    def test_golden_second_engine(self, base_rules, base_taxonomy):
        tokens = tokenize(GOLDEN_LABELS['SecondAV'])
        tags, unknowns = tag_tokens(tokens, base_rules, base_taxonomy)
        assert tags == paths('FAM:bitcoinminer', 'FAM:bebeg')
        assert unknowns == {'skodna'}

    def test_short_token_matches_tag_name(self, base_rules, base_taxonomy):
        # 'irc' is below the unknown-length floor but still tags by name
        tags, unknowns = tag_tokens(['irc', 'xq'], base_rules, base_taxonomy)
        assert tags == paths('FILE:irc')
        assert unknowns == set()

    def test_explicit_rule_beats_implicit_name(self, base_rules, base_taxonomy):
        tags, _ = tag_tokens(['dloader'], base_rules, base_taxonomy)
        assert tags == paths('CLASS:downloader')

    def test_generic_token_dropped(self, base_rules, base_taxonomy):
        tags, unknowns = tag_tokens(['malicious', 'trojan'], base_rules, base_taxonomy)
        assert tags == set() and unknowns == set()

    def test_multi_destination_rule(self, base_rules, base_taxonomy):
        tags, _ = tag_tokens(['ircbot'], base_rules, base_taxonomy)
        assert tags == paths('FILE:irc', 'CLASS:bot')

    def test_unknown_length_floor(self, base_rules, base_taxonomy):
        _, unknowns = tag_tokens(['abz', 'abzx'], base_rules, base_taxonomy)
        assert unknowns == {'abzx'}


class TestExpand:
    def test_rule_plus_ancestors(self, base_rules, base_taxonomy):
        got = expand(paths('FILE:packed:themida'), base_rules, base_taxonomy)
        assert got == paths('FILE:packed:themida', 'FILE:packed')

    def test_structural_component_not_expanded(self, base_rules, base_taxonomy):
        got = expand(paths('FILE:OS:windows'), base_rules, base_taxonomy)
        assert got == paths('FILE:OS:windows')

    def test_expansion_rule_applied(self, base_rules, base_taxonomy):
        got = expand(paths('CLASS:worm'), base_rules, base_taxonomy)
        assert got == paths('CLASS:worm', 'BEH:selfpropagate')

    def test_transitive_fixed_point(self, base_taxonomy):
        taxonomy = base_taxonomy.copy()
        taxonomy.add(TagPath.parse('FAM:wormfam'))
        rules = load_rules('', 'FAM:wormfam\tworm\n'
                               'CLASS:worm\tselfpropagate\n', taxonomy)
        got = expand(paths('FAM:wormfam'), rules, taxonomy)
        assert got == paths('FAM:wormfam', 'CLASS:worm', 'BEH:selfpropagate')

    def test_idempotent_and_monotone(self, base_rules, base_taxonomy):
        rng = random.Random(31)
        tags = [n for n in base_taxonomy if n.is_tag and not n.is_root]
        for _ in range(50):
            start = set(rng.sample(tags, rng.randint(0, 4)))
            once = expand(start, base_rules, base_taxonomy)
            assert start <= once
            assert expand(once, base_rules, base_taxonomy) == once


class TestLabelSample:
    def test_five_engine_expansion_counts(self, base_rules, base_taxonomy):
        labels = {'A': 'Worm.gen', 'B': 'WORM', 'C': 'SelfPropagate',
                  'D': 'selfpropagate!x', 'E': 'malicious.SELFPROPAGATE'}
        ranking = analyze_sample(report(labels), CompiledKB(base_taxonomy, base_rules))[0]
        assert ranking.format_line().split('\t')[1] == (
            'BEH:selfpropagate|5,CLASS:worm|2')

    def test_single_engine_items_pruned(self, base_rules, base_taxonomy):
        ranking = analyze_sample(report({'A': 'Zbot'}), CompiledKB(base_taxonomy, base_rules))[0]
        assert len(ranking) == 0
        assert ranking.format_line() == ranking.sample_id

    def test_within_engine_duplicates_count_once(self, base_rules, base_taxonomy):
        labels = {'A': 'Zbot.zbot.zbot', 'B': 'zbot'}
        ranking = analyze_sample(report(labels), CompiledKB(base_taxonomy, base_rules))[0]
        assert ranking.format_line().split('\t')[1] == 'FAM:zbot|2'

    def test_engine_allowlist_case_insensitive(self, base_rules, base_taxonomy):
        labels = {'GoodAV': 'Zbot', 'FineAV': 'zbot', 'BadAV': 'zbot'}
        ranking = analyze_sample(report(labels), CompiledKB(base_taxonomy, base_rules),
                                 allowlist={'goodav', 'fineav'})[0]
        assert list(ranking) == [('FAM:zbot', 2)]

    def test_ranking_ties_put_tags_before_unknowns(self, base_rules, base_taxonomy):
        labels = {'A': 'zzztok.bebeg', 'B': 'zzztok/Bebeg'}
        ranking = analyze_sample(report(labels), CompiledKB(base_taxonomy, base_rules))[0]
        assert ranking.format_line().split('\t')[1] == 'FAM:bebeg|2,UNK:zzztok|2'

    def test_count_descending_then_canonical(self, base_rules, base_taxonomy):
        labels = {'A': 'virut.zbot', 'B': 'virut.zbot', 'C': 'virut'}
        ranking = analyze_sample(report(labels), CompiledKB(base_taxonomy, base_rules))[0]
        assert [str(a.item) for a in ranking] == ['FAM:virut', 'FAM:zbot']


class TestCompatFamily:
    def test_family_tag_wins(self, base_rules, base_taxonomy):
        labels = {'A': 'Zbot.gen', 'B': 'zbot!x'}
        kb = CompiledKB(base_taxonomy, base_rules)
        assert compat_family(analyze_sample(report(labels), kb)[0]) == 'zbot'

    def test_family_beats_unknown_on_tie(self, base_rules, base_taxonomy):
        labels = {'A': 'zbot.aaaunk', 'B': 'zbot.aaaunk'}
        kb = CompiledKB(base_taxonomy, base_rules)
        assert compat_family(analyze_sample(report(labels), kb)[0]) == 'zbot'

    def test_unknown_token_as_family(self, base_rules, base_taxonomy):
        labels = {'A': 'newfam.worm', 'B': 'newfam'}
        kb = CompiledKB(base_taxonomy, base_rules)
        assert compat_family(analyze_sample(report(labels), kb)[0]) == 'newfam'

    def test_non_family_tags_ignored(self, base_rules, base_taxonomy):
        labels = {'A': 'worm', 'B': 'worm'}
        kb = CompiledKB(base_taxonomy, base_rules)
        assert compat_family(analyze_sample(report(labels), kb)[0]) is None

    def test_singleton_line(self):
        assert format_compat_line('ff00', None) == 'ff00\tSINGLETON:ff00'
        assert format_compat_line('ff00', 'zbot') == 'ff00\tzbot'


def brute_force_relations(item_sets):
    '''Oracle: per-pair scan over the stored per-sample item sets.'''
    item_counts = Counter()
    pair_counts = Counter()
    for items in item_sets:
        for item in items:
            item_counts[item] += 1
        for a, b in itertools.combinations(sorted(items, key=str), 2):
            pair_counts[(a, b)] += 1
    rows = []
    for (a, b), count_ab in pair_counts.items():
        if (item_counts[a], str(a)) <= (item_counts[b], str(b)):
            t_i, t_j = a, b
        else:
            t_i, t_j = b, a
        count_i, count_j = item_counts[t_i], item_counts[t_j]
        rows.append(Relation(t_i, t_j, count_i, count_j, count_ab,
                             count_ab / count_i, count_ab / count_j))
    rows.sort(key=Relation.key)
    return rows


class TestCooccurrence:
    def test_single_sample_single_pair(self, base_rules, base_taxonomy):
        labels = {'A': 'virut.zbot', 'B': 'virut.zbot'}
        relations = counted_relations([report(labels)], base_rules, base_taxonomy)
        [rel] = relations
        assert tuple(rel) == ('FAM:virut', 'FAM:zbot', 1, 1, 1, 1.0, 1.0)

    def test_orientation_least_frequent_first(self, base_rules, base_taxonomy):
        reports = [report({'A': 'virut.zbot', 'B': 'virut.zbot'}, 1),
                   report({'A': 'zbot', 'B': 'zbot'}, 2)]
        [rel] = counted_relations(reports, base_rules, base_taxonomy)
        assert tuple(rel) == ('FAM:virut', 'FAM:zbot', 1, 2, 1, 1.0, 0.5)

    def test_tie_breaks_lexicographically(self, base_rules, base_taxonomy):
        [rel] = counted_relations([report({'A': 'zbot.virut', 'B': 'zbot.virut'})],
                                  base_rules, base_taxonomy)
        assert tuple(rel)[:2] == ('FAM:virut', 'FAM:zbot')

    def test_items_counted_before_expansion(self, base_rules, base_taxonomy):
        relations = counted_relations([report({'A': 'Worm.zbot', 'B': 'worm.zbot'})],
                                      base_rules, base_taxonomy)
        [rel] = relations
        # ranking would include BEH:selfpropagate; statistics must not
        assert tuple(rel)[:2] == ('CLASS:worm', 'FAM:zbot')

    def test_single_engine_samples_contribute_nothing(self, base_rules, base_taxonomy):
        relations = counted_relations([report({'A': 'virut.zbot'})],
                                      base_rules, base_taxonomy)
        assert relations == []

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        items = ['itm%02da' % n for n in range(10)]
        reports, expected_sets = random_reports(rng, 200, items,
                                                ['E%d' % n for n in range(6)])
        got = counted_relations(reports, RuleSet(), Taxonomy())
        want = brute_force_relations([{UnknownToken(i) for i in s}
                                      for s in expected_sets])
        assert [tuple(r) for r in got] == [tuple(r) for r in want]

    def test_merge_equals_sequential(self):
        rng = random.Random(5)
        items = ['itm%02da' % n for n in range(8)]
        reports, expected_sets = random_reports(rng, 120, items, ['E1', 'E2', 'E3'])
        item_sets = [{UnknownToken(i) for i in s} for s in expected_sets]

        whole = CooccurrenceCounter()
        for items_set in item_sets:
            whole.add_items(items_set)

        for n_parts in (2, 3, 5):
            parts = [CooccurrenceCounter() for _ in range(n_parts)]
            for index, items_set in enumerate(item_sets):
                parts[index % n_parts].add_items(items_set)
            rng.shuffle(parts)
            merged = CooccurrenceCounter()
            for part in parts:
                merged.merge(part)
            assert merged.item_counts == whole.item_counts
            assert merged.pair_counts == whole.pair_counts
            assert ([tuple(r) for r in parse_stats(stats_file(merged))]
                    == [tuple(r) for r in parse_stats(stats_file(whole))])

    def test_sample_order_irrelevant(self, base_rules, base_taxonomy):
        reports = [report({'A': 'virut.zbot', 'B': 'virut.zbot'}, n)
                   for n in range(5)]
        reports += [report({'A': 'zbot.worm', 'B': 'zbot/worm'}, 100 + n)
                    for n in range(3)]
        forward = counted_relations(reports, base_rules, base_taxonomy)
        backward = counted_relations(reports[::-1], base_rules, base_taxonomy)
        assert ([tuple(r) for r in forward]
                == [tuple(r) for r in backward])


    def test_counter_memory_per_pair(self):
        '''The counter holds under 64 bytes per distinct pair; a pair tuple alone is 56.'''
        rng = random.Random(3)
        vocabulary = ['UNK:tok%05d' % n for n in range(4000)]
        samples = [rng.sample(vocabulary, 12) for _ in range(1500)]
        pairs = {pair for items in samples for pair in itertools.combinations(sorted(items), 2)}
        tracemalloc.start()
        try:
            counter = CooccurrenceCounter()
            for items in samples:
                counter.add_items(items)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) > 95000
        assert size / len(pairs) < 64


class TestFormatStats:
    def test_golden_output(self, base_rules, base_taxonomy):
        reports = [report({'A': 'virut.zbot', 'B': 'virut.zbot'}, 1),
                   report({'A': 'zbot', 'B': 'zbot'}, 2)]
        counter = CooccurrenceCounter()
        label_reports(reports, CompiledKB(base_taxonomy, base_rules), counter=counter)
        assert stats_file(counter) == (
            't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\n'
            'FAM:virut\tFAM:zbot\t1\t2\t1\t1.000000\t0.500000\n')

    def test_header_only_when_empty(self):
        assert stats_file(CooccurrenceCounter()) == (
            't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\n')


class TestWriteStats:
    @pytest.mark.parametrize('items', [
        {'FAM:zbot', parse_item('FAM:zbot'), 'CLASS:worm'},
        ['FAM:zbot', 'CLASS:worm', 'FAM:zbot', 'CLASS:worm'],
    ], ids=['string_and_item', 'list_with_repeats'])
    def test_item_given_twice_counts_once(self, items):
        counter = CooccurrenceCounter()
        counter.add_items(items)
        counter.add_items(['CLASS:worm', 'FAM:zbot', 'FAM:virut'])
        out = io.StringIO()
        assert counter.write_stats(out) == 3
        rows = [line.split('\t') for line in out.getvalue().splitlines()[1:]]
        for t_i, t_j, count_i, count_j, count_ij, _, _ in rows:
            assert t_i != t_j
            assert int(count_ij) <= min(int(count_i), int(count_j))
        assert rows[0] == ['CLASS:worm', 'FAM:zbot', '2', '2', '2', '1.000000', '1.000000']
        assert len(parse_stats(out.getvalue())) == 3


class TestLabelReports:
    @pytest.mark.parametrize('sinks, with_ranking', [
        (('tags_out',), True), (('compat_out',), True), (('counter',), False),
        (('tags_out', 'counter'), True), ((), False)],
        ids=['tags', 'compat', 'stats', 'tags_stats', 'none'])
    def test_ranks_only_for_tag_or_compat_sinks(self, monkeypatch, base_rules, base_taxonomy,
                                                 sinks, with_ranking):
        calls = []
        analyze = labeler.analyze_sample

        def spy(*args):
            calls.append(args[3:])
            return analyze(*args)
        monkeypatch.setattr(labeler, 'analyze_sample', spy)
        kwargs = {name: CooccurrenceCounter() if name == 'counter' else io.StringIO()
                  for name in sinks}
        reports = [report(GOLDEN_LABELS, n) for n in (1, 2)]
        assert label_reports(reports, CompiledKB(base_taxonomy, base_rules), **kwargs) == 2
        assert calls == [('counter' in sinks, with_ranking)] * 2
