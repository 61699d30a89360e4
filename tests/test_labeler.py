import io
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from avtag import labeler
from avtag.labeler import (
    STATS_HEADER,
    CompiledKB,
    CooccurrenceCounter,
    SampleReport,
    analyze_sample,
    compat_family,
    expand,
    format_compat_line,
    format_tags_line,
    label_reports,
    tag_tokens,
)
from avtag.ruleset import RuleSet, load_rules
from avtag.taxonomy import TagPath, Taxonomy, UnknownToken, load_taxonomy, parse_item
from avtag.tokenizer import tokenize
from avtag.updater import Relation, parse_stats

from conftest import GOLDEN_LABELS, counted_relations, random_reports, sample_id, stats_file


def paths(*texts):
    return {TagPath.parse(t) for t in texts}


def report(labels, n=1):
    return SampleReport(sample_id(n), labels)


class Discard:
    '''A text handle that keeps nothing, so a traced write_stats holds no output.'''

    def write(self, text):
        pass


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
        sample = report(labels)
        ranking = analyze_sample(sample, CompiledKB(base_taxonomy, base_rules))[0]
        assert type(ranking) is list
        assert {type(entry) for entry in ranking} == {labeler.TagAssignment}
        assert format_tags_line(sample.sample_id, ranking).split('\t')[1] == (
            'BEH:selfpropagate|5,CLASS:worm|2')

    def test_single_engine_items_pruned(self, base_rules, base_taxonomy):
        sample = report({'A': 'Zbot'})
        ranking = analyze_sample(sample, CompiledKB(base_taxonomy, base_rules))[0]
        assert len(ranking) == 0
        assert format_tags_line(sample.sample_id, ranking) == sample.sample_id

    def test_within_engine_duplicates_count_once(self, base_rules, base_taxonomy):
        sample = report({'A': 'Zbot.zbot.zbot', 'B': 'zbot'})
        ranking = analyze_sample(sample, CompiledKB(base_taxonomy, base_rules))[0]
        assert format_tags_line(sample.sample_id, ranking).split('\t')[1] == 'FAM:zbot|2'

    def test_engine_allowlist_case_insensitive(self, base_rules, base_taxonomy):
        labels = {'GoodAV': 'Zbot', 'FineAV': 'zbot', 'BadAV': 'zbot'}
        ranking = analyze_sample(report(labels), CompiledKB(base_taxonomy, base_rules),
                                 allowlist={'goodav', 'fineav'})[0]
        assert list(ranking) == [('FAM:zbot', 2)]

    def test_ranking_ties_put_tags_before_unknowns(self, base_rules, base_taxonomy):
        sample = report({'A': 'zzztok.bebeg', 'B': 'zzztok/Bebeg'})
        ranking = analyze_sample(sample, CompiledKB(base_taxonomy, base_rules))[0]
        assert format_tags_line(sample.sample_id, ranking).split('\t')[1] == (
            'FAM:bebeg|2,UNK:zzztok|2')

    def test_digit_led_unknown_sorts_as_prefixed_item(self):
        # the knowledge base of CI's installed-script step
        taxonomy = load_taxonomy('FAM:zbot\nCLASS:worm\n')
        kb = CompiledKB(taxonomy, load_rules('zeus\tFAM:zbot\n', '', taxonomy))
        sample = SampleReport('dd', {'A': 'Worm.7zipper', 'B': '7ZIPPER/Worm', 'C': 'Zbot.7zip'})
        tags_out, compat_out, counter = io.StringIO(), io.StringIO(), CooccurrenceCounter()
        assert label_reports([sample], kb, None, tags_out, compat_out, counter) == 1
        # '7zipper' sorts before 'CLASS:worm', 'UNK:7zipper' after it
        assert tags_out.getvalue() == 'dd\tCLASS:worm|2,UNK:7zipper|2\n'
        assert compat_out.getvalue() == 'dd\t7zipper\n'
        assert dict(counter.item_counts) == {'CLASS:worm': 1, 'UNK:7zipper': 1}

    def test_count_descending_then_canonical(self, base_rules, base_taxonomy):
        labels = {'A': 'virut.zbot', 'B': 'virut.zbot', 'C': 'virut'}
        ranking = analyze_sample(report(labels), CompiledKB(base_taxonomy, base_rules))[0]
        assert [str(a.item) for a in ranking] == ['FAM:virut', 'FAM:zbot']

    def test_index_entry_is_one_set_when_expansion_adds_nothing(self, base_rules,
                                                                base_taxonomy):
        kb = CompiledKB(base_taxonomy, base_rules)
        analyze_sample(report({'A': 'zbot.bitcoinminer'}), kb)
        zbot, miner = kb.index['zbot'], kb.index['bitcoinminer']
        assert zbot == (frozenset({'FAM:zbot'}),) * 2
        assert zbot[0] is zbot[1]
        # FAM:bitcoinminer has an expansion rule
        assert miner == (frozenset({'FAM:bitcoinminer'}),
                         frozenset({'FAM:bitcoinminer', 'CLASS:miner'}))
        assert miner[0] is not miner[1]


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
            assert stats_file(merged) == stats_file(whole)
            assert ([tuple(r) for r in parse_stats(stats_file(merged).splitlines())[1]]
                    == [tuple(r) for r in brute_force_relations(item_sets)])

    def test_sample_order_irrelevant(self, base_rules, base_taxonomy):
        reports = [report({'A': 'virut.zbot', 'B': 'virut.zbot'}, n)
                   for n in range(5)]
        reports += [report({'A': 'zbot.worm', 'B': 'zbot/worm'}, 100 + n)
                    for n in range(3)]
        forward = counted_relations(reports, base_rules, base_taxonomy)
        backward = counted_relations(reports[::-1], base_rules, base_taxonomy)
        assert ([tuple(r) for r in forward]
                == [tuple(r) for r in backward])


    @staticmethod
    def memory_samples():
        '''1,500 samples of 12 items each, drawn from 4,000 unknown tokens.'''
        rng = random.Random(3)
        vocabulary = ['UNK:tok%05d' % n for n in range(4000)]
        return [rng.sample(vocabulary, 12) for _ in range(1500)]

    def test_counter_memory_per_pair(self):
        '''The counter holds under 64 bytes per distinct pair; a pair tuple alone is 56.'''
        samples = self.memory_samples()
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

    def test_counter_memory_per_sample_item(self):
        '''The counter grows with the items it is given, not with their pairs: under 32
        bytes per sample item (one dict slot per pair took 170 here), and writing holds
        under 200 bytes per distinct item above it.'''
        samples = self.memory_samples()
        tracemalloc.start()
        try:
            counter = CooccurrenceCounter()
            for items in samples:
                counter.add_items(items)
            size, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            counter.write_stats(Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, samples)) == 18000 and len(counter.item_counts) > 3900
        assert size / 18000 < 32
        assert (peak - size) / len(counter.item_counts) < 200


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
        assert len(parse_stats(out.getvalue().splitlines())[1]) == 3


    @staticmethod
    def reversed_heavy_counter():
        '''1,000 samples of 24 common items and 2 rare ones.  Each rare item sorts after
        the common ones and is less frequent, so its 24 pairs with them are reversed.'''
        counter = CooccurrenceCounter()
        common = ['CLASS:c%02d' % n for n in range(24)]
        for n in range(1000):
            counter.add_items(common + ['UNK:rare%05d' % (2 * n), 'UNK:rare%05d' % (2 * n + 1)])
        return counter

    def test_write_peak_per_reversed_pair(self):
        '''Writing holds under 25 bytes per reversed pair above the counter.'''
        counter = self.reversed_heavy_counter()
        item_counts = counter.item_counts
        reversed_pairs = sum(item_counts[a] > item_counts[b] for ordered in counter.samples
                             for a, b in itertools.combinations(ordered, 2))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            counter.write_stats(Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reversed_pairs == 48000 and len(item_counts) == 2024
        assert (peak - before) / reversed_pairs < 25

    def test_writing_leaves_the_counter_unchanged(self):
        counter = self.reversed_heavy_counter()
        counter.add_items(['FAM:zbot', 'UNK:rare00000'])
        item_counts = dict(counter.item_counts)
        samples = [list(items) for items in counter.samples]
        want = [tuple(r) for r in brute_force_relations(samples)]
        first, second = io.StringIO(), io.StringIO()
        rows = counter.write_stats(first)
        assert counter.write_stats(second) == rows == len(want)
        assert second.getvalue() == first.getvalue()
        assert [tuple(r) for r in parse_stats(first.getvalue().splitlines())[1]] == want
        assert counter.item_counts == item_counts and counter.samples == samples
        # a written counter still merges: twice itself counts every item and pair twice
        counter.merge(CooccurrenceCounter().merge(counter))
        doubled = parse_stats(stats_file(counter).splitlines())[1]
        assert [r[:5] for r in doubled] == [(t_i, t_j, 2 * count_i, 2 * count_j, 2 * count_ij)
                                            for t_i, t_j, count_i, count_j, count_ij, _, _ in want]


#: endpoints of which some are prefixes of others
STATS_ITEMS = ['UNK:abcd', 'UNK:abcde', 'FAM:zbot', 'FAM:zbota', 'CLASS:worm', 'FILE:OS:windows']


def either_form(text):
    '''An item as its string or as its parsed TagPath/UnknownToken.'''
    return st.sampled_from([text, parse_item(text)])


@st.composite
def stats_corpora(draw):
    '''(kind, samples): a corpus of item lists where some, every or no item is seen once.

    A sample may be empty, hold one item, or name an item twice, in either form.
    '''
    kind = draw(st.sampled_from(['mixed', 'all_once', 'none_once']))
    if kind == 'all_once':
        sizes = draw(st.lists(st.integers(0, 5), max_size=8))
        names = iter(draw(st.permutations(['UNK:tok%02d' % n for n in range(40)])))
        samples = [[draw(either_form(next(names))) for _ in range(size)] for size in sizes]
    else:
        samples = draw(st.lists(st.lists(st.sampled_from(STATS_ITEMS).flatmap(either_form),
                                         max_size=6), max_size=10))
        if kind == 'none_once':  # every item then is in two samples at least
            samples = draw(st.permutations(samples + samples))
    return kind, samples


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corpus=stats_corpora(), data=st.data())
def test_write_stats_matches_brute_force(corpus, data):
    '''write_stats text and row count against the per-pair oracle, for one counter and
    for the merge of a random partition of the corpus, merged in random order.'''
    kind, samples = corpus
    item_sets = [set(map(str, items)) for items in samples]
    item_counts = Counter(itertools.chain.from_iterable(item_sets))
    if kind == 'all_once':
        assert set(item_counts.values()) <= {1}
    elif kind == 'none_once':
        assert 1 not in item_counts.values()
    want = brute_force_relations(item_sets)
    text = STATS_HEADER + '\n' + ''.join(
        '%s\t%s\t%d\t%d\t%d\t%.6f\t%.6f\n' % tuple(relation) for relation in want)

    whole = CooccurrenceCounter()
    for items in samples:
        whole.add_items(items)
    n_parts = data.draw(st.integers(1, 4))
    owners = data.draw(st.lists(st.integers(0, n_parts - 1),
                                min_size=len(samples), max_size=len(samples)))
    parts = [CooccurrenceCounter() for _ in range(n_parts)]
    for owner, items in zip(owners, samples):
        parts[owner].add_items(items)
    merged = CooccurrenceCounter()
    for part in data.draw(st.permutations(parts)):
        merged.merge(part)
    for counter in (whole, merged):
        out = io.StringIO()
        assert counter.write_stats(out) == len(want)
        assert out.getvalue() == text


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
