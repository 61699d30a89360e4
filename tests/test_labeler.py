import itertools
import random
from collections import Counter

import pytest

from avtag.labeler import (
    CooccurrenceCounter,
    Relation,
    SampleReport,
    compat_family,
    cooccurrence_stats,
    expand,
    format_compat_line,
    format_stats,
    label_sample,
    tag_tokens,
)
from avtag.ruleset import RuleSet, load_rules
from avtag.taxonomy import TagPath, Taxonomy, UnknownToken, parse_item, render_item
from avtag.tokenizer import tokenize

from conftest import GOLDEN_LABELS, random_reports, sample_id


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
        ranking = label_sample(report(labels), base_rules, base_taxonomy)
        assert ranking.format_line().split('\t')[1] == (
            'BEH:selfpropagate|5,CLASS:worm|2')

    def test_single_engine_items_pruned(self, base_rules, base_taxonomy):
        ranking = label_sample(report({'A': 'Zbot'}), base_rules, base_taxonomy)
        assert len(ranking) == 0
        assert ranking.format_line() == ranking.sample_id

    def test_within_engine_duplicates_count_once(self, base_rules, base_taxonomy):
        labels = {'A': 'Zbot.zbot.zbot', 'B': 'zbot'}
        ranking = label_sample(report(labels), base_rules, base_taxonomy)
        assert ranking.format_line().split('\t')[1] == 'FAM:zbot|2'

    def test_engine_allowlist_case_insensitive(self, base_rules, base_taxonomy):
        labels = {'GoodAV': 'Zbot', 'FineAV': 'zbot', 'BadAV': 'zbot'}
        ranking = label_sample(report(labels), base_rules, base_taxonomy,
                               allowlist={'goodav', 'fineav'})
        [assignment] = list(ranking)
        assert assignment.engines == frozenset({'GoodAV', 'FineAV'})

    def test_ranking_ties_put_tags_before_unknowns(self, base_rules, base_taxonomy):
        labels = {'A': 'zzztok.bebeg', 'B': 'zzztok/Bebeg'}
        ranking = label_sample(report(labels), base_rules, base_taxonomy)
        assert ranking.format_line().split('\t')[1] == 'FAM:bebeg|2,UNK:zzztok|2'

    def test_count_descending_then_canonical(self, base_rules, base_taxonomy):
        labels = {'A': 'virut.zbot', 'B': 'virut.zbot', 'C': 'virut'}
        ranking = label_sample(report(labels), base_rules, base_taxonomy)
        assert [render_item(a.item) for a in ranking] == ['FAM:virut', 'FAM:zbot']


class TestCompatFamily:
    def test_family_tag_wins(self, base_rules, base_taxonomy):
        labels = {'A': 'Zbot.gen', 'B': 'zbot!x'}
        assert compat_family(label_sample(report(labels), base_rules,
                                          base_taxonomy)) == 'zbot'

    def test_family_beats_unknown_on_tie(self, base_rules, base_taxonomy):
        labels = {'A': 'zbot.aaaunk', 'B': 'zbot.aaaunk'}
        assert compat_family(label_sample(report(labels), base_rules,
                                          base_taxonomy)) == 'zbot'

    def test_unknown_token_as_family(self, base_rules, base_taxonomy):
        labels = {'A': 'newfam.worm', 'B': 'newfam'}
        assert compat_family(label_sample(report(labels), base_rules,
                                          base_taxonomy)) == 'newfam'

    def test_non_family_tags_ignored(self, base_rules, base_taxonomy):
        labels = {'A': 'worm', 'B': 'worm'}
        assert compat_family(label_sample(report(labels), base_rules,
                                          base_taxonomy)) is None

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
        for a, b in itertools.combinations(sorted(items, key=render_item), 2):
            pair_counts[(a, b)] += 1
    rows = []
    for (a, b), count_ab in pair_counts.items():
        if (item_counts[a], render_item(a)) <= (item_counts[b], render_item(b)):
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
        relations = cooccurrence_stats([report(labels)], base_rules, base_taxonomy)
        [rel] = relations
        assert rel.as_tuple() == ('FAM:virut', 'FAM:zbot', 1, 1, 1, 1.0, 1.0)

    def test_orientation_least_frequent_first(self, base_rules, base_taxonomy):
        reports = [report({'A': 'virut.zbot', 'B': 'virut.zbot'}, 1),
                   report({'A': 'zbot', 'B': 'zbot'}, 2)]
        [rel] = cooccurrence_stats(reports, base_rules, base_taxonomy)
        assert rel.as_tuple() == ('FAM:virut', 'FAM:zbot', 1, 2, 1, 1.0, 0.5)

    def test_tie_breaks_lexicographically(self, base_rules, base_taxonomy):
        [rel] = cooccurrence_stats([report({'A': 'zbot.virut', 'B': 'zbot.virut'})],
                                   base_rules, base_taxonomy)
        assert (rel.as_tuple()[0], rel.as_tuple()[1]) == ('FAM:virut', 'FAM:zbot')

    def test_items_counted_before_expansion(self, base_rules, base_taxonomy):
        relations = cooccurrence_stats([report({'A': 'Worm.zbot', 'B': 'worm.zbot'})],
                                       base_rules, base_taxonomy)
        [rel] = relations
        # ranking would include BEH:selfpropagate; statistics must not
        assert rel.as_tuple()[:2] == ('CLASS:worm', 'FAM:zbot')

    def test_single_engine_samples_contribute_nothing(self, base_rules, base_taxonomy):
        relations = cooccurrence_stats([report({'A': 'virut.zbot'})],
                                       base_rules, base_taxonomy)
        assert relations == []

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        items = ['itm%02da' % n for n in range(10)]
        reports, expected_sets = random_reports(rng, 200, items,
                                                ['E%d' % n for n in range(6)])
        got = cooccurrence_stats(reports, RuleSet(), Taxonomy())
        want = brute_force_relations([{UnknownToken(i) for i in s}
                                      for s in expected_sets])
        assert [r.as_tuple() for r in got] == [r.as_tuple() for r in want]

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
            assert ([r.as_tuple() for r in merged.relations()]
                    == [r.as_tuple() for r in whole.relations()])

    def test_sample_order_irrelevant(self, base_rules, base_taxonomy):
        reports = [report({'A': 'virut.zbot', 'B': 'virut.zbot'}, n)
                   for n in range(5)]
        reports += [report({'A': 'zbot.worm', 'B': 'zbot/worm'}, 100 + n)
                    for n in range(3)]
        forward = cooccurrence_stats(reports, base_rules, base_taxonomy)
        backward = cooccurrence_stats(reports[::-1], base_rules, base_taxonomy)
        assert ([r.as_tuple() for r in forward]
                == [r.as_tuple() for r in backward])


class TestFormatStats:
    def test_golden_output(self, base_rules, base_taxonomy):
        reports = [report({'A': 'virut.zbot', 'B': 'virut.zbot'}, 1),
                   report({'A': 'zbot', 'B': 'zbot'}, 2)]
        relations = cooccurrence_stats(reports, base_rules, base_taxonomy)
        assert format_stats(relations) == (
            't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\n'
            'FAM:virut\tFAM:zbot\t1\t2\t1\t1.000000\t0.500000\n')

    def test_endpoint_forms_format_alike(self):
        rows = [('CLASS:worm', 'FAM:zbot', 3, 5, 2),
                ('FAM:zbot', 'UNK:skodna', 5, 9, 5),
                ('FILE:OS:windows', 'UNK:skodna', 9, 9, 4),
                ('UNK:aaaa', 'UNK:bbbb', 2, 7, 1),
                ('CLASS:worm', 'UNK:aaaa', 2, 3, 2)]
        want = ''.join('%s\t%s\t%d\t%d\t%d\t%.6f\t%.6f\n'
                       % (t_i, t_j, ci, cj, cij, cij / ci, cij / cj)
                       for t_i, t_j, ci, cj, cij in sorted(rows))
        rng = random.Random(3)
        for _ in range(20):
            # each endpoint as its string, or as the TagPath/UnknownToken it parses to
            mixed = [Relation(rng.choice((t_i, parse_item(t_i))),
                              rng.choice((t_j, parse_item(t_j))),
                              ci, cj, cij, cij / ci, cij / cj)
                     for t_i, t_j, ci, cj, cij in rows]
            rng.shuffle(mixed)
            assert format_stats(mixed) == (
                't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\n' + want)

    def test_header_only_when_empty(self):
        assert format_stats([]) == (
            't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\n')
