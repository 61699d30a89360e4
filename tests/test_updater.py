import copy
import io
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from avtag import updater
from avtag.labeler import STATS_HEADER, tag_tokens
from avtag.ruleset import RuleSet, load_rules, serialize_rules
from avtag.taxonomy import (TagPath, TaxonomyError, UnknownToken, load_taxonomy, parse_item,
                            serialize_taxonomy)
from avtag.updater import (
    DEFAULT_MIN_COUNT,
    DEFAULT_MIN_REL,
    ChangeLog,
    Relation,
    UpdateConfig,
    _ActionError,
    _WorkState,
    format_changelog,
    format_unhandled,
    infer,
    is_equivalent,
    parse_stats,
    resolve_item,
)

from conftest import (MATRIX_ROWS, MATRIX_ROWS_FIXPOINT, MATRIX_TAXONOMY,
                      random_taxonomy, stats_text)


def relation(t_i, t_j, count_i, count_j, count_ij):
    [rel] = parse_stats(stats_text([(t_i, t_j, count_i, count_j, count_ij)]).splitlines())[1]
    return rel


@pytest.fixture
def matrix_taxonomy():
    return load_taxonomy(MATRIX_TAXONOMY)


@pytest.fixture
def matrix_rules(matrix_taxonomy):
    return load_rules('', '', matrix_taxonomy)


def selected(relations, config):
    '''The relations parse_stats keeps, with `config`, from their stats rows.'''
    return parse_stats([relation.format_row() for relation in relations], config)[1]


def run_rows(rows, taxonomy, rules, config=None):
    strong = parse_stats(stats_text(rows).splitlines(), config or UpdateConfig())[1]
    return infer(strong, taxonomy, rules, config)


class TestConfig:
    def test_defaults(self):
        config = UpdateConfig()
        assert (config.n, config.T) == (DEFAULT_MIN_COUNT, DEFAULT_MIN_REL) == (20, 0.94)

    def test_invalid_values_rejected(self):
        for n, T in ((0, 0.94), (-3, 0.94), (20, 0.0), (20, -0.1), (20, 1.5)):
            with pytest.raises(ValueError):
                UpdateConfig(n=n, T=T)
            with pytest.raises(ValueError):
                UpdateConfig()._replace(n=n, T=T)

    def test_boundary_values_accepted(self):
        UpdateConfig(n=1, T=1.0)
        UpdateConfig(n=1, T=1e-9)

    def test_frozen_pair(self):
        config = UpdateConfig(n=5, T=0.7)
        for name in ('n', 'T', 'other'):
            with pytest.raises(AttributeError):
                setattr(config, name, 1)
        n, T = config
        assert (n, T) == (5, 0.7)


RECORDS = {
    'RuleSet': lambda: RuleSet(
        {'zeus': frozenset({TagPath.parse('FAM:zbot')}), 'trojan': frozenset()},
        {TagPath.parse('CLASS:worm'): frozenset({TagPath.parse('BEH:selfpropagate')})}),
    'UpdateConfig': lambda: UpdateConfig(n=5, T=0.7),
    'Relation': lambda: relation('UNK:fynloski', 'FAM:darkkomet', 50, 100, 50),
}


class TestRecords:
    @pytest.mark.parametrize('make', RECORDS.values(), ids=list(RECORDS))
    def test_pickle_and_copy_keep_type_and_value(self, make):
        record = make()
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies + [copy.copy(record)]:
            assert type(again) is type(record)
            assert again == record and not again != record

    def test_rule_sets_equal_only_with_equal_maps(self):
        rules = RECORDS['RuleSet']()
        assert rules == rules.copy() and rules != RuleSet()
        assert rules != RuleSet(rules.tagging) and rules != RuleSet(expansion=rules.expansion)

    def test_rule_sets_share_no_map_and_equal_their_tuple(self):
        first, second = RuleSet(), RuleSet()
        assert len({id(rule_map) for rule_map in first + second}) == 2 * len(RuleSet._fields)
        first.tagging['zeus'] = frozenset()
        assert second == RuleSet() and second.tagging == {}
        rules = RECORDS['RuleSet']()
        assert rules == (rules.tagging, rules.expansion) and tuple(rules) == rules

    def test_change_logs_share_no_list(self):
        first, second = ChangeLog(), ChangeLog()
        assert len({id(entries) for entries in first + second}) == 2 * len(ChangeLog._fields)
        first.tagging_added.append('zeus')
        assert second == ChangeLog() and second.total() == 0 and not second.tagging_dirty
        assert first.total() == 1 and first.tagging_dirty


class TestParseStats:
    def test_roundtrip_through_format(self):
        rows = [('UNK:fynloski', 'FAM:darkkomet', 50, 100, 50),
                ('FAM:virut', 'CLASS:virus', 100, 700, 100)]
        relations = parse_stats(stats_text(rows).splitlines())[1]
        ordered = sorted(relations, key=Relation.key)
        text = '\n'.join([STATS_HEADER] + [r.format_row() for r in ordered])
        assert parse_stats(text.splitlines())[1] == ordered

    def test_rels_recomputed_from_counts(self):
        text = ('t_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\n'
                'FAM:virut\tCLASS:virus\t3\t7\t1\t0.999999\t0.000001\n')
        [rel] = parse_stats(text.splitlines())[1]
        assert rel.rel_ij == 1 / 3 and rel.rel_ji == 1 / 7

    def test_swapped_counts_normalized(self):
        rel = relation('CLASS:virus', 'FAM:virut', 700, 100, 100)
        assert str(rel.t_i) == 'FAM:virut'
        assert (rel.count_i, rel.count_j) == (100, 700)

    def test_header_comments_and_blanks_skipped(self):
        text = ('t_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\n'
                '# note\n\nUNK:sometok\tFAM:virut\t5\t10\t5\t1.000000\t0.500000\n')
        assert len(parse_stats(text.splitlines())[1]) == 1

    def test_malformed_rows_rejected(self):
        bad_rows = [
            'UNK:tok\tFAM:virut\t5\t10\t5\t1.0\n',            # 6 fields
            'UNK:tok\tFAM:virut\t5\t10\t5\t1.0\t0.5\tx\n',    # 8 fields
            'UNK:tok\tFAM:virut\tfive\t10\t5\t1.0\t0.5\n',    # non-integer
            'UNK:tok\tFAM:virut\t5\t10\t0\t0.0\t0.0\n',       # zero joint count
            'UNK:tok\tFAM:virut\t5\t10\t6\t1.2\t0.6\n',       # joint > support
            'WAT:tok\tFAM:virut\t5\t10\t5\t1.0\t0.5\n',       # bad category
            'UNK:To k\tFAM:virut\t5\t10\t5\t1.0\t0.5\n',      # bad token text
        ]
        for row in bad_rows:
            with pytest.raises(ValueError) as err:
                parse_stats(row.splitlines())[1]
            assert 'line 1' in str(err.value)


def is_strong(relation, config):
    '''Support and joint-frequency thresholds (both inclusive).'''
    return relation.count_i >= config.n and relation.rel_ij >= config.T


def involves_os_tag(relation):
    '''True when either endpoint lies in the FILE:OS subtree.'''
    return any(item == 'FILE:OS' or item.startswith('FILE:OS:') for item in relation.key())


def reference_parse_stats(text):
    '''parse_stats as it was before it streamed: every row of the whole text.'''
    relations = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        fields = line.split('\t')
        if fields[0] == 't_i':
            continue
        if len(fields) != 7:
            raise ValueError('stats line %d: expected 7 tab-separated fields' % lineno)
        try:
            t_i = parse_item(fields[0])
            t_j = parse_item(fields[1])
            count_i, count_j, count_ij = (int(fields[k]) for k in (2, 3, 4))
        except (TaxonomyError, ValueError) as exc:
            raise ValueError('stats line %d: %s' % (lineno, exc)) from None
        if count_ij < 1 or count_ij > min(count_i, count_j):
            raise ValueError('stats line %d: inconsistent counts %d/%d/%d'
                             % (lineno, count_i, count_j, count_ij))
        if count_i > count_j:
            t_i, t_j, count_i, count_j = t_j, t_i, count_j, count_i
        relations.append(Relation(t_i, t_j, count_i, count_j, count_ij,
                                  count_ij / count_i, count_ij / count_j))
    return relations


def stats_row(t_i, t_j, count_i, count_j, count_ij):
    return '%s\t%s\t%d\t%d\t%d\t%.6f\t%.6f' % (
        t_i, t_j, count_i, count_j, count_ij, count_ij / count_i, count_ij / count_j)


ENDPOINTS = ['UNK:aa', 'UNK:b2', 'FAM:zbot', 'CLASS:worm', 'FILE:OS:windows', 'BEH:OS']


@st.composite
def stats_rows(draw):
    '''A valid row, strong or weak at the default thresholds, either endpoint first.'''
    t_i, t_j = draw(st.lists(st.sampled_from(ENDPOINTS), min_size=2, max_size=2,
                             unique=True))
    count_i = draw(st.sampled_from([1, 19, 20, 21, 50]))
    count_j = draw(st.sampled_from([count_i, count_i + 1, 60]))
    count_ij = draw(st.integers(1, count_i) | st.just(count_i))
    if draw(st.booleans()):  # the larger count first: the parser swaps the endpoints
        t_i, t_j, count_i, count_j = t_j, t_i, count_j, count_i
    return stats_row(t_i, t_j, count_i, count_j, count_ij)


#: rows that fail, some with strong counts and some with weak ones
MALFORMED_ROWS = [
    'UNK:aa\tFAM:zbot\t30\t30\t30\t1.0',
    'UNK:aa\tFAM:zbot\t30\t30\t30\t1.0\t1.0\tx',
    'UNK:aa\tFAM:zbot\tthirty\t30\t30\t1.0\t1.0',
    'UNK:aa\tFAM:zbot\t5\t10\t0\t0.0\t0.0',
    'UNK:aa\tFAM:zbot\t30\t30\t31\t1.0\t1.0',
    'WAT:aa\tFAM:zbot\t30\t30\t30\t1.0\t1.0',
    'UNK:aa\tWAT:zbot\t5\t10\t1\t0.2\t0.1',
    'UNK:A a\tFAM:zbot\t30\t30\t30\t1.0\t1.0',
    'UNK:aa\x1cFAM:zbot\t30\t30\t30\t1.0\t1.0',  # a row broken by a line separator
]

#: what separates two lines: a line end, or a line boundary of str.splitlines
SEPARATORS = ['\n', '\r\n', '\r', '\x0b', '\x0c', '\x1c', '\x1d', '\x1e', '\x85',
              '\u2028', '\u2029']


@st.composite
def stats_files(draw):
    '''The bytes of a stats file with a mix of rows, comments, blanks and line ends.'''
    lines = draw(st.lists(stats_rows() | st.sampled_from(['# note', '', '  ', STATS_HEADER]),
                          max_size=30))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED_ROWS)))
    ends = draw(st.lists(st.sampled_from(SEPARATORS) | st.just('\n'),
                         min_size=len(lines), max_size=len(lines)))
    text = ''.join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no line end after the last line
    bom = '\ufeff' if draw(st.booleans()) else ''
    return (bom + text).encode()


def open_stats(data):
    '''The bytes read as an open stats file is read: BOM dropped, line ends translated.'''
    return io.TextIOWrapper(io.BytesIO(data), encoding='utf-8-sig')


def parsed(parse):
    try:
        return parse(), None
    except ValueError as exc:
        return None, str(exc)


#: holds some of ENDPOINTS' tags (zbot and windows), not the others, and a tag named aa
STREAM_TAXONOMY = load_taxonomy('FAM:zbot\nFILE:OS:windows\nCLASS:aa\n')


class TestParseStatsStream:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(data=stats_files(), config=st.none() | st.sampled_from(
        [UpdateConfig(), UpdateConfig(n=1, T=0.5), UpdateConfig(n=50, T=1)]),
        taxonomy=st.sampled_from([None, STREAM_TAXONOMY]))
    def test_stream_matches_the_whole_text_reference(self, data, config, taxonomy):
        got, error = parsed(lambda: parse_stats(open_stats(data), config, taxonomy))
        want, want_error = parsed(lambda: reference_parse_stats(open_stats(data).read()))
        assert error == want_error
        if want is not None:
            strong = want if config is None else [r for r in want if is_strong(r, config)]
            kept = strong if config is None else [r for r in strong if not involves_os_tag(r)]
            assert got == (len(want), kept, len(strong))

    def test_lines_split_again_at_every_boundary(self):
        # '' is one blank line, as in the list text.splitlines() gives
        lines = ['# note\x0b\n', '', '\n', 'UNK:aa\tFAM:zbot\t5\t10\t0\t0.0\t0.0\n']
        with pytest.raises(ValueError) as err:
            parse_stats(lines)
        assert str(err.value) == 'stats line 5: inconsistent counts 5/10/0'

    def test_each_endpoint_text_parsed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(updater, 'parse_item', lambda text: calls.append(text) or
                            parse_item(text))
        rows = [('UNK:aa', 'FAM:zbot', 30, 40, 30), ('UNK:b2', 'FAM:zbot', 5, 40, 1),
                ('FAM:zbot', 'UNK:aa', 40, 30, 30)]  # swapped into the first row's order
        count, strong, _ = parse_stats(stats_text(rows).splitlines(), UpdateConfig())
        assert sorted(calls) == ['FAM:zbot', 'UNK:aa', 'UNK:b2']
        assert count == 3 and [r.key() for r in strong] == [('UNK:aa', 'FAM:zbot')] * 2
        assert strong[0].t_i is strong[1].t_i and strong[0].t_j is strong[1].t_j

    def test_one_str_is_refused(self):
        with pytest.raises(TypeError):
            parse_stats(stats_text([]))


class TestParseStatsSharing:
    ROWS = [('UNK:aa', 'FAM:zbot', 300, 400, 300), ('UNK:b2', 'FAM:zbot', 300, 400, 300),
            ('FAM:zbot', 'CLASS:worm', 400, 500, 400), ('FAM:nosuch', 'FILE:OS', 30, 40, 30),
            ('UNK:zbot', 'FILE:OS:windows', 300, 900, 299)]

    def test_tag_endpoints_are_the_taxonomy_nodes(self):
        taxonomy = load_taxonomy('CLASS:worm\nFAM:zbot\nFILE:OS:windows\n')
        rows, relations, strong = parse_stats(stats_text(self.ROWS).splitlines(), None,
                                              taxonomy)
        assert rows == strong == len(relations) == 5
        for tag in ('FAM:zbot', 'CLASS:worm', 'FILE:OS:windows'):
            found = [item for rel in relations for item in rel.key() if item == tag]
            assert found and all(item is taxonomy.resolve_name(tag.rpartition(':')[2])
                                 for item in found), tag

    def test_items_outside_the_taxonomy_parse_as_without_it(self):
        # a missing family, a structural path, a root and an unknown token named
        # after a tag keep the types and values they parse to without a taxonomy
        taxonomy = load_taxonomy('CLASS:worm\nFAM:zbot\nFILE:OS:windows\n')
        text = stats_text(self.ROWS + [('FAM', 'UNK:aa', 30, 30, 30)])
        with_taxonomy = parse_stats(text.splitlines(), None, taxonomy)
        without = parse_stats(text.splitlines())
        assert with_taxonomy == without
        for got, want in zip(with_taxonomy[1], without[1]):
            assert [type(item) for item in got.key()] == [type(item) for item in want.key()]
        unknown = next(rel.t_i for rel in with_taxonomy[1] if rel.t_i == 'UNK:zbot')
        assert isinstance(unknown, UnknownToken)

    def test_equal_counts_of_strong_rows_are_one_int(self):
        strong = parse_stats(stats_text(self.ROWS).splitlines())[1]
        # each text was read by its own int() call
        assert strong[0].count_i is strong[0].count_ij is strong[1].count_i
        assert strong[0].count_j is strong[1].count_j is strong[2].count_i
        assert strong[4].count_i is strong[0].count_i

    def test_bad_count_in_a_weak_row_still_names_its_line(self):
        text = (stats_text([('UNK:b2', 'FAM:zbot', 5, 10, 1)])
                + 'UNK:aa\tFAM:zbot\t5\tten\t1\t0.2\t0.1\n')
        with pytest.raises(ValueError) as err:
            parse_stats(text.splitlines(), UpdateConfig(), STREAM_TAXONOMY)
        assert str(err.value) == (
            "stats line 3: invalid literal for int() with base 10: 'ten'")


#: no taxonomy, and one that holds every tag the OS tests read
OS_TAXONOMIES = [None, load_taxonomy(
    'FAM:virut\nCLASS:virus\nFILE:OS:windows\nFILE:OSX:macho\nFILE:oss\n')]


def select_rows(rows, config, taxonomy=None):
    '''The keys of the relations parse_stats keeps from `rows`, and its strong count.'''
    _, relations, strong = parse_stats(stats_text(rows).splitlines(), config, taxonomy)
    return [r.key() for r in relations], strong


class TestThresholds:
    def test_strength_boundaries(self):
        config = UpdateConfig(n=20, T=0.94)
        for rows in ([('UNK:aaatok', 'UNK:bbbtok', 19, 100, 19)],
                     [('UNK:aaatok', 'UNK:bbbtok', 10000, 20000, 9399)]):
            assert select_rows(rows, config) == ([], 0)
        for rows in ([('UNK:aaatok', 'UNK:bbbtok', 20, 100, 19)],
                     [('UNK:aaatok', 'UNK:bbbtok', 20, 100, 20)]):
            assert select_rows(rows, config) == ([('UNK:aaatok', 'UNK:bbbtok')], 1)

    def test_equivalence_boundary(self):
        config = UpdateConfig(n=20, T=0.94)
        assert is_equivalent(relation('UNK:aaatok', 'UNK:bbbtok', 100, 100, 94), config)
        assert not is_equivalent(relation('UNK:aaatok', 'UNK:bbbtok', 100, 101, 94),
                                 config)

    def test_os_subtree_filtered(self):
        config = UpdateConfig()
        rows = [('FAM:virut', 'FILE:OS:windows', 100, 1000, 100),
                ('FAM:virut', 'CLASS:virus', 100, 700, 100)]
        weak = [('FAM:virut', 'FILE:OS:windows', 19, 1000, 19)]
        for taxonomy in OS_TAXONOMIES:
            assert select_rows(rows, config, taxonomy) == ([('FAM:virut', 'CLASS:virus')], 2)
            # a weak OS row counts neither as strong nor as removed
            assert select_rows(weak, config, taxonomy) == ([], 0)

    def test_os_subtree_filtered_in_every_endpoint_form(self):
        config = UpdateConfig()
        for taxonomy in OS_TAXONOMIES:
            for os_text in ('FILE:OS', 'FILE:OS:windows'):
                for partner in ('FAM:virut', 'UNK:winpe'):
                    # the OS endpoint ends up t_i, then t_j, and is written first or second
                    for counts in ((100, 1000, 100), (1000, 100, 100)):
                        for row in ((partner, os_text) + counts, (os_text, partner) + counts):
                            assert select_rows([row], config, taxonomy) == ([], 1), row
            # a sibling of FILE:OS whose name merely starts with OS is kept
            for other in ('FILE:OSX:macho', 'FILE:oss'):
                row = ('UNK:winpe', other, 100, 1000, 100)
                assert select_rows([row], config, taxonomy) == ([('UNK:winpe', other)], 1)


class TestResolveItem:
    def test_tag_in_taxonomy_is_canonical(self, base_taxonomy, base_rules):
        path = TagPath.parse('FAM:zbot')
        assert resolve_item(path, base_taxonomy, base_rules) is path

    def test_token_follows_single_destination_rule(self, base_taxonomy, base_rules):
        got = resolve_item(UnknownToken('downldr'), base_taxonomy, base_rules)
        assert got == TagPath.parse('CLASS:downloader')

    def test_retired_tag_follows_alias_rule(self, base_taxonomy):
        taxonomy = base_taxonomy.copy()
        taxonomy.add(TagPath.parse('FAM:zeus'))
        rules = load_rules('zeusgen\tzeus\n', '', taxonomy)
        state = _WorkState(taxonomy, rules)
        state.add_alias('zeus', TagPath.parse('FAM:zbot'))
        got = resolve_item(TagPath.parse('FAM:zeus'), state.taxonomy, state.rules)
        assert got == TagPath.parse('FAM:zbot')
        got = resolve_item(UnknownToken('zeusgen'), state.taxonomy, state.rules)
        assert got == TagPath.parse('FAM:zbot')

    def test_rule_chain_read_in_one_step(self, base_taxonomy):
        # loaded rules hold no chains; a hand-built one is read as labeling reads it
        rules = RuleSet(tagging={
            'zeus': frozenset((TagPath.parse('FAM:zbot'),)),
            'zbot': frozenset((TagPath.parse('FAM:virut'),)),
        })
        got = resolve_item(UnknownToken('zeus'), base_taxonomy, rules)
        assert got == TagPath.parse('FAM:zbot')
        assert tag_tokens(['zeus'], rules, base_taxonomy) == ({got}, set())

    def test_rule_cycle_read_in_one_step(self, base_taxonomy):
        rules = RuleSet(tagging={
            'aaacyc': frozenset((TagPath(('FAM', 'bbbcyc')),)),
            'bbbcyc': frozenset((TagPath(('FAM', 'aaacyc')),)),
        })
        got = resolve_item(UnknownToken('aaacyc'), base_taxonomy, rules)
        assert got == TagPath(('FAM', 'bbbcyc'))

    def test_generic_rule_resolves_to_none(self, base_taxonomy, base_rules):
        assert resolve_item(UnknownToken('trojan'), base_taxonomy, base_rules) is None

    def test_multi_destination_rule_resolves_to_none(self, base_taxonomy, base_rules):
        assert resolve_item(UnknownToken('ircbot'), base_taxonomy, base_rules) is None

    def test_token_matching_tag_name(self, base_taxonomy, base_rules):
        got = resolve_item(UnknownToken('zbot'), base_taxonomy, base_rules)
        assert got == TagPath.parse('FAM:zbot')

    def test_unmatched_token_stays_unknown(self, base_taxonomy, base_rules):
        item = UnknownToken('mysterytok')
        assert resolve_item(item, base_taxonomy, base_rules) is item


def is_known(rel, taxonomy, rules, config=None):
    '''True when infer finds `rel` already captured by the knowledge base.'''
    consumed_known = infer([rel], taxonomy, rules, config).consumed_known
    assert consumed_known in ([], [rel])
    return consumed_known == [rel]


class TestIsKnown:
    def test_same_resolution(self, base_taxonomy, base_rules):
        rel = relation('UNK:downldr', 'CLASS:downloader', 30, 60, 30)
        assert is_known(rel, base_taxonomy, base_rules)

    def test_ancestry(self, base_taxonomy, base_rules):
        rel = relation('CLASS:grayware:adware', 'CLASS:grayware', 200, 500, 200)
        assert is_known(rel, base_taxonomy, base_rules)

    def test_reverse_ancestry_needs_equivalence(self, base_taxonomy, base_rules):
        # rel_ji is 0.8: an equivalence at T=0.8, not at the default T
        rel = relation('CLASS:grayware', 'CLASS:grayware:adware', 200, 250, 200)
        assert not is_known(rel, base_taxonomy, base_rules)
        assert is_known(rel, base_taxonomy, base_rules, UpdateConfig(T=0.8))

    def test_expansion_containment_is_directional(self, base_taxonomy, base_rules):
        covered = relation('CLASS:worm', 'BEH:selfpropagate', 90, 180, 90)
        assert is_known(covered, base_taxonomy, base_rules)
        reverse = Relation(TagPath.parse('BEH:selfpropagate'),
                           TagPath.parse('CLASS:worm'), 180, 90, 90, 0.5, 1.0)
        assert not is_known(reverse, base_taxonomy, base_rules)

    def test_endpoint_covered_by_generic_rule(self, base_taxonomy, base_rules):
        rel = relation('UNK:trojan', 'FAM:zbot', 50, 100, 50)
        assert is_known(rel, base_taxonomy, base_rules)


class TestMatrixActions:
    def test_token_aliased_to_family(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('UNK:fynloski', 'FAM:darkkomet', 50, 100, 50)],
                          matrix_taxonomy, matrix_rules)
        assert len(result.consumed_topblock) == 1
        assert result.rules.tagging['fynloski'] == frozenset(
            {TagPath.parse('FAM:darkkomet')})
        assert not result.changes.taxonomy_dirty and result.changes.tagging_dirty

    def test_token_becomes_family_from_class(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('UNK:hiddapp', 'CLASS:grayware:adware', 40, 200, 40)],
                          matrix_taxonomy, matrix_rules)
        assert TagPath.parse('FAM:hiddapp') in result.taxonomy
        assert 'hiddapp' not in result.rules.tagging

    def test_token_becomes_family_from_behavior(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('UNK:stealemall', 'BEH:infosteal', 30, 300, 30)],
                          matrix_taxonomy, matrix_rules)
        assert TagPath.parse('FAM:stealemall') in result.taxonomy

    def test_token_becomes_child_of_file_tag(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('UNK:gingerbreak', 'FILE:exploit', 25, 125, 25)],
                          matrix_taxonomy, matrix_rules)
        assert TagPath.parse('FILE:exploit:gingerbreak') in result.taxonomy

    def test_two_tokens_become_families_without_alias(self, matrix_taxonomy,
                                                      matrix_rules):
        result = run_rows([('UNK:aaanewfam', 'UNK:bbbnewfam', 45, 90, 45)],
                          matrix_taxonomy, matrix_rules)
        assert TagPath.parse('FAM:aaanewfam') in result.taxonomy
        assert TagPath.parse('FAM:bbbnewfam') in result.taxonomy
        assert result.rules.tagging == {}

    def test_family_renamed_to_token(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('FAM:virlock', 'UNK:virlocker', 50, 100, 50)],
                          matrix_taxonomy, matrix_rules)
        assert TagPath.parse('FAM:virlock') not in result.taxonomy
        assert TagPath.parse('FAM:virlocker') in result.taxonomy
        assert result.rules.tagging['virlock'] == frozenset(
            {TagPath.parse('FAM:virlocker')})

    def test_file_tag_renamed_to_token(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('FILE:packed:themida', 'UNK:themidanew', 60, 120, 60)],
                          matrix_taxonomy, matrix_rules)
        assert TagPath.parse('FILE:packed:themida') not in result.taxonomy
        assert TagPath.parse('FILE:packed:themidanew') in result.taxonomy
        assert result.rules.tagging['themida'] == frozenset(
            {TagPath.parse('FILE:packed:themidanew')})

    def test_family_aliased_to_family(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70)],
                          matrix_taxonomy, matrix_rules)
        assert TagPath.parse('FAM:zeus') not in result.taxonomy
        assert result.rules.tagging['zeus'] == frozenset(
            {TagPath.parse('FAM:zbot')})
        assert result.changes.taxonomy_removed == [TagPath.parse('FAM:zeus')]

    def test_equivalence_beats_matrix_row(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('UNK:cryptomalware', 'CLASS:miner', 95, 100, 95)],
                          matrix_taxonomy, matrix_rules)
        assert len(result.consumed_equivalence) == 1
        assert result.rules.tagging['cryptomalware'] == frozenset(
            {TagPath.parse('CLASS:miner')})
        assert TagPath.parse('FAM:cryptomalware') not in result.taxonomy

    def test_equivalence_between_two_tokens(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('UNK:aaasame', 'UNK:bbbsame', 100, 100, 97)],
                          matrix_taxonomy, matrix_rules)
        assert len(result.consumed_equivalence) == 1
        assert result.rules.tagging['aaasame'] == frozenset(
            {TagPath.parse('FAM:bbbsame')})
        assert TagPath.parse('FAM:aaasame') not in result.taxonomy

    def test_expansion_rows(self, matrix_taxonomy, matrix_rules):
        rows = [('FAM:packerfam', 'FILE:packed', 35, 175, 35),
                ('FAM:bebeg', 'BEH:infosteal', 30, 300, 30),
                ('FAM:virut', 'CLASS:virus', 100, 700, 100),
                ('CLASS:downloader', 'FILE:bundle', 160, 320, 160),
                ('CLASS:worm', 'BEH:selfpropagate', 90, 180, 90)]
        result = run_rows(rows, matrix_taxonomy, matrix_rules)
        assert len(result.consumed_expansion) == 5
        edges = {(str(source), str(target))
                 for source, targets in result.rules.expansion.items()
                 for target in targets}
        assert edges == {('FAM:packerfam', 'FILE:packed'),
                         ('FAM:bebeg', 'BEH:infosteal'),
                         ('FAM:virut', 'CLASS:virus'),
                         ('CLASS:downloader', 'FILE:bundle'),
                         ('CLASS:worm', 'BEH:selfpropagate')}

    def test_uncovered_pair_reported(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('BEH:inject', 'CLASS:downloader', 50, 160, 50)],
                          matrix_taxonomy, matrix_rules)
        [entry] = result.unhandled
        assert entry.reason == 'no update rule for category pair (BEH, CLASS)'
        assert result.changes.total() == 0

    def test_full_matrix_run(self, matrix_taxonomy, matrix_rules):
        result = run_rows(MATRIX_ROWS, matrix_taxonomy, matrix_rules)
        assert len(result.consumed_topblock) == 8
        assert len(result.consumed_expansion) == 5
        assert len(result.consumed_equivalence) == 1
        assert len(result.consumed_known) == 1
        assert len(result.unhandled) == 1
        assert result.changes.total() == 20
        # the outputs must reload as valid artifacts
        taxonomy_text = serialize_taxonomy(result.taxonomy)
        tagging_text, expansion_text = serialize_rules(result.rules)
        reloaded = load_taxonomy(taxonomy_text)
        load_rules(tagging_text, expansion_text, reloaded)


class TestActionAborts:
    def test_equivalence_cannot_retire_tag_with_children(self):
        taxonomy = load_taxonomy('FAM:gray\nFAM:gray:sub\nFAM:mine\n'
                                 'CLASS:grayware\nCLASS:grayware:adware\nCLASS:miner\n')
        rules = load_rules('', '', taxonomy)
        # two families alias, so the guard refuses; two classes never alias
        result = run_rows([('FAM:gray', 'FAM:mine', 100, 105, 100),
                           ('CLASS:grayware', 'CLASS:miner', 100, 105, 100)],
                          taxonomy, rules)
        assert [entry.reason for entry in result.unhandled] == [
            'cannot retire FAM:gray: node has children',
            'no update rule for category pair (CLASS, CLASS)']
        assert result.changes.total() == 0
        assert TagPath.parse('FAM:gray') in result.taxonomy
        assert TagPath.parse('CLASS:grayware') in result.taxonomy

    def test_alias_blocked_by_existing_rule(self):
        taxonomy = load_taxonomy('FAM:zbot\nFAM:zeus\n')
        rules = load_rules('zeus\tzbot\n', '', taxonomy)
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70)],
                          taxonomy, rules)
        [entry] = result.unhandled
        assert 'already has a tagging rule' in entry.reason
        assert TagPath.parse('FAM:zeus') in result.taxonomy

    def test_expansion_cycle_rejected(self):
        taxonomy = load_taxonomy('CLASS:virus\nFAM:virut\n')
        rules = load_rules('', 'CLASS:virus\tvirut\n', taxonomy)
        result = run_rows([('FAM:virut', 'CLASS:virus', 100, 700, 100)],
                          taxonomy, rules)
        [entry] = result.unhandled
        assert 'cycle' in entry.reason
        assert result.changes.total() == 0

    def test_aborted_action_leaves_artifacts_untouched(self):
        taxonomy = load_taxonomy('CLASS:virus\nFAM:virut\n')
        rules = load_rules('', 'CLASS:virus\tvirut\n', taxonomy)
        before = (serialize_taxonomy(taxonomy), serialize_rules(rules))
        result = run_rows([('FAM:virut', 'CLASS:virus', 100, 700, 100)],
                          taxonomy, rules)
        after = (serialize_taxonomy(result.taxonomy), serialize_rules(result.rules))
        assert before == after
        assert not (result.changes.taxonomy_dirty or result.changes.tagging_dirty
                    or result.changes.expansion_dirty)


class TestWorkStateGuards:
    def test_add_nodes_name_collision_is_atomic(self, base_taxonomy, base_rules):
        state = _WorkState(base_taxonomy, base_rules)
        with pytest.raises(_ActionError):
            state.add_nodes(TagPath.parse('FAM:brandnew'),
                            TagPath.parse('FAM:windows'))
        assert TagPath.parse('FAM:brandnew') not in state.taxonomy
        assert state.changes.total() == 0 and not state.changes.taxonomy_dirty

    def test_alias_self_name_rejected(self, base_taxonomy, base_rules):
        state = _WorkState(base_taxonomy, base_rules)
        with pytest.raises(_ActionError):
            state.add_alias('zbot', TagPath.parse('FAM:zbot'))

    def test_alias_structural_destination_rejected(self, base_taxonomy, base_rules):
        state = _WorkState(base_taxonomy, base_rules)
        with pytest.raises(_ActionError):
            state.add_alias('sometok', TagPath.parse('FILE:OS'))

    def test_alias_destination_name_collision_rejected(self, base_taxonomy,
                                                       base_rules):
        state = _WorkState(base_taxonomy, base_rules)
        with pytest.raises(_ActionError):
            state.add_alias('sometok', TagPath.parse('FAM:windows'))
        assert state.changes.total() == 0

    def test_alias_rewrite_to_self_rejected(self):
        taxonomy = load_taxonomy('FAM:zbot\nFAM:zeus\n')
        rules = load_rules('zbot\tFAM:zeus\n', '', taxonomy)
        state = _WorkState(taxonomy, rules)
        with pytest.raises(_ActionError) as err:
            state.add_alias('zeus', TagPath.parse('FAM:zbot'))
        assert 'alias the rule to itself' in str(err.value)
        assert state.changes.total() == 0

    def test_expansion_edge_guards(self, base_taxonomy, base_rules):
        state = _WorkState(base_taxonomy, base_rules)
        grayware = TagPath.parse('CLASS:grayware')
        adware = TagPath.parse('CLASS:grayware:adware')
        with pytest.raises(_ActionError):   # target implied by ancestry
            state.add_expansion_edge(adware, grayware)
        with pytest.raises(_ActionError):   # self edge
            state.add_expansion_edge(grayware, grayware)
        with pytest.raises(_ActionError):   # already present
            state.add_expansion_edge(TagPath.parse('CLASS:worm'),
                                     TagPath.parse('BEH:selfpropagate'))
        with pytest.raises(_ActionError):   # source not a taxonomy tag
            state.add_expansion_edge(TagPath.parse('FAM:ghost'),
                                     TagPath.parse('CLASS:worm'))
        with pytest.raises(_ActionError):   # would close a cycle
            state.add_expansion_edge(TagPath.parse('BEH:selfpropagate'),
                                     TagPath.parse('CLASS:worm'))
        assert state.changes.total() == 0


class TestAliasRewrites:
    def test_other_rule_destinations_follow_retired_tag(self):
        taxonomy = load_taxonomy('FAM:zbot\nFAM:zeus\n')
        rules = load_rules('zeusgen\tzeus\n', '', taxonomy)
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70)], taxonomy, rules)
        assert result.rules.tagging['zeusgen'] == frozenset(
            {TagPath.parse('FAM:zbot')})
        assert result.changes.tagging_added == ['zeus']
        # the rewritten artifacts reload without dangling references
        taxonomy_text = serialize_taxonomy(result.taxonomy)
        tagging_text, expansion_text = serialize_rules(result.rules)
        load_rules(tagging_text, expansion_text, load_taxonomy(taxonomy_text))

    def test_aliases_to_one_tag_share_one_frozenset(self):
        # an added alias (matrix row or equivalence, or a retired family) and a
        # rule rewritten onto the alias destination all hold {FAM:zbot}
        taxonomy = load_taxonomy('FAM:virut\nFAM:zbot\nFAM:zeus\n')
        rules = load_rules('zeusgen\tzeus\n', '', taxonomy)
        before = rules.copy()
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70),
                           ('UNK:aaalias', 'FAM:zbot', 50, 100, 50),
                           ('UNK:bbalias', 'FAM:zbot', 95, 100, 95),
                           ('UNK:ccalias', 'FAM:virut', 50, 100, 50)], taxonomy, rules)
        tagging = result.rules.tagging
        assert sorted(tagging) == ['aaalias', 'bbalias', 'ccalias', 'zeus', 'zeusgen']
        zbot = tagging['zeus']
        assert zbot == frozenset({TagPath.parse('FAM:zbot')})
        assert all(tagging[token] is zbot for token in ('zeusgen', 'aaalias', 'bbalias'))
        assert tagging['ccalias'] == frozenset({TagPath.parse('FAM:virut')})
        assert rules == before

    def test_retirements_rewrite_loaded_and_written_rules(self):
        # FAM:zeus is held by loaded rules and by an alias written earlier in
        # the run; retiring it moves them onto FAM:zbot, and retiring zbot then
        # moves them, with an alias written in between, onto FAM:citadel
        taxonomy = load_taxonomy('FAM:citadel\nFAM:virut\nFAM:zbot\nFAM:zeus\n')
        rules = load_rules('zboth\tzeus,zbot\nzeusgen\tzeus\nzmulti\tzeus,virut\n',
                           '', taxonomy)
        state = _WorkState(taxonomy, rules)
        want = {token: set(dests) for token, dests in rules.tagging.items()}
        for token, dest in [('zeusvar', 'FAM:zeus'), ('zeus', 'FAM:zbot'),
                            ('zbotvar', 'FAM:zbot'), ('zbot', 'FAM:citadel')]:
            dest = TagPath.parse(dest)
            old = state.taxonomy.resolve_name(token)
            state.add_alias(token, dest)
            for dests in want.values():  # a full scan: each rule that held `old` holds `dest`
                if old in dests:
                    dests.discard(old)
                    dests.add(dest)
            want[token] = {dest}
            assert state.rules.tagging == want
        assert {token: sorted(dests) for token, dests in state.rules.tagging.items()} == {
            'zboth': ['FAM:citadel'], 'zeusgen': ['FAM:citadel'],
            'zmulti': ['FAM:citadel', 'FAM:virut'], 'zeusvar': ['FAM:citadel'],
            'zeus': ['FAM:citadel'], 'zbotvar': ['FAM:citadel'], 'zbot': ['FAM:citadel']}
        assert state.changes.taxonomy_removed == ['FAM:zeus', 'FAM:zbot']

    def test_expansion_source_follows_retired_tag(self):
        taxonomy = load_taxonomy('BEH:infosteal\nFAM:zbot\nFAM:zeus\n')
        rules = load_rules('', 'FAM:zeus\tinfosteal\n', taxonomy)
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70)], taxonomy, rules)
        zeus = TagPath.parse('FAM:zeus')
        zbot = TagPath.parse('FAM:zbot')
        infosteal = TagPath.parse('BEH:infosteal')
        assert zeus not in result.rules.expansion
        assert result.rules.expansion[zbot] == frozenset({infosteal})
        assert result.changes.expansion_removed == [(zeus, infosteal)]
        assert result.changes.expansion_added == [(zbot, infosteal)]

    def test_expansion_remap_merges_target_sets(self):
        taxonomy = load_taxonomy('BEH:infosteal\nBEH:selfpropagate\n'
                                 'FAM:zbot\nFAM:zeus\n')
        rules = load_rules('', 'FAM:zbot\tselfpropagate\nFAM:zeus\tinfosteal\n',
                           taxonomy)
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70)], taxonomy, rules)
        merged = result.rules.expansion[TagPath.parse('FAM:zbot')]
        assert merged == frozenset({TagPath.parse('BEH:infosteal'),
                                    TagPath.parse('BEH:selfpropagate')})

    def test_expansion_remap_drops_self_target(self):
        # a rule targeting the retired tag would point at its own source after
        # the rewrite, so the edge is dropped and the emptied rule disappears
        taxonomy = load_taxonomy('FAM:zbot\nFAM:zeus\n')
        rules = load_rules('', 'FAM:zbot\tzeus\n', taxonomy)
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70)], taxonomy, rules)
        assert result.rules.tagging['zeus'] == frozenset(
            {TagPath.parse('FAM:zbot')})
        assert result.rules.expansion == {}
        assert result.changes.expansion_removed == [(TagPath.parse('FAM:zbot'),
                                                     TagPath.parse('FAM:zeus'))]
        assert result.changes.expansion_added == []

    def test_expansion_remap_cycle_aborts_alias(self):
        taxonomy = load_taxonomy('CLASS:bot\nFAM:zbot\nFAM:zeus\n')
        rules = load_rules('', 'CLASS:bot\tzbot\nFAM:zeus\tbot\n', taxonomy)
        before = serialize_rules(rules)
        result = run_rows([('FAM:zeus', 'FAM:zbot', 70, 140, 70)], taxonomy, rules)
        [entry] = result.unhandled
        assert 'cycle' in entry.reason
        assert serialize_rules(result.rules) == before
        assert TagPath.parse('FAM:zeus') in result.taxonomy


class TestFixedPoint:
    def test_fixpoint_rows_settle_after_one_run(self, matrix_taxonomy, matrix_rules):
        first = run_rows(MATRIX_ROWS_FIXPOINT, matrix_taxonomy, matrix_rules)
        assert first.changes.total() == 16
        assert len(first.unhandled) == 1

        second = run_rows(MATRIX_ROWS_FIXPOINT, first.taxonomy, first.rules)
        assert second.changes.total() == 0
        assert len(second.consumed_known) == 12
        assert len(second.unhandled) == 1
        assert not (second.changes.taxonomy_dirty or second.changes.tagging_dirty
                    or second.changes.expansion_dirty)
        assert serialize_taxonomy(second.taxonomy) == serialize_taxonomy(first.taxonomy)
        assert serialize_rules(second.rules) == serialize_rules(first.rules)

    def test_terminal_round_edge_makes_a_later_relation_known(self, matrix_taxonomy,
                                                               monkeypatch):
        '''Every round resolves both endpoints of each remaining relation; an expansion
        edge the terminal round adds makes a later relation known.'''
        calls = []

        def counting_resolve_item(item, taxonomy, rules):
            calls.append(str(item))
            return resolve_item(item, taxonomy, rules)
        monkeypatch.setattr(updater, 'resolve_item', counting_resolve_item)
        rules = load_rules('zeusalias\tFAM:zeus\n', '', matrix_taxonomy)
        rows = [('UNK:fynloski', 'FAM:darkkomet', 50, 100, 50),  # alias, round 1
                ('FAM:bebeg', 'BEH:infosteal', 30, 300, 30),     # expansion, terminal
                ('FAM:zeus', 'CLASS:virus', 30, 300, 30),        # expansion, terminal
                ('UNK:zeusalias', 'CLASS:virus', 30, 300, 30)]   # known after the above
        result = run_rows(rows, matrix_taxonomy, rules)
        # round 1 resolves all four relations, round 2 and the terminal round the three kept
        assert len(calls) == 2 * 4 + 2 * 3 + 2 * 3
        assert [str(r.t_i) for r in result.consumed_equivalence + result.consumed_topblock] \
            == ['UNK:fynloski']
        assert [(str(a), str(b)) for a, b in result.changes.expansion_added] == [
            ('FAM:bebeg', 'BEH:infosteal'), ('FAM:zeus', 'CLASS:virus')]
        assert [str(r.t_i) for r in result.consumed_known] == ['UNK:zeusalias']
        assert result.unhandled == []

    def test_full_matrix_converges_eventually(self, matrix_taxonomy, matrix_rules):
        taxonomy, rules = matrix_taxonomy, matrix_rules
        totals = []
        for _ in range(4):
            result = run_rows(MATRIX_ROWS, taxonomy, rules)
            totals.append(result.changes.total())
            taxonomy, rules = result.taxonomy, result.rules
            if result.changes.total() == 0:
                break
        assert totals == [20, 4, 0]

    def test_nested_families_retire_one_per_run(self):
        '''A failed action is final for its run: a family with children cannot retire
        until they have, so a chain of nested families takes one run per family.'''
        taxonomy = load_taxonomy('FAM:n003e:n010c:n015c\nFAM:n012d:n017c\n')
        rules = RuleSet()
        config = UpdateConfig(n=5, T=0.7)
        rows = [('FAM:n003e:n010c:n015c', 'FAM:n012d:n017c', 18, 58, 18),
                ('FAM:n003e:n010c', 'UNK:soup07tk', 58, 88, 55),
                ('FAM:n003e', 'UNK:soup06tk', 27, 79, 24)]
        totals, reasons = [], []
        for _ in range(4):
            result = run_rows(rows, taxonomy, rules, config)
            totals.append(result.changes.total())
            reasons.append([entry.reason for entry in result.unhandled])
            taxonomy, rules = result.taxonomy, result.rules
        assert totals == [2, 3, 3, 0]
        assert reasons == [['cannot retire FAM:n003e: node has children',
                            'cannot retire FAM:n003e:n010c: node has children'],
                           ['cannot retire FAM:n003e: node has children'], [], []]


def random_relations(rng, taxonomy, n_unknown=8, n_relations=25):
    tags = [node for node in taxonomy if node.is_tag and not node.is_root]
    items = tags + [UnknownToken('soup%02dtk' % k) for k in range(n_unknown)]
    seen_pairs = set()
    relations = []
    for _ in range(n_relations):
        a, b = rng.sample(items, 2)
        pair = frozenset((str(a), str(b)))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        count_ij = rng.randint(1, 60)
        count_i = count_ij + rng.randint(0, 3)
        count_j = count_i + rng.randint(0, 60)
        if (count_i, str(a)) > (count_j, str(b)):
            a, b = b, a
        relations.append(Relation(a, b, count_i, count_j, count_ij,
                                  count_ij / count_i, count_ij / count_j))
    return relations


class TestInferProperties:
    def test_every_relation_lands_in_exactly_one_bucket(self):
        rng = random.Random(77)
        config = UpdateConfig(n=5, T=0.7)
        for _ in range(15):
            taxonomy = random_taxonomy(rng, size=rng.randint(3, 20))
            rules = RuleSet()
            strong = selected(random_relations(rng, taxonomy), config)
            result = infer(strong, taxonomy, rules, config)
            buckets = (len(result.consumed_known) + len(result.consumed_equivalence)
                       + len(result.consumed_topblock) + len(result.consumed_expansion)
                       + len(result.unhandled))
            assert buckets == len(strong)

    def test_results_reload_and_dirty_flags_track_serialization(self):
        rng = random.Random(78)
        config = UpdateConfig(n=5, T=0.7)
        for _ in range(15):
            taxonomy = random_taxonomy(rng, size=rng.randint(3, 20))
            rules = RuleSet()
            strong = selected(random_relations(rng, taxonomy), config)
            result = infer(strong, taxonomy, rules, config)
            taxonomy_text = serialize_taxonomy(result.taxonomy)
            tagging_text, expansion_text = serialize_rules(result.rules)
            reloaded_taxonomy = load_taxonomy(taxonomy_text)
            load_rules(tagging_text, expansion_text, reloaded_taxonomy)
            if not result.changes.taxonomy_dirty:
                assert taxonomy_text == serialize_taxonomy(taxonomy)
            if not result.changes.tagging_dirty and not result.changes.expansion_dirty:
                assert (tagging_text, expansion_text) == serialize_rules(rules)

    def test_input_order_is_irrelevant(self):
        rng = random.Random(79)
        config = UpdateConfig(n=5, T=0.7)
        for _ in range(10):
            taxonomy = random_taxonomy(rng, size=rng.randint(3, 20))
            strong = selected(random_relations(rng, taxonomy), config)
            shuffled = strong[:]
            rng.shuffle(shuffled)
            first = infer(strong, taxonomy, RuleSet(), config)
            second = infer(shuffled, taxonomy, RuleSet(), config)
            assert serialize_taxonomy(first.taxonomy) == serialize_taxonomy(second.taxonomy)
            assert serialize_rules(first.rules) == serialize_rules(second.rules)
            assert format_unhandled(first.unhandled) == format_unhandled(second.unhandled)
            assert (format_changelog(first.changes, 0, 0, 0, 0, 0)
                    == format_changelog(second.changes, 0, 0, 0, 0, 0))


class TestReports:
    def test_format_unhandled_golden(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('BEH:inject', 'CLASS:downloader', 50, 160, 50)],
                          matrix_taxonomy, matrix_rules)
        assert format_unhandled(result.unhandled) == (
            't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\treason\n'
            'BEH:inject\tCLASS:downloader\t50\t160\t50\t1.000000\t0.312500\t'
            'no update rule for category pair (BEH, CLASS)\n')

    def test_format_unhandled_header_only(self):
        assert format_unhandled([]) == (
            't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji\treason\n')

    def test_format_changelog_golden(self, matrix_taxonomy, matrix_rules):
        rows = [('UNK:fynloski', 'FAM:darkkomet', 50, 100, 50),
                ('FAM:virut', 'FILE:OS:windows', 100, 1000, 100),
                ('CLASS:grayware:adware', 'CLASS:grayware', 200, 500, 200),
                ('BEH:inject', 'CLASS:downloader', 50, 160, 50)]
        config = UpdateConfig()
        count, relations, strong = parse_stats(stats_text(rows).splitlines(), config)
        result = infer(relations, matrix_taxonomy, matrix_rules, config)
        text = format_changelog(result.changes, count, strong, strong - len(relations),
                                len(result.consumed_known), len(result.unhandled))
        assert text == ('relations all 4\n'
                        'relations strong 4\n'
                        'relations os_removed 1\n'
                        'relations known 1\n'
                        'relations out 1\n'
                        'taxonomy added 0\n'
                        'taxonomy removed 0\n'
                        'tagging added 1\n'
                        'tagging removed 0\n'
                        'expansion added 0\n'
                        'expansion removed 0\n'
                        '\n'
                        'tagging + fynloski\n')

    def test_format_changelog_no_entries(self, matrix_taxonomy, matrix_rules):
        result = run_rows([('CLASS:grayware:adware', 'CLASS:grayware', 200, 500, 200)],
                          matrix_taxonomy, matrix_rules)
        text = format_changelog(result.changes, 1, 1, 0, len(result.consumed_known),
                                len(result.unhandled))
        assert text.endswith('expansion removed 0\n')
