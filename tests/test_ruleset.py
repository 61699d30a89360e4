import gc
import random

import pytest

from avtag.ruleset import RuleError, RuleSet, load_rules, serialize_rules
from avtag.taxonomy import TagPath, load_taxonomy

from conftest import BASE_EXPANSION, BASE_TAGGING, deep_chain_texts, random_taxonomy


@pytest.fixture
def taxonomy():
    return load_taxonomy('''\
BEH:selfpropagate
CLASS:bot
CLASS:downloader
CLASS:grayware
CLASS:grayware:adware
CLASS:tool
CLASS:worm
FAM:foo
FAM:zbot
FAM:zeus
FILE:OS:windows
FILE:irc
''')


def paths(*texts):
    return frozenset(TagPath.parse(t) for t in texts)


class TestTaggingParse:
    def test_single_destination_by_name(self, taxonomy):
        rules = load_rules('downldr\tdownloader\n', '', taxonomy)
        assert rules.tagging['downldr'] == paths('CLASS:downloader')

    def test_multiple_destinations(self, taxonomy):
        rules = load_rules('ircbot\tirc,bot\n', '', taxonomy)
        assert rules.tagging['ircbot'] == paths('FILE:irc', 'CLASS:bot')

    def test_full_path_destination(self, taxonomy):
        rules = load_rules('hidden\tCLASS:grayware:adware\n', '', taxonomy)
        assert rules.tagging['hidden'] == paths('CLASS:grayware:adware')

    def test_generic_token(self, taxonomy):
        rules = load_rules('trojan\tGEN\n', '', taxonomy)
        assert rules.tagging['trojan'] == frozenset()

    def test_generic_mixed_with_tags_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('trojan\tGEN,downloader\n', '', taxonomy)

    def test_duplicate_token_rejected(self, taxonomy):
        with pytest.raises(RuleError) as err:
            load_rules('downldr\tdownloader\ndownldr\tbot\n', '', taxonomy)
        assert 'line 2' in str(err.value)

    def test_unknown_destination_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('tok\tnosuchtag\n', '', taxonomy)

    def test_redundant_implicit_rule_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('downloader\tCLASS:downloader\n', '', taxonomy)

    def test_structural_destination_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('ostok\tFILE:OS\n', '', taxonomy)

    def test_malformed_lines_rejected(self, taxonomy):
        for text in ('onlytoken\n', 'tok\t\n', 'tok\t,\n', 'Tok\tbot\n'):
            with pytest.raises(RuleError):
                load_rules(text, '', taxonomy)

    def test_comments_and_blank_lines_skipped(self, taxonomy):
        rules = load_rules('# header\n\ndownldr\tdownloader\n', '', taxonomy)
        assert set(rules.tagging) == {'downldr'}


class TestAliasCollapse:
    def test_chain_rewritten_to_final_destinations(self, taxonomy):
        rules = load_rules('zeus\tzbot\nzeusgen\tzeus\n', '', taxonomy)
        assert rules.tagging['zeusgen'] == paths('FAM:zbot')
        # no destination's name may remain another rule's token
        for dests in rules.tagging.values():
            for dest in dests:
                assert dest.name not in rules.tagging

    def test_chain_through_generic_empties_the_rule(self, taxonomy):
        rules = load_rules('foo\tGEN\noldfoo\tfoo\n', '', taxonomy)
        assert rules.tagging['oldfoo'] == frozenset()

    def test_equal_destination_sets_are_one_frozenset(self, taxonomy):
        # by name, by full path, in another order and through a chain
        rules = load_rules('zeus\tzbot\nzbotgen\tFAM:zbot\nzeusgen\tzeus\n'
                           'ircbot\tirc,bot\nbotirc\tCLASS:bot,FILE:irc\n', '', taxonomy)
        zeus, zbotgen, zeusgen, ircbot, botirc = (
            rules.tagging[token] for token in ('zeus', 'zbotgen', 'zeusgen', 'ircbot', 'botirc'))
        assert zeus == paths('FAM:zbot') and zeus is zbotgen and zeus is zeusgen
        assert ircbot == paths('CLASS:bot', 'FILE:irc') and ircbot is botirc

    def test_alias_cycle_rejected(self, taxonomy):
        with pytest.raises(RuleError) as err:
            load_rules('zeus\tzbot\nzbot\tzeus\n', '', taxonomy)
        assert 'cycle' in str(err.value)


@pytest.mark.parametrize('chain, message', [
    ('tagging', "tagging line 1: alias chain too deep"),
    ('expansion', 'expansion chain from FAM:fam0 too deep')], ids=['tagging', 'expansion'])
def test_chain_deeper_than_recursion_limit_rejected(chain, message):
    taxonomy_text, tagging, expansion = deep_chain_texts()
    texts = (tagging, '') if chain == 'tagging' else ('', expansion)
    with pytest.raises(RuleError) as err:
        load_rules(*texts, load_taxonomy(taxonomy_text))
    assert str(err.value) == message


def test_load_leaves_no_cyclic_garbage(base_taxonomy):
    '''The recursive alias and cycle checks refer to themselves; a load must not leave
    that cycle, and the maps it holds, for the cyclic collector.'''
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        load_rules(BASE_TAGGING, BASE_EXPANSION, base_taxonomy)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestExpansionParse:
    def test_target_by_name(self, taxonomy):
        rules = load_rules('', 'CLASS:worm\tselfpropagate\n', taxonomy)
        assert rules.expansion[TagPath.parse('CLASS:worm')] == paths('BEH:selfpropagate')

    def test_source_must_be_full_path(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('', 'worm\tselfpropagate\n', taxonomy)

    def test_unknown_source_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('', 'FAM:ghost\tselfpropagate\n', taxonomy)

    def test_self_target_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('', 'CLASS:worm\tworm\n', taxonomy)

    def test_ancestor_target_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('', 'CLASS:grayware:adware\tgrayware\n', taxonomy)

    def test_duplicate_source_rejected(self, taxonomy):
        with pytest.raises(RuleError):
            load_rules('', 'CLASS:worm\tselfpropagate\nCLASS:worm\tbot\n', taxonomy)

    def test_cycle_rejected(self, taxonomy):
        with pytest.raises(RuleError) as err:
            load_rules('', 'FAM:zeus\tbot\nCLASS:bot\tzeus\n', taxonomy)
        assert 'cycle' in str(err.value)

    def test_equal_target_sets_are_one_frozenset(self, taxonomy):
        rules = load_rules('', 'CLASS:worm\tFAM:zbot,selfpropagate\n'
                               'FAM:zeus\tselfpropagate,zbot\n'
                               'CLASS:bot\tBEH:selfpropagate\n', taxonomy)
        worm, zeus, bot = (rules.expansion[TagPath.parse(source)]
                           for source in ('CLASS:worm', 'FAM:zeus', 'CLASS:bot'))
        assert worm == zeus == paths('FAM:zbot', 'BEH:selfpropagate')
        assert worm is zeus
        assert bot == paths('BEH:selfpropagate') and bot is not worm


def test_rule_tags_are_the_taxonomy_nodes(taxonomy):
    '''Destinations, by name or by full path, and sources are the taxonomy's own node
    objects, so a loaded rule set holds no second copy of a tag.'''
    rules = load_rules('hidden\tCLASS:grayware:adware\nircbot\tirc,CLASS:bot\n',
                       'FAM:zeus\tFAM:zbot,selfpropagate\n', taxonomy)
    tags = [tag for value in rules.tagging.values() for tag in value]
    tags += [tag for source, targets in rules.expansion.items() for tag in (source, *targets)]
    assert len(tags) == 6
    for tag in tags:
        assert taxonomy.resolve_name(tag.name) is tag


@pytest.mark.parametrize('tagging, expansion, message', [
    # a bare name is looked up among tag names, which no category root or
    # structural component is
    ('tok\tFAM\n', '', "tagging line 1: unknown destination tag name 'FAM'"),
    ('tok\tOS\n', '', "tagging line 1: unknown destination tag name 'OS'"),
    ('', 'FAM:zbot\tFAM\n', "expansion line 1: unknown target tag name 'FAM'"),
    ('tok\tFILE:OS\n', '', 'tagging line 1: destination tag FILE:OS is structural, not a tag'),
    ('', 'FILE:OS\tzbot\n', 'expansion line 1: source tag FILE:OS is structural, not a tag'),
    ('', 'FAM:zbot\tFILE:OS\n',
     'expansion line 1: target tag FILE:OS is structural, not a tag'),
    ('tok\tFAM:nosuch\n', '', 'tagging line 1: unknown destination tag FAM:nosuch'),
    ('', 'FAM:zbot\tFAM:nosuch\n', 'expansion line 1: unknown target tag FAM:nosuch'),
    ('tok\tFAM:Bad-x\n', '',
     "tagging line 1: bad destination tag 'FAM:Bad-x': bad path component 'Bad-x'"
     ' (lowercase alphanumeric tag or UPPERCASE structural)'),
])
def test_destination_error_texts(taxonomy, tagging, expansion, message):
    with pytest.raises(RuleError) as err:
        load_rules(tagging, expansion, taxonomy)
    assert str(err.value) == message


class TestSerialize:
    def test_single_rule_golden(self, taxonomy):
        rules = load_rules('downldr\tdownloader\n', '', taxonomy)
        tagging_text, expansion_text = serialize_rules(rules)
        assert tagging_text == 'downldr\tCLASS:downloader\n'
        assert expansion_text == ''

    def test_empty_ruleset(self):
        assert serialize_rules(RuleSet()) == ('', '')

    def test_generic_serialized_with_marker(self, taxonomy):
        tagging_text, _ = serialize_rules(load_rules('trojan\tGEN\n', '', taxonomy))
        assert tagging_text == 'trojan\tGEN\n'

    def test_lines_and_destinations_sorted(self, taxonomy):
        text = 'zz\tirc,bot\naa\tdownloader\n'
        tagging_text, _ = serialize_rules(load_rules(text, '', taxonomy))
        assert tagging_text == 'aa\tCLASS:downloader\nzz\tCLASS:bot,FILE:irc\n'

    def test_serialization_is_normal_form(self, taxonomy):
        text = '# c\nzz\tirc,bot\n\naa\tdownloader\n'
        expansion = 'CLASS:worm\tselfpropagate\n'
        once = serialize_rules(load_rules(text, expansion, taxonomy))
        twice = serialize_rules(load_rules(once[0], once[1], taxonomy))
        assert once == twice


def random_ruleset(rng, taxonomy):
    '''Valid random rules: fresh tokens, forward-only expansion edges.'''
    tags = [node for node in taxonomy if node.is_tag and not node.is_root]
    tagging_lines = []
    for index in range(rng.randint(0, 12)):
        token = 'tk%03d' % index
        if rng.random() < 0.2:
            tagging_lines.append('%s\tGEN' % token)
        else:
            dests = rng.sample(tags, rng.randint(1, min(3, len(tags))))
            tagging_lines.append('%s\t%s' % (token, ','.join(str(d) for d in dests)))
    expansion_lines = []
    ordered = sorted(tags, key=str)
    for index, source in enumerate(ordered[:-1]):
        if rng.random() < 0.3:
            later = ordered[index + 1:]
            candidates = [t for t in later
                          if t.components[:len(source.components)] != source.components
                          and source.components[:len(t.components)] != t.components]
            if candidates:
                targets = rng.sample(candidates, rng.randint(1, min(2, len(candidates))))
                expansion_lines.append('%s\t%s'
                                       % (source, ','.join(str(t) for t in targets)))
    tagging_text = ''.join(line + '\n' for line in tagging_lines)
    expansion_text = ''.join(line + '\n' for line in expansion_lines)
    return load_rules(tagging_text, expansion_text, taxonomy)


class TestRoundTrip:
    def test_random_rulesets_roundtrip(self):
        rng = random.Random(123)
        for _ in range(25):
            taxonomy = random_taxonomy(rng, size=rng.randint(4, 30))
            rules = random_ruleset(rng, taxonomy)
            tagging_text, expansion_text = serialize_rules(rules)
            reloaded = load_rules(tagging_text, expansion_text, taxonomy)
            assert reloaded == rules
            assert serialize_rules(reloaded) == (tagging_text, expansion_text)
