'''Differential tests: the in-place updater against a naive reference updater.

The reference updater is the naive one: every action probes a full copy of
the taxonomy before it commits, child checks scan every node, and retiring
a tag rebuilds and re-checks the whole expansion map.  It runs the
iterative and the terminal phase as two loops.  Hypothesis draws random
knowledge bases, strong relations and action sequences; the updated files,
the reports, the change log, the consumed relations and the dirty flags must
equal the reference's, and every failed action must fail with the same
reason.  The inputs must come out unchanged.
'''

import pytest
from hypothesis import given, settings, strategies as st

from avtag.ruleset import RuleError, _check_expansion_acyclic, load_rules, serialize_rules
from avtag.taxonomy import (CATEGORIES, TagPath, TaxonomyError, UnknownToken, is_taggable,
                            load_taxonomy, serialize_taxonomy)
from avtag.updater import (_BOTTOM_BLOCK, _TOP_BLOCK, ChangeLog, Relation, Unhandled,
                           UpdateConfig, UpdateResult, _ActionError, _known_resolved,
                           _WorkState, format_changelog, format_unhandled, infer,
                           is_equivalent, parse_stats, resolve_item)

from conftest import MATRIX_ROWS, MATRIX_TAXONOMY, stats_text
from test_reference import STRUCTURAL, TAG_NAMES, knowledge_bases


# ---------------------------------------------------------------------------
# the reference updater

def _has_children(taxonomy, path):
    return any(_is_path_prefix(path, node) for node in taxonomy)


def _is_path_prefix(a, b):
    alen = len(a.components)
    return alen < len(b.components) and b.components[:alen] == a.components


def _reaches(expansion, start, goal):
    stack = [start]
    seen = set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(expansion.get(node, ()))
    return False


def _edges(expansion):
    return {(source, target) for source, targets in expansion.items() for target in targets}


def reference_remap(expansion, old, new):
    '''(new mapping, removed edges, added edges), rebuilt over the whole map.'''
    if old not in expansion and not any(old in targets for targets in expansion.values()):
        return expansion, [], []
    result = {}
    for source, old_targets in expansion.items():
        new_source = new if source == old else source
        targets = {new if t == old else t for t in old_targets}
        targets = {t for t in targets
                   if t != new_source and not _is_path_prefix(t, new_source)}
        if new_source in result:
            targets |= result[new_source]
        if targets:
            result[new_source] = frozenset(targets)
    try:
        _check_expansion_acyclic(result)
    except RuleError as exc:
        raise _ActionError('retiring %s: %s' % (old, exc)) from None
    before, after = _edges(expansion), _edges(result)
    key = lambda edge: (str(edge[0]), str(edge[1]))
    return result, sorted(before - after, key=key), sorted(after - before, key=key)


class ReferenceState:
    '''The work state, validating each action on a copy of the taxonomy.'''

    def __init__(self, taxonomy, rules):
        self.taxonomy = taxonomy.copy()
        self.rules = rules.copy()
        self.changes = ChangeLog()
        self.taxonomy_dirty = False
        self.tagging_dirty = False
        self.expansion_dirty = False

    def add_nodes(self, *paths):
        probe = self.taxonomy.copy()
        try:
            for path in paths:
                probe.add(path)
        except TaxonomyError as exc:
            raise _ActionError(str(exc)) from None
        for path in paths:
            for node in self.taxonomy.add(path):
                self.changes.taxonomy_added.append(node)
                self.taxonomy_dirty = True

    def add_alias(self, token, dest):
        if not is_taggable(token):
            raise _ActionError('alias token %r is not a taggable name' % (token,))
        if token in self.rules.tagging:
            raise _ActionError('token %r already has a tagging rule' % (token,))
        if dest.name == token:
            raise _ActionError('alias %r -> %s maps a token to its own name' % (token, dest))
        if not dest.is_tag:
            raise _ActionError('alias destination %s is structural' % (dest,))
        old = self.taxonomy.resolve_name(token)
        if old is not None and _has_children(self.taxonomy, old):
            raise _ActionError('cannot retire %s: node has children' % (old,))
        if old is not None:
            for other, dests in self.rules.tagging.items():
                if old in dests and other == dest.name:
                    raise _ActionError(
                        'rewriting rule %r to %s would alias the rule to itself'
                        % (other, dest))
        if dest not in self.taxonomy:
            probe = self.taxonomy.copy()
            if old is not None:
                probe.remove(old)
            try:
                probe.add(dest)
            except TaxonomyError as exc:
                raise _ActionError(str(exc)) from None
        new_expansion = edges_removed = edges_added = None
        if old is not None:
            new_expansion, edges_removed, edges_added = reference_remap(
                self.rules.expansion, old, dest)
        if any(other == dest.name for other in self.rules.tagging):
            raise _ActionError('alias destination %s is named after tagging rule %r'
                               % (dest, dest.name))

        if old is not None:
            self.taxonomy.remove(old)
            self.changes.taxonomy_removed.append(old)
            self.taxonomy_dirty = True
        if dest not in self.taxonomy:
            for node in self.taxonomy.add(dest):
                self.changes.taxonomy_added.append(node)
            self.taxonomy_dirty = True
        self.rules.tagging[token] = frozenset({dest})
        self.changes.tagging_added.append(token)
        self.tagging_dirty = True
        if old is not None:
            for other, dests in list(self.rules.tagging.items()):
                if other != token and old in dests:
                    self.rules.tagging[other] = (dests - {old}) | {dest}
            if edges_removed or edges_added:
                self.rules = self.rules._replace(expansion=new_expansion)
                self.changes.expansion_removed.extend(edges_removed)
                self.changes.expansion_added.extend(edges_added)
                self.expansion_dirty = True

    def add_expansion_edge(self, source, target):
        if source not in self.taxonomy or not source.is_tag:
            raise _ActionError('expansion source %s is not a tag in the taxonomy' % (source,))
        if target not in self.taxonomy or not target.is_tag:
            raise _ActionError('expansion target %s is not a tag in the taxonomy' % (target,))
        if target == source or _is_path_prefix(target, source):
            raise _ActionError('expansion %s => %s is already implicit' % (source, target))
        targets = self.rules.expansion.get(source, frozenset())
        if target in targets:
            raise _ActionError('expansion %s => %s already present' % (source, target))
        if _reaches(self.rules.expansion, target, source):
            raise _ActionError('expansion %s => %s would create a cycle' % (source, target))
        self.rules.expansion[source] = targets | {target}
        self.changes.expansion_added.append((source, target))
        self.expansion_dirty = True


def reference_infer(strong, taxonomy, rules, config):
    '''(UpdateResult, hand-kept (taxonomy, tagging, expansion) dirty flags).'''
    state = ReferenceState(taxonomy, rules)
    remaining = sorted(strong, key=Relation.key)
    unhandled, known, equivalence_ok, topblock, expansion = [], [], [], [], []

    progress = True
    while progress and remaining:
        progress = False
        kept = []
        for relation in remaining:
            a = resolve_item(relation.t_i, state.taxonomy, state.rules)
            b = resolve_item(relation.t_j, state.taxonomy, state.rules)
            equivalence = is_equivalent(relation, config)
            if _known_resolved(a, b, state.taxonomy, state.rules, equivalence):
                known.append(relation)
                progress = True
                continue
            # an equivalence aliases only an unknown token or a family onto a family;
            # any other goes on as a one-way relation, so no concept is retired
            if equivalence and (isinstance(a, UnknownToken)
                                or a.category == b.category == 'FAM'):
                dest = b if isinstance(b, TagPath) else TagPath(('FAM', b.name))
                try:
                    state.add_alias(a.name, dest)
                except _ActionError as exc:
                    unhandled.append(Unhandled(relation, str(exc)))
                else:
                    equivalence_ok.append(relation)
                progress = True
                continue
            action = _TOP_BLOCK.get((a.category, b.category))
            if action is not None:
                try:
                    action(state, a, b)
                except _ActionError as exc:
                    unhandled.append(Unhandled(relation, str(exc)))
                else:
                    topblock.append(relation)
                progress = True
                continue
            kept.append(relation)
        remaining = kept

    for relation in remaining:
        a = resolve_item(relation.t_i, state.taxonomy, state.rules)
        b = resolve_item(relation.t_j, state.taxonomy, state.rules)
        equivalence = is_equivalent(relation, config)
        if _known_resolved(a, b, state.taxonomy, state.rules, equivalence):
            known.append(relation)
            continue
        pair = (a.category, b.category)
        if pair in _BOTTOM_BLOCK:
            try:
                state.add_expansion_edge(a, b)
            except _ActionError as exc:
                unhandled.append(Unhandled(relation, str(exc)))
            else:
                expansion.append(relation)
        else:
            unhandled.append(Unhandled(
                relation, 'no update rule for category pair (%s, %s)' % pair))

    result = UpdateResult(state.taxonomy, state.rules, state.changes, unhandled, known,
                          equivalence_ok, topblock, expansion)
    return result, (state.taxonomy_dirty, state.tagging_dirty, state.expansion_dirty)


# ---------------------------------------------------------------------------
# comparisons

def snapshot(taxonomy, rules):
    return (serialize_taxonomy(taxonomy), serialize_rules(rules), rules.copy(),
            {node: taxonomy.has_children(node) for node in taxonomy})


def state_view(state):
    # the reference keeps its flags by hand; the work state's come from its change log
    flags = state if isinstance(state, ReferenceState) else state.changes
    return (serialize_taxonomy(state.taxonomy), serialize_rules(state.rules),
            state.changes, flags.taxonomy_dirty, flags.tagging_dirty, flags.expansion_dirty)


def assert_child_counts_exact(taxonomy):
    for node in taxonomy:
        assert taxonomy.has_children(node) == _has_children(taxonomy, node), node


def assert_infer_matches_reference(relations, taxonomy, rules, config=UpdateConfig()):
    '''Runs both updaters on the relations update selects; returns the reference result.'''
    rows, kept, strong = parse_stats([r.format_row() for r in relations], config)
    before = snapshot(taxonomy, rules)
    got = infer(kept, taxonomy, rules, config)
    assert snapshot(taxonomy, rules) == before
    want, want_dirty = reference_infer(kept, taxonomy, rules, config)
    assert serialize_taxonomy(got.taxonomy) == serialize_taxonomy(want.taxonomy)
    assert serialize_rules(got.rules) == serialize_rules(want.rules)
    assert got.rules == want.rules and got.taxonomy == want.taxonomy
    # the written files reload to what infer holds in memory
    reloaded = load_taxonomy(serialize_taxonomy(got.taxonomy))
    assert reloaded == got.taxonomy
    assert load_rules(*serialize_rules(got.rules), reloaded) == got.rules
    assert format_unhandled(got.unhandled) == format_unhandled(want.unhandled)
    counts = (rows, strong, strong - len(kept))
    assert (format_changelog(got.changes, *counts, len(got.consumed_known), len(got.unhandled))
            == format_changelog(want.changes, *counts, len(want.consumed_known),
                                len(want.unhandled)))
    assert got.changes == want.changes
    for name in ('consumed_known', 'consumed_equivalence', 'consumed_topblock',
                 'consumed_expansion'):
        assert len(getattr(got, name)) == len(getattr(want, name)), name
    changes = got.changes
    assert ((changes.taxonomy_dirty, changes.tagging_dirty, changes.expansion_dirty)
            == want_dirty)
    assert_child_counts_exact(got.taxonomy)
    return want


def reverse_index(expansion):
    '''Each expansion target -> the sorted sources whose rule holds it.'''
    index = {}
    for source, targets in sorted(expansion.items()):
        for target in targets:
            index.setdefault(target, []).append(source)
    return index


def run_actions(taxonomy, rules, actions):
    '''Applies each action to both work states; returns the reasons of the failed ones.

    Once built, the work state's reverse index of the expansion map must
    equal one built anew from the map after every action.
    '''
    states = _WorkState(taxonomy, rules), ReferenceState(taxonomy, rules)
    reasons = []
    for name, *args in actions:
        outcomes = []
        for state in states:
            try:
                getattr(state, name)(*args)
            except _ActionError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(None)
            assert_child_counts_exact(state.taxonomy)
        assert outcomes[0] == outcomes[1], (name, args)
        assert state_view(states[0]) == state_view(states[1]), (name, args)
        index = states[0].sources
        if index is not None:  # built at the first retirement
            assert ({target: sorted(sources) for target, sources in index.items()}
                    == reverse_index(states[0].rules.expansion)), (name, args)
        if outcomes[0] is not None:
            reasons.append(outcomes[0])
    return reasons


# ---------------------------------------------------------------------------
# every way an action can fail, once by hand

def make_kb(taxonomy_text, tagging='', expansion=''):
    taxonomy = load_taxonomy(taxonomy_text)
    return taxonomy, load_rules(tagging, expansion, taxonomy)


P = TagPath.parse

#: (knowledge base, actions, substring of the last action's reason)
ACTION_ERRORS = [
    # name clash while adding nodes, against the taxonomy and between the paths
    (make_kb('FILE:OS:windows\n'), [('add_nodes', P('FAM:brandnew'), P('FAM:windows'))],
     "name 'windows' already used by FILE:OS:windows (adding FAM:windows)"),
    (make_kb(''), [('add_nodes', P('FAM:twin'), P('CLASS:twin'))],
     "name 'twin' already used by FAM:twin (adding CLASS:twin)"),
    (make_kb(''), [('add_nodes', P('FAM:dup:dup'))],
     "name 'dup' repeated within path FAM:dup:dup"),
    # an alias destination clashing with a tag that stays, or one deeper
    (make_kb('FAM:zbot\nCLASS:virus\n'), [('add_alias', 'zbot', P('FAM:virus'))],
     "name 'virus' already used by CLASS:virus (adding FAM:virus)"),
    (make_kb('FAM:zbot\nCLASS:virus\n'), [('add_alias', 'zbot', P('FAM:virus:zz'))],
     "name 'virus' already used by CLASS:virus (adding FAM:virus)"),
    # retiring a node that has children
    (make_kb('FAM:zbot:sub\n'), [('add_alias', 'zbot', P('FAM:other'))],
     'cannot retire FAM:zbot: node has children'),
    # the other add_alias guards: a rule rewritten to its own name, a token that
    # has a rule, a token aliased to its own name, a structural destination, a
    # destination named after a rule token
    (make_kb('FAM:zbot\nFAM:zeus\n', 'zbot\tFAM:zeus\n'),
     [('add_alias', 'zeus', P('FAM:zbot'))],
     "rewriting rule 'zbot' to FAM:zbot would alias the rule to itself"),
    (make_kb('FAM:zbot\n', 'zbot\tGEN\n'), [('add_alias', 'zbot', P('FAM:other'))],
     "token 'zbot' already has a tagging rule"),
    (make_kb('FAM:zbot\n'), [('add_alias', 'zbot', P('CLASS:zbot'))],
     "alias 'zbot' -> CLASS:zbot maps a token to its own name"),
    (make_kb('FILE:OS:windows\n'), [('add_alias', 'zbot', P('FILE:OS'))],
     'alias destination FILE:OS is structural'),
    (make_kb('FAM:zbot\nFAM:other\n', 'zbot\tFAM:other\n'),
     [('add_alias', 'newtok', P('FAM:zbot'))],
     "alias destination FAM:zbot is named after tagging rule 'zbot'"),
    # a cycle closed by remapping the retired tag's rules onto the destination
    (make_kb('FAM:zeus\nFAM:zbot\nCLASS:virus\n', '', 'FAM:zeus\tvirus\nCLASS:virus\tzbot\n'),
     [('add_alias', 'zeus', P('FAM:zbot'))],
     'retiring FAM:zeus: expansion cycle: CLASS:virus -> FAM:zbot -> CLASS:virus'),
    (make_kb('FAM:zeus\nFAM:zbot\nCLASS:virus\n', '', 'CLASS:virus\tzeus\nFAM:zbot\tvirus\n'),
     [('add_alias', 'zeus', P('FAM:zbot'))],
     'retiring FAM:zeus: expansion cycle: CLASS:virus -> FAM:zbot -> CLASS:virus'),
    # add_expansion_edge: cycle, implied, present, not a tag
    (make_kb('CLASS:virus\nFAM:virut\n', '', 'CLASS:virus\tvirut\n'),
     [('add_expansion_edge', P('FAM:virut'), P('CLASS:virus'))],
     'expansion FAM:virut => CLASS:virus would create a cycle'),
    (make_kb('CLASS:grayware:adware\n'),
     [('add_expansion_edge', P('CLASS:grayware:adware'), P('CLASS:grayware'))],
     'expansion CLASS:grayware:adware => CLASS:grayware is already implicit'),
    (make_kb('CLASS:virus\nFAM:virut\n', '', 'FAM:virut\tvirus\n'),
     [('add_expansion_edge', P('FAM:virut'), P('CLASS:virus'))],
     'expansion FAM:virut => CLASS:virus already present'),
    (make_kb('FILE:OS:windows\n'), [('add_expansion_edge', P('FILE:OS'), P('FILE:OS:windows'))],
     'expansion source FILE:OS is not a tag in the taxonomy'),
    (make_kb('FAM:zbot\n'), [('add_expansion_edge', P('FAM:zbot'), P('CLASS:ghost'))],
     'expansion target CLASS:ghost is not a tag in the taxonomy'),
]


def test_every_action_error_matches_reference():
    for (taxonomy, rules), actions, reason in ACTION_ERRORS:
        reasons = run_actions(taxonomy, rules, actions)
        assert reasons and reason in reasons[-1], (reasons, reason)


def test_failed_single_path_add_nodes_changes_nothing():
    '''One path is checked by Taxonomy.add alone, with check_add's error text.'''
    taxonomy, rules = make_kb('FILE:OS:windows\nFAM:zbot\n', 'zeus\tFAM:zbot\n',
                              'FAM:zbot\twindows\n')
    path = P('FAM:windows:sub')  # FAM:windows comes first, and its name is taken
    with pytest.raises(TaxonomyError) as checked:
        taxonomy.check_add([path])
    assert str(checked.value) == (
        "name 'windows' already used by FILE:OS:windows (adding FAM:windows)")
    state = _WorkState(taxonomy, rules)
    before = snapshot(state.taxonomy, state.rules)
    with pytest.raises(_ActionError) as failed:
        state.add_nodes(path)
    assert str(failed.value) == str(checked.value)
    assert snapshot(state.taxonomy, state.rules) == before
    assert state.changes == ChangeLog()
    assert run_actions(taxonomy, rules, [('add_nodes', path)]) == [str(checked.value)]


def test_retired_tag_frees_its_name_and_path():
    '''A destination may reuse the name, or the path, of the tag it retires.'''
    for dest in ('CLASS:zbot:next', 'FAM:zbot:next'):
        taxonomy, rules = make_kb('FAM:zbot\nCLASS:virus\n', '', 'FAM:zbot\tvirus\n')
        assert run_actions(taxonomy, rules, [('add_alias', 'zbot', P(dest))]) == []


def test_duplicate_endpoints_match_reference():
    '''UNK->UNK with one token twice is known; adding one path twice adds it once.'''
    taxonomy, rules = make_kb('CLASS:virus\n')
    rows = [('UNK:twin', 'UNK:twin', 30, 60, 30), ('UNK:aaa', 'UNK:bbb', 30, 60, 30)]
    want = assert_infer_matches_reference(parse_stats(stats_text(rows).splitlines())[1],
                                          taxonomy, rules)
    assert (len(want.consumed_known), len(want.consumed_topblock)) == (1, 1)
    assert run_actions(taxonomy, rules, [('add_nodes', P('FAM:twin'), P('FAM:twin'))]) == []


def test_structural_names_never_become_alias_tokens():
    '''Both updaters refuse a structural endpoint name as an alias token.'''
    taxonomy, rules = make_kb('BEH:x2017\nFILE:PACKER:upx\nFAM:zbot\n')
    reasons = run_actions(taxonomy, rules, [('add_alias', 'OS', P('BEH:x2017')),
                                            ('add_alias', 'PACKER', P('FILE:newpack'))])
    assert reasons == ["alias token 'OS' is not a taggable name",
                       "alias token 'PACKER' is not a taggable name"]
    # an equivalence of two BEH tags aliases nothing: it reaches the terminal round
    rows = [('BEH:OS', 'BEH:x2017', 20, 20, 20), ('FAM:OS', 'FAM:zbot', 20, 20, 20),
            ('FILE:PACKER', 'UNK:newpack', 30, 40, 30)]
    want = assert_infer_matches_reference(parse_stats(stats_text(rows).splitlines())[1],
                                          taxonomy, rules)
    assert [entry.reason for entry in want.unhandled] == reasons + [
        'no update rule for category pair (BEH, BEH)']
    assert resolve_item(P('BEH:OS'), taxonomy, rules) == P('BEH:OS')


def test_remap_drops_targets_implied_by_ancestry():
    '''A remapped edge whose target is an ancestor of its source is dropped.'''
    cases = [
        # the retired tag's own rule moves under a descendant of its target
        (make_kb('FAM:zeus\nFAM:big:small\n', '', 'FAM:zeus\tbig\n'), 'zeus', 'FAM:big:small'),
        # a rule targeting the retired tag, from a descendant of the destination
        (make_kb('FAM:zeus\nFAM:big:small\n', '', 'FAM:big:small\tzeus\n'), 'zeus', 'FAM:big'),
    ]
    for (taxonomy, rules), token, dest in cases:
        assert run_actions(taxonomy, rules, [('add_alias', token, P(dest))]) == []
        state = _WorkState(taxonomy, rules)
        state.add_alias(token, P(dest))
        assert state.rules.expansion == {}
        assert len(state.changes.expansion_removed) == 1


def test_infer_failures_match_reference():
    '''Each relation below fails inside infer with a reason of its own.'''
    taxonomy, rules = make_kb('FAM:zbot\nFAM:zeus\nFAM:nested:inner\nCLASS:virus\nCLASS:worm\n'
                         'CLASS:X9\nFILE:packed\nFILE:exploit\nFILE:bundle\n',
                         'zeus\tFAM:zbot\n',
                         'FAM:zbot\tvirus\nCLASS:worm\tpacked\nFILE:packed\tzbot\n')
    rows = [
        ('FAM:nested', 'UNK:renamed', 30, 60, 30),     # retiring a node with children
        ('FAM:zbot', 'FAM:zeus', 30, 60, 30),          # known: zeus is an alias of zbot
        ('FAM:zbot', 'UNK:zeus', 30, 60, 30),          # known the same way
        ('CLASS:virus', 'FILE:packed', 40, 80, 40),    # expansion closes a cycle
        ('CLASS:X9', 'FILE:bundle', 40, 80, 40),       # structural expansion source
        ('FILE:bundle', 'CLASS:worm', 40, 80, 40),     # no matrix row
        ('FILE:exploit', 'UNK:exploitnew', 20, 21, 20),  # equivalence: the matrix renames
        ('UNK:zbotnew', 'FAM:zbot', 30, 31, 30),       # equivalence alias
    ]
    want = assert_infer_matches_reference(parse_stats(stats_text(rows).splitlines())[1],
                                          taxonomy, rules)
    assert want.rules.tagging['exploit'] == {P('FILE:exploitnew')}
    reasons = [entry.reason for entry in want.unhandled]
    assert any('cannot retire FAM:nested' in r for r in reasons)
    assert any('would create a cycle' in r for r in reasons)
    assert any('source CLASS:X9 is not a tag' in r for r in reasons)
    assert any('no update rule' in r for r in reasons)
    assert len(want.consumed_equivalence) == 1


def test_cross_category_equivalences_retire_no_tag():
    '''Only an equivalence from an unknown token, or between two families, aliases.'''
    taxonomy, rules = make_kb('CLASS:worm\nCLASS:bot\nFAM:virut\nFAM:zbot\nFAM:zeus\n'
                              'FILE:irc\nBEH:spread\n')
    rows = [
        ('CLASS:worm', 'FAM:virut', 30, 30, 30),     # no matrix row: unhandled
        ('CLASS:bot', 'FILE:irc', 40, 40, 40),       # expansion rule
        ('BEH:spread', 'UNK:spreader', 60, 60, 60),  # no matrix row: unhandled
        ('FAM:zeus', 'FAM:zbot', 50, 50, 50),        # alias
        ('UNK:newworm', 'CLASS:worm', 25, 25, 25),   # alias
    ]
    want = assert_infer_matches_reference(parse_stats(stats_text(rows).splitlines())[1],
                                          taxonomy, rules)
    assert [str(path) for path in want.changes.taxonomy_removed] == ['FAM:zeus']
    assert want.rules.expansion == {P('CLASS:bot'): {P('FILE:irc')}}
    assert sorted(want.rules.tagging) == ['newworm', 'zeus']
    assert sorted(entry.reason for entry in want.unhandled) == [
        'no update rule for category pair (BEH, UNK)',
        'no update rule for category pair (CLASS, FAM)']
    assert len(want.consumed_equivalence) == 2


def test_remap_cycle_and_self_alias_inside_infer():
    taxonomy, rules = make_kb('FAM:zeus\nFAM:zbot\nFAM:virut\nCLASS:virus\n',
                         'zbot\tFAM:virut\n',
                         'FAM:zeus\tvirus\nCLASS:virus\tzbot\n')
    rows = [('FAM:zeus', 'FAM:zbot', 30, 60, 30),      # retiring zeus closes a cycle
            ('FAM:virut', 'FAM:zbot', 30, 60, 30)]     # rule zbot -> virut -> zbot
    want = assert_infer_matches_reference(parse_stats(stats_text(rows).splitlines())[1],
                                          taxonomy, rules)
    reasons = sorted(entry.reason for entry in want.unhandled)
    assert reasons == [
        'retiring FAM:zeus: expansion cycle: CLASS:virus -> FAM:zbot -> CLASS:virus',
        "rewriting rule 'zbot' to FAM:zbot would alias the rule to itself"]


def test_alias_destination_named_after_a_rule_refused():
    '''load_rules collapses a destination named after a rule token, so the alias
    newtok -> FAM:zbot next to the rule zbot -> FAM:other would reload as FAM:other.'''
    taxonomy, rules = make_kb('FAM:zbot\nFAM:other\nCLASS:worm\n', 'zbot\tFAM:other\n')
    rows = [('UNK:newtok', 'FAM:zbot', 30, 60, 30)]
    want = assert_infer_matches_reference(parse_stats(stats_text(rows).splitlines())[1],
                                          taxonomy, rules)
    assert [entry.reason for entry in want.unhandled] == [
        "alias destination FAM:zbot is named after tagging rule 'zbot'"]
    assert 'newtok' not in want.rules.tagging


# ---------------------------------------------------------------------------
# random knowledge bases, relations and actions

NEW_NAMES = ['fresh', 'newfam', 'other', 'zeta']
COMPONENTS = TAG_NAMES + NEW_NAMES + STRUCTURAL


@st.composite
def relation_rows(draw, taxonomy, rules):
    '''Stats rows over the KB's nodes and rule tokens, new paths and unknown tokens.'''
    nodes = [str(node) for node in taxonomy if not node.is_root]
    tokens = ['UNK:%s' % name for name in list(rules.tagging) + TAG_NAMES + NEW_NAMES]
    paths = ['%s:%s' % (category, name) for category in CATEGORIES
             for name in TAG_NAMES + NEW_NAMES]
    endpoint = st.sampled_from(nodes + tokens + paths)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        count_i = draw(st.integers(20, 40))
        # equal counts make an equivalence; the others a one-way relation
        count_j = count_i * draw(st.sampled_from([1, 1, 2, 10]))
        count_ij = count_i - draw(st.sampled_from([0, 0, 0, 1, 3]))
        rows.append((draw(endpoint), draw(endpoint), count_i, count_j, count_ij))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kb=knowledge_bases())
def test_infer_matches_reference(data, kb):
    taxonomy, rules = kb
    rows = data.draw(relation_rows(taxonomy, rules))
    assert_infer_matches_reference(parse_stats(stats_text(rows).splitlines())[1],
                                          taxonomy, rules)


def test_matrix_run_matches_reference():
    taxonomy = load_taxonomy(MATRIX_TAXONOMY)
    rules = load_rules('', 'FAM:virlock\tvirus\n', taxonomy)
    assert_infer_matches_reference(parse_stats(stats_text(MATRIX_ROWS).splitlines())[1],
                                   taxonomy, rules)


random_paths = st.builds(lambda category, rest: TagPath((category,) + tuple(rest)),
                         st.sampled_from(CATEGORIES),
                         st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3))
TAGGABLE = [name for name in COMPONENTS if is_taggable(name)]


@st.composite
def action_lists(draw, taxonomy):
    '''Actions on paths of the taxonomy and on new paths, some of them invalid.'''
    nodes = [node for node in taxonomy if not node.is_root]
    node = st.sampled_from(nodes) if nodes else random_paths
    path = node | random_paths
    # the names of tags in the taxonomy make add_alias retire them
    token = st.sampled_from([n.name for n in nodes if n.is_tag] + TAGGABLE)
    action = st.one_of(
        st.tuples(st.just('add_nodes'), random_paths),
        st.tuples(st.just('add_nodes'), random_paths, random_paths),
        st.tuples(st.just('add_alias'), token, path),
        st.tuples(st.just('add_expansion_edge'), node, node),
        st.tuples(st.just('add_expansion_edge'), path, path),
    )
    return draw(st.lists(action, max_size=10))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kb=knowledge_bases())
def test_actions_match_reference(data, kb):
    taxonomy, rules = kb
    before = snapshot(taxonomy, rules)
    run_actions(taxonomy, rules, data.draw(action_lists(taxonomy)))
    assert snapshot(taxonomy, rules) == before
