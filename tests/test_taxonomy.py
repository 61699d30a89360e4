import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from avtag.ruleset import RuleSet
from avtag.taxonomy import (CATEGORIES, TagPath, Taxonomy, TaxonomyError, UnknownToken,
                            is_taggable, load_taxonomy, parse_item, serialize_taxonomy)
from avtag.updater import ChangeLog, _ActionError, _WorkState

from conftest import random_taxonomy


def outcome(build):
    '''(result, None), or (None, the text of the TaxonomyError that build() raised).'''
    try:
        return build(), None
    except TaxonomyError as exc:
        return None, str(exc)


def assert_same(got, want):
    assert got.components == want.components
    assert str(got) == str(want)
    assert got == want and hash(got) == hash(want)


# the path grammar's characters, and ones that a loose check could let through
ALPHABET = ':abzABZ09_ \né\u0663'
components = st.sampled_from(['a', 'z0', '9', 'OS', 'X1']) | st.text(ALPHABET, max_size=4)
path_texts = st.text(ALPHABET, max_size=12) | st.builds(
    lambda head, rest: ':'.join([head] + rest),
    st.sampled_from(CATEGORIES + ('Fam',)), st.lists(components, max_size=3))


class TestTagPath:
    def test_parse_and_str_roundtrip(self):
        path = TagPath.parse('CLASS:grayware:adware')
        assert path.components == ('CLASS', 'grayware', 'adware')
        assert str(path) == 'CLASS:grayware:adware'
        assert path.category == 'CLASS'
        assert path.name == 'adware'

    def test_structural_components_allowed_but_not_tags(self):
        path = TagPath.parse('FILE:OS:windows')
        assert path.is_tag
        assert not TagPath.parse('FILE:OS').is_tag

    def test_bad_category_rejected(self):
        with pytest.raises(TaxonomyError):
            TagPath.parse('WEIRD:thing')

    def test_bad_component_rejected(self):
        for text in ('CLASS:Ad-ware', 'CLASS:', 'CLASS:a b', 'CLASS:Mixed', 'FAM:zbot\n',
                     'FILE:OS\n'):
            with pytest.raises(TaxonomyError):
                TagPath.parse(text)

    def test_parent_and_prefixes(self):
        path = TagPath.parse('CLASS:grayware:adware')
        assert str(path.parent()) == 'CLASS:grayware'
        assert TagPath.parse('CLASS').parent() is None

    def test_pickle_roundtrip(self):
        path = TagPath.parse('FILE:OS:windows')
        copy = pickle.loads(pickle.dumps(path))
        assert copy == path and str(copy) == 'FILE:OS:windows'
        assert hash(copy) == hash(path)

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(text=path_texts, component=components)
    def test_parse_matches_the_validating_constructor(self, text, component):
        got, error = outcome(lambda: TagPath.parse(text))
        want, want_error = outcome(lambda: TagPath(text.split(':')))
        assert error == want_error
        if want is None:
            return
        assert_same(got, want)
        assert_same(pickle.loads(pickle.dumps(got)), want)
        if want.is_root:
            assert got.parent() is None
        else:
            assert_same(got.parent(), TagPath(want.components[:-1]))
        child, error = outcome(lambda: got.child(component))
        want_child, want_error = outcome(lambda: TagPath(want.components + (component,)))
        assert error == want_error
        if want_child is not None:
            assert_same(child, want_child)
        ancestors = Taxonomy().tag_ancestors(got)
        want_ancestors = [TagPath(want.components[:k]) for k in range(2, len(want.components))
                          if is_taggable(want.components[k - 1])]
        assert len(ancestors) == len(want_ancestors)
        for ancestor, want_ancestor in zip(ancestors, want_ancestors):
            assert_same(ancestor, want_ancestor)


valid_components = st.from_regex(r'[a-z0-9]{1,3}|[A-Z][A-Z0-9]{0,2}', fullmatch=True)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(category=st.sampled_from(CATEGORIES), rest=st.lists(valid_components, max_size=3))
def test_is_tag_is_whether_the_name_is_taggable(category, rest):
    path = TagPath((category,) + tuple(rest))
    assert path.is_tag == is_taggable(path.name)
    assert TagPath.parse(path).is_tag == path.is_tag


class TestItems:
    def test_render_and_parse_inverse(self):
        for text in ('FAM:bebeg', 'FILE:OS:windows', 'UNK:skodna'):
            assert str(parse_item(text)) == text

    def test_unknown_token_item(self):
        item = parse_item('UNK:skodna')
        assert item == UnknownToken('skodna')
        assert item.category == 'UNK'
        assert item.name == 'skodna'

    def test_unknown_item_is_an_exact_unknown_token(self):
        for text in ('UNK:skodna', UnknownToken('skodna')):
            item = parse_item(text)
            assert type(item) is UnknownToken
            assert item == 'UNK:skodna' and str(item) == 'UNK:skodna'
            assert item.name == 'skodna' and repr(item) == "UnknownToken('skodna')"

    def test_tag_item(self):
        item = parse_item('CLASS:miner')
        assert item.category == 'CLASS'
        assert item.name == 'miner'

    def test_bad_unknown_token_rejected(self):
        for text in ('UNK:Not-A-Token', 'UNK:abcd\n'):
            with pytest.raises(TaxonomyError):
                parse_item(text)
        with pytest.raises(TaxonomyError) as info:
            parse_item('UNK:Not-A-Token')
        assert str(info.value) == "bad unknown token 'Not-A-Token'"

    # explicit ids: an item is a str, which pytest would otherwise put into the id
    @pytest.mark.parametrize('item, category, name, text', [
        (TagPath.parse('FILE:OS:windows'), 'FILE', 'windows', 'FILE:OS:windows'),
        (UnknownToken('skodna'), 'UNK', 'skodna', 'UNK:skodna'),
    ], ids=['item0-FILE-windows-FILE:OS:windows', 'item1-UNK-skodna-UNK:skodna'])
    def test_both_item_kinds_share_one_protocol(self, item, category, name, text):
        assert (str(item), item.category, item.name) == (text, category, name)
        assert parse_item(text) == item and hash(parse_item(text)) == hash(item)

    @pytest.mark.parametrize('item, text', [
        (TagPath.parse('FILE:OS:windows'), 'FILE:OS:windows'),
        (TagPath(('FAM',)), 'FAM'),
        (UnknownToken('skodna'), 'UNK:skodna'),
    ], ids=['TagPath', 'root', 'UnknownToken'])
    def test_item_is_its_canonical_string(self, item, text):
        assert isinstance(item, str) and item == text and hash(item) == hash(text)
        assert str(item) == text and type(str(item)) is str
        assert {text: 1}[item] == 1 and item in {text} and text in {item}
        others = ['CLASS:zz', 'FAM', 'FAM:a', 'FILE:OS', 'UNK:a', 'UNK:zz']
        assert sorted(others + [item]) == sorted(others + [text])
        assert [item < other for other in others] == [text < other for other in others]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(item, protocol))
            assert type(again) is type(item) and again == item
        for again in (copy.copy(item), copy.deepcopy(item)):
            assert type(again) is type(item) and again == item
            assert (again.category, again.name) == (item.category, item.name)

    def test_tags_sort_before_unknowns(self):
        rendered = sorted([str(UnknownToken('aaa')), str(TagPath.parse('FILE:irc'))])
        assert rendered == ['FILE:irc', 'UNK:aaa']

    @pytest.mark.parametrize('make', [
        lambda: TagPath.parse('FILE:OS:windows'),
        lambda: UnknownToken('skodna'),
    ], ids=['TagPath', 'UnknownToken'])
    def test_frozen_slots_record_refuses_a_new_attribute(self, make):
        # an item is a str subclass with empty __slots__: it has no instance
        # dict, and its attributes are read-only class attributes or properties
        record, fresh = make(), make()
        with pytest.raises(AttributeError):
            record.category = 'FAM'
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == fresh
        assert getattr(record, 'category', None) == getattr(fresh, 'category', None)


class TestLoad:
    def test_listed_path_implies_ancestors(self):
        taxonomy = load_taxonomy('CLASS:grayware:adware\n')
        assert TagPath.parse('CLASS:grayware') in taxonomy
        assert TagPath.parse('CLASS:grayware:adware') in taxonomy

    def test_empty_text_gives_only_roots(self):
        taxonomy = load_taxonomy('')
        assert len(taxonomy) == 4
        assert serialize_taxonomy(taxonomy) == ''

    def test_duplicates_ignored(self):
        taxonomy = load_taxonomy('FAM:bebeg\nFAM:bebeg\n')
        assert len(taxonomy) == 5

    def test_comments_and_blanks_skipped(self):
        taxonomy = load_taxonomy('# comment\n\nFAM:bebeg\n')
        assert TagPath.parse('FAM:bebeg') in taxonomy

    def test_name_collision_rejected(self):
        with pytest.raises(TaxonomyError) as err:
            load_taxonomy('FILE:OS:windows\nFAM:windows\n')
        assert 'windows' in str(err.value)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(TaxonomyError) as err:
            load_taxonomy('FAM:ok\nBROKEN~LINE\n')
        assert 'line 2' in str(err.value)


class TestQueries:
    def test_is_ancestor_parent_child(self):
        a = TagPath.parse('CLASS:grayware')
        b = TagPath.parse('CLASS:grayware:adware')
        assert a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)

    def test_is_ancestor_irreflexive(self):
        path = TagPath.parse('CLASS:grayware:adware')
        assert not path.is_ancestor_of(path)

    def test_is_ancestor_cross_category(self):
        assert not TagPath.parse('FILE:packed').is_ancestor_of(TagPath.parse('CLASS:grayware'))

    def test_resolve_name(self, base_taxonomy):
        assert str(base_taxonomy.resolve_name('downloader')) == 'CLASS:downloader'
        assert base_taxonomy.resolve_name('zzzznotatag') is None

    def test_structural_names_never_resolve(self, base_taxonomy):
        assert base_taxonomy.resolve_name('os') is None

    def test_tag_ancestors_skip_structural(self, base_taxonomy):
        assert base_taxonomy.tag_ancestors(TagPath.parse('FILE:OS:windows')) == []
        assert [str(p) for p
                in base_taxonomy.tag_ancestors(TagPath.parse('CLASS:grayware:adware'))] \
            == ['CLASS:grayware']


class TestMutation:
    def test_add_reports_new_nodes_only(self):
        taxonomy = load_taxonomy('')
        first = taxonomy.add(TagPath.parse('CLASS:grayware:adware'))
        assert [str(p) for p in first] == ['CLASS:grayware', 'CLASS:grayware:adware']
        assert taxonomy.add(TagPath.parse('CLASS:grayware:adware')) == []

    def test_failed_add_changes_nothing(self):
        taxonomy = load_taxonomy('FILE:OS:windows\n')
        before = set(str(p) for p in taxonomy)
        with pytest.raises(TaxonomyError):
            taxonomy.add(TagPath.parse('FAM:deeper:windows'))
        assert set(str(p) for p in taxonomy) == before
        assert taxonomy.resolve_name('deeper') is None

    def test_remove_leaf_updates_name_index(self):
        taxonomy = load_taxonomy('FAM:bebeg\n')
        taxonomy.remove(TagPath.parse('FAM:bebeg'))
        assert taxonomy.resolve_name('bebeg') is None
        assert TagPath.parse('FAM:bebeg') not in taxonomy

    def test_tag_names_are_the_taggable_node_names(self):
        taxonomy = load_taxonomy('FAM:bebeg\nFILE:OS:windows\nCLASS:grayware:adware\n')
        assert sorted(taxonomy.tag_names()) == ['adware', 'bebeg', 'grayware', 'windows']
        taxonomy.remove(TagPath.parse('FAM:bebeg'))
        assert sorted(taxonomy.tag_names()) == ['adware', 'grayware', 'windows']

    def test_remove_guards(self):
        taxonomy = load_taxonomy('CLASS:grayware:adware\n')
        with pytest.raises(TaxonomyError):
            taxonomy.remove(TagPath.parse('CLASS:grayware'))
        with pytest.raises(TaxonomyError):
            taxonomy.remove(TagPath.parse('CLASS'))
        with pytest.raises(TaxonomyError):
            taxonomy.remove(TagPath.parse('FAM:ghost'))

    def test_copy_is_independent(self):
        taxonomy = load_taxonomy('FAM:bebeg\n')
        dup = taxonomy.copy()
        dup.remove(TagPath.parse('FAM:bebeg'))
        assert TagPath.parse('FAM:bebeg') in taxonomy


# ---------------------------------------------------------------------------
# child counts and the dry-run check against brute force and probe copies

paths = st.builds(lambda category, rest: TagPath((category,) + tuple(rest)),
                  st.sampled_from(CATEGORIES),
                  st.lists(st.sampled_from(['a', 'b', 'c', 'X']), min_size=1, max_size=3))


def scan_has_children(taxonomy, path):
    n = len(path.components)
    return any(node.components[:n] == path.components and len(node.components) > n
               for node in taxonomy)


def scan_resolve_name(taxonomy, name):
    return next((node for node in taxonomy
                 if node.components[-1] == name and is_taggable(name)), None)


def internals(taxonomy):
    # every node with its child count, and the name index
    return dict(taxonomy._nodes), dict(taxonomy._name_index)


def grown(steps):
    taxonomy = Taxonomy()
    for path in steps:
        try:
            taxonomy.add(path)
        except TaxonomyError:
            pass
    return taxonomy


class TestChildCounts:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(['add', 'remove', 'copy']), paths),
                    max_size=30))
    def test_has_children_matches_a_scan(self, steps):
        taxonomies = [Taxonomy()]
        for op, path in steps:
            if op == 'copy':
                taxonomies.append(taxonomies[-1].copy())
            else:
                try:
                    getattr(taxonomies[-1], op)(path)
                except TaxonomyError:
                    pass
            # a copy and its original never share counts
            for taxonomy in taxonomies:
                for node in list(taxonomy) + [path]:
                    assert taxonomy.has_children(node) == scan_has_children(taxonomy, node)


def reference_add(taxonomy, path):
    '''Taxonomy.add without its early exit: every node it creates comes from _missing.'''
    missing = taxonomy._missing(path)
    nodes = taxonomy._nodes
    for node in missing:
        nodes[node] = 0
        if is_taggable(node.name):
            taxonomy._name_index[node.name] = node
        nodes[node.rpartition(':')[0]] += 1
    return missing


class TestAddReference:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(['add', 'add', 'remove']),
                              paths | st.sampled_from(CATEGORIES).map(lambda c: TagPath((c,)))),
                    max_size=40))
    def test_add_matches_the_reference(self, steps):
        got, want = Taxonomy(), Taxonomy()
        for op, path in steps:
            if op == 'add':
                assert outcome(lambda: got.add(path)) == outcome(lambda: reference_add(want, path))
            else:
                assert outcome(lambda: got.remove(path)) == outcome(lambda: want.remove(path))
            assert internals(got) == internals(want)
            for node in list(want) + [path]:
                assert got.resolve_name(node.name) == scan_resolve_name(want, node.name)
                assert got.has_children(node) == scan_has_children(want, node)

    @pytest.mark.parametrize('text,error', [
        ('FAM:a:b\nFAM:a\n', None),  # a child listed before its parent
        ('FAM:a\nFAM:b\nFAM:a:c\nFAM:a:d\n', None),  # a childless leaf later gets children
        ('FAM:a\nFILE:OS:win\nFAM:a\nFILE:OS:win\nFILE:OS\n', None),  # duplicate lines
        ('FAM:a\nCLASS:x:x\n', "line 2: name 'x' repeated within path CLASS:x:x"),
        ('FAM:a:b\nFAM:a:a\n', "line 2: name 'a' already used by FAM:a (adding FAM:a:a)"),
        ('FAM:a\nFAM:b\nCLASS:a\n', "line 3: name 'a' already used by FAM:a (adding CLASS:a)"),
    ])
    def test_load_matches_the_reference(self, monkeypatch, text, error):
        got = outcome(lambda: internals(load_taxonomy(text)))
        monkeypatch.setattr(Taxonomy, 'add', reference_add)
        assert got == outcome(lambda: internals(load_taxonomy(text)))
        assert got[1] == error

    def test_new_node_under_a_present_parent_skips_the_prefix_walk(self, monkeypatch):
        taxonomy = load_taxonomy('FAM:a:b\n')

        def walk(*args):
            raise AssertionError('_missing called')
        monkeypatch.setattr(Taxonomy, '_missing', walk)
        # under a root, a node with children, or a childless leaf
        for text in ('FAM:c', 'FAM:a:d', 'FILE:OS', 'FAM:a:b:x'):
            path = TagPath.parse(text)
            assert taxonomy.add(path) == [path]


class TestCheckAdd:
    '''A work state's taxonomy change fails as a probe copy's Taxonomy.add does, leaving no trace.'''

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(base=st.lists(paths, max_size=12), adds=st.lists(paths, min_size=1, max_size=3),
           data=st.data())
    def test_raises_what_a_probe_copy_raises(self, base, adds, data):
        state = _WorkState(grown(base), RuleSet())
        taxonomy = state.taxonomy
        # add_alias retires the leaf named after its token, which its destination is not
        dest = adds[0]
        leaves = [node for node in taxonomy if node.is_tag and node.name != dest.name
                  and not taxonomy.has_children(node)] if dest.is_tag else []
        removed = data.draw(st.none() | st.sampled_from(leaves)) if leaves else None
        probe = taxonomy.copy()
        if removed is not None:
            probe.remove(removed)
            adds = [dest]
        want = None
        try:
            for path in adds:
                probe.add(path)
        except TaxonomyError as exc:
            want = str(exc)
        before = internals(taxonomy)
        got = None
        try:
            if removed is None:
                state.add_nodes(*adds)
            else:
                state.add_alias(removed.name, dest)
        except _ActionError as exc:
            got = str(exc)
        assert got == want
        if got is None:
            assert internals(taxonomy) == internals(probe)
        else:
            assert internals(taxonomy) == before
            assert state.changes == ChangeLog()

    def test_removed_leaf_frees_its_name(self):
        state = _WorkState(load_taxonomy('FAM:zbot\n'), RuleSet())
        dest = TagPath.parse('CLASS:zbot:next')
        with pytest.raises(_ActionError) as err:
            state.add_nodes(dest)
        assert str(err.value) == "name 'zbot' already used by FAM:zbot (adding CLASS:zbot)"
        state.add_alias('zbot', dest)
        assert state.changes.taxonomy_removed == [TagPath.parse('FAM:zbot')]
        assert state.changes.taxonomy_added == [TagPath.parse('CLASS:zbot'), dest]

    def test_earlier_paths_count_as_added(self):
        state = _WorkState(load_taxonomy(''), RuleSet())
        with pytest.raises(_ActionError) as err:
            state.add_nodes(TagPath.parse('FAM:twin'), TagPath.parse('CLASS:b:twin'))
        assert str(err.value) == "name 'twin' already used by FAM:twin (adding CLASS:b:twin)"
        assert len(state.taxonomy) == len(CATEGORIES)
        assert state.changes == ChangeLog()


class TestRoundTrip:
    def test_base_file_roundtrips(self, base_taxonomy):
        text = serialize_taxonomy(base_taxonomy)
        assert load_taxonomy(text) == base_taxonomy
        assert serialize_taxonomy(load_taxonomy(text)) == text

    def test_random_taxonomies_roundtrip(self):
        rng = random.Random(42)
        for _ in range(20):
            taxonomy = random_taxonomy(rng, size=rng.randint(1, 40))
            text = serialize_taxonomy(taxonomy)
            assert load_taxonomy(text) == taxonomy

    def test_pickle_roundtrip(self):
        taxonomy = random_taxonomy(random.Random(7), size=500)
        copy = pickle.loads(pickle.dumps(taxonomy))
        assert copy == taxonomy
        assert copy._nodes == taxonomy._nodes  # child counts included
        assert copy._name_index == taxonomy._name_index


class TestOrderProperties:
    def test_parent_is_ancestor_everywhere(self):
        rng = random.Random(7)
        taxonomy = random_taxonomy(rng, size=40)
        for node in taxonomy:
            parent = node.parent()
            if parent is not None:
                assert parent.is_ancestor_of(node)
                assert not node.is_ancestor_of(parent)

    def test_strict_partial_order(self):
        rng = random.Random(8)
        taxonomy = random_taxonomy(rng, size=30)
        nodes = list(taxonomy)
        for node in nodes:
            assert not node.is_ancestor_of(node)
        for _ in range(300):
            a, b, c = (rng.choice(nodes) for _ in range(3))
            if a.is_ancestor_of(b) and b.is_ancestor_of(c):
                assert a.is_ancestor_of(c)

    def test_resolve_name_inverse(self):
        rng = random.Random(9)
        taxonomy = random_taxonomy(rng, size=30)
        for node in taxonomy:
            if node.is_tag and not node.is_root:
                assert taxonomy.resolve_name(node.name) == node
