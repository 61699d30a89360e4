import random

import pytest
from hypothesis import given, settings, strategies as st

from avtag.taxonomy import (CATEGORIES, TagPath, Taxonomy, TaxonomyError, UnknownToken,
                            item_category, item_name, load_taxonomy, parse_item,
                            render_item, serialize_taxonomy)

from conftest import random_taxonomy


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
        for text in ('CLASS:Ad-ware', 'CLASS:', 'CLASS:a b', 'CLASS:Mixed'):
            with pytest.raises(TaxonomyError):
                TagPath.parse(text)

    def test_parent_and_prefixes(self):
        path = TagPath.parse('CLASS:grayware:adware')
        assert str(path.parent()) == 'CLASS:grayware'
        assert [str(p) for p in path.prefixes()] == [
            'CLASS', 'CLASS:grayware', 'CLASS:grayware:adware']
        assert TagPath.parse('CLASS').parent() is None


class TestItems:
    def test_render_and_parse_inverse(self):
        for text in ('FAM:bebeg', 'FILE:OS:windows', 'UNK:skodna'):
            assert render_item(parse_item(text)) == text

    def test_unknown_token_item(self):
        item = parse_item('UNK:skodna')
        assert item == UnknownToken('skodna')
        assert item_category(item) == 'UNK'
        assert item_name(item) == 'skodna'

    def test_tag_item(self):
        item = parse_item('CLASS:miner')
        assert item_category(item) == 'CLASS'
        assert item_name(item) == 'miner'

    def test_bad_unknown_token_rejected(self):
        with pytest.raises(TaxonomyError):
            parse_item('UNK:Not-A-Token')

    @pytest.mark.parametrize('item, category, name, text', [
        (TagPath.parse('FILE:OS:windows'), 'FILE', 'windows', 'FILE:OS:windows'),
        (UnknownToken('skodna'), 'UNK', 'skodna', 'UNK:skodna'),
    ])
    def test_both_item_kinds_share_one_protocol(self, item, category, name, text):
        assert (str(item), item.category, item.name) == (text, category, name)
        assert render_item(item) == str(item)
        assert (item_category(item), item_name(item)) == (category, name)
        assert parse_item(text) == item and hash(parse_item(text)) == hash(item)

    def test_tags_sort_before_unknowns(self):
        rendered = sorted([render_item(UnknownToken('aaa')),
                           render_item(TagPath.parse('FILE:irc'))])
        assert rendered == ['FILE:irc', 'UNK:aaa']


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
    def test_is_ancestor_parent_child(self, base_taxonomy):
        a = TagPath.parse('CLASS:grayware')
        b = TagPath.parse('CLASS:grayware:adware')
        assert base_taxonomy.is_ancestor(a, b)
        assert not base_taxonomy.is_ancestor(b, a)

    def test_is_ancestor_irreflexive(self, base_taxonomy):
        path = TagPath.parse('CLASS:grayware:adware')
        assert not base_taxonomy.is_ancestor(path, path)

    def test_is_ancestor_cross_category(self, base_taxonomy):
        assert not base_taxonomy.is_ancestor(
            TagPath.parse('FILE:packed'), TagPath.parse('CLASS:grayware'))

    def test_is_ancestor_unknown_path_raises(self, base_taxonomy):
        with pytest.raises(TaxonomyError):
            base_taxonomy.is_ancestor(TagPath.parse('FAM:nosuch'),
                                      TagPath.parse('CLASS:grayware'))

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


def internals(taxonomy):
    return (set(taxonomy._nodes), dict(taxonomy._name_index), dict(taxonomy._child_counts))


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


class TestCheckAdd:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(base=st.lists(paths, max_size=12), adds=st.lists(paths, min_size=1, max_size=3),
           data=st.data())
    def test_raises_what_a_probe_copy_raises(self, base, adds, data):
        taxonomy = grown(base)
        leaves = [node for node in taxonomy
                  if not node.is_root and not taxonomy.has_children(node)]
        removed = data.draw(st.none() | st.sampled_from(leaves)) if leaves else None
        probe = taxonomy.copy()
        if removed is not None:
            probe.remove(removed)
        want = None
        try:
            for path in adds:
                probe.add(path)
        except TaxonomyError as exc:
            want = str(exc)
        before = internals(taxonomy)
        got = None
        try:
            taxonomy.check_add(adds, removed=removed)
        except TaxonomyError as exc:
            got = str(exc)
        assert got == want
        assert internals(taxonomy) == before

    def test_removed_leaf_frees_its_name(self):
        taxonomy = load_taxonomy('FAM:zbot\n')
        with pytest.raises(TaxonomyError) as err:
            taxonomy.check_add([TagPath.parse('CLASS:zbot')])
        assert str(err.value) == "name 'zbot' already used by FAM:zbot (adding CLASS:zbot)"
        taxonomy.check_add([TagPath.parse('CLASS:zbot')], removed=TagPath.parse('FAM:zbot'))

    def test_earlier_paths_count_as_added(self):
        taxonomy = load_taxonomy('')
        with pytest.raises(TaxonomyError) as err:
            taxonomy.check_add([TagPath.parse('FAM:twin'), TagPath.parse('CLASS:b:twin')])
        assert str(err.value) == "name 'twin' already used by FAM:twin (adding CLASS:b:twin)"
        assert len(taxonomy) == len(CATEGORIES)


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


class TestOrderProperties:
    def test_parent_is_ancestor_everywhere(self):
        rng = random.Random(7)
        taxonomy = random_taxonomy(rng, size=40)
        for node in taxonomy:
            parent = node.parent()
            if parent is not None:
                assert taxonomy.is_ancestor(parent, node)
                assert not taxonomy.is_ancestor(node, parent)

    def test_strict_partial_order(self):
        rng = random.Random(8)
        taxonomy = random_taxonomy(rng, size=30)
        nodes = list(taxonomy)
        for node in nodes:
            assert not taxonomy.is_ancestor(node, node)
        for _ in range(300):
            a, b, c = (rng.choice(nodes) for _ in range(3))
            if taxonomy.is_ancestor(a, b) and taxonomy.is_ancestor(b, c):
                assert taxonomy.is_ancestor(a, c)

    def test_resolve_name_inverse(self):
        rng = random.Random(9)
        taxonomy = random_taxonomy(rng, size=30)
        for node in taxonomy:
            if node.is_tag and not node.is_root:
                assert taxonomy.resolve_name(node.name) == node
