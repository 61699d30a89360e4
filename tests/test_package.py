'''The package namespace: what `import avtag` offers, and where the rest lives.'''

import importlib
import types

import avtag

#: the eight names of README's library example, plus the four its prose names
PUBLIC = ['RuleSet', 'SampleReport', 'TagPath', 'UnknownToken', 'UpdateConfig',
          'cooccurrence_stats', 'filter_strong', 'infer', 'label_sample', 'load_rules',
          'load_taxonomy', 'parse_item']

#: names once exported by the package, each importable from its submodule
SUBMODULE_NAMES = {
    'labeler': ['CooccurrenceCounter', 'Relation', 'TagAssignment', 'TagRanking',
                'compat_family', 'expand', 'tag_tokens'],
    'ruleset': ['ExpansionRule', 'RuleError', 'TaggingRule', 'serialize_rules'],
    'taxonomy': ['CATEGORIES', 'Taxonomy', 'TaxonomyError', 'render_item',
                 'serialize_taxonomy'],
    'tokenizer': ['tokenize'],
    'updater': ['UpdateResult', 'is_equivalent', 'is_known', 'is_strong', 'parse_stats'],
}


def test_package_exports_exactly_the_documented_names():
    assert sorted(avtag.__all__) == PUBLIC
    namespace = {name for name, value in vars(avtag).items()
                 if not name.startswith('_') and not isinstance(value, types.ModuleType)}
    assert namespace == set(PUBLIC)


def test_other_names_stay_importable_from_their_submodules():
    for module, names in SUBMODULE_NAMES.items():
        loaded = importlib.import_module('avtag.' + module)
        for name in names:
            assert hasattr(loaded, name), (module, name)
