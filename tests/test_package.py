'''The package namespace: what `import avtag` offers and where the rest lives.

Also: no module imports a name it never reads, and importing the CLI loads
no module that slows every command's start-up.
'''

import ast
import importlib
import os
import subprocess
import sys
import types

import avtag

#: the eight names README's library example imports from the package, plus the
#: four its prose names
PUBLIC = ['CompiledKB', 'RuleSet', 'SampleReport', 'TagPath', 'UnknownToken', 'UpdateConfig',
          'analyze_sample', 'filter_strong', 'infer', 'load_rules', 'load_taxonomy',
          'parse_item']

#: names once exported by the package, each importable from its submodule
SUBMODULE_NAMES = {
    'labeler': ['CooccurrenceCounter', 'TagAssignment', 'TagRanking', 'compat_family',
                'expand', 'label_reports', 'tag_tokens'],
    'ruleset': ['RuleError', 'serialize_rules'],
    'taxonomy': ['CATEGORIES', 'Taxonomy', 'TaxonomyError', 'serialize_taxonomy'],
    'tokenizer': ['tokenize'],
    'updater': ['Relation', 'UpdateResult', 'is_equivalent', 'is_strong',
                'parse_stats'],
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


def unused_imports(path):
    '''Names a module imports but never reads, in source order.'''
    with open(path, encoding='utf-8') as handle:
        tree = ast.parse(handle.read(), path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split('.')[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != '__future__':
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    '''Every module under src/ and tests/ reads what it imports; __init__.py re-exports.'''
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found = {}
    for top in ('src', 'tests'):
        for folder, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if name.endswith('.py') and name != '__init__.py':
                    path = os.path.join(folder, name)
                    unused = unused_imports(path)
                    if unused:
                        found[os.path.relpath(path, root)] = unused
    assert found == {}


def test_cli_import_loads_no_slow_module():
    '''`import avtag.cli`, in a fresh interpreter, adds no dataclasses, inspect, ast or dis.'''
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), 'import_check.py')
    run = subprocess.run([sys.executable, script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
