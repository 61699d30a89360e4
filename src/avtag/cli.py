'''Batch command-line front end: `avtag label` and `avtag update`.

`label` streams JSONL sample reports and writes ranked-tag, single-family
(compat) and/or co-occurrence-statistics files.  `update` consumes a stats
file and emits updated taxonomy/tagging/expansion files, a report of
unhandled relations, and a change log — always into a separate output
directory, never over its inputs.
'''

import argparse
import json
import os
import sys

from . import labeler, updater
from .ruleset import RuleError, load_rules, serialize_rules
from .taxonomy import TaxonomyError, load_taxonomy, serialize_taxonomy

UPDATE_OUTPUT_NAMES = ('taxonomy', 'tagging', 'expansion', 'unhandled.tsv', 'changelog.txt')


def _read_text(path):
    with open(path, encoding='utf-8') as handle:
        return handle.read()


def _read_bytes(path):
    with open(path, 'rb') as handle:
        return handle.read()


class _Staging:
    '''New contents for output paths, each written to a temporary file next to its path.

    open() starts a path's temporary file and returns a handle on it (text,
    written as UTF-8, or binary).  commit() renames every temporary file over
    its path, and only once all of them are written.  Leaving the with-block
    without commit(), or a failure, removes the temporary files not renamed,
    so each path holds either its whole old or its whole new content.
    '''

    def __init__(self):
        self._staged = []  # (handle on a temporary file, path it replaces)

    def open(self, path, binary=False):
        tmp = os.path.join(os.path.dirname(path),
                           '.%s.%d.tmp' % (os.path.basename(path), os.getpid()))
        handle = open(tmp, 'xb') if binary else open(tmp, 'x', encoding='utf-8', newline='')
        self._staged.append((handle, path))
        return handle

    def commit(self):
        for handle, _ in self._staged:
            handle.close()
        for handle, path in self._staged:
            os.replace(handle.name, path)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for handle, _ in self._staged:
            handle.close()
            try:
                os.unlink(handle.name)
            except FileNotFoundError:  # renamed into place
                pass


def _load_data_files(taxonomy_path, tagging_path, expansion_path):
    taxonomy = load_taxonomy(_read_text(taxonomy_path))
    rules = load_rules(_read_text(tagging_path), _read_text(expansion_path), taxonomy)
    return taxonomy, rules


def _load_allowlist(path):
    names = set()
    for line in _read_text(path).splitlines():
        line = line.strip()
        if line and not line.startswith('#'):
            names.add(line.lower())
    return names


def _fail(message):
    sys.stderr.write('error: %s\n' % (message,))
    return 1


def _read_reports(paths, counts):
    '''Yields the report of every usable input line; counts the lines read and skipped.'''
    for path in paths:
        with open(path, encoding='utf-8') as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line:
                    continue
                counts['read'] += 1
                try:
                    yield labeler.SampleReport.from_dict(json.loads(line))
                except ValueError as exc:
                    counts['skipped'] += 1
                    sys.stderr.write('warning: %s:%d: skipping malformed line (%s)\n'
                                     % (path, lineno, exc))


def run_label(args):
    if not (args.tags_out or args.compat_out or args.stats_out):
        return _fail('label needs at least one of --tags-out/--compat-out/--stats-out')
    for path in args.input:
        if not os.path.isfile(path):
            return _fail('input file not found: %s' % (path,))
    try:
        taxonomy, rules = _load_data_files(args.taxonomy, args.tagging, args.expansion)
        allowlist = _load_allowlist(args.engines) if args.engines else None
    except (OSError, TaxonomyError, RuleError) as exc:
        return _fail(exc)

    want_stats = args.stats_out is not None
    counter = labeler.CooccurrenceCounter() if want_stats else None
    counts = {'read': 0, 'skipped': 0}
    labeled = 0
    relations = None
    try:
        # tags and compat lines stream into temporary files; all outputs are
        # renamed into place only once the whole run has succeeded
        with _Staging() as staging:
            tags_out = staging.open(args.tags_out) if args.tags_out else None
            compat_out = staging.open(args.compat_out) if args.compat_out else None
            for report in _read_reports(args.input, counts):
                ranking, stat_items = labeler.analyze_sample(
                    report, rules, taxonomy, allowlist, with_stats=want_stats)
                labeled += 1
                if tags_out is not None:
                    tags_out.write(ranking.format_line() + '\n')
                if compat_out is not None:
                    family = labeler.compat_family(ranking)
                    compat_out.write(labeler.format_compat_line(report.sample_id, family)
                                     + '\n')
                if counter is not None:
                    counter.add_items(stat_items)
            if labeled == 0:
                return _fail('no samples parsed (%d lines read, %d skipped)'
                             % (counts['read'], counts['skipped']))
            if want_stats:
                relations = counter.relations()
                staging.open(args.stats_out).write(labeler.format_stats(relations))
            staging.commit()
    except OSError as exc:
        return _fail(exc)

    summary = 'samples read %d, labeled %d, skipped %d' % (
        counts['read'], labeled, counts['skipped'])
    if relations is not None:
        summary += ', relations %d' % len(relations)
    sys.stderr.write(summary + '\n')
    return 0


def run_update(args):
    try:
        config = updater.UpdateConfig(n=args.n, T=args.T)
    except ValueError as exc:
        return _fail(exc)
    try:
        taxonomy, rules = _load_data_files(args.taxonomy, args.tagging, args.expansion)
        relations = updater.parse_stats(_read_text(args.stats))
    except (OSError, ValueError) as exc:
        return _fail(exc)

    input_paths = {os.path.realpath(p)
                   for p in (args.taxonomy, args.tagging, args.expansion, args.stats)}
    outputs = {name: os.path.join(args.outdir, name) for name in UPDATE_OUTPUT_NAMES}
    for out_path in outputs.values():
        if os.path.realpath(out_path) in input_paths:
            return _fail('refusing to overwrite input file %s' % (out_path,))

    strong = [r for r in relations if updater.is_strong(r, config)]
    kept = updater.filter_strong(strong, config)
    os_removed = len(strong) - len(kept)
    result = updater.infer(kept, taxonomy, rules, config)

    tagging_text, expansion_text = serialize_rules(result.rules)
    try:
        os.makedirs(args.outdir, exist_ok=True)
        # an artifact the run did not change is copied byte for byte
        contents = {
            outputs['taxonomy']: (serialize_taxonomy(result.taxonomy) if result.taxonomy_dirty
                                  else _read_bytes(args.taxonomy)),
            outputs['tagging']: (tagging_text if result.tagging_dirty
                                 else _read_bytes(args.tagging)),
            outputs['expansion']: (expansion_text if result.expansion_dirty
                                   else _read_bytes(args.expansion)),
            outputs['unhandled.tsv']: updater.format_unhandled(result.unhandled),
            outputs['changelog.txt']: updater.format_changelog(
                result, len(relations), len(strong), os_removed),
        }
        with _Staging() as staging:
            for path, content in contents.items():
                staging.open(path, binary=isinstance(content, bytes)).write(content)
            staging.commit()
    except OSError as exc:
        return _fail(exc)

    changes = result.changes
    sys.stderr.write(
        'relations: all %d, strong %d, os_removed %d, known %d, out %d\n'
        % (len(relations), len(strong), os_removed,
           len(result.consumed_known), len(result.unhandled)))
    sys.stderr.write(
        'taxonomy +%d -%d, tagging +%d -%d, expansion +%d -%d\n'
        % (len(changes.taxonomy_added), len(changes.taxonomy_removed),
           len(changes.tagging_added), len(changes.tagging_removed),
           len(changes.expansion_added), len(changes.expansion_removed)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog='avtag',
        description='Extract structured tags from anti-virus detection labels '
                    'and mine tag co-occurrence for taxonomy/rule updates.')
    sub = parser.add_subparsers(dest='command', required=True)

    label = sub.add_parser('label', help='label JSONL sample reports')
    label.add_argument('-i', '--input', nargs='+', action='extend', required=True,
                       metavar='JSONL', help='input file(s), one JSON object per line')
    label.add_argument('--taxonomy', required=True, help='taxonomy file')
    label.add_argument('--tagging', required=True, help='tagging rules file')
    label.add_argument('--expansion', required=True, help='expansion rules file')
    label.add_argument('--engines', help='optional engine allowlist, one name per line')
    label.add_argument('--tags-out', help='ranked tags output file')
    label.add_argument('--compat-out', help='single-family output file')
    label.add_argument('--stats-out', help='co-occurrence statistics output file')

    update = sub.add_parser('update', help='mine a stats file for new rules')
    update.add_argument('--stats', required=True, help='co-occurrence stats TSV')
    update.add_argument('--taxonomy', required=True, help='taxonomy file')
    update.add_argument('--tagging', required=True, help='tagging rules file')
    update.add_argument('--expansion', required=True, help='expansion rules file')
    update.add_argument('-n', type=int, default=updater.DEFAULT_MIN_COUNT,
                        help='minimum per-item sample count (default %(default)s)')
    update.add_argument('-T', type=float, default=updater.DEFAULT_MIN_REL,
                        help='minimum joint frequency (default %(default)s)')
    update.add_argument('-o', '--outdir', required=True,
                        help='output directory (never the input files)')
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == 'label':
        return run_label(args)
    return run_update(args)


if __name__ == '__main__':
    sys.exit(main())
