'''Batch command-line front end: `avtag label` and `avtag update`.

`label` streams JSONL sample reports and writes ranked-tag, single-family
(compat) and/or co-occurrence-statistics files.  `update` consumes a stats
file and emits updated taxonomy/tagging/expansion files, a report of
unhandled relations, and a change log — always into a separate output
directory, never over its inputs.
'''

import argparse
import errno
import json
import os
import signal
import sys

from . import labeler, updater
from .ruleset import load_rules, serialize_rules
from .taxonomy import TaxonomyError, content_lines, load_taxonomy, serialize_taxonomy

UPDATE_OUTPUT_NAMES = ('taxonomy', 'tagging', 'expansion', 'unhandled.tsv', 'changelog.txt')


def _read_bytes(path):
    with open(path, 'rb') as handle:
        return handle.read()


def _decode(data, path):
    try:
        return data.decode('utf-8-sig')  # -sig: drops a leading BOM
    except UnicodeDecodeError as exc:
        raise ValueError('%s: %s' % (path, exc)) from None


class _Staging:
    '''New contents for output paths, each written to a temporary file next to its path.

    open() starts a path's temporary file and returns a handle on it (text,
    written as UTF-8, or binary); it refuses a path that is a directory,
    which no file can be renamed over.  commit() renames every temporary file
    over its path, and only once all of them are written.  Leaving the
    with-block without commit(), or a failure, removes the temporary files not
    renamed, so each path holds either its whole old or its whole new content.
    '''

    def __init__(self):
        self._staged = []  # (handle on a temporary file, path it replaces)

    def open(self, path, binary=False):
        if os.path.isdir(path):  # else commit() would fail there, after renaming others
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        # a random name, so that no file left by an earlier run can block this one;
        # not from secrets, which loads OpenSSL (3.7 MiB more peak RSS), nor from
        # tempfile.mkstemp, which creates the file readable by its owner only
        tmp = os.path.join(os.path.dirname(path),
                           '.%s.%s.tmp' % (os.path.basename(path), os.urandom(8).hex()))
        try:
            handle = (open(tmp, 'xb') if binary
                      else open(tmp, 'x', encoding='utf-8', newline=''))
        except OSError as exc:  # name the path the caller gave, not the hidden one
            raise OSError(exc.errno, exc.strerror, path) from None
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


def _first_bad_byte(path, error):
    '''`<path>: stats line N: <error>` for the first byte of a stats file not in UTF-8.

    Reads the file line by line.  N counts lines as parse_stats does; the
    position counts from the file's first byte, a BOM included.  Falls back to
    the reader's `error`.
    '''
    lineno = offset = 0
    with open(path, 'rb') as handle:
        # a binary line ends at LF, which is never inside a UTF-8 sequence, so each
        # decodes alone, and str.splitlines counts its lines as it would the file's
        for raw in handle:
            try:
                lineno += len(raw.decode('utf-8').splitlines())
            except UnicodeDecodeError as exc:
                # a character after the decodable text puts it on the bad byte's line
                lineno += len((raw[:exc.start].decode('utf-8') + '.').splitlines())
                # worded as str(exc) words it, with positions counted from the file's start
                start, end = offset + exc.start, offset + exc.end
                where = ('byte 0x%02x in position %d' % (raw[exc.start], start)
                         if end == start + 1 else 'bytes in position %d-%d' % (start, end - 1))
                return "%s: stats line %d: 'utf-8' codec can't decode %s: %s" % (
                    path, lineno, where, exc.reason)
            offset += len(raw)
    return '%s: %s' % (path, error)


def _load_kb(taxonomy_path, tagging_path, expansion_path):
    '''Reads each knowledge-base file once: (taxonomy, rules, the three files' bytes).'''
    paths = (taxonomy_path, tagging_path, expansion_path)
    data = [_read_bytes(path) for path in paths]
    texts = [_decode(raw, path) for raw, path in zip(data, paths)]
    try:
        taxonomy = load_taxonomy(texts[0])
    except TaxonomyError as exc:  # a rule error names its file and line itself
        raise TaxonomyError('%s: %s' % (taxonomy_path, exc)) from None
    return taxonomy, load_rules(texts[1], texts[2], taxonomy), data


def _load_allowlist(path):
    text = _decode(_read_bytes(path), path)
    return {line.lower() for _, line in content_lines(text.splitlines())}


def _fail(message):
    sys.stderr.write('error: %s\n' % (message,))
    return 1


def _read_reports(paths, counts):
    '''Yields the report of every usable input line; counts the lines read and skipped.'''
    for path in paths:
        with open(path, encoding='utf-8-sig') as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line:
                    continue
                counts['read'] += 1
                try:
                    yield labeler.SampleReport.from_dict(json.loads(line))
                except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                    counts['skipped'] += 1
                    sys.stderr.write('warning: %s:%d: skipping malformed line (%s)\n'
                                     % (path, lineno, exc))


def _overwritten_input(outputs, inputs):
    '''The first output path that is one of the input paths (by real path), or None.'''
    inputs = {os.path.realpath(path) for path in inputs}
    return next((path for path in outputs if os.path.realpath(path) in inputs), None)


def run_label(args):
    outputs = {flag: path for flag, path in (('--tags-out', args.tags_out),
                                             ('--compat-out', args.compat_out),
                                             ('--stats-out', args.stats_out)) if path}
    if not outputs:
        return _fail('label needs at least one of --tags-out/--compat-out/--stats-out')
    flags = {}  # real output path -> the option that named it
    for flag, path in outputs.items():
        other = flags.setdefault(os.path.realpath(path), flag)
        if other != flag:
            return _fail('%s and %s name the same file %s' % (other, flag, path))
    clash = _overwritten_input(outputs.values(), args.input + [
        path for path in (args.taxonomy, args.tagging, args.expansion, args.engines) if path])
    if clash:
        return _fail('refusing to overwrite input file %s' % (clash,))
    for path in args.input:
        if not os.path.isfile(path):
            return _fail('input file not found: %s' % (path,))
    try:
        # the compiled copy alone stays alive: the loaded files and maps are freed here
        kb = labeler.CompiledKB(*_load_kb(args.taxonomy, args.tagging, args.expansion)[:2])
        allowlist = _load_allowlist(args.engines) if args.engines else None
    except (OSError, ValueError) as exc:  # ValueError: also a file that is not UTF-8
        return _fail(exc)

    counter = labeler.CooccurrenceCounter() if args.stats_out else None
    counts = {'read': 0, 'skipped': 0}
    try:
        # every output is staged before the first sample is labeled, so one that cannot
        # be created fails at once; all are renamed only once the whole run has succeeded
        with _Staging() as staging:
            tags_out, compat_out, stats_out = (
                staging.open(path) if path else None
                for path in (args.tags_out, args.compat_out, args.stats_out))
            labeled = labeler.label_reports(_read_reports(args.input, counts), kb, allowlist,
                                            tags_out, compat_out, counter)
            del kb  # free the knowledge base before the stats write, where a stats-only run peaks
            if labeled == 0:
                return _fail('no samples parsed (%d lines read, %d skipped)'
                             % (counts['read'], counts['skipped']))
            if counter is not None:
                relation_count = counter.write_stats(stats_out)
            staging.commit()
    except OSError as exc:
        return _fail(exc)

    summary = 'samples read %d, labeled %d, skipped %d' % (
        counts['read'], labeled, counts['skipped'])
    if counter is not None:
        summary += ', relations %d' % relation_count
    sys.stderr.write(summary + '\n')
    return 0


def run_update(args):
    try:
        config = updater.UpdateConfig(n=args.n, T=args.T)
    except ValueError as exc:
        return _fail(exc)
    outputs = {name: os.path.join(args.outdir, name) for name in UPDATE_OUTPUT_NAMES}
    clash = _overwritten_input(outputs.values(),
                               (args.taxonomy, args.tagging, args.expansion, args.stats))
    if clash:
        return _fail('refusing to overwrite input file %s' % (clash,))
    try:
        # an unchanged artifact is copied from the bytes parsed
        taxonomy, rules, kb = _load_kb(args.taxonomy, args.tagging, args.expansion)
        with open(args.stats, encoding='utf-8-sig') as handle:  # -sig: drops a leading BOM
            try:
                relations_all, relations, relations_strong = updater.parse_stats(
                    handle, config, taxonomy)
            except UnicodeDecodeError as exc:  # its position counts from the reader's chunk
                raise ValueError(_first_bad_byte(args.stats, exc)) from None
            except ValueError as exc:
                raise ValueError('%s: %s' % (args.stats, exc)) from None
    except (OSError, ValueError) as exc:  # ValueError: also a file that is not UTF-8
        return _fail(exc)

    os_removed = relations_strong - len(relations)
    result = updater.infer(relations, taxonomy, rules, config)
    # infer worked on copies, and its consumed relations are only counted: free them
    # and the inputs, whose names the updated artifacts take, before the write
    known = len(result.consumed_known)
    taxonomy, rules, changes, unhandled = result[:4]
    del relations, result

    try:
        os.makedirs(args.outdir, exist_ok=True)
        # each output is built just before it is written
        with _Staging() as staging:
            def write(name, content):
                staging.open(outputs[name], binary=isinstance(content, bytes)).write(content)

            write('taxonomy', serialize_taxonomy(taxonomy) if changes.taxonomy_dirty
                  else kb[0])
            if changes.tagging_dirty or changes.expansion_dirty:  # else both are copied
                tagging_text, expansion_text = serialize_rules(rules)
            write('tagging', tagging_text if changes.tagging_dirty else kb[1])
            write('expansion', expansion_text if changes.expansion_dirty else kb[2])
            write('unhandled.tsv', updater.format_unhandled(unhandled))
            write('changelog.txt', updater.format_changelog(
                changes, relations_all, relations_strong, os_removed, known, len(unhandled)))
            staging.commit()
    except OSError as exc:
        return _fail(exc)

    sys.stderr.write(
        'relations: all %d, strong %d, os_removed %d, known %d, out %d\n'
        % (relations_all, relations_strong, os_removed, known, len(unhandled)))
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


class _Terminated(BaseException):
    '''SIGTERM during a command; like KeyboardInterrupt, no `except Exception` stops it.'''


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:  # SIGTERM unwinds the command like Ctrl-C
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread, the only one that can set a handler
        previous = None
    try:
        if args.command == 'label':
            return run_label(args)
        return run_update(args)
    except KeyboardInterrupt:  # Ctrl-C: staging has removed its temporary files
        _fail('interrupted')
        return 130
    except _Terminated:
        _fail('terminated')
        return 128 + signal.SIGTERM
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == '__main__':
    sys.exit(main())
