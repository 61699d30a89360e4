'''Traced in-process run of the avtag CLI.

Usage (any working directory):

    python3 bench/tracer.py OUT.json -- label -i corpus.jsonl ...

Wraps avtag's functions at their module and class attributes, runs
``avtag.cli.main`` in this process with the given arguments, and writes the
per-layer metrics of ``PER_LAYER`` (except the ``trace.*`` ones, which the
runner derives from wall times) to OUT.json.  A function is wrapped wherever
the program references it, so the trace measures what the program really
calls; a function that leaves the hot path reports 0 calls, and one that no
longer exists reports 0 as well.

Spans nest: a span's self time is its duration minus the durations of the
spans it caused.  Spans are aggregated by name (calls, total and self time)
instead of being stored one by one, because the hot path makes millions of
calls.  Bookkeeping that runs after a call (token counters and the like) is
charged to ``trace.bookkeeping_s``, not to the caller.
'''

import collections
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'src')

#: per-layer metric name -> unit
PER_LAYER = {
    'tokenizer.tokenize.calls': 'count',
    'tokenizer.tokenize.self_s': 's',
    'tokenizer.tokens_out': 'count',
    'tokenizer.distinct_tokens': 'count',
    'labeler.tag_tokens.calls': 'count',
    'labeler.tag_tokens.self_s': 's',
    'labeler.tag_tokens.known_token_share': 'share',
    'labeler.expand.calls': 'count',
    'labeler.expand.self_s': 's',
    'labeler.expand.items_out': 'count',
    'labeler.analyze_sample.calls': 'count',
    'labeler.analyze_sample.self_s': 's',
    'labeler.from_dict.self_s': 's',
    'labeler.rank_format.self_s': 's',
    'labeler.add_items.calls': 'count',
    'labeler.add_items.self_s': 's',
    'labeler.pairs_counted': 'count',
    'labeler.relations.self_s': 's',
    'labeler.relations_out': 'count',
    'labeler.format_stats.self_s': 's',
    'taxonomy.load_s': 's',
    'ruleset.load_s': 's',
    'taxonomy.nodes': 'count',
    'ruleset.tagging_rules': 'count',
    'ruleset.expansion_rules': 'count',
    'taxonomy.copy.calls': 'count',
    'taxonomy.copy.self_s': 's',
    'taxonomy.has_children.calls': 'count',
    'taxonomy.has_children.self_s': 's',
    'updater.parse_stats.self_s': 's',
    'updater.infer.self_s': 's',
    'updater.resolve_item.calls': 'count',
    'updater.format_s': 's',
    'updater.relations_strong': 'count',
    'updater.relations_known': 'count',
    'updater.relations_unhandled': 'count',
    'updater.changes_total': 'count',
    'cli.json_decode_s': 's',
    'cli.self_s': 's',
    'cli.lines_read': 'count',
    'cli.lines_skipped': 'count',
    'trace.bookkeeping_s': 's',
    'trace.overhead_s': 's',
    'trace.wall_s': 's',
    'trace.unaccounted_s': 's',
}


class Span:
    '''Aggregate of every call recorded under one span name.'''

    __slots__ = ('calls', 'total', 'child', 'errors')

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.errors = 0

    @property
    def self_time(self):
        return self.total - self.child


class Tracer:
    '''Wraps callables so that each call records a nested span.'''

    def __init__(self):
        self.spans = collections.defaultdict(Span)
        self.bookkeeping = 0.0
        self.hook_failures = collections.Counter()
        # one child-time accumulator per open span; the bottom one is the root
        self._stack = [[0.0]]

    def wrap(self, name, fn, hook=None):
        '''Returns fn wrapped in a span named `name`; hook(args, result) runs untimed.'''
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                span.calls += 1
                span.total += elapsed
                span.child += frame[0]
            if hook is not None:
                hook_start = clock()
                try:
                    hook(args, result)
                except Exception:  # a hook must never change what the program does
                    tracer.hook_failures[name] += 1
                hook_time = clock() - hook_start
                stack[-1][0] += hook_time
                tracer.bookkeeping += hook_time
            return result

        return traced


def _patch(modules, originals, replacements):
    '''Replaces every module attribute that is one of originals, by identity.'''
    for module in modules:
        for attr, value in list(vars(module).items()):
            for original, replacement in zip(originals, replacements):
                if value is original:
                    setattr(module, attr, replacement)


def run(argv, out_path):
    '''Runs avtag's CLI traced and writes the per-layer metrics; returns its exit code.'''
    sys.path.insert(0, SRC)
    from avtag import cli, labeler, ruleset, taxonomy, tokenizer, updater
    import avtag

    tracer = Tracer()
    facts = collections.Counter()
    tokens_out = collections.Counter()
    tokens_tagged = collections.Counter()
    kb = {}

    def on_tag_tokens(args, result):
        tokens_tagged.update(args[0])
        kb['rules'], kb['taxonomy'] = args[1], args[2]

    def on_infer(args, result):
        facts['updater.relations_strong'] += len(args[0])
        facts['updater.relations_known'] += len(result.consumed_known)
        facts['updater.relations_unhandled'] += len(result.unhandled)
        facts['updater.changes_total'] += result.changes.total()

    def on_load_rules(args, result):
        facts['ruleset.tagging_rules'] = len(result.tagging)
        facts['ruleset.expansion_rules'] = len(result.expansion)

    def on_add_items(args, result):
        n = len(args[1])
        facts['labeler.pairs_counted'] += n * (n - 1) // 2

    def on_set(key):
        def hook(args, result):
            facts[key] = len(result)
        return hook

    def on_sum(key):
        def hook(args, result):
            facts[key] += len(result)
        return hook

    # (owner, attribute, span name, hook); module functions are replaced
    # wherever any avtag module (or json, for json.loads) references them
    functions = [
        (tokenizer, 'tokenize', 'tokenizer.tokenize', lambda a, r: tokens_out.update(r)),
        (labeler, 'tag_tokens', 'labeler.tag_tokens', on_tag_tokens),
        (labeler, 'expand', 'labeler.expand', on_sum('labeler.expand.items_out')),
        (labeler, 'analyze_sample', 'labeler.analyze_sample', None),
        (labeler, 'compat_family', 'labeler.rank_format', None),
        (labeler, 'format_compat_line', 'labeler.rank_format', None),
        (labeler, 'format_stats', 'labeler.format_stats', None),
        (taxonomy, 'load_taxonomy', 'taxonomy.load', on_set('taxonomy.nodes')),
        (ruleset, 'load_rules', 'ruleset.load', on_load_rules),
        (updater, 'parse_stats', 'updater.parse_stats', None),
        (updater, 'infer', 'updater.infer', on_infer),
        (updater, 'resolve_item', 'updater.resolve_item', None),
        (updater, 'format_unhandled', 'updater.format', None),
        (updater, 'format_changelog', 'updater.format', None),
        (ruleset, 'serialize_rules', 'updater.format', None),
        (taxonomy, 'serialize_taxonomy', 'updater.format', None),
        (json, 'loads', 'cli.json_decode', None),
    ]
    methods = [
        (getattr(labeler, 'TagRanking', None), 'format_line', 'labeler.rank_format', None),
        (getattr(labeler, 'CooccurrenceCounter', None), 'add_items', 'labeler.add_items',
         on_add_items),
        (getattr(labeler, 'CooccurrenceCounter', None), 'relations', 'labeler.relations',
         on_set('labeler.relations_out')),
        (getattr(taxonomy, 'Taxonomy', None), 'copy', 'taxonomy.copy', None),
        (getattr(taxonomy, 'Taxonomy', None), 'has_children', 'taxonomy.has_children', None),
    ]
    modules = [json, avtag, cli, labeler, ruleset, taxonomy, tokenizer, updater]
    originals, replacements = [], []
    for owner, attr, name, hook in functions:
        fn = getattr(owner, attr, None)
        if fn is not None:
            originals.append(fn)
            replacements.append(tracer.wrap(name, fn, hook))
    _patch(modules, originals, replacements)
    for owner, attr, name, hook in methods:
        if owner is not None and attr in vars(owner):
            setattr(owner, attr, tracer.wrap(name, vars(owner)[attr], hook))
    report_cls = getattr(labeler, 'SampleReport', None)
    if report_cls is not None and isinstance(vars(report_cls).get('from_dict'), classmethod):
        from_dict = vars(report_cls)['from_dict'].__func__
        report_cls.from_dict = classmethod(tracer.wrap('labeler.from_dict', from_dict))

    main = tracer.wrap('cli.main', cli.main)
    try:
        code = main(argv)
    finally:
        spans = tracer.spans
        rules, tax = kb.get('rules'), kb.get('taxonomy')
        tagged = sum(tokens_tagged.values())
        known = 0
        if tagged:
            known = sum(count for token, count in tokens_tagged.items()
                        if token in rules.tagging or tax.resolve_name(token) is not None)
        metrics = {name: 0 for name in PER_LAYER if not name.startswith('trace.')}
        for name in metrics:
            stem, _, field = name.rpartition('.')
            if field == 'calls':
                metrics[name] = spans[stem].calls
            elif field == 'self_s':
                metrics[name] = spans[stem].self_time
        metrics.update(facts)
        metrics.update({
            'tokenizer.tokens_out': sum(tokens_out.values()),
            'tokenizer.distinct_tokens': len(tokens_out),
            'labeler.tag_tokens.known_token_share': known / tagged if tagged else 0.0,
            'taxonomy.load_s': spans['taxonomy.load'].total,
            'ruleset.load_s': spans['ruleset.load'].total,
            'updater.format_s': spans['updater.format'].total,
            'cli.json_decode_s': spans['cli.json_decode'].total,
            'cli.self_s': spans['cli.main'].self_time,
            'cli.lines_read': spans['cli.json_decode'].calls,
            'cli.lines_skipped': (spans['cli.json_decode'].errors
                                  + spans['labeler.from_dict'].errors),
            'trace.bookkeeping_s': tracer.bookkeeping,
        })
        result = {
            'metrics': metrics,
            'main_s': spans['cli.main'].total,
            'self_sum_s': sum(span.self_time for span in spans.values()),
            'hook_failures': dict(tracer.hook_failures),
        }
        with open(out_path, 'w', encoding='utf-8') as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    return code


if __name__ == '__main__':
    if len(sys.argv) < 3 or sys.argv[2] != '--':
        sys.exit('usage: tracer.py OUT.json -- <avtag arguments>')
    sys.exit(run(sys.argv[3:], sys.argv[1]))
