'''Differential tests: the indexed labeler against a naive reference labeler.

The reference runs tokenize -> tag_tokens -> expand on every engine label and
keeps TagPath/UnknownToken items, the way labeling worked before the token
index.  Hypothesis draws random knowledge bases, labels and engine allowlists;
every sample's tag line, compat family and statistics items must equal the
reference exactly.  The rest checks that a CompiledKB is a snapshot of the
knowledge base it was compiled from (one compiled after an edit labels with
the edit, one compiled before it labels as before), that a counter's stats
rows come in the order and orientation a naive count and sort of its
samples' pairs gives, and that parse_stats reads those rows back.
'''

import io
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings, strategies as st

from avtag.labeler import (MIN_ENGINES, STATS_HEADER, CompiledKB, CooccurrenceCounter,
                           SampleReport, analyze_sample, compat_family, expand,
                           format_tags_line, label_reports, tag_tokens)
from avtag.ruleset import RuleError, load_rules
from avtag.taxonomy import (CATEGORIES, TagPath, UnknownToken, is_taggable, load_taxonomy,
                            parse_item)
from avtag.tokenizer import tokenize
from avtag.updater import _STATS_ROW, UpdateConfig, infer, parse_stats

from conftest import (BASE_EXPANSION, BASE_TAGGING, BASE_TAXONOMY, MATRIX_TAXONOMY,
                      counted_relations, sample_id, stats_file)


def reference_analyze(report, rules, taxonomy, allowlist=None):
    '''(tag line, compat family, sorted stat items), computed label by label.'''
    expanded_engines = {}
    raw_engines = {}
    for engine, label in report.av_labels.items():
        if allowlist is not None and engine.lower() not in allowlist:
            continue
        tags, unknowns = tag_tokens(tokenize(label), rules, taxonomy)
        unknown_items = {UnknownToken(token) for token in unknowns}
        for item in expand(tags, rules, taxonomy) | unknown_items:
            expanded_engines.setdefault(item, set()).add(engine)
        for item in tags | unknown_items:
            raw_engines.setdefault(item, set()).add(engine)
    ranked = sorted((-len(engines), str(item), item)
                    for item, engines in expanded_engines.items()
                    if len(engines) >= MIN_ENGINES)
    line = report.sample_id
    if ranked:
        line += '\t' + ','.join('%s|%d' % (text, -negative) for negative, text, _ in ranked)
    candidates = []
    for negative, _, item in ranked:
        if isinstance(item, TagPath) and item.category == 'FAM':
            candidates.append((negative, 0, item.name))
        elif isinstance(item, UnknownToken):
            candidates.append((negative, 1, item.name))
    family = min(candidates)[2] if candidates else None
    stat_items = sorted(str(item) for item, engines in raw_engines.items()
                        if len(engines) >= MIN_ENGINES)
    return line, family, stat_items


def indexed_analyze(report, kb, allowlist=None):
    ranking, stat_items = analyze_sample(report, kb, allowlist, with_stats=True)
    return (format_tags_line(report.sample_id, ranking), compat_family(ranking),
            sorted(str(item) for item in stat_items))


def assert_matches_reference(reports, rules, taxonomy, allowlist=None, kb=None):
    '''Labels with `kb`, by default compiled now, against the reference on `rules`, `taxonomy`.'''
    if kb is None:
        kb = CompiledKB(taxonomy, rules)
    for report in reports:
        want = reference_analyze(report, rules, taxonomy, allowlist)
        assert indexed_analyze(report, kb, allowlist) == want


# ---------------------------------------------------------------------------
# random knowledge bases and labels

#: tag names: plain words, short ones (kept by tokenize, never unknown), and
#: numeric or long pure-hex ones (dropped by tokenize, reachable only by rules)
TAG_NAMES = ['zbot', 'virut', 'worm', 'bot', 'irc', 'packed', 'adware', 'miner',
             'ab', 'x1', 'zz', 'cafe', 'dead', 'beef12', 'a1b2', '2017']
STRUCTURAL = ['OS', 'WIN', 'X9']
#: rule tokens; tag names can carry rules too, which builds alias chains
RULE_TOKENS = ['trojan', 'malware', 'dloader', 'zeus', 'fynloski', 'ircbot', 'qq', 'generic']
LABEL_WORDS = (TAG_NAMES + RULE_TOKENS
               + ['newfam', 'skodna', 'abc', 'q', '123', 'deadbeef', '0x1f', 'a1', 'gen7'])
SEPARATORS = ['.', '/', '!', ':', '-', '_', ' ']
ENGINES = ['AVa', 'AVb', 'Bav', 'cav', 'DAV', 'e']


def _loads(taxonomy, tagging_lines, expansion_lines):
    try:
        load_rules('\n'.join(tagging_lines), '\n'.join(expansion_lines), taxonomy)
    except RuleError:
        return False
    return True


@st.composite
def knowledge_bases(draw):
    '''(taxonomy, rules) with nested and structural nodes, generic rules, alias
    and expansion chains; each rule line is kept only if the files still load.'''
    nodes = [(category,) for category in CATEGORIES]
    lines = []
    for name in draw(st.lists(st.sampled_from(TAG_NAMES), unique=True, max_size=12)):
        parent = draw(st.sampled_from(nodes))
        if len(parent) < 3 and draw(st.integers(0, 3)) == 0:
            parent += (draw(st.sampled_from(STRUCTURAL)),)
            nodes.append(parent)
        nodes.append(parent + (name,))
        lines.append(':'.join(parent + (name,)))
    taxonomy = load_taxonomy('\n'.join(lines))
    tags = [node for node in nodes if len(node) > 1 and is_taggable(node[-1])]

    def destination(node):
        return ':'.join(node) if draw(st.booleans()) else node[-1]

    tagging = []
    for token in draw(st.lists(st.sampled_from(RULE_TOKENS + TAG_NAMES),
                               unique=True, max_size=8)):
        if not tags or draw(st.integers(0, 3)) == 0:
            dests = 'GEN'
        else:
            chosen = draw(st.lists(st.sampled_from(tags), min_size=1, max_size=3,
                                   unique=True))
            dests = ','.join(destination(node) for node in chosen)
        if _loads(taxonomy, tagging + ['%s\t%s' % (token, dests)], []):
            tagging.append('%s\t%s' % (token, dests))
    expansion = []
    if tags:
        for source in draw(st.lists(st.sampled_from(tags), unique=True, max_size=6)):
            chosen = draw(st.lists(st.sampled_from(tags), min_size=1, max_size=2,
                                   unique=True))
            line = '%s\t%s' % (':'.join(source), ','.join(destination(n) for n in chosen))
            if _loads(taxonomy, tagging, expansion + [line]):
                expansion.append(line)
    return taxonomy, load_rules('\n'.join(tagging), '\n'.join(expansion), taxonomy)


words = st.sampled_from(LABEL_WORDS).flatmap(
    lambda word: st.sampled_from([word, word.upper(), word.capitalize()]))
labels = st.builds(lambda parts, sep: sep.join(parts),
                   st.lists(words, max_size=5), st.sampled_from(SEPARATORS))
engine_labels = st.dictionaries(st.sampled_from(ENGINES), labels, max_size=6)
allowlists = st.none() | st.sets(st.sampled_from([e.lower() for e in ENGINES] + ['other']))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kb=knowledge_bases(), samples=st.lists(engine_labels, min_size=1, max_size=6),
       allowlist=allowlists)
def test_indexed_labeler_matches_reference(kb, samples, allowlist):
    taxonomy, rules = kb
    reports = [SampleReport(sample_id(n), labels) for n, labels in enumerate(samples)]
    kb = CompiledKB(taxonomy, rules)
    # the second pass reads every known token from the filled index
    assert_matches_reference(reports + reports, rules, taxonomy, allowlist, kb)

    # the corpus loop: one pass writes every output
    tags_out, compat_out, counted = io.StringIO(), io.StringIO(), CooccurrenceCounter()
    assert label_reports(iter(reports), kb, allowlist, tags_out, compat_out,
                         counted) == len(reports)
    want_tags, want_compat, reference = [], [], CooccurrenceCounter()
    for report in reports:
        line, family, stat_items = reference_analyze(report, rules, taxonomy, allowlist)
        want_tags.append(line + '\n')
        want_compat.append('%s\t%s\n' % (report.sample_id, family if family is not None
                                           else 'SINGLETON:' + report.sample_id))
        reference.add_items({parse_item(text) for text in stat_items})
    assert tags_out.getvalue() == ''.join(want_tags)
    assert compat_out.getvalue() == ''.join(want_compat)
    assert stats_file(counted) == stats_file(reference)

    # the corpus loop with only a counter, which builds no ranking
    stats_only = CooccurrenceCounter()
    assert label_reports(iter(reports), kb, allowlist, counter=stats_only) == len(reports)
    assert stats_file(stats_only) == stats_file(reference)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kb=knowledge_bases(), samples=st.lists(engine_labels, min_size=1, max_size=4),
       allowlist=allowlists)
def test_stats_only_analysis_matches_full_analysis(kb, samples, allowlist):
    taxonomy, rules = kb
    kb = CompiledKB(taxonomy, rules)
    for n, labels in enumerate(samples):
        report = SampleReport(sample_id(n), labels)
        if n % 2 == 0:  # stats only first: the first sample meets an empty index
            stats_only = analyze_sample(report, kb, allowlist, with_stats=True,
                                        with_ranking=False)
            full = analyze_sample(report, kb, allowlist, with_stats=True)
        else:
            full = analyze_sample(report, kb, allowlist, with_stats=True)
            stats_only = analyze_sample(report, kb, allowlist, with_stats=True,
                                        with_ranking=False)
        assert stats_only == (None, full[1])


# ---------------------------------------------------------------------------
# a compiled knowledge base is a snapshot of the one it was compiled from

def base_kb():
    '''A private copy of the base knowledge base, safe to edit in place.'''
    taxonomy = load_taxonomy(BASE_TAXONOMY)
    return taxonomy, load_rules(BASE_TAGGING, BASE_EXPANSION, taxonomy)


def two_engine_report(label, n=1):
    return SampleReport(sample_id(n), {'A': label, 'B': label.upper()})


def compiled_and_labeled(report, rules, taxonomy):
    '''A CompiledKB of the knowledge base as it is now, checked against the
    reference, and its output for the report.'''
    kb = CompiledKB(taxonomy, rules)
    assert_matches_reference([report], rules, taxonomy, kb=kb)
    return kb, indexed_analyze(report, kb)


def test_tagging_rule_added_in_place_after_labeling():
    taxonomy, rules = base_kb()
    report = two_engine_report('zbot.worm.zeus')
    before, want_before = compiled_and_labeled(report, rules, taxonomy)
    rules.tagging['zeus'] = frozenset({TagPath.parse('FAM:zbot')})
    rules.tagging['worm'] = frozenset({TagPath.parse('CLASS:virus')})
    _, want_after = compiled_and_labeled(report, rules, taxonomy)
    assert want_after[0].endswith('\tCLASS:virus|2,FAM:zbot|2')
    assert indexed_analyze(report, before) == want_before != want_after


def test_expansion_rule_added_in_place_after_labeling():
    taxonomy, rules = base_kb()
    report = two_engine_report('zbot')
    before, want_before = compiled_and_labeled(report, rules, taxonomy)
    zbot = TagPath.parse('FAM:zbot')
    rules.expansion[zbot] = frozenset({TagPath.parse('BEH:infosteal')})
    _, want_after = compiled_and_labeled(report, rules, taxonomy)
    assert 'BEH:infosteal|2' in want_after[0]
    assert indexed_analyze(report, before) == want_before != want_after


def test_taxonomy_node_added_or_removed_in_place_after_labeling():
    taxonomy, rules = base_kb()
    report = two_engine_report('virut.newfam')
    before, want_before = compiled_and_labeled(report, rules, taxonomy)
    taxonomy.add(TagPath.parse('FAM:virut:newfam'))
    added, want_added = compiled_and_labeled(report, rules, taxonomy)
    assert want_added[2] == ['FAM:virut', 'FAM:virut:newfam']
    assert indexed_analyze(report, before) == want_before != want_added
    taxonomy.remove(TagPath.parse('FAM:virut:newfam'))
    taxonomy.remove(TagPath.parse('FAM:virut'))
    _, want_removed = compiled_and_labeled(report, rules, taxonomy)
    assert want_removed[2] == ['UNK:newfam', 'UNK:virut']
    assert indexed_analyze(report, added) == want_added


def test_rule_replaced_in_place_is_seen_through_a_copy():
    taxonomy, rules = base_kb()
    report = two_engine_report('dloader')
    before, want_before = compiled_and_labeled(report, rules, taxonomy)
    rules.tagging['dloader'] = frozenset({TagPath.parse('CLASS:bot')})
    fresh = rules.copy()
    _, want_after = compiled_and_labeled(report, fresh, taxonomy)
    assert want_after[0].endswith('\tCLASS:bot|2')
    assert indexed_analyze(report, before) == want_before != want_after


def test_rule_replaced_in_place_after_labeling_is_seen_by_a_new_compile():
    '''The replaced rule keeps the rule count; a CompiledKB from after the edit sees
    it, and one from before the edit does not, whether or not it labeled before.'''
    taxonomy, rules = base_kb()
    report = two_engine_report('dloader')
    before = CompiledKB(taxonomy, rules)
    unused = CompiledKB(taxonomy, rules)
    assert indexed_analyze(report, before)[0].endswith('\tCLASS:downloader|2')
    rules.tagging['dloader'] = frozenset({TagPath.parse('CLASS:bot')})
    after = CompiledKB(taxonomy, rules)
    assert indexed_analyze(report, after)[0].endswith('\tCLASS:bot|2')
    assert_matches_reference([report], rules, taxonomy, kb=after)
    assert indexed_analyze(report, before)[0].endswith('\tCLASS:downloader|2')
    assert indexed_analyze(report, unused)[0].endswith('\tCLASS:downloader|2')


def test_same_size_replacements_are_seen():
    taxonomy, rules = base_kb()
    report = two_engine_report('zbot.dloader')
    before, want_before = compiled_and_labeled(report, rules, taxonomy)
    rules = rules._replace(tagging=dict(rules.tagging,
                                        dloader=frozenset({TagPath.parse('CLASS:bot')})))
    replaced, want_replaced = compiled_and_labeled(report, rules, taxonomy)
    assert indexed_analyze(report, before) == want_before != want_replaced
    other = load_taxonomy(BASE_TAXONOMY.replace('FAM:zbot', 'FAM:zbotx'))
    assert len(other) == len(taxonomy)
    _, want_other = compiled_and_labeled(report, rules, other)
    assert want_other[0].endswith('\tCLASS:bot|2,UNK:zbot|2')
    assert indexed_analyze(report, replaced) == want_replaced != want_other


def test_unknown_tokens_add_no_index_keys():
    '''The index is keyed by the known tokens alone, however many unknowns pass.'''
    taxonomy, rules = base_kb()
    known = set(rules.tagging) | set(taxonomy.tag_names())
    reports = [SampleReport(sample_id(n), {'A': 'unk%dx.q%d' % (n, n), 'B': 'unk%dx' % n})
               for n in range(500)]
    kb = CompiledKB(taxonomy, rules)
    assert_matches_reference(reports, rules, taxonomy, kb=kb)
    assert set(kb.index) == known


def test_rule_set_and_compiled_kb_survive_pickle():
    '''A pickled RuleSet and a pickled, partly filled CompiledKB label as the originals.'''
    taxonomy = load_taxonomy(BASE_TAXONOMY)
    # two sources with one target set, which the loaded rules hold as one frozenset
    expansion = BASE_EXPANSION + 'FAM:zbot\tinfosteal\nFAM:darkkomet\tinfosteal\n'
    rules = load_rules(BASE_TAGGING, expansion, taxonomy)
    reports = [two_engine_report(label, n) for n, label in
               enumerate(['zbot.dloader', 'trojan.ircbot.skodna', 'bitcoinminer.win',
                          'darkkomet.zbot'])]
    kb = CompiledKB(taxonomy, rules)
    indexed_analyze(reports[0], kb)
    rules_copy = pickle.loads(pickle.dumps(rules))
    kb_copy = pickle.loads(pickle.dumps(kb))
    assert rules_copy == rules and kb_copy.index == kb.index
    assert_matches_reference(reports, rules_copy, taxonomy, kb=kb_copy)
    assert ([indexed_analyze(report, kb_copy) for report in reports]
            == [indexed_analyze(report, kb) for report in reports])


def test_threads_sharing_one_rule_set_match_reference():
    '''Threads that fill one CompiledKB's index at the same time all see complete entries.'''
    families = ['fam%03dx' % n for n in range(300)]
    taxonomy = load_taxonomy(''.join('CLASS:worm:%s\n' % name for name in families))
    rules = load_rules('', '', taxonomy)
    kb = CompiledKB(taxonomy, rules)
    reports = [SampleReport(sample_id(n), {'A': families[n], 'B': '.'.join(families[n:n + 3])})
               for n in range(len(families))]
    want = [reference_analyze(report, rules, taxonomy) for report in reports]
    start = threading.Barrier(8)

    def label_all():
        start.wait(timeout=60)
        return [indexed_analyze(report, kb) for report in reports]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(label_all) for _ in range(8)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert results == [want] * 8


def test_update_then_relabel_matches_reference():
    '''Labels, mines the counted relations, updates the KB, labels again.'''
    taxonomy = load_taxonomy(MATRIX_TAXONOMY)
    rules = load_rules('', 'FAM:virlock\tvirus\n', taxonomy)
    corpus = {'fynloski.darkkomet': 30, 'darkkomet': 30, 'virlock.virlocker': 30,
              'virlocker': 30, 'zeus.zbot': 30, 'zbot': 30, 'virut.virus': 30,
              'virus': 170, 'virut.virus.windows': 20}
    reports = []
    for label, copies in sorted(corpus.items()):
        reports += [two_engine_report(label, len(reports) + n) for n in range(copies)]
    old_kb = CompiledKB(taxonomy, rules)
    assert_matches_reference(reports, rules, taxonomy, kb=old_kb)

    config = UpdateConfig()
    relations = counted_relations(reports, rules, taxonomy)
    strong = parse_stats([relation.format_row() for relation in relations], config)[1]
    result = infer(strong, taxonomy, rules, config)

    new_kb = CompiledKB(result.taxonomy, result.rules)
    assert_matches_reference(reports, result.rules, result.taxonomy, kb=new_kb)
    before = [indexed_analyze(r, old_kb)[0] for r in reports]
    after = [indexed_analyze(r, new_kb)[0] for r in reports]
    changed = {line.split('\t', 1)[1] for line, old in zip(after, before) if line != old}
    # virlock and zeus were indexed as families of their own before the update
    assert changed == {'FAM:darkkomet|2',                # fynloski became an alias
                       'CLASS:virus|2,FAM:virlocker|2',  # virlock retired into virlocker
                       'FAM:zbot|2'}                     # zeus retired into zbot


# ---------------------------------------------------------------------------
# stats rows against a naive orientation and sort


def reference_stats_rows(samples):
    '''Sorted (t_i, t_j, |t_i|, |t_j|, |(t_i,t_j)|, rel_ij, rel_ji) of the samples' pairs.

    Items and pairs are counted here from the item lists, each item once per
    sample whichever form it is given in, so the counting is checked along
    with the rows.  t_i is the less frequent endpoint, the lexicographically
    smaller one on a tie.
    '''
    item_counts = {}
    pair_counts = {}
    for items in samples:
        texts = {str(item) for item in items}
        for a in texts:
            item_counts[a] = item_counts.get(a, 0) + 1
            for b in texts:
                if a < b:
                    pair_counts[a, b] = pair_counts.get((a, b), 0) + 1
    rows = []
    for (a, b), count_ab in pair_counts.items():
        count_a = item_counts[a]
        count_b = item_counts[b]
        if (count_a, a) > (count_b, b):
            a, b, count_a, count_b = b, a, count_b, count_a
        rows.append((a, b, count_a, count_b, count_ab, count_ab / count_a, count_ab / count_b))
    return sorted(rows)


#: endpoints of which some are prefixes of others, as strings or as parsed items
stats_endpoints = st.sampled_from(['UNK:abcd', 'UNK:abcde', 'UNK:abcdz', 'FAM:zbot',
                                   'FAM:zbota', 'FAM:zbo', 'CLASS:worm', 'FILE:OS:windows']
                                  ).flatmap(lambda text: st.sampled_from([text, parse_item(text)]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.lists(st.lists(stats_endpoints, max_size=7), max_size=10),
                      min_size=1, max_size=3))
def test_stats_rows_match_naive_sort(parts):
    '''write_stats against the reference, per part and merged; parse_stats reads it back.'''
    counters = []
    for samples in parts:
        counter = CooccurrenceCounter()
        for items in samples:  # a sample may name an item twice, in either form
            counter.add_items(items)
        counters.append(counter)
    merged = CooccurrenceCounter()
    for counter in counters:
        merged.merge(counter)
    for counter, samples in zip(counters + [merged], parts + [sum(parts, [])]):
        want = reference_stats_rows(samples)
        out = io.StringIO()
        assert counter.write_stats(out) == len(want)
        assert out.getvalue() == ''.join(
            [STATS_HEADER + '\n'] + [_STATS_ROW % row + '\n' for row in want])
        assert [tuple(relation)
                for relation in parse_stats(out.getvalue().splitlines())[1]] == want
