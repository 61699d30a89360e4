'''Per-sample labeling pipeline and dataset-level co-occurrence statistics.

For every engine label of a sample: tokenize, apply tagging rules, expand.
Every item (tag or unknown token) is counted once per engine whose label
produced it; items counted fewer than two times are pruned.  The same
per-engine item extraction, taken before expansion, feeds the co-occurrence
counters used by the update engine.  label_reports is the one loop that runs
this over a stream of reports.  It ranks a sample only for a tags or compat
sink, so a statistics-only run builds no ranking.  CooccurrenceCounter keeps
each item's sample count and each sample's sorted item list, and counts no
pair while labeling; write_stats counts them, item by item, as it writes the
stats file in sorted order, one write per less frequent endpoint t_i,
formatting each distinct count triple once.  Most items of AV labels are seen
in one sample, and such an item's pairs are read straight off that sample, so
writing holds little more than the counter, and leaves it as it was.  The
stats file is the one bridge to the update engine, which reads it back with
updater.parse_stats.

Expansion distributes over union, so each token's items are computed once per
knowledge base and then looked up.  Labeling runs on a CompiledKB: a snapshot
of a taxonomy and rule set, plus a token index keyed by every token that hits
a tagging rule or a tag name.  On a token's first sighting its value is filled
with its (pre-expansion items, expanded items), computed by tag_tokens and
expand and stored as frozensets of canonical item strings (``FAM:zbot``,
``CLASS:worm``); when expansion adds nothing, both are one frozenset.  Other
tokens are never stored, since they are unbounded; a kept unknown token is
collected bare and becomes ``UNK:<token>`` only if it survives the engine
count filter.
Labeling a label is then tokenize, index lookup and set union.  Ranking items
and counted items are therefore plain canonical strings.  A TagPath or
UnknownToken equals its canonical string, but the index stores exact str
values, which keep CPython's fast string paths for the dicts and sets built
from them.
'''

import itertools
from collections import Counter, namedtuple

from .taxonomy import _UNKNOWN_PREFIX, UNKNOWN_CATEGORY
from .tokenizer import tokenize

#: unknown tokens shorter than this are dropped (after tagging, not before)
MIN_UNKNOWN_LEN = 4

#: items must be produced by at least this many engines to survive
MIN_ENGINES = 2

STATS_HEADER = 't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji'

#: the count columns of one stats row: |t_i|, |t_j|, |(t_i,t_j)|, rel_ij, rel_ji
_STATS_COUNTS = '\t%d\t%d\t%d\t%.6f\t%.6f'

#: token index lookup default: the token hits no tagging rule and no tag name
_NOT_KNOWN = object()

#: characters that would break a line or a field of the TSV outputs
_ID_FORBIDDEN = ('\t', '\r', '\n')


class SampleReport(namedtuple('SampleReport', 'sample_id av_labels')):
    '''One input sample: id (preferring sha256) plus engine -> raw label map.'''

    __slots__ = ()

    HASH_FIELDS = ('sha256', 'sha1', 'md5')

    @classmethod
    def from_dict(cls, obj):
        '''Builds a report from one decoded JSONL object; raises ValueError if unusable.'''
        if not isinstance(obj, dict):
            raise ValueError('sample is not a JSON object')
        sample_id = None
        for field in cls.HASH_FIELDS:
            value = obj.get(field)
            if isinstance(value, str) and value.strip():
                sample_id = value.strip()
                break
        if sample_id is None:
            raise ValueError('no usable hash field (%s)' % '/'.join(cls.HASH_FIELDS))
        if any(char in sample_id for char in _ID_FORBIDDEN):
            raise ValueError('sample id contains a TAB, CR or LF')
        try:
            sample_id.encode('utf-8')
        except UnicodeEncodeError:  # a lone surrogate, which JSON escapes can spell
            raise ValueError('sample id is not encodable as UTF-8') from None
        raw_labels = obj.get('av_labels')
        if raw_labels is None:
            raw_labels = {}
        if not isinstance(raw_labels, dict):
            raise ValueError('av_labels is not an object')
        av_labels = {}
        for engine, label in raw_labels.items():
            # tolerate dirty dumps: keep only usable engine/label string pairs
            if isinstance(engine, str) and engine and isinstance(label, str):
                av_labels[engine] = label
        return cls(sample_id, av_labels)


#: an output item and the number of engines whose labels produced it
TagAssignment = namedtuple('TagAssignment', 'item count')


def tag_tokens(tokens, rules, taxonomy):
    '''Maps tokens to (tags, unknown tokens).

    Per token: an explicit tagging rule wins (a generic rule drops the token);
    otherwise a token equal to a unique tag name maps implicitly; otherwise the
    token is unknown.  Unknown tokens shorter than MIN_UNKNOWN_LEN are dropped
    only at this point, so short tokens can still match rules and tag names.
    This is the reference the token index is filled from.
    '''
    tags = set()
    unknowns = set()
    for token in tokens:
        dests = rules.tagging.get(token)
        if dests is not None:
            tags.update(dests)
            continue
        path = taxonomy.resolve_name(token)
        if path is not None:
            tags.add(path)
        elif len(token) >= MIN_UNKNOWN_LEN:
            unknowns.add(token)
    return tags, unknowns


def expand(tags, rules, taxonomy):
    '''Least fixed point of expansion rules plus taggable taxonomy ancestors.'''
    result = set(tags)
    queue = list(tags)
    while queue:
        tag = queue.pop()
        for target in rules.expansion.get(tag, ()):
            if target not in result:
                result.add(target)
                queue.append(target)
        for ancestor in taxonomy.tag_ancestors(tag):
            if ancestor not in result:
                result.add(ancestor)
                queue.append(ancestor)
    return result


class CompiledKB:
    '''A knowledge base compiled for labeling: copies of a taxonomy and rule set.

    `index` maps every tagging-rule token and tag name to its entry, None
    until the token is first seen: then the token's (pre-expansion items,
    expanded items), frozensets of canonical item strings that are one object
    when expansion adds nothing.  A token that is no key is unknown, and
    analyze_sample prefixes ``UNK:`` only to the ones that survive.  The
    copies make the object a snapshot: editing the taxonomy or rules it was
    compiled from leaves it as it was, so compile again to label with the
    edited knowledge base.  One compiled object can be shared by threads and
    corpus partitions.
    '''

    __slots__ = ('taxonomy', 'rules', 'index')

    def __init__(self, taxonomy, rules):
        self.taxonomy = taxonomy.copy()
        self.rules = rules.copy()
        self.index = dict.fromkeys(itertools.chain(self.rules.tagging,
                                                   self.taxonomy.tag_names()))


def _index_token(kb, token):
    '''Stores and returns the index entry of a token that hits a rule or a tag name.'''
    tags, _ = tag_tokens((token,), kb.rules, kb.taxonomy)
    raw = frozenset(map(str, tags))
    expanded = frozenset(map(str, expand(tags, kb.rules, kb.taxonomy)))
    entry = (raw, raw if expanded == raw else expanded)
    kb.index[token] = entry
    return entry


def analyze_sample(report, kb, allowlist=None, with_stats=False, with_ranking=True):
    '''One pass over a sample's labels: (ranking, pre-expansion stat items).

    The ranking is a list of TagAssignment(item, count), by descending count,
    then item; it uses post-expansion items.  The statistics item set uses the
    pre-expansion union, both under the same >= MIN_ENGINES presence filter.
    The first element is None unless with_ranking is set (the default), the
    second None unless with_stats is set.  Items are canonical strings.

    Each label builds one set, its pre-expansion items; the items expansion
    adds are unioned in only for the ranking.  A kept unknown token enters
    bare (a token holds no ':', an item string does), and only a survivor
    gets its ``UNK:`` prefix, before the sort: ``7zipper`` ranks as
    ``UNK:7zipper``, after every tag of its count.

    `kb` is a CompiledKB; labeling fills its token index and reads the
    knowledge base as it was when `kb` was compiled.
    '''
    index = kb.index
    expanded_items = []
    raw_items = []
    labels = (report.av_labels.values() if allowlist is None else
              [label for engine, label in report.av_labels.items() if engine.lower() in allowlist])
    for label in labels:
        raw = set()  # the label's pre-expansion items, a kept unknown token bare
        added = None  # the union of the expanded entries that add items
        for token in tokenize(label):
            entry = index.get(token, _NOT_KNOWN)
            if entry is _NOT_KNOWN:
                if len(token) >= MIN_UNKNOWN_LEN:
                    raw.add(token)
                continue
            if entry is None:
                entry = _index_token(kb, token)
            raw |= entry[0]
            if entry[1] is not entry[0]:
                added = entry[1] if added is None else added | entry[1]
        if with_ranking:
            expanded_items.extend(raw if added is None else raw | added)
        if with_stats:
            raw_items.extend(raw)
    ranking = stat_items = None
    if with_ranking:
        ranked = sorted((-count, item if ':' in item else _UNKNOWN_PREFIX + item)
                        for item, count in Counter(expanded_items).items()
                        if count >= MIN_ENGINES)
        ranking = [TagAssignment(item, -key) for key, item in ranked]
    if with_stats:
        stat_items = {item if ':' in item else _UNKNOWN_PREFIX + item
                      for item, count in Counter(raw_items).items() if count >= MIN_ENGINES}
    return ranking, stat_items


def compat_family(ranking):
    '''Single most likely family: best-ranked FAM tag or unknown token, or None.

    At equal engine count a family tag beats an unknown token, then the
    lexicographically smallest name wins.  Ranking items are item strings,
    as analyze_sample produces them.
    '''
    best_key = None
    for item, count in ranking:
        category, _, rest = item.partition(':')
        if category == 'FAM':
            candidate = (-count, 0, rest.rpartition(':')[2])
        elif category == UNKNOWN_CATEGORY:
            candidate = (-count, 1, rest)
        else:
            continue
        if best_key is None or candidate < best_key:
            best_key = candidate
    return None if best_key is None else best_key[2]


def format_tags_line(sample_id, ranking):
    '''`<sample_id>\\t<item>|<count>,...`; bare sample_id when the ranking is empty.'''
    items = ','.join('%s|%d' % entry for entry in ranking)
    return '%s\t%s' % (sample_id, items) if items else sample_id


def format_compat_line(sample_id, family):
    '''`<sample_id>\\t<family>`, with a SINGLETON placeholder when family is None.'''
    if family is None:
        return '%s\tSINGLETON:%s' % (sample_id, sample_id)
    return '%s\t%s' % (sample_id, family)


class CooccurrenceCounter:
    '''Streaming per-item sample counts plus each sample's item list.

    item_counts maps each item string to its sample count; samples holds the
    sorted item list of every sample of two or more items, the only ones that
    hold a pair.  No pair is counted until write_stats, so a pair costs
    nothing while counting, and a pair with an item seen in one sample is
    never stored at all.  add_items ingests one sample's item set; merge
    combines counters built over disjoint partitions (commutative and
    associative, so parallel workers can each build one and merge in any
    order).
    '''

    def __init__(self):
        self.item_counts = Counter()
        self.samples = []

    def add_items(self, items):
        '''Counts one sample's items (strings or TagPath/UnknownToken items), each once.'''
        ordered = sorted(set(map(str, items)))
        self.item_counts.update(ordered)
        if len(ordered) > 1:
            self.samples.append(ordered)

    def merge(self, other):
        self.item_counts.update(other.item_counts)
        self.samples.extend(other.samples)
        return self

    def write_stats(self, handle):
        '''Writes the stats file to a text handle; returns the row count.

        The file is STATS_HEADER, then one row per counted pair, sorted by
        (t_i, t_j), t_i the less frequent endpoint (ties: the smaller string).
        One pass over the samples lists the samples that hold each item.  Items
        are then walked in sorted order, and each one's rows, the pairs it is
        t_i of, go out as one group, in one write.  An item seen in one sample
        reads its rows off that sample, each with joint count 1; any other item
        counts its partners over its samples in one Counter.  The count columns
        are formatted once per distinct (|t_i|, |t_j|, |(t_i,t_j)|), cached per
        |t_i| by (|t_j|, |(t_i,t_j)|).  Writing leaves the counter unchanged.
        '''
        item_counts = self.item_counts
        once = {}  # an item seen in one sample -> that sample
        # any other item -> the samples that hold it (those of one item hold no pair)
        holders = {item: [] for item, count in item_counts.items() if count > 1}
        for ordered in self.samples:
            for item in ordered:
                samples = holders.get(item)
                if samples is None:
                    once[item] = ordered
                else:
                    samples.append(ordered)
        counts_text = {}  # |t_i| -> {(|t_j|, |(t_i,t_j)|): its formatted columns}
        written = 0
        handle.write(STATS_HEADER + '\n')
        for t_i in sorted(itertools.chain(once, holders)):
            count_i = item_counts[t_i]
            texts = counts_text.get(count_i)
            if texts is None:
                texts = counts_text[count_i] = {}
            parts = []
            ordered = once.get(t_i)
            if ordered is not None:
                # every item of the sample is a partner, but one seen once that is not larger
                for t_j in ordered:
                    count_j = item_counts[t_j]
                    if count_j > 1 or t_j > t_i:
                        counts = (count_j, 1)
                        parts.append(t_j + (texts.get(counts) or _counts_text(texts, 1, counts)))
            else:
                joint = Counter(itertools.chain.from_iterable(holders[t_i]))
                key_i = (count_i, t_i)
                for t_j in sorted([t_j for t_j in joint if (item_counts[t_j], t_j) > key_i]):
                    counts = (item_counts[t_j], joint[t_j])
                    parts.append(t_j + (texts.get(counts) or _counts_text(texts, count_i, counts)))
            if parts:
                prefix = t_i + '\t'
                handle.write(prefix + prefix.join(parts))
                written += len(parts)
        return written


def _counts_text(texts, count_i, counts):
    '''Formats a row's count columns and line end into `texts`; counts = (|t_j|, |(t_i,t_j)|).'''
    count_j, joint = counts
    text = texts[counts] = _STATS_COUNTS % (count_i, count_j, joint,
                                            joint / count_i, joint / count_j) + '\n'
    return text


def label_reports(reports, kb, allowlist=None, tags_out=None, compat_out=None, counter=None):
    '''Labels a report stream, one report at a time; returns how many were labeled.

    Reports are labeled with `kb`, a CompiledKB.  Each report's tag line goes
    to `tags_out` and its compat line to `compat_out` (text handles), and its
    pre-expansion items are counted into `counter` (a CooccurrenceCounter); a
    sink left None is skipped, and with neither `tags_out` nor `compat_out` no
    ranking is built.
    '''
    with_stats = counter is not None
    with_ranking = tags_out is not None or compat_out is not None
    labeled = 0
    for report in reports:
        ranking, stat_items = analyze_sample(report, kb, allowlist, with_stats, with_ranking)
        labeled += 1
        if tags_out is not None:
            tags_out.write(format_tags_line(report.sample_id, ranking) + '\n')
        if compat_out is not None:
            family = compat_family(ranking)
            compat_out.write(format_compat_line(report.sample_id, family) + '\n')
        if with_stats:
            counter.add_items(stat_items)
    return labeled

