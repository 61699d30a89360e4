'''Per-sample labeling pipeline and dataset-level co-occurrence statistics.

For every engine label of a sample: tokenize, apply tagging rules, expand.
Every item (tag or unknown token) is counted once per engine whose label
produced it; items counted fewer than two times are pruned.  The same
per-engine item extraction, taken before expansion, feeds the co-occurrence
counters used by the update engine.  label_reports is the one loop that runs
this over a stream of reports.  It ranks a sample only for a tags or compat
sink, so a statistics-only run builds no ranking.  CooccurrenceCounter keeps
one row of string-keyed pair counts per item; write_stats writes the stats
file in sorted order, one group per less frequent endpoint t_i, formatting each
distinct count triple once.  The stats file is the one bridge to the update
engine, which reads it back with updater.parse_stats.

Expansion distributes over union, so each token's items are computed once per
knowledge base and then looked up.  Labeling runs on a CompiledKB: a snapshot
of a taxonomy and rule set, plus a token index keyed by every token that hits
a tagging rule or a tag name.  On a token's first sighting its value is filled
with its (pre-expansion items, expanded items), computed by tag_tokens and
expand and stored as frozensets of canonical item strings (``FAM:zbot``,
``CLASS:worm``).  Other tokens are never stored, since they are unbounded; a
kept unknown token becomes ``UNK:<token>``.
Labeling a label is then tokenize, index lookup and set union.  Ranking items
and counted items are therefore plain canonical strings.  A TagPath or
UnknownToken equals its canonical string, but the index stores exact str
values, which keep CPython's fast string paths for the dicts and sets built
from them.
'''

import itertools
from collections import Counter, defaultdict, namedtuple

from .taxonomy import UNKNOWN_CATEGORY
from .tokenizer import tokenize

#: unknown tokens shorter than this are dropped (after tagging, not before)
MIN_UNKNOWN_LEN = 4

#: items must be produced by at least this many engines to survive
MIN_ENGINES = 2

STATS_HEADER = 't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji'

#: the count columns of one stats row: |t_i|, |t_j|, |(t_i,t_j)|, rel_ij, rel_ji
_STATS_COUNTS = '\t%d\t%d\t%d\t%.6f\t%.6f'

_UNKNOWN_PREFIX = UNKNOWN_CATEGORY + ':'

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


class TagRanking:
    '''Pruned (item, count) assignments of one sample, by descending count, then item.'''

    __slots__ = ('sample_id', 'assignments')

    def __init__(self, sample_id, assignments):
        self.sample_id = sample_id
        self.assignments = assignments

    def __iter__(self):
        return iter(self.assignments)

    def __len__(self):
        return len(self.assignments)

    def format_line(self):
        '''`<sample_id>\\t<item>|<count>,...`; bare sample_id when empty.'''
        items = ','.join('%s|%d' % entry for entry in self.assignments)
        return '%s\t%s' % (self.sample_id, items) if items else self.sample_id


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
    until the token is first seen.  The copies make the object a snapshot:
    editing the taxonomy or rules it was compiled from leaves it as it was,
    so compile again to label with the edited knowledge base.  One compiled
    object can be shared by threads and corpus partitions.
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
    entry = (frozenset(map(str, tags)),
             frozenset(map(str, expand(tags, kb.rules, kb.taxonomy))))
    kb.index[token] = entry
    return entry


def analyze_sample(report, kb, allowlist=None, with_stats=False, with_ranking=True):
    '''One pass over a sample's labels: (TagRanking, pre-expansion stat items).

    The ranking uses post-expansion items; the statistics item set uses the
    pre-expansion union, both under the same >= MIN_ENGINES presence filter.
    The first element is None unless with_ranking is set (the default), the
    second None unless with_stats is set.  Items are canonical strings.

    `kb` is a CompiledKB; labeling fills its token index and reads the
    knowledge base as it was when `kb` was compiled.
    '''
    index = kb.index
    expanded_items = []
    raw_items = []
    for engine, label in report.av_labels.items():
        if allowlist is not None and engine.lower() not in allowlist:
            continue
        raw = set()
        expanded = set()
        for token in tokenize(label):
            entry = index.get(token, _NOT_KNOWN)
            if entry is _NOT_KNOWN:
                if len(token) >= MIN_UNKNOWN_LEN:
                    unknown = _UNKNOWN_PREFIX + token
                    raw.add(unknown)
                    expanded.add(unknown)
                continue
            if entry is None:
                entry = _index_token(kb, token)
            raw |= entry[0]
            expanded |= entry[1]
        if with_ranking:
            expanded_items.extend(expanded)
        if with_stats:
            raw_items.extend(raw)
    ranking = stat_items = None
    if with_ranking:
        ranked = sorted((-count, item) for item, count in Counter(expanded_items).items()
                        if count >= MIN_ENGINES)
        ranking = TagRanking(report.sample_id, [TagAssignment(item, -key) for key, item in ranked])
    if with_stats:
        stat_items = {item for item, count in Counter(raw_items).items()
                      if count >= MIN_ENGINES}
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


def format_compat_line(sample_id, family):
    '''`<sample_id>\\t<family>`, with a SINGLETON placeholder when family is None.'''
    if family is None:
        return '%s\tSINGLETON:%s' % (sample_id, sample_id)
    return '%s\t%s' % (sample_id, family)


class CooccurrenceCounter:
    '''Streaming per-item and per-pair sample counters.

    item_counts maps each item string to its sample count; pair_counts holds
    one row per item, {a: {b: |(a,b)|}} with a < b, so a pair costs one dict
    slot, not a tuple of its own.  add_items ingests one sample's item set;
    merge combines counters built over disjoint partitions (commutative and
    associative, so parallel workers can each build one and merge in any order).
    '''

    def __init__(self):
        self.item_counts = Counter()
        self.pair_counts = {}

    def add_items(self, items):
        '''Counts one sample's items (strings or TagPath/UnknownToken items), each once.'''
        ordered = sorted(set(map(str, items)))
        self.item_counts.update(ordered)
        rows = self.pair_counts
        for index, a in enumerate(ordered[:-1], 1):
            row = rows.get(a)
            if row is None:
                row = rows[a] = {}
            for b in ordered[index:]:
                row[b] = row.get(b, 0) + 1

    def merge(self, other):
        self.item_counts.update(other.item_counts)
        rows = self.pair_counts
        for a, other_row in other.pair_counts.items():
            row = rows.get(a)
            if row is None:
                rows[a] = dict(other_row)
            else:
                for b, count_ab in other_row.items():
                    row[b] = row.get(b, 0) + count_ab
        return self

    def write_stats(self, handle):
        '''Writes the stats file to a text handle; returns the row count.

        The file is STATS_HEADER, then one row per counted pair, sorted by
        (t_i, t_j), t_i the less frequent endpoint (ties: the smaller string).
        Items are walked in sorted order and each one's rows go out as one
        group, one string per row.  A row's pairs whose less frequent endpoint
        is the larger string wait in `pending` until that endpoint's turn; no
        other pair is copied.  The count columns are formatted once per
        distinct (|t_i|, |t_j|, |(t_i,t_j)|).
        '''
        item_counts = self.item_counts
        rows = self.pair_counts
        pending = defaultdict(dict)  # t_i -> {t_j: |(t_i,t_j)|} for t_j < t_i, filled in order
        counts_row = _STATS_COUNTS + '\n'
        counts_text = {}  # (|t_i|, |t_j|, |(t_i,t_j)|) -> its formatted columns
        written = 0
        handle.write(STATS_HEADER + '\n')
        for t_i in sorted(item_counts):
            count_i = item_counts[t_i]
            group = pending.pop(t_i, None) or {}
            for t_j, count_ij in rows.get(t_i, {}).items():
                if count_i <= item_counts[t_j]:
                    group[t_j] = count_ij
                else:
                    pending[t_j][t_i] = count_ij
            prefix = t_i + '\t'
            lines = []
            for t_j in sorted(group):
                counts = (count_i, item_counts[t_j], group[t_j])
                text = counts_text.get(counts)
                if text is None:
                    text = counts_text[counts] = counts_row % (
                        counts + (counts[2] / counts[0], counts[2] / counts[1]))
                lines.append(prefix + t_j + text)
            handle.writelines(lines)
            written += len(lines)
        return written


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
            tags_out.write(ranking.format_line() + '\n')
        if compat_out is not None:
            family = compat_family(ranking)
            compat_out.write(format_compat_line(report.sample_id, family) + '\n')
        if with_stats:
            counter.add_items(stat_items)
    return labeled

