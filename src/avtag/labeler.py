'''Per-sample labeling pipeline and dataset-level co-occurrence statistics.

For every engine label of a sample: tokenize, apply tagging rules, expand.
Every item (tag or unknown token) remembers the set of engines whose label
produced it; items seen by fewer than two engines are pruned.  The same
per-engine item extraction, taken before expansion, feeds the co-occurrence
counters used by the update engine.

Expansion distributes over union, so each token's items are computed once per
knowledge base and then looked up.  A token index, filled lazily, maps every
token that hits a tagging rule or a tag name to its (pre-expansion items,
expanded items), computed by tag_tokens and expand and stored as frozensets of
canonical item strings (``FAM:zbot``, ``CLASS:worm``).  Other tokens are never
stored, since they are unbounded; a kept unknown token becomes ``UNK:<token>``.
Labeling a label is then tokenize, index lookup and set union.  Ranking items
and the endpoints of the relations that labeling produces are therefore
canonical strings, not TagPath/UnknownToken objects; see analyze_sample for
when the index is rebuilt.
'''

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass

from .taxonomy import UNKNOWN_CATEGORY
from .tokenizer import tokenize

#: unknown tokens shorter than this are dropped (after tagging, not before)
MIN_UNKNOWN_LEN = 4

#: items must be produced by at least this many engines to survive
MIN_ENGINES = 2

STATS_HEADER = 't_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji'

_UNKNOWN_PREFIX = UNKNOWN_CATEGORY + ':'

#: characters that would break a line or a field of the TSV outputs
_ID_FORBIDDEN = ('\t', '\r', '\n')


@dataclass(slots=True)
class SampleReport:
    '''One input sample: id (preferring sha256) plus engine -> raw label map.'''

    sample_id: str
    av_labels: dict

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


@dataclass(slots=True)
class TagAssignment:
    '''An output item together with the engines whose labels produced it.'''

    item: str
    engines: frozenset

    def __post_init__(self):
        self.engines = frozenset(self.engines)

    @property
    def count(self):
        return len(self.engines)


@dataclass(slots=True)
class TagRanking:
    '''Pruned assignments of one sample, ordered by engine count.'''

    sample_id: str
    assignments: list

    def __iter__(self):
        return iter(self.assignments)

    def __len__(self):
        return len(self.assignments)

    def format_line(self):
        '''`<sample_id>\\t<item>|<count>,...`; bare sample_id when empty.'''
        if not self.assignments:
            return self.sample_id
        items = ','.join('%s|%d' % (a.item, a.count) for a in self.assignments)
        return '%s\t%s' % (self.sample_id, items)


@dataclass(slots=True)
class Relation:
    '''Seven-value co-occurrence record for one unordered item pair.

    t_i is the less frequent item (ties broken lexicographically), therefore
    rel_ij >= rel_ji always holds.  The endpoints are canonical item strings
    when counted by CooccurrenceCounter, TagPath/UnknownToken items when
    parsed by the updater; str() gives the canonical string of either.
    Equality compares the fields as given; as_tuple() compares across forms.
    '''

    t_i: object
    t_j: object
    count_i: int
    count_j: int
    count_ij: int
    rel_ij: float
    rel_ji: float

    def key(self):
        '''Canonical (t_i, t_j) strings.'''
        return (str(self.t_i), str(self.t_j))

    def as_tuple(self):
        return self.key() + (self.count_i, self.count_j, self.count_ij,
                             self.rel_ij, self.rel_ji)

    def format_row(self):
        return '%s\t%s\t%d\t%d\t%d\t%.6f\t%.6f' % (
            self.t_i, self.t_j, self.count_i, self.count_j, self.count_ij,
            self.rel_ij, self.rel_ji)


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
        rule = rules.tagging.get(token)
        if rule is not None:
            tags.update(rule.destinations)
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
        rule = rules.expansion.get(tag)
        if rule is not None:
            for target in rule.targets:
                if target not in result:
                    result.add(target)
                    queue.append(target)
        for ancestor in taxonomy.tag_ancestors(tag):
            if ancestor not in result:
                result.add(ancestor)
                queue.append(ancestor)
    return result


def _token_index(rules, taxonomy):
    '''The token index kept on the rule set; a new, empty one if the knowledge base changed.'''
    # holding the objects keeps their ids from being reused by new ones; threads
    # that race here lose at most some entries, which are then recomputed
    kb = (taxonomy, rules.tagging, rules.expansion)
    sizes = (len(taxonomy), len(rules.tagging), len(rules.expansion))
    cached = rules.token_index
    if cached is None or cached[1] != sizes or any(a is not b for a, b in zip(cached[0], kb)):
        cached = rules.token_index = (kb, sizes, {})
    return cached[2]


def _index_token(index, token, rules, taxonomy):
    '''Stores and returns the entry of a token that hits a rule or a tag name, else None.'''
    if token not in rules.tagging and taxonomy.resolve_name(token) is None:
        return None
    tags, _ = tag_tokens((token,), rules, taxonomy)
    entry = (frozenset(map(str, tags)), frozenset(map(str, expand(tags, rules, taxonomy))))
    index[token] = entry
    return entry


def analyze_sample(report, rules, taxonomy, allowlist=None, with_stats=False):
    '''One pass over a sample's labels: (TagRanking, pre-expansion stat items).

    The ranking uses post-expansion items; the statistics item set uses the
    pre-expansion union, both under the same >= MIN_ENGINES presence filter.
    The second element is None unless with_stats is set.  Items are canonical
    strings.

    Token entries are cached on `rules` (RuleSet.token_index).  The index is
    dropped when `taxonomy`, `rules.tagging` or `rules.expansion` is another
    object than in the previous call with these rules, or when one of them
    changed size.  Adding a rule or a taxonomy node in place is therefore
    seen; replacing an existing rule or node in place is not, so label with a
    copy() of the edited object after such an edit.
    '''
    index = _token_index(rules, taxonomy)
    expanded_engines = defaultdict(list)
    raw_items = []
    for engine, label in report.av_labels.items():
        if allowlist is not None and engine.lower() not in allowlist:
            continue
        raw = set()
        expanded = set()
        for token in tokenize(label):
            entry = index.get(token)
            if entry is None:
                entry = _index_token(index, token, rules, taxonomy)
                if entry is None:
                    if len(token) >= MIN_UNKNOWN_LEN:
                        unknown = _UNKNOWN_PREFIX + token
                        raw.add(unknown)
                        expanded.add(unknown)
                    continue
            raw |= entry[0]
            expanded |= entry[1]
        for item in expanded:
            expanded_engines[item].append(engine)
        if with_stats:
            raw_items.extend(raw)
    ranked = sorted((-len(engines), item, engines)
                    for item, engines in expanded_engines.items()
                    if len(engines) >= MIN_ENGINES)
    ranking = TagRanking(report.sample_id,
                         [TagAssignment(item, engines) for _, item, engines in ranked])
    stat_items = None
    if with_stats:
        stat_items = {item for item, count in Counter(raw_items).items()
                      if count >= MIN_ENGINES}
    return ranking, stat_items


def label_sample(report, rules, taxonomy, allowlist=None):
    '''Tokenize, tag and expand every engine label; prune and rank the items.'''
    ranking, _ = analyze_sample(report, rules, taxonomy, allowlist)
    return ranking


def compat_family(ranking):
    '''Single most likely family: best-ranked FAM tag or unknown token, or None.

    At equal engine count a family tag beats an unknown token, then the
    lexicographically smallest name wins.  Ranking items are item strings,
    as analyze_sample produces them.
    '''
    best_key = None
    for assignment in ranking:
        category, _, rest = assignment.item.partition(':')
        if category == 'FAM':
            candidate = (-assignment.count, 0, rest.rpartition(':')[2])
        elif category == UNKNOWN_CATEGORY:
            candidate = (-assignment.count, 1, rest)
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

    add_items ingests one sample's item set; merge combines counters built over
    disjoint partitions (commutative and associative, so parallel workers can
    each build one and merge in any order).
    '''

    def __init__(self):
        self.item_counts = Counter()
        self.pair_counts = Counter()

    def add_items(self, items):
        '''Counts one sample's item set: item strings or TagPath/UnknownToken items.'''
        ordered = sorted(map(str, items))
        self.item_counts.update(ordered)
        self.pair_counts.update(itertools.combinations(ordered, 2))

    def merge(self, other):
        self.item_counts.update(other.item_counts)
        self.pair_counts.update(other.pair_counts)
        return self

    def relations(self):
        '''Finalizes orientation (t_i least frequent) and joint frequencies.'''
        item_counts = self.item_counts
        rows = []
        for (a, b), count_ab in self.pair_counts.items():
            count_a = item_counts[a]
            count_b = item_counts[b]
            # a < b, since add_items counts each pair in sorted order
            if count_a <= count_b:
                rows.append((a, b, count_a, count_b, count_ab))
            else:
                rows.append((b, a, count_b, count_a, count_ab))
        rows.sort()
        return [Relation(t_i, t_j, count_i, count_j, count_ij,
                         count_ij / count_i, count_ij / count_j)
                for t_i, t_j, count_i, count_j, count_ij in rows]


def cooccurrence_stats(reports, rules, taxonomy, allowlist=None):
    '''Relations over a report stream (pre-expansion items, >= 2-engine filter).'''
    counter = CooccurrenceCounter()
    for report in reports:
        _, items = analyze_sample(report, rules, taxonomy, allowlist, with_stats=True)
        counter.add_items(items)
    return counter.relations()


def format_stats(relations):
    '''Stats TSV content: header plus one row per relation, sorted.'''
    lines = [STATS_HEADER]
    lines.extend(r.format_row() for r in sorted(relations, key=Relation.key))
    return '\n'.join(lines) + '\n'
