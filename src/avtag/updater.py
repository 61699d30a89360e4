'''Co-occurrence-driven updates to the taxonomy and rule files.

Strong relations (enough support, high joint frequency) are run through a
category-pair rule matrix: unknown tokens become new families, aliases, or
file-property tags; leftover tag-to-tag relations become expansion rules; any
pair the matrix does not cover is reported for manual review.
'''

import collections
import itertools

from .labeler import _STATS_COUNTS, STATS_HEADER
from .ruleset import RuleError, _check_expansion_acyclic
from .taxonomy import (UNKNOWN_CATEGORY, TagPath, TaxonomyError, UnknownToken, content_lines,
                       is_taggable, parse_item)

DEFAULT_MIN_COUNT = 20
DEFAULT_MIN_REL = 0.94

#: one stats row: t_i, t_j, then the count columns
_STATS_ROW = '%s\t%s' + _STATS_COUNTS


class UpdateConfig(collections.namedtuple('UpdateConfig', 'n T')):
    '''Strength thresholds: minimum per-item support n, minimum joint frequency T.'''

    __slots__ = ()

    def __new__(cls, n=DEFAULT_MIN_COUNT, T=DEFAULT_MIN_REL):
        if n < 1:
            raise ValueError('n must be >= 1, got %r' % (n,))
        if not 0 < T <= 1:
            raise ValueError('T must be in (0, 1], got %r' % (T,))
        return super().__new__(cls, n, T)

    @classmethod
    def _make(cls, iterable):  # named tuples' _replace builds through _make: check it too
        return cls(*iterable)


class Relation(collections.namedtuple(
        'Relation', 't_i t_j count_i count_j count_ij rel_ij rel_ji')):
    '''Seven-value co-occurrence record for one unordered item pair, as parse_stats reads it.

    t_i is the less frequent item, therefore rel_ij >= rel_ji always holds.  Of
    two equally frequent items, t_i is the one the stats row names first:
    `label` writes the smaller string first, but parse_stats keeps a tied row's
    order whichever it is, and that order picks the update action.  The
    endpoints are TagPath/UnknownToken items, each its canonical string.
    '''

    __slots__ = ()

    def key(self):
        '''The (t_i, t_j) endpoints, which sort as their canonical strings.'''
        return self[:2]

    def format_row(self):
        return _STATS_ROW % self


class ChangeLog(collections.namedtuple('ChangeLog', (
        'taxonomy_added taxonomy_removed tagging_added tagging_removed'
        ' expansion_added expansion_removed'))):
    '''Added/removed entries per artifact; expansion entries are (source, target) edges.

    `ChangeLog()` starts with six new empty lists.  An artifact is dirty, its
    file to be written anew, when the log holds an entry for it.
    '''

    __slots__ = ()

    def __new__(cls, *lists):
        return super().__new__(cls, *(lists or ([] for _ in cls._fields)))

    def total(self):
        return sum(map(len, self))

    @property
    def taxonomy_dirty(self):
        return bool(self.taxonomy_added or self.taxonomy_removed)

    @property
    def tagging_dirty(self):
        return bool(self.tagging_added or self.tagging_removed)

    @property
    def expansion_dirty(self):
        return bool(self.expansion_added or self.expansion_removed)


#: a strong relation that no update rule applied to, and why
Unhandled = collections.namedtuple('Unhandled', 'relation reason')

#: infer's updated artifacts, their change log, and each strong relation by fate
UpdateResult = collections.namedtuple('UpdateResult', (
    'taxonomy rules changes unhandled consumed_known consumed_equivalence'
    ' consumed_topblock consumed_expansion'))


class _Items(dict):
    '''Parsed endpoints by their text: a missing key is parsed, stored and returned.

    With a taxonomy, a text that is one of its tags is stored as that node
    object, so the relations hold no second copy of it.
    '''

    __slots__ = ('_resolve_name',)

    def __init__(self, taxonomy=None):
        super().__init__()
        self._resolve_name = {}.get if taxonomy is None else taxonomy.resolve_name

    def __missing__(self, text):
        node = self._resolve_name(text.rpartition(':')[2])  # the name index holds tags only
        item = self[text] = node if node == text else parse_item(text)
        return item


def parse_stats(lines, config=None, taxonomy=None):
    '''Parses stats TSV lines back into Relations; returns (rows, relations, strong).

    `lines` is any iterable of text lines, such as an open file.  Each is split
    again with str.splitlines, so rows are read and numbered as content_lines
    reads the whole text's lines.  Every row is checked, in file order.  `rows`
    counts the relation rows and `strong` those that pass the `config`'s
    thresholds.  With a `config`, `relations` keeps the strong ones that have no
    endpoint under FILE:OS, the relations `update` mines, so memory grows with
    them and with the distinct endpoints, each parsed once, not with the rows.
    Without one it keeps every row, and `strong == rows`.  Equal counts of the
    kept relations are one int object.  With a `taxonomy`, an endpoint that is
    one of its tags is the taxonomy's own node; the relations are equal either
    way.

    The rel columns are recomputed from the integer counts so that threshold
    comparisons never depend on the 6-decimal formatting; rows violating
    count_i <= count_j are normalized by swapping endpoints, and a row of equal
    counts keeps its endpoints in file order.
    '''
    if isinstance(lines, str):
        raise TypeError('parse_stats takes an iterable of lines, not one str')
    # every consistent row has count_i >= 1 and rel_ij > 0, so no config keeps all
    n, T = (1, 0) if config is None else config
    items = _Items(taxonomy)
    share = {}.setdefault  # each count of a kept row -> the one int the relations share
    relations = []
    rows = strong = 0
    # ''.splitlines() is empty, but '' is one blank line in a list like text.splitlines()
    split = itertools.chain.from_iterable(line.splitlines() or (line,) for line in lines)
    for lineno, line in content_lines(split):
        fields = line.split('\t')
        if fields[0] == 't_i':
            continue
        if len(fields) != 7:
            raise ValueError('stats line %d: expected 7 tab-separated fields' % lineno)
        try:
            t_i = items[fields[0]]
            t_j = items[fields[1]]
            count_i, count_j, count_ij = int(fields[2]), int(fields[3]), int(fields[4])
        except (TaxonomyError, ValueError) as exc:
            raise ValueError('stats line %d: %s' % (lineno, exc)) from None
        if count_ij < 1 or count_ij > min(count_i, count_j):
            raise ValueError('stats line %d: inconsistent counts %d/%d/%d'
                             % (lineno, count_i, count_j, count_ij))
        rows += 1
        if count_i > count_j:
            t_i, t_j, count_i, count_j = t_j, t_i, count_j, count_i
        rel_ij = count_ij / count_i
        if count_i < n or rel_ij < T:
            continue
        strong += 1
        if config is None or not (_under_os(t_i) or _under_os(t_j)):
            # tuple.__new__ skips the named tuple's Python-level __new__
            relations.append(tuple.__new__(Relation, (
                t_i, t_j, share(count_i, count_i), share(count_j, count_j),
                share(count_ij, count_ij), rel_ij, count_ij / count_j)))
    return rows, relations, strong


def _under_os(item):
    '''True for FILE:OS and every item below it: operating-system tags co-occur with all.'''
    return (item + ':').startswith('FILE:OS:')


def is_equivalent(relation, config):
    '''A strong relation whose joint frequency passes T in both directions.'''
    return relation.rel_ji >= config.T


def resolve_item(item, taxonomy, rules):
    '''Canonical form of a relation endpoint against the current knowledge base.

    A tag still present in the taxonomy is canonical as-is, and so is a path
    whose name is structural, which no rule or tag can be named after.
    Otherwise the item's name is read in one lookup, as tag_tokens reads a
    token (rules hold no chains: load_rules collapses them, add_alias writes
    none): a single-destination tagging rule gives its tag, any other name
    goes to the taxonomy's name index, and a name with no home is an unknown
    token, the item itself when it is one.  Returns None for a generic or
    multi-destination rule: such a token is already fully covered, so
    relations about it carry no news.
    '''
    name = item.name
    if item in taxonomy or name[:1].isupper():  # a valid structural name starts A-Z
        return item
    dests = rules.tagging.get(name)
    if dests is None:  # most endpoints: no rule names them
        found = taxonomy.resolve_name(name)
        if found is not None:
            return found
        return item if isinstance(item, UnknownToken) else UnknownToken(name)
    return next(iter(dests)) if len(dests) == 1 else None


def _known_resolved(a, b, taxonomy, rules, equivalence):
    '''True when the knowledge base already captures a relation between resolved endpoints.

    That is when either endpoint resolved to None or both to the same item,
    when b is a taxonomy ancestor of a (either way round for an equivalence),
    or when the expansion rule of a already contains b.
    '''
    if a is None or b is None:
        return True
    if a == b:
        return True
    if (isinstance(a, TagPath) and isinstance(b, TagPath)
            and a in taxonomy and b in taxonomy):
        if b.is_ancestor_of(a):
            return True
        if equivalence and a.is_ancestor_of(b):
            return True
    return isinstance(a, TagPath) and b in rules.expansion.get(a, ())


class _ActionError(Exception):
    '''A single update action failed validation; the relation goes to unhandled.'''


class _WorkState:
    '''Mutable copies of the artifacts plus change tracking for one inference run.

    Each action applies in full or not at all, without copying the artifacts:
    it makes its taxonomy change, which Taxonomy.add checks, and undoes it
    if a later check fails, and it changes the rules only once all checks
    pass.  Every one-tag tagging value an action writes for a tag is one
    shared frozenset.  `sources`, built at the first retirement, is the
    expansion map's reverse index: each target -> the list of sources whose
    rule holds it (lists, a sixth of the memory of sets on the benchmark's
    knowledge base), kept in step with every edge added or removed since, so
    retiring a tag finds the rules that target it without scanning them all.
    '''

    def __init__(self, taxonomy, rules):
        self.taxonomy = taxonomy.copy()
        self.rules = rules.copy()
        self.changes = ChangeLog()
        self._one_tag = {}  # tag -> the frozenset({tag}) the rules written to it share
        self.sources = None

    def _sources_of(self, target):
        if self.sources is None:
            self.sources = {}
            self._index_edges((), ((source, t) for source, targets in self.rules.expansion.items()
                                   for t in targets))
        return self.sources.get(target, ())

    def _index_edges(self, removed, added):
        sources = self.sources
        if sources is None:  # the build, when it comes, reads the map as it is then
            return
        for source, target in removed:
            referrers = sources[target]
            referrers.remove(source)
            if not referrers:
                del sources[target]
        for source, target in added:
            sources.setdefault(target, []).append(source)

    def _remove_nodes(self, added):
        for node in reversed(added):  # Taxonomy.add lists a node's parent before it
            self.taxonomy.remove(node)

    def add_nodes(self, *paths):
        '''Adds taxonomy nodes, path by path; a failed path removes the earlier ones' nodes.'''
        added = []
        try:
            for path in paths:
                added.extend(self.taxonomy.add(path))
        except TaxonomyError as exc:
            self._remove_nodes(added)
            raise _ActionError(str(exc)) from None
        self.changes.taxonomy_added.extend(added)

    def add_alias(self, token, dest):
        '''Adds tagging rule token -> dest; retires any tag named `token`.

        Retiring a tag rewrites every reference to it: destinations of other
        tagging rules and sources/targets of expansion rules all move to
        `dest`, keeping the artifacts reloadable.
        '''
        if not is_taggable(token):
            raise _ActionError('alias token %r is not a taggable name' % (token,))
        if token in self.rules.tagging:
            raise _ActionError('token %r already has a tagging rule' % (token,))
        if dest.name == token:
            raise _ActionError('alias %r -> %s maps a token to its own name'
                               % (token, dest))
        if not dest.is_tag:
            raise _ActionError('alias destination %s is structural' % (dest,))
        old = self.taxonomy.resolve_name(token)
        if old is not None and self.taxonomy.has_children(old):
            raise _ActionError('cannot retire %s: node has children' % (old,))
        referring = []
        if old is not None:
            referring = [other for other, dests in self.rules.tagging.items() if old in dests]
            if dest.name in referring:
                raise _ActionError(
                    'rewriting rule %r to %s would alias the rule to itself'
                    % (dest.name, dest))
            # the retired leaf goes first, which frees its name and path for `dest`
            self.taxonomy.remove(old)
        added = []
        try:
            added = self.taxonomy.add(dest)
            remapped, edges_removed, edges_added = {}, (), ()
            if old is not None:
                remapped, edges_removed, edges_added = _remap_expansion(
                    self.rules.expansion, old, dest, self._sources_of(old))
            # load_rules collapses a destination named after a rule token, so
            # such an alias would reload as a different rule
            if dest.name in self.rules.tagging:
                raise _ActionError('alias destination %s is named after tagging rule %r'
                                   % (dest, dest.name))
        except (TaxonomyError, _ActionError) as exc:
            self._remove_nodes(added)
            if old is not None:
                self.taxonomy.add(old)
            raise _ActionError(str(exc)) from None

        # all validations passed; commit the rules and the log
        if old is not None:
            self.changes.taxonomy_removed.append(old)
        self.changes.taxonomy_added.extend(added)
        tagging = self.rules.tagging
        one_tag = tagging[token] = self._one_tag.setdefault(dest, frozenset((dest,)))
        self.changes.tagging_added.append(token)
        for other in referring:
            dests = tagging[other] - {old} | {dest}
            tagging[other] = one_tag if len(dests) == 1 else dests
        for source, targets in remapped.items():
            if targets is None:
                del self.rules.expansion[source]
            else:
                self.rules.expansion[source] = targets
        self._index_edges(edges_removed, edges_added)
        self.changes.expansion_removed.extend(edges_removed)
        self.changes.expansion_added.extend(edges_added)

    def add_expansion_edge(self, source, target):
        '''Adds target to the expansion rule of source, creating the rule if needed.'''
        if source not in self.taxonomy or not source.is_tag:
            raise _ActionError('expansion source %s is not a tag in the taxonomy'
                               % (source,))
        if target not in self.taxonomy or not target.is_tag:
            raise _ActionError('expansion target %s is not a tag in the taxonomy'
                               % (target,))
        if target == source or target.is_ancestor_of(source):
            raise _ActionError('expansion %s => %s is already implicit'
                               % (source, target))
        targets = self.rules.expansion.get(source, frozenset())
        if target in targets:
            raise _ActionError('expansion %s => %s already present' % (source, target))
        if _expansion_reaches(self.rules.expansion, target, source):
            raise _ActionError('expansion %s => %s would create a cycle'
                               % (source, target))
        self.rules.expansion[source] = targets | {target}
        self._index_edges((), [(source, target)])
        self.changes.expansion_added.append((source, target))


def _expansion_reaches(expansion, start, goal):
    '''True when `goal` is reachable from `start` along one or more expansion edges.'''
    stack = [start]
    seen = set()
    while stack:
        for target in expansion.get(stack.pop()) or ():  # None: a rule dropped in a view
            if target == goal:
                return True
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return False


def _remap_expansion(expansion, old, new, referrers):
    '''Rewrites the expansion rules that refer to a retired tag; validates the result.

    `referrers` are the sources whose rules target `old`.  Returns (rules to
    replace, removed edges, added edges); the first maps a source to its new
    target set, or to None when the rule goes away, and the edges are the
    whole difference the rewrite makes.  Only the retired tag's own rule, the
    rules that target it and the rule of `new` change.  Targets that would
    become the rule's own source (or an ancestor of it) are dropped; a rule
    remapped onto an existing source merges target sets.  Raises _ActionError
    when the rewrite would create a cycle.
    '''
    touched = list(referrers)
    if old in expansion:
        touched.append(old)
    if not touched:
        return {}, (), ()
    if new in expansion and new not in touched:
        touched.append(new)
    targets_of = {}
    for source in touched:
        new_source = new if source == old else source
        targets = {new if t == old else t for t in expansion[source]}
        targets_of.setdefault(new_source, set()).update(
            t for t in targets if t != new_source and not t.is_ancestor_of(new_source))
    remapped = dict.fromkeys(touched)
    remapped.update((source, frozenset(targets))
                    for source, targets in targets_of.items() if targets)
    # the map was acyclic and every new edge starts or ends at `new`, so any
    # cycle passes through it
    view = collections.ChainMap(remapped, expansion)
    if _expansion_reaches(view, new, new):
        try:
            _check_expansion_acyclic({source: targets for source, targets in view.items()
                                      if targets is not None})
        except RuleError as exc:
            raise _ActionError('retiring %s: %s' % (old, exc)) from None
    before = {(source, t) for source in touched for t in expansion[source]}
    after = {(source, t) for source, targets in remapped.items() if targets is not None
             for t in targets}
    return remapped, sorted(before - after), sorted(after - before)


def _alias_onto(state, a, b):
    # an unknown b gets no tag of its own: a becomes an alias of the family named after it
    state.add_alias(a.name, b if isinstance(b, TagPath) else TagPath(('FAM', b.name)))


def _act_unk_class_or_beh(state, a, b):
    state.add_nodes(TagPath(('FAM', a.name)))


def _act_unk_file(state, a, b):
    state.add_nodes(b.child(a.name))


def _act_unk_unk(state, a, b):
    # both tokens become families; deliberately no alias between them
    state.add_nodes(TagPath(('FAM', a.name)), TagPath(('FAM', b.name)))


def _act_file_unk(state, a, b):
    state.add_alias(a.name, a.parent().child(b.name))


_TOP_BLOCK = {
    ('UNK', 'FAM'): _alias_onto,
    ('UNK', 'CLASS'): _act_unk_class_or_beh,
    ('UNK', 'BEH'): _act_unk_class_or_beh,
    ('UNK', 'FILE'): _act_unk_file,
    ('UNK', 'UNK'): _act_unk_unk,
    ('FAM', 'UNK'): _alias_onto,
    ('FILE', 'UNK'): _act_file_unk,
    ('FAM', 'FAM'): _alias_onto,
}

_BOTTOM_BLOCK = {
    ('FAM', 'FILE'), ('FAM', 'BEH'), ('FAM', 'CLASS'),
    ('CLASS', 'FILE'), ('CLASS', 'BEH'),
}


def infer(strong, taxonomy, rules, config=None):
    '''Runs the rule matrix over strong relations in rounds, until one consumes nothing.

    Each round visits the remaining relations in sorted canonical order and
    resolves both endpoints against the evolving artifacts: known relations
    are dropped, an equivalence becomes an alias rule when t_i is an unknown
    token or both endpoints are families, matrix rows for unknown tokens are
    applied, anything else is kept for the next round.  Any other equivalence
    goes on as a one-way relation, so that no class, behavior or file tag is
    retired into another category.  A round that consumes nothing is followed
    by the terminal round, the last: remaining tag-to-tag relations with a
    matrix row become expansion rules; the rest is reported unhandled.  An
    action that fails is final for the run: its relation is reported
    unhandled even when a later action would let it succeed (a family that
    has children cannot retire, though its last child retires later in the
    run), so running again on the results can still change them.
    '''
    if config is None:
        config = UpdateConfig()
    state = _WorkState(taxonomy, rules)
    remaining = sorted(strong, key=Relation.key)
    unhandled = []
    consumed_known = []
    consumed_equivalence = []
    consumed_topblock = []
    consumed_expansion = []

    def attempt(relation, consumed, action, *args):
        try:
            action(*args)
        except _ActionError as exc:
            unhandled.append(Unhandled(relation, str(exc)))
        else:
            consumed.append(relation)

    terminal = False
    while remaining:
        kept = []
        for relation in remaining:
            a = resolve_item(relation.t_i, state.taxonomy, state.rules)
            b = resolve_item(relation.t_j, state.taxonomy, state.rules)
            equivalence = is_equivalent(relation, config)
            if _known_resolved(a, b, state.taxonomy, state.rules, equivalence):
                consumed_known.append(relation)
                continue
            pair = (a.category, b.category)
            if terminal:
                if pair in _BOTTOM_BLOCK:
                    attempt(relation, consumed_expansion, state.add_expansion_edge, a, b)
                else:
                    unhandled.append(Unhandled(
                        relation, 'no update rule for category pair (%s, %s)' % pair))
            elif equivalence and (a.category == UNKNOWN_CATEGORY or pair == ('FAM', 'FAM')):
                attempt(relation, consumed_equivalence, _alias_onto, state, a, b)
            elif pair in _TOP_BLOCK:
                attempt(relation, consumed_topblock, _TOP_BLOCK[pair], state, a, b)
            else:
                kept.append(relation)
        if terminal:
            break
        # a round that consumed nothing changed nothing: the terminal round follows
        terminal = len(kept) == len(remaining)
        remaining = kept

    return UpdateResult(
        taxonomy=state.taxonomy,
        rules=state.rules,
        changes=state.changes,
        unhandled=unhandled,
        consumed_known=consumed_known,
        consumed_equivalence=consumed_equivalence,
        consumed_topblock=consumed_topblock,
        consumed_expansion=consumed_expansion,
    )


def format_unhandled(unhandled):
    '''TSV report: the stats columns plus a reason column.'''
    lines = [STATS_HEADER + '\treason']
    for entry in sorted(unhandled, key=lambda u: u.relation.key()):
        lines.append('%s\t%s' % (entry.relation.format_row(), entry.reason))
    return '\n'.join(lines) + '\n'


def format_changelog(changes, relations_all, relations_strong, relations_os_removed,
                     relations_known, relations_out):
    '''Counts block plus one line per added (+) or removed (-) entry of a ChangeLog.'''
    lines = [
        'relations all %d' % relations_all,
        'relations strong %d' % relations_strong,
        'relations os_removed %d' % relations_os_removed,
        'relations known %d' % relations_known,
        'relations out %d' % relations_out,
        'taxonomy added %d' % len(changes.taxonomy_added),
        'taxonomy removed %d' % len(changes.taxonomy_removed),
        'tagging added %d' % len(changes.tagging_added),
        'tagging removed %d' % len(changes.tagging_removed),
        'expansion added %d' % len(changes.expansion_added),
        'expansion removed %d' % len(changes.expansion_removed),
    ]
    entries = []
    for sign, paths in (('+', changes.taxonomy_added), ('-', changes.taxonomy_removed)):
        entries.extend('taxonomy %s %s' % (sign, path) for path in sorted(paths))
    for sign, tokens in (('+', changes.tagging_added), ('-', changes.tagging_removed)):
        entries.extend('tagging %s %s' % (sign, token) for token in sorted(tokens))
    for sign, edges in (('+', changes.expansion_added), ('-', changes.expansion_removed)):
        entries.extend('expansion %s %s => %s' % (sign, source, target)
                       for source, target in sorted(edges))
    if entries:
        lines.append('')
        lines.extend(entries)
    return '\n'.join(lines) + '\n'
