'''Tagging rules (token -> tags) and expansion rules (tag -> implied tags).

Both rule files are TAB-separated text: a token or source path, a TAB, then a
comma-separated destination list.  Destinations may be full tag paths or bare
tag names (resolved through the taxonomy's unique-name index).  A tagging rule
whose single destination is the literal ``GEN`` marks the token as generic
(mapped to no tags at all).

Loaded, the rules are two plain maps: ``tagging`` from a token to the
frozenset of TagPaths it maps to (empty for a generic token), and
``expansion`` from a source TagPath to the frozenset of TagPaths it implies.
'''

from .taxonomy import TagPath, TaxonomyError, is_taggable

GENERIC_MARKER = 'GEN'


class RuleError(ValueError):
    '''Raised for malformed or inconsistent rule files.'''


class RuleSet:
    '''Validated rules: `tagging` maps a token to its frozenset of tags (empty
    when generic); `expansion` maps a source tag to its frozenset of target tags.
    Two rule sets are equal when both maps are.
    '''

    __slots__ = ('tagging', 'expansion')

    def __init__(self, tagging=None, expansion=None):
        self.tagging = {} if tagging is None else tagging
        self.expansion = {} if expansion is None else expansion

    def __eq__(self, other):
        if not isinstance(other, RuleSet):
            return NotImplemented
        return self.tagging == other.tagging and self.expansion == other.expansion

    def __reduce__(self):  # pickles at every protocol, which __slots__ alone does not
        return RuleSet, (self.tagging, self.expansion)

    def __repr__(self):
        return 'RuleSet(tagging=%r, expansion=%r)' % (self.tagging, self.expansion)

    def copy(self):
        return RuleSet(dict(self.tagging), dict(self.expansion))


def _resolve_destination(text, taxonomy, what):
    '''Resolves a destination written as a full path or a unique tag name.'''
    if ':' in text:
        try:
            path = TagPath.parse(text)
        except TaxonomyError as exc:
            raise RuleError('bad %s %r: %s' % (what, text, exc)) from None
        if path not in taxonomy:
            raise RuleError('unknown %s %s' % (what, path))
    else:
        path = taxonomy.resolve_name(text)
        if path is None:
            raise RuleError('unknown %s name %r' % (what, text))
    if not path.is_tag:
        raise RuleError('%s %s is structural, not a tag' % (what, path))
    return path


def _split_line(line):
    fields = line.split('\t')
    if len(fields) != 2 or not fields[0] or not fields[1]:
        raise RuleError('expected "<key><TAB><dst1,dst2,...>"')
    return fields[0], [d for d in fields[1].split(',') if d]


def _collapse_aliases(raw_rules, line_of):
    '''Rewrites destinations that are themselves rule tokens, transitively.

    After collapse no destination's name appears as another rule's token, so
    tagging is a single map lookup and downstream consumers only ever see
    canonical tags.  Chains through a generic token contribute nothing.
    '''
    resolved = {}
    visiting = []

    def resolve(token):
        if token in resolved:
            return resolved[token]
        if token in visiting:
            chain = ' -> '.join(visiting + [token])
            raise RuleError('line %d: alias cycle %s' % (line_of[token], chain))
        visiting.append(token)
        flat = set()
        for dest in raw_rules[token]:
            if dest.name in raw_rules:
                flat.update(resolve(dest.name))
            else:
                flat.add(dest)
        visiting.pop()
        resolved[token] = frozenset(flat)
        return resolved[token]

    try:
        for token in raw_rules:
            resolve(token)
    except RecursionError:  # the chain from `token` is deeper than the stack allows
        raise RuleError('tagging line %d: alias chain too deep' % line_of[token]) from None
    return resolved


def _check_expansion_acyclic(expansion):
    '''DFS cycle check over the source -> targets graph.'''
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(expansion, WHITE)

    def visit(source, trail):
        color[source] = GREY
        for target in sorted(expansion[source]):
            if target not in expansion:
                continue
            if color[target] == GREY:
                cycle = ' -> '.join(trail + [source, target])
                raise RuleError('expansion cycle: %s' % cycle)
            if color[target] == WHITE:
                visit(target, trail + [source])
        color[source] = BLACK

    try:
        for source in sorted(expansion):
            if color[source] == WHITE:
                visit(source, [])
    except RecursionError:  # the chain from `source` is deeper than the stack allows
        raise RuleError('expansion chain from %s too deep' % (source,)) from None


def load_rules(tagging_text, expansion_text, taxonomy):
    '''Parses and validates both rule files against a loaded taxonomy.'''
    raw_rules = {}
    line_of = {}
    for lineno, raw in enumerate(tagging_text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        try:
            token, dest_texts = _split_line(line)
            if not is_taggable(token):
                raise RuleError('bad token %r' % (token,))
            if token in raw_rules:
                raise RuleError('duplicate token %r' % (token,))
            if not dest_texts:
                raise RuleError('no destinations for %r (use %s for generic tokens)'
                                % (token, GENERIC_MARKER))
            if GENERIC_MARKER in dest_texts:
                if len(dest_texts) != 1:
                    raise RuleError('%s cannot be combined with other destinations'
                                    % (GENERIC_MARKER,))
                destinations = []
            else:
                destinations = [_resolve_destination(d, taxonomy, 'destination tag')
                                for d in dest_texts]
                for dest in destinations:
                    if dest.name == token:
                        raise RuleError(
                            'rule %r -> %s is implicit (token equals tag name)'
                            % (token, dest))
        except RuleError as exc:
            raise RuleError('tagging line %d: %s' % (lineno, exc)) from None
        raw_rules[token] = destinations
        line_of[token] = lineno

    tagging = _collapse_aliases(raw_rules, line_of)
    for token, dests in tagging.items():
        for dest in dests:
            if dest.name == token:
                raise RuleError(
                    'tagging line %d: collapsed rule %r maps to tag named after itself'
                    % (line_of[token], token))

    expansion = {}
    for lineno, raw in enumerate(expansion_text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        try:
            source_text, target_texts = _split_line(line)
            if ':' not in source_text:
                raise RuleError('source must be a full tag path, got %r' % (source_text,))
            source = _resolve_destination(source_text, taxonomy, 'source tag')
            if source in expansion:
                raise RuleError('duplicate source %s' % (source,))
            if not target_texts:
                raise RuleError('no targets for %s' % (source,))
            targets = set()
            for text in target_texts:
                target = _resolve_destination(text, taxonomy, 'target tag')
                if target == source:
                    raise RuleError('target %s equals its source' % (target,))
                if taxonomy.is_ancestor(target, source):
                    raise RuleError(
                        'target %s is an ancestor of source %s (already implicit)'
                        % (target, source))
                targets.add(target)
        except RuleError as exc:
            raise RuleError('expansion line %d: %s' % (lineno, exc)) from None
        expansion[source] = frozenset(targets)

    _check_expansion_acyclic(expansion)
    return RuleSet(tagging, expansion)


def serialize_rules(ruleset):
    '''Deterministic normal form: sorted lines, full destination paths.'''
    tagging_lines = []
    for token in sorted(ruleset.tagging):
        dests = ','.join(sorted(ruleset.tagging[token])) or GENERIC_MARKER
        tagging_lines.append('%s\t%s' % (token, dests))
    expansion_lines = []
    for source in sorted(ruleset.expansion):
        targets = ','.join(sorted(ruleset.expansion[source]))
        expansion_lines.append('%s\t%s' % (source, targets))
    tagging_text = '\n'.join(tagging_lines) + '\n' if tagging_lines else ''
    expansion_text = '\n'.join(expansion_lines) + '\n' if expansion_lines else ''
    return tagging_text, expansion_text
