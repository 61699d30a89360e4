'''Tagging rules (token -> tags) and expansion rules (tag -> implied tags).

Both rule files are TAB-separated text: a token or source path, a TAB, then a
comma-separated destination list.  Destinations may be full tag paths or bare
tag names (resolved through the taxonomy's unique-name index).  A tagging rule
whose single destination is the literal ``GEN`` marks the token as generic
(mapped to no tags at all).

Loaded, the rules are two plain maps: ``tagging`` from a token to the
frozenset of TagPaths it maps to (empty for a generic token), and
``expansion`` from a source TagPath to the frozenset of TagPaths it implies.
Every tag they hold is the taxonomy's own node object, whichever way the file
spells it, and tokens with equal destination sets, like sources with equal
target sets, share one frozenset, so a loaded rule set holds no second copy
of a tag or of a set.
'''

from collections import namedtuple

from .taxonomy import TagPath, TaxonomyError, content_lines, is_taggable

GENERIC_MARKER = 'GEN'


class RuleError(ValueError):
    '''Raised for malformed or inconsistent rule files.'''


class RuleSet(namedtuple('RuleSet', 'tagging expansion')):
    '''Validated rules: `tagging` maps a token to its frozenset of tags (empty
    when generic); `expansion` maps a source tag to its frozenset of target tags.
    Each map left out starts as a new empty dict.
    '''

    __slots__ = ()

    def __new__(cls, tagging=None, expansion=None):
        return super().__new__(cls, {} if tagging is None else tagging,
                               {} if expansion is None else expansion)

    def copy(self):
        return RuleSet(dict(self.tagging), dict(self.expansion))


def _resolve_destination(text, taxonomy, what):
    '''Resolves a destination written as a full path or a unique tag name.'''
    if ':' not in text:
        path = taxonomy.resolve_name(text)
        if path is None:
            raise RuleError('unknown %s name %r' % (what, text))
        return path  # the name index holds tags only
    if text not in taxonomy:
        try:
            path = TagPath.parse(text)
        except TaxonomyError as exc:
            raise RuleError('bad %s %r: %s' % (what, text, exc)) from None
        raise RuleError('unknown %s %s' % (what, path))
    # tag names are unique, so a tag's name resolves to the node itself
    path = taxonomy.resolve_name(text.rpartition(':')[2])
    if path is None:  # the name index holds tags only
        raise RuleError('%s %s is structural, not a tag' % (what, text))
    return path


def _split_line(line):
    fields = line.split('\t')
    if len(fields) != 2 or not fields[0] or not fields[1]:
        raise RuleError('expected "<key><TAB><dst1,dst2,...>"')
    return fields[0], [d for d in fields[1].split(',') if d]


def _collapse_aliases(raw_rules, line_of):
    '''Rewrites destinations that are themselves rule tokens, transitively.

    After collapse no destination's name is a rule's token, its own included
    (every such destination is followed), so tagging is a single map lookup,
    no token maps to a tag named after itself, and downstream consumers only
    ever see canonical tags.  Chains through a generic token contribute
    nothing.  Tokens with equal destination sets share one frozenset.
    '''
    resolved = {}
    shared = {}  # each distinct destination set -> the one frozenset the tokens share
    visiting = []

    def resolve(token):
        if token in resolved:
            return resolved[token]
        if token in visiting:
            chain = ' -> '.join(visiting + [token])
            raise RuleError('tagging line %d: alias cycle %s' % (line_of[token], chain))
        visiting.append(token)
        flat = set()
        for dest in raw_rules[token]:
            if dest.name in raw_rules:
                flat.update(resolve(dest.name))
            else:
                flat.add(dest)
        visiting.pop()
        flat = frozenset(flat)
        resolved[token] = shared.setdefault(flat, flat)
        return resolved[token]

    try:
        for token in raw_rules:
            resolve(token)
    except RecursionError:  # the chain from `token` is deeper than the stack allows
        raise RuleError('tagging line %d: alias chain too deep' % line_of[token]) from None
    finally:
        del resolve  # it refers to itself: break the cycle that holds every map here
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
    finally:
        del visit  # it refers to itself: break the cycle that holds `color`


def load_rules(tagging_text, expansion_text, taxonomy):
    '''Parses and validates both rule files against a loaded taxonomy.'''
    raw_rules = {}
    line_of = {}
    for lineno, line in content_lines(tagging_text.splitlines()):
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

    expansion = {}
    target_sets = {}  # each distinct target set -> the one frozenset the sources share
    for lineno, line in content_lines(expansion_text.splitlines()):
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
                if target.is_ancestor_of(source):
                    raise RuleError(
                        'target %s is an ancestor of source %s (already implicit)'
                        % (target, source))
                targets.add(target)
        except RuleError as exc:
            raise RuleError('expansion line %d: %s' % (lineno, exc)) from None
        targets = frozenset(targets)
        expansion[source] = target_sets.setdefault(targets, targets)

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
