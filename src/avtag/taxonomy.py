'''Open taxonomy tree: category roots, tag paths, parent-child relations.

The taxonomy groups tags under four fixed category roots (BEH, CLASS, FAM,
FILE).  A tag is addressed by its path, e.g. ``CLASS:grayware:adware``.  Path
components written fully uppercase (e.g. ``OS`` in ``FILE:OS:windows``) are
structural: they organize the tree but are never taggable themselves.

Tokens that match no tag and no tagging rule are *unknown*; they live in the
UNK pseudo-category, which is never a tree node.

Both item kinds, TagPath and UnknownToken (``UNK:<token>``), are str
subclasses whose value is the item's canonical string: an item equals,
hashes and sorts as that string, and a plain string finds it in a set or
dict.
'''

import re

CATEGORIES = ('BEH', 'CLASS', 'FAM', 'FILE')

#: pseudo-category for unknown tokens; never a taxonomy node
UNKNOWN_CATEGORY = 'UNK'
#: what an unknown token's canonical string starts with: ``UNK:<token>``
_UNKNOWN_PREFIX = UNKNOWN_CATEGORY + ':'

_TAGGABLE_RE = re.compile(r'[a-z0-9]+')
_STRUCTURAL_RE = re.compile(r'[A-Z][A-Z0-9]*')
#: a whole valid path in canonical form: a category, then taggable or structural components
_PATH_RE = re.compile(r'(?:%s)(?::(?:%s|%s))*' % (
    '|'.join(CATEGORIES), _TAGGABLE_RE.pattern, _STRUCTURAL_RE.pattern))


class TaxonomyError(ValueError):
    '''Raised for malformed paths, broken tree invariants, or bad lookups.'''


def is_taggable(component):
    '''True for lowercase alphanumeric components (the ones tags are made of).'''
    return bool(_TAGGABLE_RE.fullmatch(component))


def is_structural(component):
    '''True for fully-uppercase organizational components (never taggable).'''
    return bool(_STRUCTURAL_RE.fullmatch(component))


def _check_component(component):
    if not (is_taggable(component) or is_structural(component)):
        raise TaxonomyError(
            'bad path component %r (lowercase alphanumeric tag or UPPERCASE structural)'
            % (component,))


class TagPath(str):
    '''Path of a taxonomy node, as its canonical string: components joined with ':'.

    The constructor takes the components and validates them.
    '''

    __slots__ = ()

    def __new__(cls, components):
        components = tuple(components)
        if not components:
            raise TaxonomyError('empty tag path')
        if components[0] not in CATEGORIES:
            raise TaxonomyError(
                "bad category %r (expected one of %s)" % (components[0], ', '.join(CATEGORIES)))
        for comp in components[1:]:
            _check_component(comp)
        return str.__new__(cls, ':'.join(components))

    def __getnewargs__(self):
        return (self.components,)

    @classmethod
    def parse(cls, text):
        '''Parses the canonical ':'-joined string form.'''
        if _PATH_RE.fullmatch(text):
            return str.__new__(cls, text)
        return cls(text.split(':'))  # invalid: raises the validating constructor's error

    @property
    def components(self):
        return tuple(self.split(':'))

    @property
    def category(self):
        return self.partition(':')[0]

    @property
    def name(self):
        '''Final path component.'''
        return self.rpartition(':')[2]

    @property
    def is_tag(self):
        '''True when the node itself is taggable (final component lowercase).'''
        return not self.rpartition(':')[2][:1].isupper()  # valid: structural iff it starts A-Z

    @property
    def is_root(self):
        return ':' not in self

    def parent(self):
        '''Parent path, or None for category roots.'''
        cut = self.rfind(':')
        return None if cut < 0 else str.__new__(TagPath, self[:cut])

    def child(self, component):
        _check_component(component)
        return str.__new__(TagPath, self + ':' + component)

    def is_ancestor_of(self, other):
        '''True iff self is a proper prefix of other's path.'''
        return other.startswith(self + ':')

    def __repr__(self):
        return 'TagPath(%s)' % str.__repr__(self)


class UnknownToken(str):
    '''A token with no tagging rule and no taxonomy entry (UNK pseudo-category).

    Its value is the canonical string "UNK:<token>".  It shares the item
    protocol of TagPath: `category` (UNK) and `name` (the token).  Every tag
    category sorts before UNK, so sorted items put tags ahead of unknown
    tokens.
    '''

    __slots__ = ()

    category = UNKNOWN_CATEGORY

    def __new__(cls, text):
        return str.__new__(cls, _UNKNOWN_PREFIX + text)

    def __getnewargs__(self):
        return (self.name,)

    @property
    def name(self):
        return self[len(_UNKNOWN_PREFIX):]

    def __repr__(self):
        return 'UnknownToken(%r)' % (self.name,)


def parse_item(text):
    '''The TagPath or UnknownToken whose canonical string is `text`.'''
    if text.startswith(_UNKNOWN_PREFIX):
        if not _TAGGABLE_RE.fullmatch(text, len(_UNKNOWN_PREFIX)):
            raise TaxonomyError('bad unknown token %r' % (text[len(_UNKNOWN_PREFIX):],))
        return str.__new__(UnknownToken, text)  # `text` is already the canonical string
    return TagPath.parse(text)


class Taxonomy:
    '''Tree of TagPath nodes rooted at the category roots.

    One dict maps every node, roots included, to its number of direct
    children, so membership and has_children are one lookup each.  Next to
    it, a name index maps every taggable node's final component to its full
    path; that name is globally unique across the taxonomy, which is what
    makes implicit tagging (token == tag name) unambiguous.
    '''

    def __init__(self):
        #: every node -> number of its direct children
        self._nodes = dict.fromkeys((TagPath((c,)) for c in CATEGORIES), 0)
        self._name_index = {}

    def __contains__(self, path):
        return path in self._nodes

    def __len__(self):
        return len(self._nodes)

    def __iter__(self):
        return iter(sorted(self._nodes))

    def __eq__(self, other):
        return isinstance(other, Taxonomy) and self._nodes == other._nodes

    def copy(self):
        dup = Taxonomy.__new__(Taxonomy)
        dup._nodes = dict(self._nodes)
        dup._name_index = dict(self._name_index)
        return dup

    def _missing(self, path):
        '''Prefixes of `path` that adding it would create, root first.

        Raises the TaxonomyError of a name clash, with a present node or
        within the path.
        '''
        # the taxonomy is closed under prefixes, so the missing prefixes are
        # those below the deepest present one
        missing = []
        prefix = path
        while prefix not in self._nodes:
            missing.append(prefix)
            prefix = prefix.parent()
        missing.reverse()
        names = set()
        for prefix in missing:
            name = prefix.rpartition(':')[2]
            if not name[:1].isupper():
                clash = self._name_index.get(name)
                if clash is not None:
                    raise TaxonomyError(
                        'name %r already used by %s (adding %s)' % (name, clash, prefix))
                if name in names:
                    raise TaxonomyError('name %r repeated within path %s' % (name, path))
                names.add(name)
        return missing

    def add(self, path):
        '''Adds a path plus any missing ancestors; returns the newly created nodes.

        This is the one check of a new node: it validates name uniqueness for
        every node it would create before mutating anything, so a failed add
        leaves the taxonomy untouched.
        '''
        nodes = self._nodes
        parent, _, name = path.rpartition(':')
        # common case: a new node with a free name under a present parent creates only itself
        if parent in nodes and path not in nodes and name not in self._name_index:
            missing = [path]
        else:
            missing = self._missing(path)
        for node in missing:  # root first, so each node's parent is present
            parent, _, name = node.rpartition(':')
            nodes[node] = 0
            if not name[:1].isupper():  # a valid structural name starts A-Z
                self._name_index[name] = node
            nodes[parent] += 1
        return missing

    def remove(self, path):
        '''Removes a leaf node (category roots and internal nodes are not removable).'''
        if path not in self._nodes:
            raise TaxonomyError('cannot remove %s: not in taxonomy' % (path,))
        if path.is_root:
            raise TaxonomyError('cannot remove category root %s' % (path,))
        if self.has_children(path):
            raise TaxonomyError('cannot remove %s: node has children' % (path,))
        del self._nodes[path]
        if path.is_tag and self._name_index.get(path.name) == path:
            del self._name_index[path.name]
        self._nodes[path.rpartition(':')[0]] -= 1

    def has_children(self, path):
        return self._nodes.get(path, 0) > 0

    def resolve_name(self, name):
        '''Full path of the unique taggable node named `name`, or None.'''
        return self._name_index.get(name)

    def tag_names(self):
        '''Names of all taggable nodes, each unique, in no particular order.'''
        return self._name_index.keys()

    def tag_ancestors(self, path):
        '''Taggable proper-ancestor paths of `path`, nearest root first.

        Structural components and the category root are skipped; works from the
        path's string alone, so it is usable for any well-formed path.
        '''
        prefix, *components = path.split(':')
        ancestors = []
        for component in components[:-1]:
            prefix += ':' + component
            if is_taggable(component):
                ancestors.append(str.__new__(TagPath, prefix))
        return ancestors


def content_lines(lines):
    '''(line number from 1, stripped line) of each line neither blank nor a '#' comment.

    Every line-oriented text file but the corpus is read through this: the
    taxonomy, both rule files, the engine allowlist and the stats file.
    '''
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith('#'):
            yield lineno, line


def load_taxonomy(text):
    '''Parses taxonomy file content: one canonical path per line.

    Duplicates are tolerated; listing a nested path implies all of its ancestors.
    '''
    taxonomy = Taxonomy()
    for lineno, line in content_lines(text.splitlines()):
        try:
            taxonomy.add(TagPath.parse(line))
        except TaxonomyError as exc:
            raise TaxonomyError('line %d: %s' % (lineno, exc)) from None
    return taxonomy


def serialize_taxonomy(taxonomy):
    '''Deterministic file form: every non-root node, one per line, sorted.'''
    lines = [node for node in taxonomy if not node.is_root]
    if not lines:
        return ''
    return '\n'.join(lines) + '\n'
