'''Vendor-agnostic splitting of raw AV labels into candidate tokens.'''

import re

#: pure-hex tokens at least this long look like hash/variant fragments
HEX_FRAGMENT_MIN_LEN = 4

# A maximal [a-z0-9] run that is neither all digits nor all hex of at least
# HEX_FRAGMENT_MIN_LEN.  The lookbehind lets a match start only at a run's first
# character, so the lookahead scans each run once and matching stays linear.
_TOKEN_RE = re.compile(
    r'(?<![a-z0-9])'
    r'(?![0-9]+(?![a-z0-9])|[0-9a-f]{%d,}(?![a-z0-9]))'
    r'[a-z0-9]+' % HEX_FRAGMENT_MIN_LEN)


def tokenize(label):
    '''Splits a raw label into an ordered token list.

    The label is lowercased and split on every character outside [a-z0-9].
    Purely numeric tokens and pure-hex tokens of length >= 4 are dropped as
    counter/hash noise.  Short tokens are kept here on purpose: a 2-3 letter
    token can still match a tagging rule, so the short-token filter runs after
    tagging, not during tokenization.  Duplicates survive in order.
    '''
    return _TOKEN_RE.findall(label.lower())
