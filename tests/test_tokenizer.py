import random
import re
import string

from hypothesis import given, settings, strategies as st

from avtag.tokenizer import HEX_FRAGMENT_MIN_LEN, tokenize


class TestGoldenLabels:
    def test_vendor_style_label(self):
        assert tokenize('Trojan.Win32/RiskTool.eq') == ['trojan', 'win32', 'risktool', 'eq']

    def test_bang_suffix_label(self):
        assert tokenize('W32.IRCBot!gen3') == ['w32', 'ircbot', 'gen3']

    def test_hex_fragment_dropped(self):
        assert tokenize('Worm/deadbeef') == ['worm']

    def test_empty_label(self):
        assert tokenize('') == []

    def test_delimiters_only(self):
        assert tokenize('.!/:-') == []


class TestFiltering:
    def test_pure_numeric_dropped_any_length(self):
        for number in ('7', '32', '2017', '123456789'):
            assert tokenize('fam.%s' % number) == ['fam']

    def test_hex_dropped_at_threshold_only(self):
        assert HEX_FRAGMENT_MIN_LEN == 4
        assert tokenize('abc') == ['abc']        # hex-like but too short
        assert tokenize('abcd') == []            # exactly at threshold
        assert tokenize('deadbeef00') == []
        assert tokenize('bad') == ['bad']
        assert tokenize('gen3') == ['gen3']      # 'g' is not a hex digit
        assert tokenize('face.dance') == ['dance']

    def test_short_tokens_kept(self):
        assert tokenize('a.b/c') == ['a', 'b', 'c']

    def test_duplicates_and_order_preserved(self):
        assert tokenize('bot.zbot.bot') == ['bot', 'zbot', 'bot']


def reference_tokenize(label):
    '''Independent re-implementation: explicit character walk.'''
    fragments = []
    current = []
    for char in label.lower():
        if char in string.ascii_lowercase or char in string.digits:
            current.append(char)
        else:
            if current:
                fragments.append(''.join(current))
            current = []
    if current:
        fragments.append(''.join(current))

    kept = []
    for fragment in fragments:
        if all(c in string.digits for c in fragment):
            continue
        if len(fragment) >= 4 and all(c in '0123456789abcdef' for c in fragment):
            continue
        kept.append(fragment)
    return kept


class TestProperties:
    POOL = ['Trojan', 'W32', 'gen', 'Gen3', '2017', 'deadbeef', 'abc', 'abcd',
            'Zbot', 'BitCoinMiner', 'x', 'É©Ω', 'riskTOOL', '0xfee1', 'a1b2c3',
            'win-32', 'bad', 'face']
    DELIMITERS = ['.', '/', '!', ':', '-', ' ', '_', '']

    def random_label(self, rng):
        parts = [rng.choice(self.POOL) for _ in range(rng.randint(0, 6))]
        label = ''
        for part in parts:
            label += part + rng.choice(self.DELIMITERS)
        return label

    def test_matches_reference_implementation(self):
        rng = random.Random(2024)
        for _ in range(500):
            label = self.random_label(rng)
            assert tokenize(label) == reference_tokenize(label), label

    def test_token_charset(self):
        rng = random.Random(7)
        pattern = re.compile(r'^[a-z0-9]+$')
        for _ in range(200):
            for token in tokenize(self.random_label(rng)):
                assert pattern.match(token)

    def test_case_insensitive(self):
        rng = random.Random(11)
        for _ in range(200):
            label = self.random_label(rng)
            assert tokenize(label) == tokenize(label.upper())

    def test_delimiter_choice_irrelevant(self):
        for delim in ('.', '/', '!', ':', '-'):
            label = delim.join(['Trojan', 'Zbot', 'gen3'])
            assert tokenize(label) == ['trojan', 'zbot', 'gen3']


def split_then_filter_tokenize(label):
    '''The tokenizer before it was one regex: split on non-[a-z0-9], then filter.'''
    tokens = []
    for token in re.split(r'[^a-z0-9]+', label.lower()):
        if not token or token.isdigit():
            continue
        if len(token) >= HEX_FRAGMENT_MIN_LEN and re.match(r'^[0-9a-f]+$', token):
            continue
        tokens.append(token)
    return tokens


#: characters whose lower() is ASCII (Kelvin sign), several characters (dotted
#: capital I), or non-ASCII (sharp s, superscript two, Arabic-Indic digits)
TRICKY = ['\u212a', '\u0130', '\u1e9e', '\u00df', '\u00b2', '\u0663', '\u0660\u0661', '\u00e9']

fragments = st.one_of(
    st.text(string.ascii_letters + string.digits, min_size=1, max_size=8),
    st.text(string.digits, min_size=1, max_size=8),
    st.text(string.hexdigits, min_size=1, max_size=10),
    st.text(string.punctuation + string.whitespace, min_size=1, max_size=3),
    st.sampled_from(TRICKY),
)


class TestAgainstSplitThenFilter:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.lists(fragments, max_size=12).map(''.join))
    def test_same_tokens_on_built_labels(self, label):
        assert tokenize(label) == split_then_filter_tokenize(label)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.text(max_size=40))
    def test_same_tokens_on_any_text(self, label):
        assert tokenize(label) == split_then_filter_tokenize(label)

    def test_tricky_characters(self):
        for char in TRICKY:
            for label in (char, 'zbot' + char + 'gen', char + 'abcd', '12' + char + '34'):
                assert tokenize(label) == split_then_filter_tokenize(label), label
        assert tokenize('\u212aido') == ['kido']          # Kelvin sign lowers to 'k'
        assert tokenize('W\u0130N32') == ['wi', 'n32']     # dotted I lowers to 'i' + U+0307
