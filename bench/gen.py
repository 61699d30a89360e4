'''Seeded generator for the benchmark inputs.

Everything is drawn from one ``random.Random(seed)``, so the same seed gives the
same bytes.  The generator builds:

* a knowledge base (taxonomy, tagging rules, expansion rules) around about 5K
  families, with alias spellings for some of them;
* a VirusTotal-like JSONL corpus: 20-60 engines per sample, one label dialect
  per engine, OEM engines that copy another vendor's label, hex and variant
  suffixes, generic-only labels, and a small fixed share of malformed lines of
  the kinds ``avtag label`` skips;
* the planted truth: the family of every valid sample;
* a synthetic ``avtag update`` stats file with a planted mix of relation kinds.

The program under test only ever sees these files and ordinary CLI flags.
'''

import bisect
import itertools
import json
import math
import os
import random
import re

_HEX_RE = re.compile(r'[0-9a-f]+')

_CONSONANTS = 'bcdfghjklmnprstvwxz'
_VOWELS = 'aeiouy'

#: class leaf path -> label words engines use for it (rule tokens or tag names)
CLASS_WORDS = {
    'CLASS:virus': ['Virus', 'Infector', 'FileInfector'],
    'CLASS:worm': ['Worm', 'Net-Worm', 'NetWorm', 'IM-Worm'],
    'CLASS:backdoor': ['Backdoor', 'BkDr', 'Bck'],
    'CLASS:backdoor:rat': ['RAT', 'RemoteAdmin', 'Backdoor-RAT'],
    'CLASS:downloader': ['Downloader', 'TrojanDownloader', 'Trojan-Downloader', 'Dldr'],
    'CLASS:dropper': ['Dropper', 'TrojanDropper', 'Trojan-Dropper'],
    'CLASS:ransomware': ['Ransom', 'Ransomware', 'Trojan-Ransom', 'Filecoder'],
    'CLASS:spyware': ['Spyware', 'Spy', 'Trojan-Spy', 'TrojanSpy'],
    'CLASS:spyware:keylogger': ['Keylogger', 'KeyLogger', 'Trojan-Keylogger'],
    'CLASS:spyware:banker': ['Banker', 'Trojan-Banker', 'TrojanBanker', 'Bankbot'],
    'CLASS:spyware:stealer': ['Stealer', 'PSW', 'PWS', 'InfoStealer'],
    'CLASS:miner': ['Miner', 'CoinMiner', 'Trojan-Miner', 'CryptoMiner'],
    'CLASS:rootkit': ['Rootkit', 'RootKit', 'Rtk'],
    'CLASS:exploit': ['Exploit', 'Exp', 'CVE'],
    'CLASS:hacktool': ['HackTool', 'Hktl', 'Hacktool'],
    'CLASS:grayware': ['Grayware', 'PUA', 'Unwanted', 'Greyware'],
    'CLASS:grayware:adware': ['Adware', 'AdWare', 'Adw'],
    'CLASS:grayware:tool': ['RiskTool', 'Riskware', 'Tool'],
    'CLASS:clicker': ['Clicker', 'Trojan-Clicker'],
    'CLASS:proxy': ['Proxy', 'Trojan-Proxy'],
    'CLASS:bot': ['Bot', 'IRCBot', 'Botnet'],
    'CLASS:phishing': ['Phishing', 'Phish'],
    'CLASS:fakeav': ['FakeAV', 'FakeAlert', 'Rogue'],
}

#: relative frequency of each class among families
CLASS_WEIGHTS = {
    'CLASS:virus': 6, 'CLASS:worm': 6, 'CLASS:backdoor': 8, 'CLASS:backdoor:rat': 4,
    'CLASS:downloader': 12, 'CLASS:dropper': 6, 'CLASS:ransomware': 6,
    'CLASS:spyware': 4, 'CLASS:spyware:keylogger': 2, 'CLASS:spyware:banker': 4,
    'CLASS:spyware:stealer': 6, 'CLASS:miner': 4, 'CLASS:rootkit': 2,
    'CLASS:exploit': 2, 'CLASS:hacktool': 2, 'CLASS:grayware': 4,
    'CLASS:grayware:adware': 10, 'CLASS:grayware:tool': 4, 'CLASS:clicker': 2,
    'CLASS:proxy': 1, 'CLASS:bot': 3, 'CLASS:phishing': 1, 'CLASS:fakeav': 1,
}

BEHAVIORS = ['BEH:filecrypt', 'BEH:inject', 'BEH:autorun', 'BEH:ddos', 'BEH:sendsms',
             'BEH:exfiltrate', 'BEH:screenshot', 'BEH:persist', 'BEH:selfdelete',
             'BEH:cryptomine', 'BEH:keylog', 'BEH:infosteal', 'BEH:spam',
             'BEH:clickfraud', 'BEH:dnschange', 'BEH:disableav']

FILE_TAGS = ['FILE:OS:windows', 'FILE:OS:android', 'FILE:OS:linux', 'FILE:OS:macos',
             'FILE:PACKER:upx', 'FILE:PACKER:themida', 'FILE:PACKER:vmprotect',
             'FILE:PACKER:aspack', 'FILE:FORMAT:pdf', 'FILE:FORMAT:doc',
             'FILE:FORMAT:js', 'FILE:FORMAT:vbs', 'FILE:FORMAT:html',
             'FILE:LANG:msil', 'FILE:LANG:autoit', 'FILE:LANG:delphi']

#: OS tag -> (share of families, label words engines use for it)
OS_WORDS = {
    'FILE:OS:windows': (80, ['Win32', 'W32', 'Win', 'Win64', 'WinNT']),
    'FILE:OS:android': (12, ['AndroidOS', 'Andr', 'Android']),
    'FILE:OS:linux': (5, ['Linux', 'ELF', 'Unix']),
    'FILE:OS:macos': (3, ['OSX', 'MacOS', 'Mac']),
}

#: tokens that carry no information
GENERIC_TOKENS = [
    'a', 'agen', 'agent', 'ai', 'application', 'artemis', 'attribute', 'behaveslike',
    'cloud', 'confidence', 'deepscan', 'detected', 'dynamic', 'eldorado', 'file',
    'gen', 'generic', 'generickd', 'genericrxaa', 'heur', 'heuristic', 'high',
    'highconfidence', 'im', 'kcloud', 'lookslike', 'low', 'malicious', 'malware',
    'medium', 'ml', 'net', 'not', 'obfuscated', 'of', 'possible', 'probably',
    'program', 'razy', 'reputation', 'riskfile', 'score', 'static', 'susgen',
    'suspicious', 'threat', 'tr', 'trj', 'trojan', 'troj', 'unsafe', 'variant',
    'virtool', 'vho', 'win32gen', 'wacatac', 'zusy', 'zard', 'malpack', 'krypt',
]

#: rule token -> destinations (leaf names), for class, behavior and file words
WORD_RULES = {
    'infector': 'virus', 'fileinfector': 'virus', 'networm': 'worm', 'bkdr': 'backdoor',
    'bck': 'backdoor', 'remoteadmin': 'rat', 'trojandownloader': 'downloader',
    'dldr': 'downloader', 'trojandropper': 'dropper', 'ransom': 'ransomware',
    'filecoder': 'ransomware,filecrypt', 'spy': 'spyware', 'trojanspy': 'spyware',
    'trojanbanker': 'banker', 'bankbot': 'banker,bot', 'psw': 'stealer',
    'pws': 'stealer', 'infostealer': 'stealer,infosteal', 'coinminer': 'miner',
    'cryptominer': 'miner,cryptomine', 'rtk': 'rootkit', 'exp': 'exploit',
    'cve': 'exploit', 'hktl': 'hacktool', 'pua': 'grayware', 'unwanted': 'grayware',
    'greyware': 'grayware', 'adw': 'adware', 'risktool': 'grayware,tool',
    'riskware': 'grayware,tool', 'ircbot': 'bot', 'botnet': 'bot', 'phish': 'phishing',
    'fakealert': 'fakeav', 'rogue': 'fakeav', 'win32': 'windows', 'w32': 'windows',
    'win': 'windows', 'win64': 'windows', 'winnt': 'windows', 'androidos': 'android',
    'andr': 'android', 'elf': 'linux', 'unix': 'linux', 'osx': 'macos', 'mac': 'macos',
    'upack': 'upx', 'vmp': 'vmprotect', 'msilobf': 'msil', 'autoitscript': 'autoit',
}

#: class-level expansion rules (source path -> target leaf names)
CLASS_EXPANSIONS = {
    'CLASS:ransomware': 'filecrypt', 'CLASS:miner': 'cryptomine',
    'CLASS:spyware:keylogger': 'keylog', 'CLASS:spyware:banker': 'infosteal',
    'CLASS:spyware:stealer': 'infosteal', 'CLASS:bot': 'ddos',
    'CLASS:clicker': 'clickfraud', 'CLASS:worm': 'autorun',
    'CLASS:backdoor:rat': 'screenshot', 'CLASS:fakeav': 'disableav',
}

#: label templates; every engine speaks one of them
TEMPLATES = [
    '{cls}.{os}.{fam}.{var}',
    '{cls}:{os}/{fam}.{var}',
    '{os}/{fam}.{var}!tr',
    '{cls}.{fam}.{num}',
    '{cls}/{os}.{fam}.{var}',
    'Gen:Variant.{fam}.{num}',
    '{os}.{cls}.{fam}',
    'a variant of {os}/{cls}.{fam}.{var}',
    '{fam}-{cls}-{hex}',
]

GENERIC_TEMPLATES = [
    'Trojan.GenericKD.{num}', 'Malicious (score: {small})', 'HEUR/AGEN.{num}',
    'Gen:Variant.Razy.{num}', 'Artemis!{HEX}', 'Unsafe', 'Trojan.Win32.Generic!BT',
    'Suspicious.Cloud.{small}', 'Trojan:Win32/Wacatac.B!ml', 'W32.Malware.Gen',
]

#: variant suffix styles: short letters, hex, number, one of the family's
#: variant words, or a random word
VAR_STYLES = ('letters', 'hex', 'num', 'family', 'random')

#: kinds of malformed lines planted in label corpora
MALFORMED = [
    '{{"sha256": "{sid}", "av_labels": {{"Engine": "Trojan.Gen"',
    '[1, 2, 3]',
    '"{sid}"',
    '{{"md5": "", "av_labels": {{"Engine": "Trojan.Gen"}}}}',
    '{{"av_labels": {{}}}}',
]


class Names:
    '''Unique pronounceable lowercase names that survive tokenization.

    A name is never purely hexadecimal (the tokenizer would drop it) and never
    reuses a name handed out before or listed as taken.
    '''

    def __init__(self, rng, taken):
        self.rng = rng
        self.taken = set(taken)

    def make(self, min_len, max_len):
        rng = self.rng
        while True:
            length = rng.randint(min_len, max_len)
            parts = []
            while sum(map(len, parts)) < length:
                parts.append(rng.choice(_CONSONANTS) + rng.choice(_VOWELS))
            name = ''.join(parts)[:length]
            if name not in self.taken and not _HEX_RE.fullmatch(name):
                self.taken.add(name)
                return name


def _leaf(path):
    return path.rsplit(':', 1)[1]


#: step of each family trait's low-discrepancy sequence; square roots of
#: distinct primes, so that the traits do not correlate
_STEPS = {'class': 2 ** 0.5 - 1, 'os': 3 ** 0.5 - 1, 'alias': 5 ** 0.5 - 2,
          'expansion': 7 ** 0.5 - 2, 'known': 11 ** 0.5 - 3}


def _quasi(rng, trait, n):
    '''n numbers in [0, 1) for ranks 0..n-1, evenly spread along the ranks.

    Any run of consecutive ranks gets close to a trait's target mix and the
    seed only shifts the phase, so the popular head of the Zipf ranking, and
    with it the run time, stays alike from seed to seed.
    '''
    phase = rng.random()
    step = _STEPS[trait]
    return [(phase + rank * step) % 1.0 for rank in range(n)]


def _weighted(options, cum_weights, x):
    return options[bisect.bisect_right(cum_weights, x * cum_weights[-1])]


#: families in the knowledge base's catalogue
N_FAMILIES = 5000

#: share of families with an alias spelling that a tagging rule maps back
ALIAS_SHARE = 0.06

#: share of families with an alias spelling no rule knows
UNKNOWN_ALIAS_SHARE = 0.04

#: share of families with a FAM expansion rule
EXPANSION_SHARE = 0.3


class KnowledgeBase:
    '''Generated taxonomy, rules and family catalogue for one seed.'''

    def __init__(self, rng):
        fixed = list(CLASS_WORDS) + BEHAVIORS + FILE_TAGS
        taken = {_leaf(p) for p in fixed} | set(GENERIC_TOKENS) | set(WORD_RULES)
        self.names = Names(rng, taken)
        classes = list(CLASS_WEIGHTS)
        class_cum = list(itertools.accumulate(CLASS_WEIGHTS[c] for c in classes))
        oses = list(OS_WORDS)
        os_cum = list(itertools.accumulate(OS_WORDS[o][0] for o in oses))
        self.families = []       # ranked by popularity, most popular first
        self.family_class = {}
        self.family_os = {}
        self.aliases = {}        # family -> alias spelling with a tagging rule
        self.spellings = {}      # family -> spelling engines that prefer aliases use
        self.expansions = {}     # family -> target leaf names
        traits = zip(*(_quasi(rng, trait, N_FAMILIES)
                       for trait in ('class', 'os', 'alias', 'expansion')))
        for class_x, os_x, alias_x, expansion_x in traits:
            fam = self.names.make(5, 9)
            self.families.append(fam)
            self.family_class[fam] = _weighted(classes, class_cum, class_x)
            self.family_os[fam] = _weighted(oses, os_cum, os_x)
            if alias_x < ALIAS_SHARE:
                self.aliases[fam] = self.spellings[fam] = self.names.make(5, 9)
            elif alias_x < ALIAS_SHARE + UNKNOWN_ALIAS_SHARE:
                self.spellings[fam] = self.names.make(5, 9)
            if expansion_x < EXPANSION_SHARE:
                targets = [_leaf(self.family_class[fam])]
                if rng.random() < 0.4:
                    targets.append(_leaf(rng.choice(BEHAVIORS)))
                self.expansions[fam] = targets
        self.variants = {fam: [self.names.make(4, 6) for _ in range(3)]
                         for fam in self.families}

    def files(self, known_families=None):
        '''(taxonomy, tagging, expansion) texts; known_families limits the FAM nodes.'''
        known = self.families if known_families is None else known_families
        known_set = set(known)
        taxonomy = list(CLASS_WORDS) + BEHAVIORS + FILE_TAGS + ['FAM:' + f for f in known]
        tagging = ['%s\tGEN' % t for t in GENERIC_TOKENS]
        tagging += ['%s\t%s' % item for item in WORD_RULES.items()]
        tagging += ['%s\tFAM:%s' % (alias, fam) for fam, alias in self.aliases.items()
                    if fam in known_set]
        expansion = ['%s\t%s' % item for item in CLASS_EXPANSIONS.items()]
        expansion += ['FAM:%s\t%s' % (fam, ','.join(targets))
                      for fam, targets in self.expansions.items() if fam in known_set]
        return tuple('\n'.join(sorted(lines)) + '\n'
                     for lines in (taxonomy, tagging, expansion))


def _cycled(options, n):
    '''n values cycling through options.

    Every seed gets the same engine dialects (only the names differ), so that
    run time does not swing with the seed.
    '''
    return [options[i % len(options)] for i in range(n)]


class Engine:
    '''One AV engine's label dialect.'''

    def __init__(self, rng, template, case, uses_alias, generic_rate, class_rate,
                 var_style, generic_template):
        self.template = template
        self.case = case
        self.pick = rng.randrange(1 << 16)
        self.uses_alias = uses_alias
        self.generic_rate = generic_rate
        self.class_rate = class_rate
        self.var_style = var_style
        self.generic_template = generic_template

    def label(self, rng, kb, family, generic_rate, suffix_words=0):
        if rng.random() < generic_rate:
            text = self.generic_template.format(
                num=rng.randrange(10 ** 7, 10 ** 8), small=rng.randrange(60, 100),
                HEX='%08X' % rng.getrandbits(32))
        else:
            fam_class = kb.family_class[family]
            if rng.random() < self.class_rate:
                words = CLASS_WORDS[fam_class]
                cls = words[self.pick % len(words)]
            else:
                cls = 'Trojan'
            os_words = OS_WORDS[kb.family_os[family]][1]
            spelling = family
            if self.uses_alias:
                spelling = kb.spellings.get(family, family)
            style = self.var_style
            if style == 'letters':
                var = ''.join(rng.choice('ABCDEFGHIJKLMNOPQRSTUVWXYZ')
                              for _ in range(rng.randint(1, 3)))
            elif style == 'hex':
                var = '%x' % rng.getrandbits(rng.choice((16, 24, 32)))
            elif style == 'num':
                var = str(rng.randrange(1, 10 ** 5))
            elif style == 'family':
                var = rng.choice(kb.variants[family])
            else:
                var = (rng.choice(_CONSONANTS) + rng.choice(('ok', 'ruv', 'emz', 'ax'))
                       + rng.choice(_VOWELS) + rng.choice(_CONSONANTS))
            text = self.template.format(
                cls=cls, os=os_words[(self.pick >> 4) % len(os_words)],
                fam=spelling.capitalize(), var=var,
                num=rng.randrange(10 ** 5, 10 ** 7), hex='%x' % rng.getrandbits(32))
            for _ in range(suffix_words):
                if rng.random() < 0.7:
                    text += '.' + rng.choice(kb.variants[family])
                else:
                    text += '.' + kb.names.make(5, 8)
        if self.case == 'upper':
            return text.upper()
        if self.case == 'lower':
            return text.lower()
        return text


#: vendors in a corpus; each has one engine and a group of OEM engines
N_VENDORS = 50

#: one malformed line is planted before every MALFORMED_EVERY-th sample
MALFORMED_EVERY = 200

#: exponent of the Zipf law over the family popularity ranking
ZIPF_S = 0.8

#: share of samples whose labels are mostly generic
WEAK_SHARE = 0.04

#: chance that a label names a popular wrong family
CONFUSION = 0.02


def make_corpus(rng, kb, n_samples, oem_share, var_styles, suffix_words):
    '''(JSONL lines, truth, counts) for n_samples valid samples plus malformed lines.

    truth maps each valid sample's id to its planted family; counts holds the
    planted ``read``, ``labeled`` and ``skipped`` line counts and the number of
    engine ``labels`` of the valid samples.

    Engines are grouped by vendor: a vendor's OEM engines print exactly the
    label the vendor prints.  Families are drawn from a Zipf distribution over
    the knowledge base's popularity ranking.  So that family scores are not
    trivially perfect, WEAK_SHARE of the samples get mostly generic labels,
    and each label names a popular wrong family with probability CONFUSION.
    oem_share sets the size of the OEM groups, var_styles the engines' variant
    suffix styles, and every specific label ends with `suffix_words` extra
    words, mostly the family's variant names.
    '''
    traits = zip(*(_cycled(options, N_VENDORS) for options in (
        TEMPLATES, ('keep', 'keep', 'upper', 'lower'), (True, False),
        (0.0, 0.05, 0.1, 0.2, 0.35), (0.6, 0.8, 1.0), var_styles, GENERIC_TEMPLATES)))
    # OEM group sizes follow a geometric law at stratified quantiles
    oems = [int(math.log((i + 0.5) / N_VENDORS) / math.log(oem_share))
            for i in range(N_VENDORS)]
    vendors = []
    for engine_traits, n_oem in zip(traits, oems):
        name = kb.names.make(4, 7).capitalize()
        group = [name] + ['%s%s' % (kb.names.make(3, 5).capitalize(), name)
                          for _ in range(n_oem)]
        vendors.append((Engine(rng, *engine_traits), group))
    weights = list(itertools.accumulate(1.0 / (rank ** ZIPF_S)
                                        for rank in range(1, len(kb.families) + 1)))
    total = weights[-1]
    lines = []
    truth = {}
    labels = 0
    malformed = 0
    for index in range(n_samples):
        if index % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            sid = '%064x' % rng.getrandbits(256)
            lines.append(MALFORMED[malformed % len(MALFORMED)].format(sid=sid))
            malformed += 1
        family = kb.families[bisect.bisect_left(weights, rng.random() * total)]
        n_engines = rng.randint(20, 60)
        weak = rng.random() < WEAK_SHARE
        av_labels = {}
        for engine, group in rng.sample(vendors, len(vendors)):
            if len(av_labels) >= n_engines:
                break
            named = family
            if rng.random() < CONFUSION:
                named = kb.families[rng.randrange(50)]
            text = engine.label(rng, kb, named, 0.9 if weak else engine.generic_rate,
                                suffix_words)
            for name in group:
                av_labels[name] = text
        labels += len(av_labels)
        sha256 = '%064x' % rng.getrandbits(256)
        md5 = '%032x' % rng.getrandbits(128)
        if index % 37 == 5:
            record = {'md5': md5, 'av_labels': av_labels}
            sample_id = md5
        else:
            record = {'sha256': sha256, 'md5': md5, 'av_labels': av_labels}
            sample_id = sha256
        truth[sample_id] = family
        lines.append(json.dumps(record))
        if index % 500 == 250:
            lines.append('')
    counts = {'read': n_samples + malformed, 'labeled': n_samples,
              'skipped': malformed, 'labels': labels}
    return lines, truth, counts


#: update stats row kinds and their shares: new tokens strongly tied to a
#: family, a class or behavior, each other or a file tag; family-to-class
#: edges; family merges; equivalences; rows on OS tags, which update drops;
#: rows the knowledge base already captures; BEH-CLASS rows that no update
#: rule handles; and weak rows
UPDATE_MIX = (
    ('unk_fam', 40), ('unk_class', 25), ('unk_unk', 5), ('unk_file', 4),
    ('fam_class', 5), ('fam_fam', 2), ('equivalent', 3), ('os', 3), ('known', 5),
    ('beh_class', 2), ('weak', 6),
)


#: the update command's default thresholds for a strong relation
MIN_COUNT = 20
MIN_REL = 0.94


def make_update_stats(rng, kb, n_rows):
    '''(stats TSV text, planted all/strong/os_removed counts) against the full KB.

    Most rows are UNK->FAM and UNK->CLASS.
    Each kind of UPDATE_MIX gets its exact share of the rows.  Strong rows
    have count_i >= MIN_COUNT and rel_ij >= MIN_REL;
    weak rows miss one of the two.  Every row key is unique and every new
    token is a name the knowledge base has never seen.
    '''
    total = sum(weight for _, weight in UPDATE_MIX)
    plan = [kind for kind, weight in UPDATE_MIX
            for _ in range(round(n_rows * weight / total))]
    rng.shuffle(plan)
    class_paths = list(CLASS_WORDS) + BEHAVIORS
    leaf_path = {_leaf(p): p for p in class_paths}
    file_paths = [p for p in FILE_TAGS if not p.startswith('FILE:OS:')]
    aliased = sorted(kb.aliases)
    expanded = sorted(kb.expansions)
    spare = list(kb.families)
    rng.shuffle(spare)

    def strong(equivalent=False):
        count_i = rng.randint(MIN_COUNT, 400)
        if equivalent:
            return count_i, rng.randint(count_i + 1, int(count_i / MIN_REL)), count_i
        count_ij = rng.randint(-(-count_i * 95 // 100), count_i)
        return count_i, rng.randint(-(-count_i * 5 // 4), count_i * 6), count_ij

    def weak():
        count_i = rng.randint(2, 400)
        if count_i < MIN_COUNT and rng.random() < 0.5:
            return count_i, count_i * 3, count_i
        return count_i, count_i * 3, rng.randint(1, int(count_i * 0.9))

    def new():
        return 'UNK:' + kb.names.make(5, 9)

    rows = {}
    planted = {'all': 0, 'strong': 0, 'os_removed': 0}
    while plan:
        kind = plan[-1]
        counts = strong()
        if kind == 'unk_fam':
            key = (new(), 'FAM:' + rng.choice(kb.families))
        elif kind == 'unk_class':
            key = (new(), rng.choice(class_paths))
        elif kind == 'unk_unk':
            key = (new(), new())
        elif kind == 'unk_file':
            key = (new(), rng.choice(file_paths))
        elif kind == 'fam_class':
            key = ('FAM:' + rng.choice(kb.families), rng.choice(class_paths))
        elif kind == 'fam_fam':
            key = ('FAM:' + spare.pop(), 'FAM:' + spare.pop())
        elif kind == 'equivalent':
            key = (new(), 'FAM:' + rng.choice(kb.families))
            counts = strong(equivalent=True)
        elif kind == 'beh_class':
            key = (rng.choice(BEHAVIORS), rng.choice(list(CLASS_WORDS)))
        elif kind == 'os':
            key = (new(), 'FILE:OS:' + rng.choice(('windows', 'android', 'linux')))
        elif kind == 'known':
            if rng.random() < 0.5:
                fam = rng.choice(aliased)
                key = ('UNK:' + kb.aliases[fam], 'FAM:' + fam)
            else:
                fam = rng.choice(expanded)
                key = ('FAM:' + fam, leaf_path[rng.choice(kb.expansions[fam])])
        else:
            key = (new(), 'FAM:' + rng.choice(kb.families))
            counts = weak()
        if key in rows:
            continue
        plan.pop()
        rows[key] = counts
        planted['all'] += 1
        if kind != 'weak':
            planted['strong'] += 1
        if kind == 'os':
            planted['os_removed'] += 1
    lines = ['t_i\tt_j\t|t_i|\t|t_j|\t|(t_i,t_j)|\trel_ij\trel_ji']
    for (t_i, t_j), (count_i, count_j, count_ij) in sorted(rows.items()):
        lines.append('%s\t%s\t%d\t%d\t%d\t%.6f\t%.6f' % (
            t_i, t_j, count_i, count_j, count_ij, count_ij / count_i, count_ij / count_j))
    return '\n'.join(lines) + '\n', planted


#: workload name -> what sets it apart: sizes (scale multiplies the sample or
#: row count), the share of families the knowledge base knows (all, where
#: unset), and the corpus's OEM group sizes, variant suffix styles and extra
#: suffix words
WORKLOADS = {
    'wide': {'samples': 2000, 'oem_share': 0.3,
             'var_styles': VAR_STYLES, 'suffix_words': 0},
    'mining': {'samples': 1200, 'known_share': 0.1, 'oem_share': 0.6,
               'var_styles': ('family', 'random', 'random', 'letters'), 'suffix_words': 1},
    'update': {'rows': 6000},
}


def _write(path, text):
    with open(path, 'w', encoding='utf-8', newline='') as handle:
        handle.write(text)


def build(workload, seed, outdir, scale=1.0):
    '''Writes one workload's inputs under outdir and returns its plan.

    The plan names the generated files (``taxonomy``, ``tagging``,
    ``expansion``, the full ``input``, the ``minimal`` input used to time
    set-up, and ``truth`` for label workloads) and holds the planted
    ``counts``.  ``ops`` is the number of operations one run performs: valid
    samples for ``label``, stats rows for ``update``.
    '''
    sizes = WORKLOADS[workload]
    rng = random.Random(seed)
    kb = KnowledgeBase(rng)
    known = None
    if 'known_share' in sizes:
        known = [fam for fam, x in zip(kb.families, _quasi(rng, 'known', len(kb.families)))
                 if x < sizes['known_share']]
    paths = {name: os.path.join(outdir, name) for name in ('taxonomy', 'tagging', 'expansion')}
    for name, text in zip(('taxonomy', 'tagging', 'expansion'), kb.files(known)):
        _write(paths[name], text)
    plan = {'workload': workload, 'seed': seed, 'files': paths}
    if workload == 'update':
        text, counts = make_update_stats(rng, kb, max(1, round(sizes['rows'] * scale)))
        paths['input'] = os.path.join(outdir, 'stats.tsv')
        paths['minimal'] = os.path.join(outdir, 'stats-empty.tsv')
        _write(paths['input'], text)
        _write(paths['minimal'], text.split('\n', 1)[0] + '\n')
        plan['counts'] = counts
        plan['ops'] = counts['all']
        return plan
    lines, truth, counts = make_corpus(rng, kb, max(1, round(sizes['samples'] * scale)),
                                       sizes['oem_share'], sizes['var_styles'],
                                       sizes['suffix_words'])
    paths['input'] = os.path.join(outdir, 'corpus.jsonl')
    paths['minimal'] = os.path.join(outdir, 'one.jsonl')
    paths['truth'] = os.path.join(outdir, 'truth.tsv')
    _write(paths['input'], '\n'.join(lines) + '\n')
    first_valid = next(line for line in lines
                       if line.startswith('{"sha256"') and line.endswith('}}'))
    _write(paths['minimal'], first_valid + '\n')
    _write(paths['truth'], ''.join('%s\t%s\n' % item for item in truth.items()))
    plan['counts'] = counts
    plan['ops'] = counts['labeled']
    return plan
