'''Fixed reference workload that measures how fast the machine is right now.

Usage: python3 bench/calibrate.py

The benchmark runs this between repetitions of the avtag command and divides
the command's times by this script's time, because on a shared machine the
speed of the processor drifts by tens of percent within minutes.  The work
mirrors what avtag does (JSON decoding, regex splitting, dict and set lookups,
sorting and formatting) but uses none of its code, so a change to avtag cannot
change this time.  Keep it fixed: changing it rescales every normalized figure.
'''

import json
import re

_SPLIT = re.compile(r'[^a-z0-9]+').split
_WORDS = ['trojan', 'win32', 'agent', 'generic', 'downloader', 'ransom', 'adware',
          'heur', 'variant', 'malicious', 'backdoor', 'android', 'worm', 'spy']


def workload(rounds=1, samples=1000):
    lines = []
    for i in range(samples):
        labels = {'E%d' % e: '%s.%s/%s%d.%x' % (_WORDS[(i + e) % 14].capitalize(),
                                                 _WORDS[(i * e) % 14], _WORDS[e % 14],
                                                 i % 97, i * e)
                  for e in range(30)}
        lines.append(json.dumps({'sha256': '%064x' % (i * 7919), 'av_labels': labels}))
    known = {word: i for i, word in enumerate(_WORDS[:10])}
    checksum = 0
    for _ in range(rounds):
        pairs = {}
        for line in lines:
            record = json.loads(line)
            items = {}
            for engine, label in record['av_labels'].items():
                for token in _SPLIT(label.lower()):
                    if token and not token.isdigit():
                        tag = known.get(token, token)
                        items.setdefault(tag, set()).add(engine)
            kept = sorted(str(item) for item, engines in items.items() if len(engines) > 1)
            for a in kept:
                for b in kept:
                    if a < b:
                        pairs[a, b] = pairs.get((a, b), 0) + 1
        text = '\n'.join('%s\t%s\t%d' % (a, b, n) for (a, b), n in sorted(pairs.items()))
        checksum += len(text)
    return checksum


if __name__ == '__main__':
    print(workload())
