'''README's examples run as written, against README's own knowledge base.'''

import os
import re
import shlex
import subprocess
import sys

from avtag import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'README.md')

FENCED = re.compile(r'^```\w*\n(.*?)^```$', re.M | re.S)


def readme_block(text, after):
    '''The body of the first fenced block after the line that starts with `after`.'''
    return FENCED.search(text, text.index('\n' + after)).group(1)


def write_readme_kb(tmp_path):
    '''Writes README's three knowledge-base files to `tmp_path`; returns README's text.'''
    with open(README, encoding='utf-8') as handle:
        text = handle.read()
    for name in ('taxonomy', 'tagging', 'expansion'):
        (tmp_path / name).write_text(readme_block(text, '`%s` — ' % name), encoding='utf-8')
    return text


def test_library_example_runs(tmp_path):
    text = write_readme_kb(tmp_path)
    # a child process, so the example runs in the knowledge base's directory
    run = subprocess.run([sys.executable, '-c', readme_block(text, '## Library use')],
                         cwd=tmp_path, capture_output=True, encoding='utf-8')
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].endswith('\tFAM:bebeg|2')
    assert lines[1:] == ["['skodna']"]


def test_cli_example_runs(tmp_path, monkeypatch):
    text = write_readme_kb(tmp_path)
    (tmp_path / 'samples.jsonl').write_text(readme_block(text, 'Input is JSONL'),
                                            encoding='utf-8')
    command = shlex.split(readme_block(text, 'Run the labeler:').replace('\\\n', ' '))
    assert command[:2] == ['avtag', 'label']
    monkeypatch.chdir(tmp_path)
    assert cli.main(command[1:]) == 0
    outputs = {name: (tmp_path / name).read_text(encoding='utf-8')
               for name in ('tags.tsv', 'families.tsv', 'stats.tsv')}
    assert outputs['tags.tsv'] == readme_block(text, '`tags.tsv` gets')
    assert '(`%s`)' % outputs['families.tsv'].rstrip('\n') in text
    # the header and the first row that README shows
    shown = readme_block(text, '`--stats-out` writes').splitlines()
    assert outputs['stats.tsv'].splitlines()[:2] == shown[:2]
