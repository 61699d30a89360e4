'''README's library example runs as written, against README's own knowledge base.'''

import os
import re
import subprocess
import sys

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'README.md')

FENCED = re.compile(r'^```\w*\n(.*?)^```$', re.M | re.S)


def readme_block(text, after):
    '''The body of the first fenced block after the line that starts with `after`.'''
    return FENCED.search(text, text.index('\n' + after)).group(1)


def test_library_example_runs(tmp_path):
    with open(README, encoding='utf-8') as handle:
        text = handle.read()
    for name in ('taxonomy', 'tagging', 'expansion'):
        (tmp_path / name).write_text(readme_block(text, '`%s` — ' % name), encoding='utf-8')
    # a child process, so the example runs in the knowledge base's directory
    run = subprocess.run([sys.executable, '-c', readme_block(text, '## Library use')],
                         cwd=tmp_path, capture_output=True, encoding='utf-8')
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].endswith('\tFAM:bebeg|2')
    assert lines[1:] == ["['skodna']"]
