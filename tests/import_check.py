'''Checks that `import avtag.cli` loads none of the modules that slow start-up.

Every command pays for what importing the CLI loads.  `dataclasses` alone
pulls in `inspect`, `ast` and `dis`, so none of the four may be new after the
import.  Nor may `json`: only `label`'s corpus reader needs it, and imports
it there, so `update` does not pay for it.  Modules loaded before it, by
`site` or a .pth hook, do not count.

    python tests/import_check.py

prints the path of the `avtag.cli` it imported and exits with an error that
names the offending modules, if any.  Run from outside a checkout, it checks
the installed package.
'''

import sys

SLOW_MODULES = ('dataclasses', 'inspect', 'ast', 'dis', 'json')

before = set(sys.modules)
import avtag.cli  # noqa: E402  (the import under test)

print(avtag.cli.__file__)
loaded = sorted(set(SLOW_MODULES) & (set(sys.modules) - before))
if loaded:
    sys.exit('import avtag.cli loaded %s' % ', '.join(loaded))
