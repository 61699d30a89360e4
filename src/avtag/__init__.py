'''avtag: tag extraction from anti-virus detection labels.

Library plus batch CLI that turns per-sample AV detection labels into ranked
structured tags (family, class, behavior, file properties), and an update
engine that mines tag co-occurrence statistics to propose new taxonomy
entries, alias tagging rules, and expansion rules.
'''

from .labeler import SampleReport, cooccurrence_stats, label_sample
from .ruleset import RuleSet, load_rules
from .taxonomy import TagPath, UnknownToken, load_taxonomy, parse_item
from .updater import UpdateConfig, filter_strong, infer

__version__ = '0.1.0'

#: the names README's library example uses; everything else is importable
#: from its submodule
__all__ = [
    'RuleSet', 'SampleReport', 'TagPath', 'UnknownToken', 'UpdateConfig',
    'cooccurrence_stats', 'filter_strong', 'infer', 'label_sample', 'load_rules',
    'load_taxonomy', 'parse_item',
]
