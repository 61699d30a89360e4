'''AVClass-style cluster precision, recall and F1 against planted truth.

Samples sharing an output label form one cluster; samples sharing a planted
family form one truth class.  Following AVClass (Sebastian et al., RAID 2016):

    precision = sum over output clusters of the largest overlap with one
                truth class, divided by the number of samples
    recall    = sum over truth classes of the largest overlap with one
                output cluster, divided by the number of samples

A ``SINGLETON:<id>`` label in ``families.tsv`` is unique per sample, so every
singleton is its own cluster.
'''

from collections import Counter


def read_labels(path):
    '''Sample id -> label from a two-column TSV (``families.tsv``, ``truth.tsv``).'''
    labels = {}
    with open(path, encoding='utf-8') as handle:
        for line in handle:
            sample_id, label = line.rstrip('\n').split('\t')
            labels[sample_id] = label
    return labels


def cluster_scores(truth, predicted):
    '''(precision, recall, f1) of predicted labels against truth, over truth's samples.

    A sample missing from predicted counts as a cluster of its own.
    '''
    if not truth:
        raise ValueError('no samples to score')
    overlap = Counter((predicted.get(sample_id, ('missing', sample_id)), family)
                      for sample_id, family in truth.items())
    best_for_cluster = Counter()
    best_for_family = Counter()
    for (cluster, family), size in overlap.items():
        best_for_cluster[cluster] = max(best_for_cluster[cluster], size)
        best_for_family[family] = max(best_for_family[family], size)
    n = len(truth)
    precision = sum(best_for_cluster.values()) / n
    recall = sum(best_for_family.values()) / n
    return precision, recall, 2 * precision * recall / (precision + recall)
