"""ARR003 good: sort-based dedupe, or np.unique on numpy's sort path (graph/)."""

import numpy as np


def _sorted_unique(keys):
    keys = np.sort(keys)
    distinct = keys[1:] != keys[:-1]
    return np.concatenate((keys[:1], keys[1:][distinct]))


def dedupe(keys, rows, labels):
    distinct = _sorted_unique(keys)
    table = np.unique(rows, axis=0)
    ids, inverse = np.unique(labels, return_inverse=True)
    values, counts = np.unique(keys, return_counts=True)
    first, where = np.unique(keys, return_index=True)
    return distinct, table, ids, inverse, values, counts, first, where
