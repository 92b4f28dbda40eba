"""ARR003 bad: bare 1-D np.unique dedupes through a hash table (graph/)."""

import numpy
import numpy as np

_np = np


def dedupe(keys, src, dst, n):
    distinct = np.unique(keys)
    pairs = _np.unique(np.concatenate((src * n + dst, dst * n + src)))
    unsorted = numpy.unique(keys, sorted=False)
    no_counts = np.unique(keys, return_counts=False)
    return distinct, pairs, unsorted, no_counts
