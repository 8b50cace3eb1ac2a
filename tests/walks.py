"""Canonical words of the level engine's elements, rebuilt from the
parent links it yields."""

import numpy as np


def with_words(levels):
    """Turn each (length, heights, parent, letter, rows, origin) level of
    ``weyl._levels`` into (length, heights, words, rows, origin), where
    ``words`` is an int8 array of shape (count, length) holding the
    1-based canonical reduced words: a parent's word plus the letter."""
    words = None
    for length, heights, parent, letter, rows, origin in levels:
        if parent is None:
            words = np.zeros((heights.shape[0], 0), dtype=np.int8)
        else:
            words = np.concatenate([words[parent], (letter + 1).astype(np.int8)[:, None]], axis=1)
        yield length, heights, words, rows, origin
