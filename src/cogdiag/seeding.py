"""Named deterministic RNG streams derived from one run seed.

Every random draw in the package flows from a single integer seed.
Each consumer asks for a labeled substream, so adding or removing one
kind of draw (say, disabling dropout) never shifts the values another
consumer sees.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np


def substream(seed: int, label: str) -> np.random.Generator:
    """Generator for ``label`` under ``seed``; same inputs, same stream."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, crc32(label.encode())]))
