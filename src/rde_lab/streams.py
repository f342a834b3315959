"""Counter-based RNG stream derivation.

Every stochastic entry point takes a 64-bit seed; independent substreams
are derived as SeedSequence([seed, index]) so that reruns with the same
(seed, layout) are bit-identical and no two batches share state.
"""

from __future__ import annotations

import numpy as np


def derive(seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))
