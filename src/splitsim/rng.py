"""Counter-based random stream derivation.

Every random draw in a run is obtained from a Philox generator keyed by
(seed, *path), where path is a tuple of small integers identifying the
consumer (round, client, step, ...). Streams with distinct paths are
statistically independent, so e.g. the client-order stream never perturbs
the gradient-noise streams.
"""

from __future__ import annotations

import numpy as np

# Path namespaces. Keeping them distinct guarantees that e.g. the order
# stream of round r never collides with a step stream of round r.
ORDER = 0
STEP = 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (seed, *path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))
