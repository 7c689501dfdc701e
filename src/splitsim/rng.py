"""Counter-based random stream derivation.

Every random draw in a run is obtained from a Philox generator keyed by
(seed, *path), where path is a tuple of small integers identifying the
consumer (round, client, step, ...). Streams with distinct paths are
statistically independent, so e.g. the client-order stream never perturbs
the gradient-noise streams. ``stream`` is the reference; ``keys`` and
``rekeyer`` give the same draws without building a generator per path.
"""

from __future__ import annotations

import numpy as np

# Path namespaces. Keeping them distinct guarantees that e.g. the order
# stream of round r never collides with a step stream of round r.
ORDER = 0
STEP = 1

# numpy's SeedSequence hash constants; its entropy pool is 4 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (seed, *path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))


def _consts(c: int, mult: int, n: int) -> np.ndarray:
    """The hash constants c * mult**j mod 2**32 for j < n, as a column."""
    return np.array([c * pow(mult, j, 2**32) % 2**32 for j in range(n)], np.uint32)[:, None]


def _hashmix(v, c):
    """SeedSequence's hashmix of row j of ``v`` with constants c[j], c[j + 1]."""
    v = (v ^ c[:-1]) * c[1:]
    return v ^ (v >> 16)


def _mix(x, y):
    v = _MIX_L * x - _MIX_R * y
    return v ^ (v >> 16)


def keys(seed: int, paths) -> np.ndarray:
    """``SeedSequence((seed, *path)).generate_state(2, np.uint64)``, the key
    of ``stream(seed, *path)``, per row of ``paths`` (words < 2**32): its hash
    on uint32 arrays, a column per path (arrays, unlike scalars, wrap silently)."""
    paths = np.asarray(paths, np.uint32).T
    head = np.frombuffer(seed.to_bytes(4 * ((seed.bit_length() + 31) // 32 or 1),
                                       "little"), "<u4")
    ent = np.zeros((max(4, len(head) + len(paths)), paths.shape[1]), np.uint32)
    ent[:len(head)] = head[:, None]
    ent[len(head):len(head) + len(paths)] = paths
    a = _consts(_INIT_A, _MULT_A, 4 * len(ent) + 1)
    pool = _hashmix(ent[:4], a[:5])
    for src in range(4):  # mix every pool word into the other three
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[4 + 3 * src:8 + 3 * src]))
    for src in range(4, len(ent)):  # then every word beyond the pool
        pool = _mix(pool, _hashmix(ent[src], a[4 * src:4 * src + 5]))
    state = _hashmix(pool, _consts(_INIT_B, _MULT_B, 5)).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def rekeyer():
    """``rekey(key)``: one reused generator, reset to the fresh state
    ``stream`` has at ``key``; what it returns is valid until its next call."""
    gen = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    def rekey(key) -> np.random.Generator:
        state["state"]["key"] = key
        gen.bit_generator.state = state
        return gen
    return rekey
