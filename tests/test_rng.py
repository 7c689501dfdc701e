import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitsim.rng import keys, rekeyer, stream

WORD = st.integers(0, 2**32 - 1)
# paths of one length per call, as a run's key table has
PATHS = st.integers(0, 5).flatmap(lambda m: st.lists(
    st.lists(WORD, min_size=m, max_size=m), min_size=1, max_size=6))
EDGE_PATHS = [[0, 0, 0, 0], [2**32 - 1] * 4, [1, 2**32 - 1, 0, 7]]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), paths=PATHS)
@example(seed=0, paths=EDGE_PATHS)
@example(seed=2**32 - 1, paths=EDGE_PATHS)
@example(seed=2**32, paths=EDGE_PATHS)
@example(seed=2**64, paths=EDGE_PATHS)
@example(seed=2**64 - 1, paths=[[]])
def test_keys_equal_seed_sequence(seed, paths):
    got = keys(seed, np.array(paths, dtype=np.uint64).reshape(len(paths), -1))
    want = [np.random.SeedSequence((seed, *p)).generate_state(2, np.uint64)
            for p in paths]
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


DRAWS = {
    "normal": lambda g: g.normal(0.0, 0.3, size=5),
    "choice": lambda g: g.choice(40, size=7, replace=False),
    "permutation": lambda g: g.permutation(9),
    "integers": lambda g: g.integers(0, 2**31, size=3, dtype=np.int32),
    "random": lambda g: g.random(4),
}

PATH_SET = [(0, 1, 0, 0, 0), (2**32 + 5, 1, 3, 2, 1), (2**64 + 3, 0, 7),
            (12, 1, 2**32 - 1, 0, 4)]


def key_of(path):
    return keys(path[0], [path[1:]])[0]


def test_keyed_draws_equal_stream_draws():
    rekey = rekeyer()
    for name, draw in DRAWS.items():
        for p in PATH_SET:
            np.testing.assert_array_equal(draw(rekey(key_of(p))), draw(stream(*p)),
                                          err_msg=f"{name} at {p}")


def test_rekey_after_an_odd_number_of_32_bit_draws():
    """A half-used 64-bit word (``has_uint32``) does not leak into the next
    key; keys given as lists, as the engine gives them."""
    rekey = rekeyer()
    first, second = PATH_SET[:2]
    for name, draw in DRAWS.items():
        g = rekey(key_of(first).tolist())
        g.integers(0, 2**31, size=3, dtype=np.int32)
        assert g.bit_generator.state["has_uint32"] == 1
        np.testing.assert_array_equal(draw(rekey(key_of(second).tolist())),
                                      draw(stream(*second)), err_msg=name)


def test_one_generator_is_reused():
    rekey = rekeyer()
    assert rekey([1, 2]) is rekey([3, 4])
