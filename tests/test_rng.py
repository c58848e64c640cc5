import numpy as np
from hypothesis import given, strategies as st

from drivedml.rng import Xorshift64Star, derive_seed, splitmix64


def test_splitmix_reference_values():
    # documented generator: fixed points must never change across releases
    state, out = splitmix64(0)
    state2, out2 = splitmix64(state)
    assert out != out2
    again_state, again_out = splitmix64(0)
    assert (again_state, again_out) == (state, out)


def test_derive_seed_distinguishes_tags():
    root = 1234
    assert derive_seed(root, "a") != derive_seed(root, "b")
    assert derive_seed(root, "a", 0) != derive_seed(root, "a", 1)
    assert derive_seed(root, "a") == derive_seed(root, "a")


@given(st.integers(min_value=0, max_value=2**63))
def test_stream_determinism(seed):
    a = Xorshift64Star(seed)
    b = Xorshift64Star(seed)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
def test_next_below_in_range(seed, bound):
    stream = Xorshift64Star(seed)
    for _ in range(20):
        assert 0 <= stream.next_below(bound) < bound


def test_shuffle_is_permutation():
    values = np.arange(100)
    Xorshift64Star(7).shuffle(values)
    assert sorted(values.tolist()) == list(range(100))

