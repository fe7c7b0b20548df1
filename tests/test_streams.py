import numpy as np
import pytest

from ufrank import streams


@pytest.mark.parametrize("key", [
    (0,), (0, 1, 2), (2**31, 5), (2**32 - 1, 0, 3), (2**32, 1),
    (2**64 + 5, 2, 0), (7, 2**32 - 1, 2**32), (np.int64(9), np.uint32(2**31)),
])
def test_stream_draws_as_the_seed_sequence_of_its_key(key):
    got = streams.stream(*key)
    want = np.random.default_rng(np.random.SeedSequence(key))
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.random(8), want.random(8))
    np.testing.assert_array_equal(got.integers(0, 2**62, size=8),
                                  want.integers(0, 2**62, size=8))


@pytest.mark.parametrize("key", [(-1,), (0, -1), (2**32, -3)])
def test_negative_keys_are_rejected(key):
    with pytest.raises(ValueError, match="non-negative"):
        streams.stream(*key)
