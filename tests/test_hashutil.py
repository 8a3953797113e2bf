"""Unit tests for the deterministic hashing helpers."""

import numpy as np
import pytest

from repro.partitioning.hashutil import hash_to_partition, splitmix64


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_seed_decorrelates(self):
        assert splitmix64(12345, seed=1) != splitmix64(12345, seed=2)

    def test_vectorized_matches_scalar(self):
        values = np.arange(100)
        vector = splitmix64(values)
        for i in range(100):
            assert vector[i] == splitmix64(i)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**64 - 1, 7, 91])
    def test_int_path_matches_vector_path(self, seed):
        """Python ints take a pure-int path; it must return the same
        ``np.uint64`` as the vectorized path, at the range edges and on
        random values (negative ids wrap like ``astype(np.uint64)``)."""
        rng = np.random.default_rng(seed % 2**32)
        values = [0, 1, 2**32 - 1, 2**63 - 1, 2**63, 2**64 - 1, -1, -(2**63)]
        values += [int(x) for x in rng.integers(0, 2**63, size=50)]
        values += [int(x) for x in rng.integers(-(2**63), 0, size=10)]
        vector = splitmix64(
            np.array([v % 2**64 for v in values], dtype=np.uint64), seed
        )
        for value, expected in zip(values, vector):
            got = splitmix64(value, seed)
            assert type(got) is np.uint64
            assert got == expected

    @pytest.mark.parametrize(
        "value, seed",
        [(2**64, 0), (-(2**63) - 1, 0), (5, -1), (5, 2**64)],
    )
    def test_out_of_range_ints_rejected_like_vector_path(self, value, seed):
        with pytest.raises(OverflowError):
            splitmix64(value, seed)
        with pytest.raises(OverflowError):
            splitmix64(np.asarray(value), seed)

    def test_spreads_consecutive_inputs(self):
        hashed = splitmix64(np.arange(1000))
        # Consecutive integers should land in different high bits.
        assert np.unique(hashed >> np.uint64(32)).shape[0] > 900


class TestHashToPartition:
    def test_range(self):
        parts = hash_to_partition(np.arange(10_000), 7)
        assert parts.min() >= 0
        assert parts.max() < 7

    def test_scalar_returns_int(self):
        p = hash_to_partition(42, 5)
        assert isinstance(p, int)
        assert 0 <= p < 5

    def test_roughly_uniform(self):
        parts = hash_to_partition(np.arange(70_000), 7)
        counts = np.bincount(parts, minlength=7)
        assert counts.min() > 0.9 * 10_000
        assert counts.max() < 1.1 * 10_000

    def test_deterministic_across_calls(self):
        a = hash_to_partition(np.arange(100), 4, seed=3)
        b = hash_to_partition(np.arange(100), 4, seed=3)
        assert np.array_equal(a, b)
