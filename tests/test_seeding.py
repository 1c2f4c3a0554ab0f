"""Seed mixing and epoch shuffling.

splitmix64 is checked against an independent transcription of the published
constants (oracles.py) plus the well-known test vector for state 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featherprune.seeding import (
    DATA_STREAM,
    INIT_STREAM,
    epoch_permutation,
    init_rng,
    mix_seed,
    splitmix64,
    shuffle_stream,
)

from oracles import epoch_permutation_reference, splitmix64_reference


class TestSplitmix64:
    def test_known_vector_state_zero(self):
        # first output of the reference generator seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    @given(state=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_transcription(self, state):
        _, out = splitmix64_reference(state)
        assert splitmix64(state) == out

    def test_output_is_64_bit(self):
        for state in (0, 1, (1 << 64) - 1, 12345678901234567890):
            assert 0 <= splitmix64(state) < (1 << 64)


class TestMixSeed:
    def test_streams_decorrelate(self):
        assert mix_seed(0, INIT_STREAM) != mix_seed(0, DATA_STREAM)
        assert mix_seed(0, shuffle_stream(0)) != mix_seed(0, shuffle_stream(1))

    def test_deterministic(self):
        assert mix_seed(42, 7) == mix_seed(42, 7)

    def test_seed_changes_output(self):
        assert mix_seed(0, 0) != mix_seed(1, 0)

    def test_data_stream_clears_epoch_range(self):
        # shuffle streams are 1 + epoch; dataset synthesis must never alias one
        assert DATA_STREAM > 1 + 10**6


class TestEpochPermutation:
    def test_is_a_permutation(self):
        perm = epoch_permutation(0, 0, 100)
        assert sorted(perm.tolist()) == list(range(100))

    def test_deterministic(self):
        np.testing.assert_array_equal(
            epoch_permutation(3, 5, 64), epoch_permutation(3, 5, 64)
        )

    def test_epochs_differ(self):
        a = epoch_permutation(0, 0, 50)
        b = epoch_permutation(0, 1, 50)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(
            epoch_permutation(0, 0, 50), epoch_permutation(1, 0, 50)
        )

    def test_length_one(self):
        np.testing.assert_array_equal(epoch_permutation(0, 0, 1), [0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive"):
            epoch_permutation(0, 0, 0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        epoch=st.integers(min_value=0, max_value=200),
        n=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_valid(self, seed, epoch, n):
        perm = epoch_permutation(seed, epoch, n)
        assert np.array_equal(np.sort(perm), np.arange(n))
        want = epoch_permutation_reference(mix_seed(seed, shuffle_stream(epoch)), n)
        assert perm.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 4096, 4800, 60000])
    def test_matches_scalar_fisher_yates(self, seed, n):
        # the vectorised splitmix64 draws must wrap exactly like the scalar loop
        want = epoch_permutation_reference(mix_seed(seed, shuffle_stream(3)), n)
        got = epoch_permutation(seed, 3, n)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()


class TestInitRng:
    def test_same_seed_same_draws(self):
        a = init_rng(9).standard_normal(8)
        b = init_rng(9).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_draws(self):
        assert not np.array_equal(
            init_rng(0).standard_normal(8), init_rng(1).standard_normal(8)
        )
