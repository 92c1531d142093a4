"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    child_rngs,
    choose_distinct,
    ensure_rng,
    spawn_child_seeds,
    spawn_seeds,
)


class TestEnsureRng:
    def test_from_int_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1_000_000, size=5)
        b = ensure_rng(42).integers(0, 1_000_000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(sequence), np.random.Generator)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnChildSeeds:
    def test_spawn_seeds_is_an_alias(self):
        assert spawn_seeds(123, 8) == spawn_child_seeds(123, 8)

    def test_prefix_stable(self):
        # The engine relies on this: growing a case grid keeps the child
        # seeds (and store addresses) of all existing cases.
        assert spawn_child_seeds(9, 12)[:5] == spawn_child_seeds(9, 5)

    def test_distinct_roots_diverge(self):
        assert spawn_child_seeds(0, 6) != spawn_child_seeds(1, 6)

    def test_children_are_63_bit_ints(self):
        for seed in spawn_child_seeds(2, 32):
            assert isinstance(seed, int)
            assert 0 <= seed < 2**63 - 1


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(123, 5) == spawn_seeds(123, 5)

    def test_distinct(self):
        seeds = spawn_seeds(0, 20)
        assert len(set(seeds)) == 20

    def test_count_zero(self):
        assert spawn_seeds(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)

    def test_from_generator(self):
        seeds = spawn_seeds(np.random.default_rng(3), 4)
        assert len(seeds) == 4

    def test_child_rngs_independent_streams(self):
        rngs = child_rngs(9, 3)
        values = [r.uniform() for r in rngs]
        assert len(set(values)) == 3


class TestNumpyDrawEquivalences:
    """The numpy behaviours the scalar stream draws rely on.

    Every scenario stream and Meyerson-family coin is bit-identical to the
    array draws it replaced only while these hold; a numpy upgrade that
    breaks one fails here by name instead of silently moving every stream.
    """

    @pytest.mark.parametrize(
        "n", [1, 2, 8, 10_000, 10_001, 2**32 - 1, 2**32, 2**40]
    )
    def test_choose_one_is_choice_without_replacement(self, n):
        for seed in range(50):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                expected = theirs.choice(n, size=1, replace=False).tolist()
                assert choose_distinct(ours, n, 1) == expected
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n,size", [(2, 2), (6, 3), (8, 8), (10_001, 5)])
    def test_larger_sizes_are_choice_without_replacement(self, n, size):
        for seed in range(10):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = choose_distinct(ours, n, size)
            assert drawn == theirs.choice(n, size=size, replace=False).tolist()
            assert all(type(value) is int for value in drawn)
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_random_is_uniform(self):
        ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
        assert [ours.random() for _ in range(10**5)] == [
            theirs.uniform() for _ in range(10**5)
        ]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("k", [0, 1, 4, 2**40])
    def test_one_value_integers_leaves_the_state(self, k):
        generator = np.random.default_rng(7)
        generator.integers(0, 10)  # leaves half of a 64-bit draw buffered
        state = generator.bit_generator.state
        assert generator.integers(k, k + 1) == k
        assert generator.bit_generator.state == state
