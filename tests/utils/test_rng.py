"""Tests for the hierarchical RNG derivation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import SeedSequenceTree


class TestSeedSequenceTree:
    def test_same_path_same_stream(self):
        tree = SeedSequenceTree(42)
        a = tree.rng("node", 3).random(8)
        b = tree.rng("node", 3).random(8)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        tree = SeedSequenceTree(42)
        a = tree.rng("node", 3).random(8)
        b = tree.rng("node", 4).random(8)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = SeedSequenceTree(1).rng("x").random(8)
        b = SeedSequenceTree(2).rng("x").random(8)
        assert not np.array_equal(a, b)

    def test_string_and_int_components_are_distinct(self):
        tree = SeedSequenceTree(7)
        # The int 1 and the string "1" must not collide.
        a = tree.rng(1).random(8)
        b = tree.rng("1").random(8)
        assert not np.array_equal(a, b)

    def test_path_order_matters(self):
        tree = SeedSequenceTree(7)
        a = tree.rng("a", "b").random(8)
        b = tree.rng("b", "a").random(8)
        assert not np.array_equal(a, b)

    def test_bool_component_distinct_from_int(self):
        tree = SeedSequenceTree(7)
        a = tree.rng(True).random(4)
        b = tree.rng(1).random(4)
        assert not np.array_equal(a, b)

    def test_rejects_bad_component_type(self):
        tree = SeedSequenceTree(7)
        with pytest.raises(TypeError):
            tree.rng(3.14)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError):
            SeedSequenceTree(-1)

    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            SeedSequenceTree("42")  # type: ignore[arg-type]

    def test_master_seed_property(self):
        assert SeedSequenceTree(99).master_seed == 99

    def test_numpy_integer_seed_accepted(self):
        tree = SeedSequenceTree(np.int64(5))
        assert tree.master_seed == 5

    def test_subtree_differs_from_root_paths(self):
        tree = SeedSequenceTree(11)
        sub = tree.subtree("rep", 3)
        a = sub.rng("node", 0).random(8)
        b = tree.rng("node", 0).random(8)
        assert not np.array_equal(a, b)

    def test_subtree_is_deterministic(self):
        a = SeedSequenceTree(11).subtree("rep", 3).rng("x").random(8)
        b = SeedSequenceTree(11).subtree("rep", 3).rng("x").random(8)
        assert np.array_equal(a, b)

    def test_distinct_subtrees_differ(self):
        tree = SeedSequenceTree(11)
        a = tree.subtree("rep", 0).rng("x").random(8)
        b = tree.subtree("rep", 1).rng("x").random(8)
        assert not np.array_equal(a, b)


class TestHelpers:
    def test_rngs_match_tree_rng(self):
        a = [g.random(4) for g in SeedSequenceTree(5).rngs(("p",), [2, 7])]
        b = [SeedSequenceTree(5).rng("p", i).random(4) for i in (2, 7)]
        assert np.array_equal(a, b)

    def test_rngs_count_and_independence(self):
        rngs = SeedSequenceTree(5).rngs(("nodes",), range(4))
        assert len(rngs) == 4
        draws = [g.random(4) for g in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_rngs_zero(self):
        assert SeedSequenceTree(5).rngs((), []) == []

    def test_rngs_reject_non_integer_ids_and_components(self):
        tree = SeedSequenceTree(5)
        for ids in ([1.5], [True], ["1"]):
            with pytest.raises(TypeError):
                tree.rngs(("p",), ids)
        with pytest.raises(TypeError):
            tree.rngs((3.14,), [1])
        with pytest.raises(TypeError):
            tree.rngs(("p",), [1], (None,))


#: Master seeds whose run entropy spans one word, two, the 2**64 - 1
#: boundary, and seven words (longer than the 4-word pool).
BATCH_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**200 + 3]
BATCH_PATHS = [
    (("node",), ("pso",)),
    (("fastpath", "draws", 3, 0), ()),
    ((), ()),
    (("é/ü%d", np.int64(-5), True, 7), ("x", False, np.int64(2**40))),
]
MAX_ID = 2**31 - 2  # the packed-view id bound
_COMPONENTS = st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=6), st.booleans())


class TestBatchDerivation:
    """``rngs`` against NumPy's own ``SeedSequence`` path, stream for stream."""

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64])
    def test_equals_seed_sequence(self, seed, bit_generator):
        tree = SeedSequenceTree(seed)
        words = {np.random.PCG64: 4, np.random.SFC64: 3}[bit_generator]
        ids = [0, 255, 256, MAX_ID]
        for prefix, suffix in BATCH_PATHS:
            got = tree.rngs(prefix, ids, suffix, bit_generator=bit_generator)
            assert len(got) == len(ids)
            for i, gen in zip(ids, got):
                ss = tree.seed_sequence(*prefix, i, *suffix)
                assert type(gen.bit_generator) is bit_generator
                assert np.array_equal(
                    gen.bit_generator.seed_seq.generate_state(words, np.uint64),
                    ss.generate_state(words, np.uint64),
                )
                ref = np.random.Generator(bit_generator(ss))
                assert np.array_equal(gen.random(8), ref.random(8))

    @pytest.mark.parametrize("m", [0, 1, 3, 4000])
    def test_batch_sizes_match_tree_rng(self, m):
        tree = SeedSequenceTree(20).subtree("rep", 1)
        ids = np.arange(m, dtype=np.int64) * 537_289 % (MAX_ID + 1)
        got = tree.rngs(("node",), ids, ("pso",))
        assert len(got) == m
        step = max(1, m // 97)  # every stream of small batches, a sample of large
        for i in range(0, m, step):
            ref = tree.rng("node", int(ids[i]), "pso")
            assert np.array_equal(
                got[i].integers(0, 2**63, size=8), ref.integers(0, 2**63, size=8)
            )

    def test_id_containers_are_interchangeable(self):
        tree = SeedSequenceTree(3)
        first = [g.random() for g in tree.rngs(("a",), [0, 1, 2])]
        for ids in (np.array([0, 1, 2], dtype=np.uint32), (0, 1, 2), range(3)):
            assert [g.random() for g in tree.rngs(("a",), ids)] == first

    def test_only_precomputed_words_are_handed_out(self):
        seq = SeedSequenceTree(3).rngs(("a",), [1])[0].bit_generator.seed_seq
        with pytest.raises(ValueError):
            seq.generate_state(8, np.uint32)
        with pytest.raises(ValueError):
            seq.generate_state(5, np.uint64)

    def test_batch_generator_survives_pickle(self):
        gen = SeedSequenceTree(3).rngs(("a",), [1, 2], bit_generator=np.random.SFC64)[1]
        gen.random(3)
        clone = pickle.loads(pickle.dumps(gen))
        assert np.array_equal(clone.random(16), gen.random(16))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**130),
        prefix=st.lists(_COMPONENTS, max_size=3),
        ids=st.lists(st.integers(min_value=0, max_value=2**62), max_size=6),
        suffix=st.lists(_COMPONENTS, max_size=2),
    )
    def test_property_equals_oracle(self, seed, prefix, ids, suffix):
        tree = SeedSequenceTree(seed)
        got = tree.rngs(tuple(prefix), ids, tuple(suffix))
        for i, gen in zip(ids, got, strict=True):
            ref = tree.rng(*prefix, i, *suffix)
            assert np.array_equal(
                gen.integers(0, 2**63, size=4), ref.integers(0, 2**63, size=4)
            )


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    path=st.lists(
        st.one_of(st.integers(min_value=0, max_value=10**6), st.text(max_size=12)),
        max_size=4,
    ),
)
def test_property_same_path_reproducible(seed, path):
    """Any (seed, path) pair always yields the identical stream."""
    a = SeedSequenceTree(seed).rng(*path).integers(0, 2**31, size=4)
    b = SeedSequenceTree(seed).rng(*path).integers(0, 2**31, size=4)
    assert np.array_equal(a, b)


@given(seed=st.integers(min_value=0, max_value=2**32))
def test_property_sibling_streams_differ(seed):
    """Adjacent integer paths practically never collide."""
    tree = SeedSequenceTree(seed)
    a = tree.rng("n", 0).integers(0, 2**31, size=8)
    b = tree.rng("n", 1).integers(0, 2**31, size=8)
    assert not np.array_equal(a, b)
