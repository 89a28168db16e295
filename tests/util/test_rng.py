"""Tests for repro.util.rng."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import derive_node_rng, ensure_rng, part_sample_hash

STREAM_KEYS = [(0, 0), (1, 7), (12345, 3), (2**62 - 1, 22499)]


def _eager_node_rng(run_seed, node_index):
    """The node stream as an eagerly seeded ``random.Random``."""
    digest = hashlib.sha256(f"node:{run_seed}:{node_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draws(rng):
    """A mix of draws that reaches every Mersenne Twister entry point."""
    deck = list(range(30))
    rng.shuffle(deck)
    return (
        rng.random(), rng.randrange(10**9), rng.randrange(3), deck,
        rng.choice("abcdefgh"), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0),
        rng.getrandbits(70), rng.sample(range(100), 5),
    )


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_passthrough_of_existing_generator(self):
        generator = random.Random(1)
        assert ensure_rng(generator) is generator

    def test_none_gives_a_generator(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()


@pytest.mark.parametrize("run_seed, node_index", STREAM_KEYS)
class TestNodeStreams:
    def test_is_a_random_generator(self, run_seed, node_index):
        assert isinstance(derive_node_rng(run_seed, node_index), random.Random)

    def test_same_draws_as_eager_seeding(self, run_seed, node_index):
        lazy = derive_node_rng(run_seed, node_index)
        eager = _eager_node_rng(run_seed, node_index)
        assert _draws(lazy) == _draws(eager)
        assert _draws(lazy) == _draws(eager)

    def test_shuffle_as_first_draw(self, run_seed, node_index):
        # shuffle's first _randbelow call binds getrandbits before the
        # first draw seeds the stream, and for (0, 0) and (12345, 3) that
        # draw is rejected, so the bound method draws again.
        lazy, eager = list(range(50)), list(range(50))
        derive_node_rng(run_seed, node_index).shuffle(lazy)
        _eager_node_rng(run_seed, node_index).shuffle(eager)
        assert lazy == eager

    def test_getstate_and_setstate(self, run_seed, node_index):
        lazy = derive_node_rng(run_seed, node_index)
        eager = _eager_node_rng(run_seed, node_index)
        assert lazy.getstate() == eager.getstate()
        _draws(eager)
        lazy.setstate(eager.getstate())
        assert _draws(lazy) == _draws(eager)
        # setstate as the first call replaces the derived stream.
        fresh = derive_node_rng(run_seed, node_index + 1)
        fresh.setstate(eager.getstate())
        assert _draws(fresh) == _draws(eager)

    def test_seed_replaces_the_stream(self, run_seed, node_index):
        lazy = derive_node_rng(run_seed, node_index)
        lazy.seed(99)
        assert _draws(lazy) == _draws(random.Random(99))

    @pytest.mark.parametrize("drawn", [False, True])
    def test_pickle_and_deepcopy(self, run_seed, node_index, drawn):
        lazy = derive_node_rng(run_seed, node_index)
        eager = _eager_node_rng(run_seed, node_index)
        if drawn:
            _draws(lazy)
            _draws(eager)
        copies = [pickle.loads(pickle.dumps(lazy)), copy.deepcopy(lazy)]
        expected = _draws(eager)
        for clone in copies:
            assert _draws(clone) == expected
        assert _draws(lazy) == expected


class TestPartSampleHash:
    def test_deterministic(self):
        assert part_sample_hash(5, 99, 0.5) == part_sample_hash(5, 99, 0.5)

    def test_probability_zero_never_samples(self):
        assert not any(part_sample_hash(i, 3, 0.0) for i in range(100))

    def test_probability_one_always_samples(self):
        assert all(part_sample_hash(i, 3, 1.0) for i in range(100))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            part_sample_hash(0, 0, 1.5)
        with pytest.raises(ValueError):
            part_sample_hash(0, 0, -0.1)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_seed_changes_decisions_eventually(self, part_id):
        # Across many seeds the decision at p=0.5 must not be constant.
        decisions = {part_sample_hash(part_id, seed, 0.5) for seed in range(64)}
        assert decisions == {True, False}

    def test_empirical_rate_close_to_probability(self):
        hits = sum(part_sample_hash(i, 42, 0.3) for i in range(5000))
        assert 0.25 < hits / 5000 < 0.35
