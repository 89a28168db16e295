"""Property tests of the RoundStats composition algebra.

Every field declares its composition policy once, in its dataclass field
metadata, and ``+``/``merge``/``copy``/``add_phase`` are derived from the
declarations. These tests pin the policy table itself, check that every
field composes the way its policy says, and check the algebraic laws
(merge associative and commutative with the empty stats as identity,
``add_phase`` agreeing with ``+``, ``copy`` sharing no mutable container,
a loss-free pickle round trip) over generated stats.
"""

import dataclasses
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.stats import POLICIES, RoundStats

# The composition table: sum; sum-sequential / max-parallel; key-wise sum;
# key-wise max; ordered union; nested.
POLICY_TABLE = {
    "rounds": "span",
    "messages": "sum",
    "message_bits": "sum",
    "activations": "sum",
    "messages_by_round": "key-sum",
    "edge_messages": "key-sum",
    "virtual_time": "span",
    "completion_times": "key-max",
    "phases": "nested",
    "notes": "union",
    "arbitration_stalls": "sum",
    "jobs": "nested",
}

_counts = st.integers(0, 40)
_round_hist = st.dictionaries(st.integers(0, 6), st.integers(1, 9), max_size=4)
_edge_hist = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, 9), max_size=4
)
_notes = st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True, max_size=3).map(tuple)


def _stats(nested):
    return st.builds(
        RoundStats,
        rounds=_counts,
        messages=_counts,
        message_bits=_counts,
        activations=_counts,
        messages_by_round=_round_hist,
        edge_messages=_edge_hist,
        virtual_time=_counts,
        completion_times=_round_hist,
        phases=nested,
        notes=_notes,
        arbitration_stalls=_counts,
        jobs=nested,
    )


_leaf = _stats(st.just({}))
stats = _stats(st.dictionaries(st.sampled_from(["p", "q"]), _leaf, max_size=2))


def _canonical(value):
    """Structural view with note order dropped (the only order-sensitive part)."""
    if isinstance(value, RoundStats):
        return {
            f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple) and all(isinstance(note, str) for note in value):
        return frozenset(value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    return value


def _expected(policy, left, right, parallel):
    """What one field's composition must yield, straight from the table."""
    if policy == "sum":
        return left + right
    if policy == "span":
        return max(left, right) if parallel else left + right
    if policy == "key-sum":
        return dict(Counter(left) + Counter(right))
    if policy == "key-max":
        return {key: max(left.get(key, 0), right.get(key, 0)) for key in left | right}
    if policy == "union":
        return left + tuple(note for note in right if note not in left)
    assert policy == "nested"
    compose = RoundStats.merge if parallel else RoundStats.__add__
    return {
        key: compose(left[key], right[key])
        if key in left and key in right else left.get(key, right.get(key))
        for key in left | right
    }


def test_every_field_declares_a_policy():
    # A new counter without a policy (or with an unknown one) fails here,
    # instead of being silently dropped by one of the derived operations.
    for f in dataclasses.fields(RoundStats):
        assert f.metadata.get("policy") in POLICIES, f.name


def test_policy_table_is_pinned():
    declared = {f.name: f.metadata["policy"] for f in dataclasses.fields(RoundStats)}
    assert declared == POLICY_TABLE


@settings(max_examples=60, deadline=None)
@given(stats, stats)
def test_each_field_composes_as_its_policy_says(left, right):
    sequential, parallel = left + right, left.merge(right)
    for name, policy in POLICY_TABLE.items():
        a, b = getattr(left, name), getattr(right, name)
        assert getattr(sequential, name) == _expected(policy, a, b, False), name
        assert getattr(parallel, name) == _expected(policy, a, b, True), name


@settings(max_examples=60, deadline=None)
@given(stats, stats, stats)
def test_merge_is_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@settings(max_examples=60, deadline=None)
@given(stats, stats)
def test_merge_is_commutative(a, b):
    # Notes keep first-seen order, so commutativity holds up to note order.
    assert _canonical(a.merge(b)) == _canonical(b.merge(a))


@settings(max_examples=60, deadline=None)
@given(stats)
def test_empty_stats_are_the_merge_identity(a):
    assert a.merge(RoundStats()) == a
    assert RoundStats().merge(a) == a


@settings(max_examples=60, deadline=None)
@given(stats)
def test_pickle_round_trip(original):
    assert pickle.loads(pickle.dumps(original)) == original


@settings(max_examples=60, deadline=None)
@given(stats, stats)
def test_add_phase_totals_equal_sequential_sum(total, phase):
    expected = total + phase
    accumulated = total.copy()  # generated phase names never include "x"
    expected_phases = {**accumulated.phases, "x": phase}
    accumulated.add_phase("x", phase)
    for f in dataclasses.fields(RoundStats):
        if f.name != "phases":
            assert getattr(accumulated, f.name) == getattr(expected, f.name), f.name
    assert accumulated.phases == expected_phases


def _containers(stats_value):
    """Every mutable container reachable from a RoundStats, nested included."""
    for f in dataclasses.fields(RoundStats):
        value = getattr(stats_value, f.name)
        if isinstance(value, dict):
            yield value
            for item in value.values():
                if isinstance(item, RoundStats):
                    yield from _containers(item)


@settings(max_examples=60, deadline=None)
@given(stats)
def test_copy_shares_no_mutable_container(original):
    duplicate = original.copy()
    assert duplicate == original
    originals = {id(container) for container in _containers(original)}
    assert not originals & {id(container) for container in _containers(duplicate)}


def test_check_names_the_broken_identity():
    RoundStats().check()
    stats_value = RoundStats(messages=3, messages_by_round={0: 3}, edge_messages={(0, 1): 2})
    with pytest.raises(ValueError, match="edge_messages != messages"):
        stats_value.check()
    nested = RoundStats(phases={"p": stats_value})
    with pytest.raises(ValueError, match="edge_messages"):
        nested.check()
