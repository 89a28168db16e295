"""Tests for repro.util.bitsize."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitsize import bits_for_int, payload_bits


def _reference_bits(payload):
    """The recursive sizing rules, kept as the reference for the fast path."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, abs(payload).bit_length()) + (1 if payload < 0 else 0)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * max(1, len(payload))
    if isinstance(payload, (tuple, list)):
        if not payload:
            return 2
        return sum(_reference_bits(item) + 2 for item in payload)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple),
    max_leaves=20,
)
_UNSIZABLE = st.sampled_from([{}, {"a": 1}, set(), {1, 2}, object()])


def _embed(bad, sibling, path):
    """``bad`` wrapped once per ``path`` entry ``(as_tuple, siblings)``.

    Each wrapper holds ``siblings`` sizable copies of ``sibling`` before
    the wrapped value, so sizing must reach it past valid fields.
    """
    for as_tuple, siblings in path:
        items = [sibling] * siblings + [bad]
        bad = tuple(items) if as_tuple else items
    return bad


class TestBitsForInt:
    def test_zero_costs_one_bit(self):
        assert bits_for_int(0) == 1

    def test_small_values(self):
        assert bits_for_int(1) == 1
        assert bits_for_int(2) == 2
        assert bits_for_int(255) == 8
        assert bits_for_int(256) == 9

    def test_negative_costs_sign_bit(self):
        assert bits_for_int(-1) == bits_for_int(1) + 1

    @given(st.integers(min_value=1, max_value=2**62))
    def test_monotone_in_magnitude(self, value):
        assert bits_for_int(value) <= bits_for_int(2 * value)


class TestPayloadBits:
    def test_none_is_one_bit(self):
        assert payload_bits(None) == 1

    def test_bool_is_one_bit(self):
        assert payload_bits(True) == 1

    def test_float_is_64_bits(self):
        assert payload_bits(1.5) == 64

    def test_string_costs_eight_bits_per_char(self):
        assert payload_bits("abc") == 24

    def test_tuple_sums_fields_plus_overhead(self):
        flat = payload_bits((1, 2))
        assert flat == bits_for_int(1) + bits_for_int(2) + 2 * 2

    def test_nested_tuples(self):
        assert payload_bits(((1,),)) > payload_bits((1,))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            payload_bits({"a": 1})

    def test_empty_containers_are_not_free(self):
        # Regression: sum() over an empty tuple/list charged 0 bits — a
        # zero-cost signaling channel below the 1-bit minimum every other
        # payload pays.
        assert payload_bits(()) >= 1
        assert payload_bits([]) >= 1
        assert payload_bits(((),)) > payload_bits(())

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=8))
    def test_list_size_grows_with_content(self, values):
        assert payload_bits(values) >= max(1, len(values))


class TestPayloadBitsMatchesReference:
    @given(_PAYLOADS)
    def test_same_size_as_recursive_rules(self, payload):
        assert payload_bits(payload) == _reference_bits(payload)

    @given(st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=6))
    def test_flat_int_tuples(self, values):
        assert payload_bits(tuple(values)) == _reference_bits(tuple(values))

    @given(st.lists(st.booleans() | st.integers(-3, 3), max_size=6))
    def test_bools_cost_one_bit_inside_tuples(self, values):
        assert payload_bits(tuple(values)) == _reference_bits(tuple(values))

    @given(
        _PAYLOADS, _UNSIZABLE,
        st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=4),
    )
    def test_unsizable_values_raise_at_any_depth(self, sibling, bad, path):
        embedded = _embed(bad, sibling, path)
        with pytest.raises(TypeError):
            _reference_bits(embedded)
        with pytest.raises(TypeError):
            payload_bits(embedded)
