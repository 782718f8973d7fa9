"""Tests for repro.crypto.hashing: canonical digests over structured values."""

import enum
import hashlib

from hypothesis import example, given, strategies as st

from repro.crypto.hashing import (
    _canon_sequence,
    _canonical_bytes_slow,
    _len_prefix,
    chain_hash,
    digest,
    digest_hex,
)
from repro.ledger.store import ExecutionResult


class TestDigestBasics:
    def test_digest_is_32_bytes(self):
        assert len(digest("hello")) == 32

    def test_digest_hex_matches_digest(self):
        assert digest_hex("abc", 1) == digest("abc", 1).hex()

    def test_same_input_same_digest(self):
        assert digest("a", 1, b"x") == digest("a", 1, b"x")

    def test_different_inputs_differ(self):
        assert digest("a") != digest("b")

    def test_multiple_args_equivalent_to_unpacking(self):
        assert digest(1, 2) == digest(*(1, 2))

    def test_argument_order_matters(self):
        assert digest(1, 2) != digest(2, 1)


class TestTypeTagging:
    """The canonical encoding must not confuse values of different types."""

    def test_int_vs_string(self):
        assert digest(1) != digest("1")

    def test_bytes_vs_string(self):
        assert digest(b"abc") != digest("abc")

    def test_bool_vs_int(self):
        assert digest(True) != digest(1)

    def test_none_vs_empty_string(self):
        assert digest(None) != digest("")

    def test_nested_structures(self):
        assert digest([1, [2, 3]]) != digest([1, 2, 3])

    def test_dict_ordering_is_canonical(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_dict_vs_tuple(self):
        assert digest({"a": 1}) != digest(("a", 1))

    def test_object_with_canonical_bytes(self):
        class Thing:
            def canonical_bytes(self):
                return b"thing-bytes"

        assert digest(Thing()) == digest(Thing())


class TestChainHash:
    def test_chain_hash_depends_on_parent(self):
        parent_a = digest("parent-a")
        parent_b = digest("parent-b")
        assert chain_hash(parent_a, "payload") != chain_hash(parent_b, "payload")

    def test_chain_hash_depends_on_payload(self):
        parent = digest("parent")
        assert chain_hash(parent, "x") != chain_hash(parent, "y")


@given(st.lists(st.one_of(st.integers(), st.text(), st.binary(), st.booleans(),
                          st.none()), max_size=8))
def test_digest_deterministic_property(values):
    """Hashing the same structured value twice always gives the same digest."""
    assert digest(*values) == digest(*values)


@given(st.text(), st.text())
def test_distinct_strings_rarely_collide(a, b):
    """Distinct inputs produce distinct digests (collision resistance proxy)."""
    if a != b:
        assert digest(a) != digest(b)


class _Level(enum.IntEnum):
    LOW = 7
    HIGH = 5000


class _Name(str):
    """A ``str`` subclass: must encode like the plain string it holds."""


def _reference(value):
    """The canonical encoding with no fast path: sequences and dicts
    recurse here, every other value goes through the isinstance cascade."""
    if isinstance(value, (tuple, list)):
        return b"T" + _len_prefix(len(value)) + b"".join(_reference(v) for v in value)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return b"D" + _len_prefix(len(items)) + b"".join(
            _reference(k) + _reference(v) for k, v in items)
    return _canonical_bytes_slow(value)


_LEAVES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=4096, max_value=10**30),
    st.sampled_from(list(_Level)),
    st.text(),
    st.text().map(_Name),
    st.binary(max_size=64),
    st.binary(min_size=512, max_size=600),
    st.floats(allow_nan=False),
    st.none(),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=24,
)


@example([True, 1, False, 0, -3, 4096, _Level.LOW, _Level.HIGH, "é✓", _Name("user1"),
          b"z" * 512, "s" * 600, {"k": [1, ("x", b"y")], "j": {}}, (), []])
@given(st.lists(_VALUES, max_size=8))
def test_sequence_fast_loop_matches_reference_encoding(values):
    """The inlined sequence loop is byte-identical to the cascade."""
    assert _canon_sequence(values) == _reference(values)
    assert _canon_sequence(tuple(values)) == _reference(tuple(values))
    assert digest(*values) == hashlib.sha256(_reference(tuple(values))).digest()


@example("t", [], 0)
@example("t", [("k", None), ("k2", "")], 1)
@given(st.text(), st.lists(st.tuples(st.text(), st.none() | st.text()), max_size=5),
       st.integers(min_value=0, max_value=10**6))
def test_execution_result_digest_matches_generic_encoding(txn_id, reads, writes):
    """The one-pass result encoding hashes what the generic encoder would."""
    result = ExecutionResult(txn_id=txn_id, reads=tuple(reads), writes_applied=writes)
    assert result.digest() == digest("result", txn_id, list(reads), writes)
