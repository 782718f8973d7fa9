"""Collision-resistant digests over arbitrary structured values.

The paper assumes a hash function ``D(.)`` mapping an arbitrary value to a
constant-size digest (Section II-A) and uses SHA-256 in RESILIENTDB
(Section IV-C).  Protocol messages here are Python dataclasses and tuples,
so the helpers below canonicalise structured values into bytes before
hashing them.

The encoding is deliberately simple and deterministic: it tags every
element with its type so that, e.g., ``(1, "2")`` and ``("1", 2)`` never
collide, and it recurses into tuples, lists and dicts (dicts are sorted by
key).  Custom objects may expose ``canonical_bytes()``.

Canonicalisation sits on the consensus hot path (every proposal, vote and
ledger block goes through it), so the common cases — bytes, str, small
ints, tuples — dispatch through a per-type table instead of an isinstance
cascade, with precomputed length prefixes and small-integer encodings.
Sequences go one step further: :func:`_canon_sequence` encodes exact
``str``, ``bytes``, small non-negative ``int`` and nested ``tuple``/``list``
items in its own loop, with no per-item call, and hands every other item
to :func:`_canonical_bytes`.  The produced bytes are identical to those of
the isinstance cascade in :func:`_canonical_bytes_slow`, which the tests
use as the reference.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict

#: Precomputed 8-byte big-endian length prefixes for short payloads.
_LEN_PREFIX = tuple(i.to_bytes(8, "big") for i in range(512))
_LEN_CACHED = len(_LEN_PREFIX)


def _len_prefix(n: int) -> bytes:
    return _LEN_PREFIX[n] if n < _LEN_CACHED else n.to_bytes(8, "big")


def _canon_bytes(value: bytes) -> bytes:
    return b"B" + _len_prefix(len(value)) + value


def _canon_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return b"S" + _len_prefix(len(raw)) + raw


def _canon_bool(value: bool) -> bytes:
    return b"L1" if value else b"L0"


def _canon_int(value: int) -> bytes:
    if 0 <= value < _INT_CACHED:
        return _INT_CACHE[value]
    raw = str(value).encode("ascii")
    return b"I" + _len_prefix(len(raw)) + raw


def _canon_float(value: float) -> bytes:
    raw = repr(value).encode("ascii")
    return b"F" + _len_prefix(len(raw)) + raw


def _canon_none(value: None) -> bytes:
    return b"N"


def _canon_sequence(value: Any) -> bytes:
    parts = [b"T", _len_prefix(len(value))]
    append = parts.append
    for item in value:
        # The item kinds protocol tuples are made of, encoded in this loop
        # exactly as their ``_canon_*`` handlers would; anything else goes
        # through ``_canonical_bytes``.
        cls = item.__class__
        if cls is str:
            raw = item.encode("utf-8")
            size = len(raw)
            append(b"S")
            append(_LEN_PREFIX[size] if size < _LEN_CACHED else size.to_bytes(8, "big"))
            append(raw)
        elif cls is bytes:
            size = len(item)
            append(b"B")
            append(_LEN_PREFIX[size] if size < _LEN_CACHED else size.to_bytes(8, "big"))
            append(item)
        elif cls is int and 0 <= item < _INT_CACHED:
            append(_INT_CACHE[item])
        elif cls is tuple or cls is list:
            append(_canon_sequence(item))
        else:
            append(_canonical_bytes(item))
    return b"".join(parts)


def _canon_dict(value: Dict[Any, Any]) -> bytes:
    items = sorted(value.items(), key=lambda kv: repr(kv[0]))
    parts = [b"D", _len_prefix(len(items))]
    append = parts.append
    canonical = _canonical_bytes
    for key, item in items:
        append(canonical(key))
        append(canonical(item))
    return b"".join(parts)


#: Exact-type dispatch for the hot cases.  ``bool`` precedes ``int`` in the
#: fallback cascade; here exact ``type()`` keys make the distinction free.
_DISPATCH: Dict[type, Callable[[Any], bytes]] = {
    bytes: _canon_bytes,
    str: _canon_str,
    bool: _canon_bool,
    int: _canon_int,
    float: _canon_float,
    type(None): _canon_none,
    tuple: _canon_sequence,
    list: _canon_sequence,
    dict: _canon_dict,
}

#: Precomputed full encodings for small non-negative integers (sequence
#: numbers, views, batch sizes — the overwhelming majority of ints hashed).
_INT_CACHE = tuple(
    b"I" + _len_prefix(len(str(i))) + str(i).encode("ascii")
    for i in range(4096)
)
_INT_CACHED = len(_INT_CACHE)


def _canonical_bytes_slow(value: Any) -> bytes:
    """Fallback cascade for subclasses and custom objects.

    Mirrors the original isinstance-ordered encoding exactly (bool before
    int, tuple/list together, then dict, then ``canonical_bytes()`` duck
    typing, finally ``repr``).
    """
    if isinstance(value, bytes):
        return _canon_bytes(value)
    if isinstance(value, str):
        return _canon_str(value)
    if isinstance(value, bool):
        return _canon_bool(value)
    if isinstance(value, int):
        return _canon_int(value)
    if isinstance(value, float):
        return _canon_float(value)
    if value is None:
        return b"N"
    if isinstance(value, (tuple, list)):
        return _canon_sequence(value)
    if isinstance(value, dict):
        return _canon_dict(value)
    canonical = getattr(value, "canonical_bytes", None)
    if callable(canonical):
        raw = canonical()
        return b"O" + _len_prefix(len(raw)) + raw
    raw = repr(value).encode("utf-8")
    return b"R" + _len_prefix(len(raw)) + raw


def _canonical_bytes(value: Any) -> bytes:
    """Serialise *value* into a canonical byte string."""
    handler = _DISPATCH.get(value.__class__)
    if handler is not None:
        return handler(value)
    return _canonical_bytes_slow(value)


def digest(*values: Any) -> bytes:
    """Return the 32-byte SHA-256 digest of the canonical encoding of *values*.

    Multiple arguments are hashed as a tuple, mirroring the paper's
    ``D(k || v || <T>_c)`` concatenation notation.
    """
    return hashlib.sha256(_canon_sequence(values)).digest()


def digest_hex(*values: Any) -> str:
    """Hex form of :func:`digest`, convenient for logs and block identifiers."""
    return digest(*values).hex()


def chain_hash(previous_hash: bytes, *values: Any) -> bytes:
    """Hash used to chain ledger blocks: ``H(prev || payload)``."""
    return digest(previous_hash, *values)
