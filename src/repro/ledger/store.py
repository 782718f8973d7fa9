"""In-memory key-value table with undo support.

This is the execution substrate: each replica holds an identical copy of
the YCSB table (the paper initialises every replica with the same half a
million records) and applies transactions deterministically, so all
non-faulty replicas produce identical results.  Every applied transaction
records undo entries, which :class:`~repro.ledger.execution.SpeculativeExecutor`
uses to roll back speculation during a view-change.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import _canon_int, _canon_str, _len_prefix, digest
from repro.workload.transactions import OpType, Transaction

#: Encoding of the 4-tuple header and the ``"result"`` tag that open every
#: result digest, and of the 2-tuple header that opens each read pair.
_RESULT_HEAD = b"T" + _len_prefix(4) + _canon_str("result")
_PAIR_HEAD = b"T" + _len_prefix(2)


@dataclass(frozen=True)
class ExecutionResult:
    """Deterministic result of executing one transaction.

    Attributes:
        txn_id: the executed transaction's identifier.
        reads: key/value pairs observed by read operations.
        writes_applied: number of write operations applied.
    """

    txn_id: str
    reads: Tuple[Tuple[str, Optional[str]], ...] = ()
    writes_applied: int = 0

    def digest(self) -> bytes:
        """``digest("result", txn_id, list(reads), writes_applied)``.

        The shape never changes, so it is encoded here in one pass from
        the hashing module's own primitives instead of through the generic
        recursive encoder; the bytes hashed are the same.
        """
        parts = [_RESULT_HEAD, _canon_str(self.txn_id), b"T", _len_prefix(len(self.reads))]
        for key, value in self.reads:
            parts.append(_PAIR_HEAD)
            parts.append(_canon_str(key))
            parts.append(b"N" if value is None else _canon_str(value))
        parts.append(_canon_int(self.writes_applied))
        return hashlib.sha256(b"".join(parts)).digest()


@dataclass(slots=True)
class UndoEntry:
    """Previous value of one key, captured before a write."""

    key: str
    previous_value: Optional[str]
    existed: bool


#: Stands for an absent key, so one lookup tells whether a write overwrote.
_MISSING = object()


class KeyValueStore:
    """Deterministic in-memory key-value table."""

    def __init__(self, initial: Optional[Dict[str, str]] = None) -> None:
        self._table: Dict[str, str] = dict(initial or {})
        self.applied_transactions = 0

    # -- basic access -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: str) -> Optional[str]:
        return self._table.get(key)

    def put(self, key: str, value: str) -> None:
        self._table[key] = value

    def snapshot_digest(self) -> bytes:
        """Digest of the full table (used by checkpoint messages)."""
        return digest("store", sorted(self._table.items()))

    def snapshot(self) -> Dict[str, str]:
        """A copy of the full table (used by checkpoint state transfer)."""
        return dict(self._table)

    def replace_all(self, table: Dict[str, str]) -> None:
        """Replace the table contents (installing a transferred checkpoint)."""
        self._table = dict(table)

    # -- transaction execution ----------------------------------------------------
    def apply(self, transaction: Transaction) -> Tuple[ExecutionResult, List[UndoEntry]]:
        """Apply *transaction* and return its result plus undo entries."""
        table = self._table
        reads: List[Tuple[str, Optional[str]]] = []
        undo: List[UndoEntry] = []
        for op in transaction.operations:
            key = op.key
            if op.op_type is OpType.READ:
                reads.append((key, table.get(key)))
            elif op.op_type is OpType.WRITE:
                previous = table.get(key, _MISSING)
                existed = previous is not _MISSING
                undo.append(UndoEntry(key, previous if existed else None, existed))
                table[key] = op.value if op.value is not None else ""
        self.applied_transactions += 1
        result = ExecutionResult(
            txn_id=transaction.txn_id, reads=tuple(reads), writes_applied=len(undo)
        )
        return result, undo

    def revert(self, undo_entries: List[UndoEntry]) -> None:
        """Revert previously applied writes (most recent first)."""
        for entry in reversed(undo_entries):
            if entry.existed:
                self._table[entry.key] = entry.previous_value or ""
            else:
                self._table.pop(entry.key, None)
