"""Bounded FIFO used by the decoupled access-execute micro-engines.

The GANAX PE contains one address FIFO per strided µindex generator and one
µop FIFO in front of the execute µ-engine (Figure 7).  These FIFOs provide
the synchronisation between the two µ-engines: a full address FIFO stalls the
index generator and an empty µop / address FIFO stalls the execute engine.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterator, List, Optional, TypeVar

from ..errors import FifoError

T = TypeVar("T")


class Fifo(Generic[T]):
    """A bounded first-in first-out queue."""

    def __init__(self, depth: int, name: str = "fifo") -> None:
        if depth <= 0:
            raise FifoError(f"{name}: depth must be positive, got {depth}")
        self._depth = depth
        self._name = name
        self._items: Deque[T] = deque()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self._depth

    @property
    def is_empty(self) -> bool:
        return not self._items

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def push(self, item: T) -> None:
        """Push an item; raises :class:`FifoError` if the FIFO is full."""
        if self.is_full:
            raise FifoError(f"{self._name}: push on full FIFO (depth={self._depth})")
        self._items.append(item)

    def try_push(self, item: T) -> bool:
        """Push an item if space is available; returns False otherwise."""
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def pop(self) -> T:
        """Pop the oldest item; raises :class:`FifoError` if empty."""
        if self.is_empty:
            raise FifoError(f"{self._name}: pop on empty FIFO")
        return self._items.popleft()

    def try_pop(self) -> Optional[T]:
        """Pop the oldest item, or return None if empty."""
        if self.is_empty:
            return None
        return self._items.popleft()

    def peek(self) -> Optional[T]:
        """Look at the oldest item without removing it."""
        if self.is_empty:
            return None
        return self._items[0]

    def clear(self) -> None:
        """Drop all queued items."""
        self._items.clear()

    def snapshot(self) -> List[T]:
        """Copy of the queued items, oldest first (for tests/debugging)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(list(self._items))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fifo(name={self._name!r}, depth={self._depth}, occupancy={self.occupancy})"
