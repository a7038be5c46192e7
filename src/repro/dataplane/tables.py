"""Match-action tables and register arrays of the data-plane model.

These are deliberately simple: an exact-match table is a bounded dictionary
whose entries are installed by the control plane; a register array is a
bounded list of mutable cells accessed by index.  What matters for fidelity is
that (1) only the control plane writes table entries, (2) the data plane can
only read/update registers by index in a streaming fashion, and (3) sizes are
bounded by the SRAM budget — all three properties are relied on by Scallop's
design and enforced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class TableFull(RuntimeError):
    """Raised when installing an entry into a full table."""


class ExactMatchTable(Generic[K, V]):
    """A bounded exact-match (SRAM) table installed by the control plane."""

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = max_entries
        self._entries: Dict[K, V] = {}
        self.lookups = 0
        self.hits = 0
        #: Monotonic write-generation counter; bumped on every install/remove
        #: so data-plane caches keyed on table contents can detect staleness.
        self.version = 0
        #: Version-bump deferral (control-plane write batching): while
        #: deferred, writes mutate entries immediately but the generation
        #: moves only once, at :meth:`commit_version_bumps`.
        self._version_deferred = False
        self._pending_bump = False

    def install(self, key: K, value: V) -> None:
        """Install or overwrite an entry (control-plane operation)."""
        if key not in self._entries and len(self._entries) >= self.max_entries:
            raise TableFull(f"table {self.name} is full ({self.max_entries} entries)")
        self._entries[key] = value
        self._bump_version()

    def remove(self, key: K) -> None:
        if self._entries.pop(key, None) is not None:
            self._bump_version()

    def _bump_version(self) -> None:
        if self._version_deferred:
            self._pending_bump = True
        else:
            self.version += 1

    def defer_version_bumps(self) -> None:
        """Start coalescing generation bumps (see
        :meth:`~repro.dataplane.pipeline.PipelineControlPlane.batched_writes`)."""
        self._version_deferred = True

    def commit_version_bumps(self) -> None:
        """Stop coalescing; if anything was written, bump the generation once."""
        self._version_deferred = False
        if self._pending_bump:
            self._pending_bump = False
            self.version += 1

    def lookup(self, key: K) -> Optional[V]:
        """Data-plane lookup; returns None on a table miss."""
        self.lookups += 1
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
        return value

    def peek(self, key: K) -> Optional[V]:
        """Control-plane read: same result as :meth:`lookup` without
        perturbing the data-plane ``lookups``/``hits`` tallies."""
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def entries(self) -> Iterator[Tuple[K, V]]:
        return iter(self._entries.items())

    @property
    def occupancy(self) -> float:
        return len(self._entries) / self.max_entries if self.max_entries else 0.0


class RegisterArray(Generic[V]):
    """A bounded array of register cells, read-modify-written by the data plane.

    The control plane assigns indices (collision-free, per §6.3); the data
    plane may only access one cell per packet per array, which is how the real
    pipeline works and why the sequence-rewrite state is split across six
    arrays accessed in order.
    """

    def __init__(self, name: str, size: int, initial: Optional[V] = None) -> None:
        self.name = name
        self.size = size
        self._cells: List[Optional[V]] = [initial] * size
        self._used = size if initial is not None else 0
        self.accesses = 0

    def read(self, index: int) -> Optional[V]:
        # _check_index inlined: the rewriter reads one cell per adapted replica
        if not 0 <= index < self.size:
            raise IndexError(f"register index {index} out of range for {self.name}[{self.size}]")
        self.accesses += 1
        return self._cells[index]

    def peek(self, index: int) -> Optional[V]:
        """Control-plane read that does not count as a data-plane access."""
        self._check_index(index)
        return self._cells[index]

    def write(self, index: int, value: Optional[V]) -> None:
        self._check_index(index)
        self.accesses += 1
        old = self._cells[index]
        if old is None and value is not None:
            self._used += 1
        elif old is not None and value is None:
            self._used -= 1
        self._cells[index] = value

    def clear(self, index: int) -> None:
        self.write(index, None)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"register index {index} out of range for {self.name}[{self.size}]")

    def used_cells(self) -> int:
        return self._used

    def used_entries(self) -> Iterator[Tuple[int, V]]:
        """Iterate the occupied cells as (index, value) pairs."""
        if self._used:
            for index, cell in enumerate(self._cells):
                if cell is not None:
                    yield index, cell


class IndexAllocator:
    """Collision-free stream-index allocation managed by the control plane.

    The paper's control plane guarantees zero hash collisions by assigning
    each new stream a unique index in the Stream Index match-action table so
    that every cell of the Stream Tracker register arrays is usable.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._free: List[int] = list(range(size - 1, -1, -1))
        self._allocated: Dict[Hashable, int] = {}

    def allocate(self, key: Hashable) -> int:
        """Allocate (or return the existing) index for a stream key."""
        if key in self._allocated:
            return self._allocated[key]
        if not self._free:
            raise TableFull("no free stream indices")
        index = self._free.pop()
        self._allocated[key] = index
        return index

    def release(self, key: Hashable) -> None:
        index = self._allocated.pop(key, None)
        if index is not None:
            self._free.append(index)

    def lookup(self, key: Hashable) -> Optional[int]:
        return self._allocated.get(key)

    @property
    def in_use(self) -> int:
        return len(self._allocated)

    @property
    def available(self) -> int:
        return len(self._free)
