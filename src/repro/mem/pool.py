"""HugePage-backed shared memory pools with file-prefix isolation (§3.2.1, §3.4).

One pool per function chain. The pool stores real bytes: the gateway writes
the request payload once, functions read/write in place through offsets, and
nothing is copied between functions — the zero-copy property is structural,
and tests assert it by checking buffer identity and pool copy counters.

Isolation follows DPDK's multi-process model: the pool is created by a
privileged *primary* (the shared memory manager) under a unique file prefix;
*secondaries* (gateway, functions) can attach only if they present the same
prefix. Attaching with a wrong prefix raises, which is the cross-chain
security boundary of §3.4.

Memory safety: every buffer slot carries a monotonically increasing
*generation* that ``alloc`` bumps. Liveness checks verify handle *identity*
(``self._in_use.get(offset) is handle``) and descriptor resolution verifies
``(offset, generation)``, so a stale handle or descriptor to a recycled slot
raises instead of silently aliasing the new owner's payload (the classic ABA
use-after-free). An optional :class:`repro.mem.sanitizer.PoolSanitizer`
additionally counts violations and tracks allocation sites for leak reports.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .descriptor import PacketDescriptor
from .sanitizer import ViolationKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sanitizer import PoolSanitizer

HUGEPAGE_SIZE = 2 * 1024 * 1024  # 2 MiB hugepages


class PoolError(Exception):
    """Allocation/exhaustion/ownership errors."""


class IsolationError(PoolError):
    """Attempt to cross a chain's shared-memory security boundary."""


@dataclass
class BufferHandle:
    """A reference to one buffer in a pool (what descriptors point at)."""

    pool_name: str
    offset: int
    size: int
    generation: int = 0
    in_use: bool = True


@dataclass
class PoolStats:
    """Counters proving (or disproving) the zero-copy property."""

    allocs: int = 0
    frees: int = 0
    reclaims: int = 0
    writes: int = 0
    reads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    alloc_failures: int = 0
    peak_in_use: int = 0


class SharedMemoryPool:
    """Fixed-size-buffer pool backed by (simulated) hugepages."""

    def __init__(
        self,
        name: str,
        file_prefix: str,
        buffer_size: int = 8192,
        capacity: int = 1024,
        use_hugepages: bool = True,
    ) -> None:
        if buffer_size <= 0 or capacity <= 0:
            raise PoolError("buffer_size and capacity must be positive")
        self.name = name
        self.file_prefix = file_prefix
        self.buffer_size = buffer_size
        self.capacity = capacity
        self.use_hugepages = use_hugepages
        # Private anonymous mapping: the kernel hands out zeroed pages on
        # first touch, so set-up cost and resident memory follow the buffers
        # a run writes, not the configured capacity. MAP_PRIVATE (not mmap's
        # default MAP_SHARED) keeps a forked child's writes out of the parent.
        self._memory = mmap.mmap(-1, buffer_size * capacity, flags=mmap.MAP_PRIVATE)
        self._free_offsets = [index * buffer_size for index in range(capacity)]
        self._in_use: dict[int, BufferHandle] = {}
        # Per-slot allocation generation, bumped on every alloc of that slot.
        self._slot_generation = [0] * capacity
        self.sanitizer: Optional["PoolSanitizer"] = None
        self.stats = PoolStats()

    # -- geometry ------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return len(self._memory)

    @property
    def hugepages_backing(self) -> int:
        """Number of hugepages this pool spans (1 minimum)."""
        return max(1, -(-self.total_bytes // HUGEPAGE_SIZE))

    @property
    def in_use_count(self) -> int:
        return len(self._in_use)

    @property
    def free_count(self) -> int:
        return len(self._free_offsets)

    def live_handles(self) -> list[BufferHandle]:
        """Snapshot of every currently allocated buffer (leak detection)."""
        return list(self._in_use.values())

    # -- sanitizer wiring ------------------------------------------------------
    def attach_sanitizer(self, sanitizer: "PoolSanitizer") -> None:
        """Put this pool under sanitizer observation (checked mode)."""
        self.sanitizer = sanitizer

    def _violation(self, kind, detail: str, site: str = "") -> PoolError:
        """Record (if sanitized) and build the error for one violation."""
        if self.sanitizer is not None:
            self.sanitizer.record(kind, self.name, detail, site=site)
        return PoolError(f"pool {self.name!r}: {detail}")

    # -- allocation -----------------------------------------------------------
    def alloc(self, site: str = "") -> BufferHandle:
        """Take one buffer from the pool (rte_mempool_get equivalent).

        ``site`` labels the allocation for the sanitizer's leak reports
        (e.g. ``"sspright/gw/chain"``).
        """
        if not self._free_offsets:
            self.stats.alloc_failures += 1
            raise PoolError(f"pool {self.name!r} exhausted ({self.capacity} buffers)")
        offset = self._free_offsets.pop()
        slot = offset // self.buffer_size
        self._slot_generation[slot] += 1
        handle = BufferHandle(
            pool_name=self.name,
            offset=offset,
            size=0,
            generation=self._slot_generation[slot],
        )
        self._in_use[offset] = handle
        self.stats.allocs += 1
        self.stats.peak_in_use = max(self.stats.peak_in_use, len(self._in_use))
        if self.sanitizer is not None:
            self.sanitizer.on_alloc(self, handle, site)
        return handle

    def free(self, handle: BufferHandle) -> None:
        if handle.pool_name != self.name:
            raise self._violation(
                ViolationKind.CROSS_POOL,
                f"buffer belongs to pool {handle.pool_name!r}, not {self.name!r}",
            )
        current = self._in_use.get(handle.offset)
        if current is None:
            raise self._violation(
                ViolationKind.DOUBLE_FREE,
                f"double free of buffer at offset {handle.offset}",
            )
        if current is not handle:
            # The slot was recycled: freeing through the stale handle would
            # yank the buffer out from under its new owner (ABA).
            raise self._violation(
                ViolationKind.STALE_FREE,
                f"free through stale handle at offset {handle.offset} "
                f"(handle generation {handle.generation}, live generation "
                f"{current.generation})",
            )
        del self._in_use[handle.offset]
        handle.in_use = False
        self._free_offsets.append(handle.offset)
        self.stats.frees += 1
        if self.sanitizer is not None:
            self.sanitizer.on_free(self, handle)

    def reclaim(self, handle: BufferHandle, site: str = "") -> bool:
        """Force-free an orphaned buffer on behalf of a dead owner.

        The scavenger path: unlike :meth:`free`, reclaiming does not require
        the caller to *be* the owner — the owner crashed.  The slot's
        generation is bumped immediately so any descriptor or handle the dead
        pod already emitted for this buffer faults as a use-after-free at the
        identity check instead of aliasing the slot's next occupant.  Returns
        False when the buffer is already gone (e.g. the in-flight failure
        path released it first), so reclamation is idempotent.
        """
        current = self._in_use.get(handle.offset)
        if current is not handle:
            return False
        del self._in_use[handle.offset]
        handle.in_use = False
        slot = handle.offset // self.buffer_size
        self._slot_generation[slot] += 1
        self._free_offsets.append(handle.offset)
        self.stats.reclaims += 1
        if self.sanitizer is not None:
            self.sanitizer.on_reclaim(self, handle, site)
        return True

    # -- data access ------------------------------------------------------------
    def write(self, handle: BufferHandle, data: bytes) -> None:
        """Write payload into the buffer (the gateway's single copy-in)."""
        self._check_live(handle, op="write")
        if len(data) > self.buffer_size:
            raise PoolError(
                f"payload of {len(data)} bytes exceeds buffer size {self.buffer_size}"
            )
        self._memory[handle.offset : handle.offset + len(data)] = data
        handle.size = len(data)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    def read(self, handle: BufferHandle) -> bytes:
        """Read the payload (functions access data in place)."""
        self._check_live(handle, op="read")
        self.stats.reads += 1
        self.stats.bytes_read += handle.size
        return bytes(self._memory[handle.offset : handle.offset + handle.size])

    def read_at(self, offset: int, length: int) -> bytes:
        """Raw offset read (what a descriptor authorizes)."""
        if length < 0:
            raise PoolError(f"negative read length {length}")
        if offset < 0 or offset + length > self.total_bytes:
            raise PoolError(f"read [{offset}, {offset + length}) outside pool")
        self.stats.reads += 1
        self.stats.bytes_read += length
        return bytes(self._memory[offset : offset + length])

    def resolve_descriptor(self, descriptor: PacketDescriptor) -> bytes:
        """Resolve a wire descriptor to payload bytes, verifying identity.

        This is how the S-SPRIGHT SK_MSG and D-SPRIGHT ring receive paths
        read: the descriptor's ``(shm_offset, generation)`` must name the
        *current* allocation of that slot, and its range must stay inside
        one buffer — a stale or corrupt descriptor raises instead of reading
        whatever now lives there.
        """
        current = self._in_use.get(descriptor.shm_offset)
        if current is None:
            raise self._violation(
                ViolationKind.USE_AFTER_FREE,
                f"descriptor to freed buffer at offset {descriptor.shm_offset} "
                f"(generation {descriptor.generation})",
            )
        if descriptor.generation != current.generation:
            site = (
                self.sanitizer.site_of(self.name, descriptor.shm_offset)
                if self.sanitizer is not None
                else ""
            )
            raise self._violation(
                ViolationKind.USE_AFTER_FREE,
                f"stale descriptor generation {descriptor.generation} for "
                f"offset {descriptor.shm_offset} (buffer re-allocated, live "
                f"generation {current.generation})",
                site=site,
            )
        if descriptor.length > self.buffer_size:
            raise self._violation(
                ViolationKind.RANGE_STRADDLE,
                f"descriptor range [{descriptor.shm_offset}, "
                f"{descriptor.shm_offset + descriptor.length}) straddles the "
                f"{self.buffer_size}-byte buffer boundary",
            )
        return self.read_at(descriptor.shm_offset, descriptor.length)

    def handle_for_offset(self, offset: int) -> Optional[BufferHandle]:
        return self._in_use.get(offset)

    def _check_live(self, handle: BufferHandle, op: str = "access") -> None:
        if handle.pool_name != self.name:
            raise self._violation(
                ViolationKind.CROSS_POOL,
                f"buffer belongs to pool {handle.pool_name!r}, not {self.name!r}",
            )
        current = self._in_use.get(handle.offset)
        if current is None:
            raise self._violation(
                ViolationKind.USE_AFTER_FREE,
                f"{op} of freed buffer at offset {handle.offset}",
            )
        if current is not handle or current.generation != handle.generation:
            # Offset-only membership is not liveness: the slot may have been
            # re-allocated to another request since this handle was freed.
            raise self._violation(
                ViolationKind.USE_AFTER_FREE,
                f"{op} through stale handle at offset {handle.offset} "
                f"(handle generation {handle.generation}, live generation "
                f"{current.generation})",
            )


class PoolRegistry:
    """Node-wide registry implementing the DPDK primary/secondary model."""

    def __init__(self) -> None:
        self._pools: dict[str, SharedMemoryPool] = {}

    def create(
        self,
        name: str,
        file_prefix: str,
        buffer_size: int = 8192,
        capacity: int = 1024,
        use_hugepages: bool = True,
    ) -> SharedMemoryPool:
        """Primary-process pool creation (rte_mempool_create)."""
        if name in self._pools:
            raise PoolError(f"pool {name!r} already exists")
        pool = SharedMemoryPool(
            name=name,
            file_prefix=file_prefix,
            buffer_size=buffer_size,
            capacity=capacity,
            use_hugepages=use_hugepages,
        )
        self._pools[name] = pool
        return pool

    def attach(self, name: str, file_prefix: str) -> SharedMemoryPool:
        """Secondary-process attach (rte_memzone_lookup).

        The file prefix is the capability: presenting the wrong one is the
        cross-chain access the security domain must (and does) refuse.
        """
        pool = self._pools.get(name)
        if pool is None:
            raise PoolError(f"no pool named {name!r}")
        if pool.file_prefix != file_prefix:
            raise IsolationError(
                f"prefix {file_prefix!r} does not own pool {name!r} "
                f"(owned by prefix {pool.file_prefix!r})"
            )
        return pool

    def destroy(self, name: str) -> None:
        pool = self._pools.get(name)
        if pool is None:
            raise PoolError(f"no pool named {name!r}")
        # Chain teardown with live buffers is a leak; the sanitizer reports
        # each one with its allocation site instead of dropping it silently.
        if pool.sanitizer is not None:
            pool.sanitizer.check_teardown(pool)
        del self._pools[name]

    def __len__(self) -> int:
        return len(self._pools)
