"""Sparse paged byte-addressable memory.

Pages are allocated lazily in 4KB chunks, so the 32-bit address space
costs only what the program touches. Loads from untouched memory read
as zero (matching a zero-filled loader image), which keeps workload
generators simple; alignment is enforced because the timing model's
memory system assumes naturally aligned accesses.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ExecutionError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class Memory:
    """Byte-addressable sparse memory with natural-alignment checking."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def _page(self, addr: int) -> bytearray:
        key = addr >> PAGE_SHIFT
        page = self._pages.get(key)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[key] = page
        return page

    # ------------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read *size* bytes starting at *addr* (may straddle pages)."""
        out = bytearray()
        while size:
            page = self._page(addr)
            offset = addr & PAGE_MASK
            chunk = min(size, PAGE_SIZE - offset)
            out += page[offset:offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr* (may straddle pages)."""
        pos = 0
        while pos < len(data):
            page = self._page(addr)
            offset = addr & PAGE_MASK
            chunk = min(len(data) - pos, PAGE_SIZE - offset)
            page[offset:offset + chunk] = data[pos:pos + chunk]
            addr += chunk
            pos += chunk

    # ------------------------------------------------------------------

    def load(self, addr: int, size: int, signed: bool) -> int:
        """Aligned little-endian load of 1, 2 or 4 bytes.

        An aligned access never straddles a page.

        Raises:
            ExecutionError: on misaligned access.
        """
        if addr % size:
            self._check_align(addr, size)
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            page = self._page(addr)
        offset = addr & PAGE_MASK
        return int.from_bytes(page[offset:offset + size], "little",
                              signed=signed)

    def store(self, addr: int, value: int, size: int) -> None:
        """Aligned little-endian store of 1, 2 or 4 bytes.

        Raises:
            ExecutionError: on misaligned access.
        """
        if addr % size:
            self._check_align(addr, size)
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            page = self._page(addr)
        offset = addr & PAGE_MASK
        value &= (1 << (8 * size)) - 1
        page[offset:offset + size] = value.to_bytes(size, "little")

    def load_word(self, addr: int) -> int:
        """Signed 32-bit load (convenience for tests and workloads)."""
        return self.load(addr, 4, signed=True)

    def store_word(self, addr: int, value: int) -> None:
        """32-bit store (convenience for tests and workloads)."""
        self.store(addr, value, 4)

    @staticmethod
    def _check_align(addr: int, size: int) -> None:
        if addr % size:
            raise ExecutionError(
                f"misaligned {size}-byte access at {addr:#x}")

    # ------------------------------------------------------------------

    def touched_pages(self) -> int:
        """Number of pages allocated so far (test/debug aid)."""
        return len(self._pages)

    def snapshot(self) -> Dict[int, bytes]:
        """A deep copy of all touched pages, for state-equality checks."""
        return {key: bytes(page) for key, page in self._pages.items()}


__all__ = ["Memory", "PAGE_SIZE"]
