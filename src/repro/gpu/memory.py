"""Capacity-limited device memory accounting.

The simulated device enforces its HBM capacity: allocations beyond capacity
raise :class:`OutOfDeviceMemory`, which is what triggers Sirius' graceful
CPU fallback (and, with the out-of-core extension, spilling).
"""

from __future__ import annotations

__all__ = ["OutOfDeviceMemory", "DeviceMemory"]


class OutOfDeviceMemory(MemoryError):
    """Raised when a device allocation exceeds remaining capacity."""

    def __init__(self, requested: int, available: int, region: str):
        self.requested = requested
        self.available = available
        self.region = region
        super().__init__(
            f"out of device memory in {region}: requested {requested} bytes, "
            f"{available} available"
        )


class DeviceMemory:
    """Byte-level accounting for one memory region of a device."""

    def __init__(self, capacity: int, region: str = "device"):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.region = region
        self._used = 0
        self._peak = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def available(self) -> int:
        return self.capacity - self._used

    @property
    def peak(self) -> int:
        """High-water mark of bytes in use."""
        return self._peak

    def allocate(self, nbytes: int) -> None:
        """Reserve ``nbytes``; raises :class:`OutOfDeviceMemory` on overflow."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._used + nbytes > self.capacity:
            raise OutOfDeviceMemory(nbytes, self.available, self.region)
        self._used += nbytes
        self._peak = max(self._peak, self._used)

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` previously allocated."""
        if nbytes < 0:
            raise ValueError("free size must be non-negative")
        if nbytes > self._used:
            raise ValueError(f"freeing {nbytes} bytes but only {self._used} in use")
        self._used -= nbytes

    def __repr__(self) -> str:
        return (
            f"DeviceMemory({self.region}: {self._used}/{self.capacity} bytes, "
            f"peak {self._peak})"
        )
