"""Device buffers: NumPy-backed arrays accounted against simulated memory.

A :class:`DeviceBuffer` is the unit the kernel library operates on.  Its
values physically live in a NumPy array (so kernels compute real results),
while its *bytes* are accounted against either the device's processing pool
(RMM-style) or its caching region — capacity pressure, OOM, and peak usage
therefore behave like the real GPU's.
"""

from __future__ import annotations

import numpy as np

from .rmm import Allocation

__all__ = ["DeviceBuffer"]


class DeviceBuffer:
    """A typed 1-D array resident in simulated device memory.

    Attributes:
        array: The backing NumPy array (real values).
        device: Owning :class:`~repro.gpu.device.Device`.
        region: ``"processing"`` or ``"caching"``.
    """

    __slots__ = ("array", "device", "region", "_allocation", "_freed", "_nbytes")

    def __init__(self, array: np.ndarray, device, region: str, allocation: Allocation | None):
        self.array = array
        self.device = device
        self.region = region
        self._allocation = allocation
        self._freed = False
        self._nbytes = int(array.nbytes)  # read on every accounting path

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def is_freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Return the buffer's bytes to its region.  Idempotent."""
        if self._freed:
            return
        self._freed = True
        self.device.release_buffer(self, self._allocation)
        self.device.tracer.count("device.freed_bytes", self._nbytes)

    def __len__(self) -> int:
        return int(self.array.shape[0])

    def __repr__(self) -> str:
        state = "freed" if self._freed else "live"
        return f"DeviceBuffer({self.array.dtype}, {len(self)} items, {self.region}, {state})"
