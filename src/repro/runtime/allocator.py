"""Fixed glibc ``malloc`` thresholds for the pipeline's array traffic.

The simulator, the profilers and the clustering allocate numpy
temporaries of a few hundred kilobytes to tens of megabytes per call
and free them at once. glibc serves a request at or above its *mmap
threshold* with a fresh ``mmap`` and returns it to the kernel on
``free``; by default that threshold (and the heap *trim threshold*,
twice it) moves up to the size of the largest such block freed so far.
Whether a given temporary is faulted in page by page on every call, or
reuses heap pages already mapped, then depends on every earlier
allocation in the process: a change to one layer's array sizes moves
the page-fault count of another by tens of thousands per pass, and
from one run of the same inputs to the next.

:func:`pin_malloc_thresholds` fixes both thresholds once, so the
allocator keeps temporaries up to :data:`MMAP_THRESHOLD` on the heap
and gives the heap's free top back to the kernel only beyond
:data:`TRIM_THRESHOLD`. It runs when :mod:`repro` is imported. It does
nothing off glibc, or when the process was started with its own
``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or
``GLIBC_TUNABLES`` setting.
"""

from __future__ import annotations

import ctypes
import os
import sys

#: glibc's ceiling for the dynamic mmap threshold on 64-bit hosts.
MMAP_THRESHOLD = 32 * 2**20

#: Free heap top the process keeps mapped before trimming.
TRIM_THRESHOLD = 64 * 2**20

# ``mallopt`` parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_USER_SETTINGS = (
    "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES",
)


def pin_malloc_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds; True when both were set."""
    if not sys.platform.startswith("linux"):
        return False
    if any(name in os.environ for name in _USER_SETTINGS):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )
