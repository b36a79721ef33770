"""Tests for the pinned glibc malloc thresholds (repro.runtime.allocator)."""

import resource

import numpy as np
import pytest

from repro.runtime import allocator

#: One round of temporaries: six 4 MiB arrays, alive together.
_ROUND = (6, 4 * 2**20)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("name", allocator._USER_SETTINGS)
def test_a_user_setting_is_left_alone(monkeypatch, name):
    monkeypatch.setenv(name, "131072")
    assert allocator.pin_malloc_thresholds() is False


def test_freed_temporaries_are_reused_without_page_faults():
    if not allocator.pin_malloc_thresholds():
        pytest.skip("no glibc mallopt in this process")
    count, size = _ROUND
    pages = count * size // resource.getpagesize()
    # Under glibc's moving thresholds, freeing this block sets the trim
    # threshold to 16 MiB, and each round's 24 MiB of freed heap top is
    # then given back and faulted in again by the next round.
    block = np.ones(2 * size // 8)
    del block
    faults = []
    for _ in range(3):
        before = _minor_faults()
        blocks = [np.ones(size // 8) for _ in range(count)]
        faults.append(_minor_faults() - before)
        del blocks
    assert faults[-1] < pages // 8, faults
