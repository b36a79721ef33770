"""Advisory file locks and atomic line appends.

The run ledger is an append-only JSONL file shared by concurrent
writer processes. POSIX guarantees that a *single* ``write(2)``
through an ``O_APPEND`` descriptor lands contiguously for ordinary
files, but ``open("a")`` + buffered writes can split one
logical line across several syscalls once it outgrows the buffer (or
``PIPE_BUF``-sized atomicity folklore), interleaving records. The
helpers here make the contract explicit:

* :func:`append_line` — one encoded line, one ``os.write``, fsynced;
* :func:`file_lock` — an exclusive advisory ``flock`` on a sidecar
  ``<file>.lock``, for writers that must *read-check* before appending
  (e.g. the ledger's duplicate-run-id refusal) and need the check and
  the append to be one critical section.

Locking degrades to a no-op where ``fcntl`` is unavailable; the single
``O_APPEND`` write keeps lines intact even then.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, Path]


def lock_path_for(path: PathLike) -> Path:
    """The sidecar lock file guarding ``path``."""
    target = Path(path)
    return target.with_name(target.name + ".lock")


@contextmanager
def file_lock(path: PathLike) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path``'s sidecar lock file.

    The lock file itself is created (empty) on first use and never
    removed — unlinking a lock file while another process holds its
    descriptor reintroduces the race the lock exists to prevent.
    """
    lock_file = lock_path_for(path)
    lock_file.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_file, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def append_line(path: PathLike, line: str) -> None:
    """Append one line atomically: a single ``O_APPEND`` write + fsync.

    ``line`` may or may not carry its trailing newline. Concurrent
    appenders cannot interleave bytes within each other's lines; they
    can still duplicate *logical* records, which is what wrapping the
    read-check and this call in :func:`file_lock` prevents.
    """
    data = line.encode("utf-8")
    if not data.endswith(b"\n"):
        data += b"\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        written = os.write(fd, data)
        if written != len(data):  # pragma: no cover - regular files
            raise OSError(
                f"short append to {path}: {written}/{len(data)} bytes"
            )
        os.fsync(fd)
    finally:
        os.close(fd)
