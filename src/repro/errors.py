"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries while tests can assert
on the specific subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProgramError(ReproError):
    """A program IR is malformed (unknown callee, empty loop, bad counts)."""


class CompilationError(ReproError):
    """The compiler could not lower a program for the requested target."""


class ExecutionError(ReproError):
    """The executor encountered an inconsistent binary or runaway run."""


class ProfilingError(ReproError):
    """A profiler was driven with inconsistent intervals or streams."""


class ClusteringError(ReproError):
    """SimPoint clustering was given unusable data or parameters."""


class MatchingError(ReproError):
    """Cross-binary mappable-point matching failed structurally."""


class MappingError(ReproError):
    """A simulation region could not be located in a target binary."""


class SimulationError(ReproError):
    """The CMP$im-style simulator was misconfigured or misdriven."""


class FileFormatError(ReproError):
    """A PinPoints-style file could not be parsed or round-tripped."""


class CacheError(ReproError):
    """The profile cache is misconfigured or cannot store a value."""
