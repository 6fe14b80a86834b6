"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the failure domain (field arithmetic,
code construction, decoding, cluster simulation, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class FieldError(ReproError):
    """Invalid finite-field operation (e.g. division by zero in GF(256))."""


class LinearAlgebraError(ReproError):
    """A matrix operation over GF(256) failed (e.g. singular matrix)."""


class CodeConstructionError(ReproError):
    """An erasure code was requested with unusable parameters."""


class EncodingError(ReproError):
    """Input data could not be encoded (wrong shape, size mismatch, ...)."""


class DecodingError(ReproError):
    """Decoding failed: too many erasures or inconsistent symbols."""


class RepairError(ReproError):
    """A repair plan could not be constructed or executed."""


class CorruptionError(ReproError):
    """Stored or reconstructed bytes failed an integrity check.

    Raised when a unit's CRC32C disagrees with the checksum registered
    at encode time and the corruption cannot be repaired around (too
    many corrupt survivors, or a rebuilt unit that still fails
    verification).  Detected-and-repaired corruption is *not* an error;
    it is surfaced as quarantine records / scrub findings instead.
    """


class PipelineError(ReproError):
    """A file-pipeline operation failed outside the codec itself.

    Raised when a streamed survivor source is short or a stream's
    source or sink fails (the message names the slot or file and the
    underlying error), and when a caller asks for the process pool the
    file pipeline no longer has.
    """


class PlacementError(ReproError):
    """Block placement constraints could not be satisfied."""


class SimulationError(ReproError):
    """The cluster simulation reached an inconsistent state."""


class ConfigError(ReproError):
    """Invalid configuration value."""


class BackendUnavailable(ReproError):
    """A GF kernel backend cannot run on this host.

    Raised by backend probes when a dependency is missing (no cffi, no
    working C compiler).  The registry treats it as "skip this
    tier": auto-selection falls through to the next backend, while an
    explicit ``REPRO_GF_BACKEND`` request re-raises it loudly -- a
    backend the user asked for by name must never silently degrade.
    """


class TraceError(ReproError):
    """A workload/failure trace is malformed or cannot be generated."""


class CheckpointError(ReproError):
    """A simulation checkpoint could not be written, read, or applied.

    Covers I/O failures, malformed snapshot files, version mismatches,
    and snapshots whose recorded config disagrees with the resuming
    simulation.
    """
