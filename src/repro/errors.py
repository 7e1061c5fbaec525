"""Exception hierarchy for the JURY reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at API boundaries while tests can assert on precise
subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that has
    been stopped, or cancelling an event twice.
    """


class TopologyError(ReproError):
    """A network topology is malformed (unknown node, duplicate link, ...)."""


class OpenFlowError(ReproError):
    """An OpenFlow message or flow-table operation is invalid."""


class MatchFieldError(OpenFlowError):
    """A flow match violates the OpenFlow field prerequisite hierarchy.

    This is the error underlying the "ODL incorrect FLOW_MOD" fault (T3):
    OpenFlow 1.0 switches silently discard match fields whose prerequisites
    are unset, desynchronizing switch and data store.
    """


class DatastoreError(ReproError):
    """A distributed-store operation failed (lock contention, no quorum)."""


class CacheLockError(DatastoreError):
    """The distributed store could not obtain a lock for the write.

    Models the "ONOS database locking" fault: replicas occasionally hit a
    "failed to obtain lock" error from the distributed graph database.
    """


class ControllerError(ReproError):
    """A controller replica failed to process a trigger."""


class ClusterError(ControllerError):
    """Cluster membership or mastership management failed."""


class ValidationError(ReproError):
    """The JURY validator was driven with malformed responses."""


class CheckpointError(ValidationError):
    """A checkpoint or write-ahead log could not be saved or restored.

    Raised on format/version mismatches, sha-256 digest failures, restoring
    into an engine whose shape (k, shards, timeout) differs from the one
    that produced the snapshot, or restoring into an engine that has
    already ingested.
    """


class PolicyError(ReproError):
    """A JURY policy is syntactically or semantically invalid."""


class WorkloadError(ReproError):
    """A traffic generator was configured with impossible parameters."""
