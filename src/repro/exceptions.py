"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries while still
distinguishing problem-definition errors from solver failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProblemDefinitionError(ReproError):
    """A placement problem instance is malformed or inconsistent.

    Raised, for example, when an object has a non-positive size, a node
    has a negative capacity, or a correlation references an unknown
    object.
    """


class InfeasibleProblemError(ReproError):
    """No placement can satisfy the capacity constraints.

    This covers both trivially detectable infeasibility (total object
    size exceeding total capacity) and infeasibility reported by the LP
    solver.
    """


class SolverError(ReproError):
    """The underlying LP solver failed or returned an unusable status."""


class PlacementError(ReproError):
    """A placement is invalid for the problem it is evaluated against."""


class ReplicationError(PlacementError, ValueError):
    """A replicated placement violates replication invariants.

    Raised for malformed ``(num_objects, replicas)`` assignment shapes,
    replicas of one object sharing a node, and — once a failure-domain
    topology is attached — replicas sharing a rack or zone.  Inherits
    :class:`ValueError` so pre-1.7 callers that caught the bare
    ``ValueError`` raised for bad replica counts keep working.
    """


class TraceFormatError(ReproError):
    """A trace file or record could not be parsed."""
