"""Helpers shared by several test modules."""

from repro.cluster import Topology
from repro.core.replication import replicate_hash


def flat_hash(problem, replicas):
    """The flat hash baseline: ``replicate_hash`` with one domain per node."""
    return replicate_hash(problem, Topology.flat(problem.num_nodes), replicas=replicas)


def sketch_state(sketch) -> tuple:
    """Everything a Count-Min sketch holds, for equality checks."""
    return sketch.width, sketch.depth, sketch.seed, sketch.total, sketch._cells.tolist()


def tracker_state(tracker) -> tuple:
    """Everything a Space-Saving tracker reports, for equality checks."""
    return (
        tracker.capacity,
        tracker.total,
        tracker.max_tracked,
        tracker.evictions,
        tracker.items(),
    )


def estimator_state(estimator) -> tuple:
    """A sketch estimator's whole state: its mode and operation total,
    its Count-Min sketch and its Space-Saving tracker."""
    return (
        estimator.mode,
        estimator._total_ops,
        sketch_state(estimator.sketch),
        tracker_state(estimator.heavy),
    )
