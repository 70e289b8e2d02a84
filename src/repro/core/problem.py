"""The Capacity-Constrained Assignment (CCA) problem model.

This module implements the problem of Section 2.1 of the paper: objects
``T`` with sizes ``s(i)`` must be assigned to nodes ``N`` with
capacities ``c(k)`` so that the total communication cost
``sum r(i,j) * w(i,j)`` over object pairs split across nodes is
minimized (equations (1)-(2)).

A :class:`PlacementProblem` stores objects and nodes by id but keeps
all numeric data in parallel numpy arrays so that cost evaluation over
millions of pairs is vectorized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.resources import ResourceSpec
from repro.exceptions import ProblemDefinitionError

ObjectId = Hashable
NodeId = Hashable
PairCostFunction = Callable[[float, float], float]


def min_size_pair_cost(size_i: float, size_j: float) -> float:
    """Default pair communication cost: the smaller object's size.

    Intersecting two posting lists ships the smaller list to the node
    holding the larger one, so the bytes moved equal the smaller size.
    This matches the cost accounting of the paper's search-engine
    prototype (Section 4.1).
    """
    return min(size_i, size_j)


def sum_size_pair_cost(size_i: float, size_j: float) -> float:
    """Alternative pair cost: both objects move (sum of sizes)."""
    return size_i + size_j


def unit_pair_cost(size_i: float, size_j: float) -> float:
    """Alternative pair cost: every remote pair costs one unit."""
    return 1.0


@dataclass(frozen=True)
class PairData:
    """One correlated object pair.

    Attributes:
        i: Index of the first object (always ``< j``).
        j: Index of the second object.
        correlation: ``r(i, j)`` — probability the pair is requested
            together in an operation.
        cost: ``w(i, j)`` — communication overhead when the pair is
            split across nodes.
    """

    i: int
    j: int
    correlation: float
    cost: float

    @property
    def weight(self) -> float:
        """Objective contribution ``r(i,j) * w(i,j)`` if split."""
        return self.correlation * self.cost


class PlacementProblem:
    """A CCA instance: objects, nodes, correlations, and pair costs.

    Use :meth:`build` for the ergonomic dict-based constructor; the raw
    constructor takes pre-validated arrays.

    Attributes:
        object_ids: Object identifiers, in index order.
        sizes: Object sizes, aligned with ``object_ids``.
        node_ids: Node identifiers, in index order.
        capacities: Node capacities, aligned with ``node_ids``.
        pair_index: ``(m, 2)`` int array of correlated pairs ``(i, j)``
            with ``i < j``.
        correlations: ``r`` values per pair.
        pair_costs: ``w`` values per pair.
    """

    def __init__(
        self,
        object_ids: Sequence[ObjectId],
        sizes: np.ndarray,
        node_ids: Sequence[NodeId],
        capacities: np.ndarray,
        pair_index: np.ndarray,
        correlations: np.ndarray,
        pair_costs: np.ndarray,
        resources: Sequence[ResourceSpec] = (),
    ):
        self.object_ids: tuple[ObjectId, ...] = tuple(object_ids)
        self.sizes = np.asarray(sizes, dtype=float)
        self.node_ids: tuple[NodeId, ...] = tuple(node_ids)
        self.capacities = np.asarray(capacities, dtype=float)
        self.pair_index = np.asarray(pair_index, dtype=np.int64).reshape(-1, 2)
        self.correlations = np.asarray(correlations, dtype=float)
        self.pair_costs = np.asarray(pair_costs, dtype=float)
        self.resources: tuple[ResourceSpec, ...] = tuple(resources)
        self._object_index = dict(zip(self.object_ids, range(len(self.object_ids))))
        self._node_index = dict(zip(self.node_ids, range(len(self.node_ids))))
        self._validate()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: Mapping[ObjectId, float],
        nodes: Mapping[NodeId, float] | int,
        correlations: Mapping[tuple[ObjectId, ObjectId], float],
        pair_cost: PairCostFunction | Mapping[tuple[ObjectId, ObjectId], float] | None = None,
        resources: Mapping[str, tuple[Mapping[ObjectId, float], Mapping[NodeId, float] | float]] | None = None,
    ) -> "PlacementProblem":
        """Build a problem from id-keyed mappings.

        Args:
            objects: Mapping from object id to size ``s(i) > 0``.
            nodes: Either a mapping from node id to capacity ``c(k)``,
                or an int ``n`` meaning ``n`` uniform nodes whose
                capacity is ``+inf`` (capacity-unconstrained).
            correlations: Mapping from object-id pairs to ``r(i,j)``.
                Pairs are canonicalized; duplicate mirrored entries
                (``(a, b)`` and ``(b, a)``) have their values summed.
            pair_cost: Pair communication cost ``w``: a callable of the
                two sizes (Python floats), an explicit per-pair mapping,
                or None for the default :func:`min_size_pair_cost`.
            resources: Extra node-capacity dimensions (Section 3.3),
                mapping resource name to ``(object_loads, node_budgets)``
                where budgets may be a scalar for uniform nodes.

        Raises:
            ProblemDefinitionError: On unknown ids, self-pairs, or
                invalid numeric data.
        """
        object_ids = list(objects.keys())
        sizes = np.asarray(list(objects.values()), dtype=float)
        if isinstance(nodes, int):
            node_ids: list[NodeId] = list(range(nodes))
            capacities = np.full(nodes, np.inf)
        else:
            node_ids = list(nodes.keys())
            capacities = np.asarray(list(nodes.values()), dtype=float)

        t = len(object_ids)
        index = dict(zip(object_ids, range(t)))
        m = len(correlations)
        ends = np.fromiter(
            map(index.get, itertools.chain.from_iterable(correlations), itertools.repeat(-1)),
            dtype=np.int64,
            count=2 * m,
        ).reshape(m, 2)
        bad = (ends < 0).any(axis=1) | (ends[:, 0] == ends[:, 1])
        if bad.any():
            a, b = next(itertools.islice(correlations, int(bad.argmax()), None))
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise ProblemDefinitionError(f"correlation references unknown object {missing!r}")
            raise ProblemDefinitionError(f"self-correlation for object {a!r}")

        # Canonical i < j keys, sorted; mirrored duplicates are summed in
        # input order from 0.0, as a running dict sum would add them.
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        keys, slot = np.unique(lo * t + hi, return_inverse=True)
        pair_index = np.stack([keys // t, keys % t], axis=1)
        corr = np.bincount(
            slot,
            weights=np.fromiter(correlations.values(), dtype=float, count=m),
            minlength=len(keys),
        )

        if pair_cost is None or pair_cost is min_size_pair_cost:
            costs = np.minimum(sizes[pair_index[:, 0]], sizes[pair_index[:, 1]])
        elif callable(pair_cost):
            size_list = sizes.tolist()
            costs = np.asarray(
                [pair_cost(size_list[i], size_list[j]) for i, j in pair_index.tolist()],
                dtype=float,
            )
        else:
            cost_by_key: dict[tuple[int, int], float] = {}
            for (a, b), w in pair_cost.items():
                if a not in index or b not in index:
                    missing = a if a not in index else b
                    raise ProblemDefinitionError(f"pair cost references unknown object {missing!r}")
                i, j = index[a], index[b]
                cost_by_key[(min(i, j), max(i, j))] = float(w)
            try:
                costs = np.asarray(
                    [cost_by_key[key] for key in map(tuple, pair_index.tolist())],
                    dtype=float,
                )
            except KeyError as exc:
                raise ProblemDefinitionError(
                    f"missing explicit pair cost for correlated pair index {exc}"
                ) from exc

        specs = []
        for name, (loads, budgets) in (resources or {}).items():
            for obj in loads:
                if obj not in index:
                    raise ProblemDefinitionError(
                        f"resource {name!r} references unknown object {obj!r}"
                    )
            specs.append(
                ResourceSpec.from_mappings(name, loads, budgets, object_ids, node_ids)
            )
        return cls(
            object_ids, sizes, node_ids, capacities, pair_index, corr, costs, specs
        )

    # ------------------------------------------------------------------
    # Validation and basic properties
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        t = len(self.object_ids)
        if len(self._object_index) != t:
            raise ProblemDefinitionError("duplicate object ids")
        if len(self._node_index) != len(self.node_ids):
            raise ProblemDefinitionError("duplicate node ids")
        if len(self.node_ids) == 0:
            raise ProblemDefinitionError("a problem needs at least one node")
        if self.sizes.shape != (t,):
            raise ProblemDefinitionError("sizes misaligned with object ids")
        if np.any(self.sizes <= 0) or not np.all(np.isfinite(self.sizes)):
            raise ProblemDefinitionError("object sizes must be positive and finite")
        if not np.all(self.capacities >= 0):  # NaN compares false too
            raise ProblemDefinitionError("node capacities must be nonnegative, not NaN")
        m = self.pair_index.shape[0]
        if self.correlations.shape != (m,) or self.pair_costs.shape != (m,):
            raise ProblemDefinitionError("pair arrays misaligned")
        if m:
            i, j = self.pair_index[:, 0], self.pair_index[:, 1]
            if np.any(i >= j):
                raise ProblemDefinitionError("pair indices must satisfy i < j")
            if np.any(i < 0) or np.any(j >= t):
                raise ProblemDefinitionError("pair indices out of range")
            if not (np.isfinite(self.correlations).all() and np.isfinite(self.pair_costs).all()):
                raise ProblemDefinitionError("correlations and pair costs must be finite")
            if np.any(self.correlations < 0) or np.any(self.pair_costs < 0):
                raise ProblemDefinitionError("correlations and pair costs must be nonnegative")
            keys = np.sort(i * t + j)
            if np.any(keys[1:] == keys[:-1]):
                raise ProblemDefinitionError("duplicate pairs in pair index")
        seen_resources = set()
        for spec in self.resources:
            if spec.name in seen_resources:
                raise ProblemDefinitionError(f"duplicate resource {spec.name!r}")
            seen_resources.add(spec.name)
            if spec.loads.shape != (t,):
                raise ProblemDefinitionError(
                    f"resource {spec.name!r}: loads misaligned with objects"
                )
            if spec.budgets.shape != (len(self.node_ids),):
                raise ProblemDefinitionError(
                    f"resource {spec.name!r}: budgets misaligned with nodes"
                )

    @property
    def num_objects(self) -> int:
        """``|T|``."""
        return len(self.object_ids)

    @property
    def num_nodes(self) -> int:
        """``|N|``."""
        return len(self.node_ids)

    @property
    def num_pairs(self) -> int:
        """``|E|`` — number of pairs with positive correlation."""
        return self.pair_index.shape[0]

    @property
    def pair_weights(self) -> np.ndarray:
        """Per-pair objective weights ``r(i,j) * w(i,j)``."""
        return self.correlations * self.pair_costs

    @property
    def total_size(self) -> float:
        """``S`` — the total size of all objects."""
        return float(self.sizes.sum())

    @property
    def total_capacity(self) -> float:
        """Aggregate capacity of all nodes."""
        return float(self.capacities.sum())

    @property
    def total_pair_weight(self) -> float:
        """Cost of the worst placement: every correlated pair split."""
        return float(self.pair_weights.sum())

    def is_trivially_infeasible(self) -> bool:
        """True when any total demand exceeds its total capacity."""
        return self.capacity_overrun() is not None

    def capacity_overrun(self) -> str | None:
        """Why no placement can fit, or ``None`` when every total fits.

        Names the first dimension whose total demand exceeds its total
        capacity, bytes first and then each Section 3.3 resource in
        order, with its demand and capacity.
        """
        if self.total_size > self.total_capacity + 1e-9:
            return (
                f"total object size {self.total_size:.6g} exceeds "
                f"total capacity {self.total_capacity:.6g}"
            )
        for spec in self.resources:
            if spec.is_trivially_infeasible():
                return (
                    f"total {spec.name!r} load {spec.total_load:.6g} exceeds "
                    f"total {spec.name!r} budget {spec.total_budget:.6g}"
                )
        return None

    def resource(self, name: str) -> ResourceSpec:
        """Look up a resource spec by name."""
        for spec in self.resources:
            if spec.name == name:
                return spec
        raise ProblemDefinitionError(f"unknown resource {name!r}")

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def object_index(self, obj: ObjectId) -> int:
        """Index of object ``obj``."""
        try:
            return self._object_index[obj]
        except KeyError:
            raise ProblemDefinitionError(f"unknown object {obj!r}") from None

    def node_index(self, node: NodeId) -> int:
        """Index of node ``node``."""
        try:
            return self._node_index[node]
        except KeyError:
            raise ProblemDefinitionError(f"unknown node {node!r}") from None

    def size_of(self, obj: ObjectId) -> float:
        """Size of object ``obj``."""
        return float(self.sizes[self.object_index(obj)])

    def pairs(self) -> Iterable[PairData]:
        """Iterate over correlated pairs as :class:`PairData`."""
        for (i, j), r, w in zip(self.pair_index, self.correlations, self.pair_costs):
            yield PairData(int(i), int(j), float(r), float(w))

    # ------------------------------------------------------------------
    # Derived problems
    # ------------------------------------------------------------------
    def subproblem(
        self,
        object_subset: Sequence[ObjectId],
        capacities: np.ndarray | None = None,
    ) -> "PlacementProblem":
        """Restrict the problem to a subset of objects.

        Pairs with either endpoint outside the subset are dropped; node
        set is preserved.  Used by important-object partial
        optimization (Section 3.1).

        Args:
            object_subset: Object ids to keep (order defines the new
                index order).
            capacities: Optional replacement capacity vector (e.g. a
                conservative fraction for the LP of the subproblem).
        """
        try:
            subset_idx = np.fromiter(
                map(self._object_index.__getitem__, object_subset), dtype=np.int64
            )
        except KeyError as exc:
            raise ProblemDefinitionError(f"unknown object {exc.args[0]!r}") from None
        if len(set(subset_idx.tolist())) != len(subset_idx):
            raise ProblemDefinitionError("object subset contains duplicates")
        remap = -np.ones(self.num_objects, dtype=np.int64)
        remap[subset_idx] = np.arange(len(subset_idx))

        if self.num_pairs:
            keep = (remap[self.pair_index[:, 0]] >= 0) & (remap[self.pair_index[:, 1]] >= 0)
            new_pairs = remap[self.pair_index[keep]]
            # Re-canonicalize: remapping can invert the i < j order.
            swap = new_pairs[:, 0] > new_pairs[:, 1]
            new_pairs[swap] = new_pairs[swap][:, ::-1]
            # The pairs are distinct, so any sort of their keys is the
            # one (i, j) order.
            order = np.argsort(new_pairs[:, 0] * len(subset_idx) + new_pairs[:, 1])
            new_pairs = new_pairs[order]
            new_corr = self.correlations[keep][order]
            new_cost = self.pair_costs[keep][order]
        else:
            new_pairs = np.empty((0, 2), dtype=np.int64)
            new_corr = np.empty(0)
            new_cost = np.empty(0)

        caps = self.capacities if capacities is None else np.asarray(capacities, dtype=float)
        return PlacementProblem(
            list(map(self.object_ids.__getitem__, subset_idx.tolist())),
            self.sizes[subset_idx],
            self.node_ids,
            caps,
            new_pairs,
            new_corr,
            new_cost,
            resources=[spec.subset(subset_idx) for spec in self.resources],
        )

    def with_capacities(self, capacities: np.ndarray | float) -> "PlacementProblem":
        """Return a copy with a replacement capacity vector or scalar."""
        caps = np.broadcast_to(np.asarray(capacities, dtype=float), (self.num_nodes,)).copy()
        return PlacementProblem(
            self.object_ids,
            self.sizes,
            self.node_ids,
            caps,
            self.pair_index,
            self.correlations,
            self.pair_costs,
            resources=self.resources,
        )

    def __repr__(self) -> str:
        return (
            f"PlacementProblem(objects={self.num_objects}, nodes={self.num_nodes}, "
            f"pairs={self.num_pairs})"
        )
