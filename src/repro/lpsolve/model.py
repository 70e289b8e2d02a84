"""Linear-program modelling layer.

A :class:`LinearProgram` collects variables and sparse linear
constraints, then dispatches to a backend for the actual solve.  The
design goal is the one the paper needed from LPsolve: build a program
with hundreds of thousands of variables cheaply (append-only arrays, no
per-constraint Python objects on the hot path) and hand it to an exact
LP solver.

Example:
    >>> lp = LinearProgram("toy")
    >>> x = lp.add_variable("x", objective=1.0)
    >>> y = lp.add_variable("y", objective=2.0)
    >>> _ = lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.GE, 1.0)
    >>> result = lp.solve()
    >>> round(result.objective, 6)
    1.0
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SolverError
from repro.lpsolve.result import LPResult


class Sense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable: an index plus descriptive metadata."""

    index: int
    name: str
    lower: float
    upper: float

    def __index__(self) -> int:
        return self.index


@dataclass(frozen=True)
class Constraint:
    """A handle to a constraint row (index plus metadata)."""

    index: int
    name: str
    sense: Sense
    rhs: float


class LinearProgram:
    """A minimization linear program built incrementally.

    Variables default to ``[0, +inf)`` bounds and a zero objective
    coefficient.  Constraints are stored as COO triplets so that
    building a program with ``O(|T| * |N|)`` rows (the paper's placement
    LP) stays linear-time.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._var_names: list[str] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._objective: list[float] = []
        # Constraint matrix in COO triplet form.
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._senses: list[Sense] = []
        self._rhs: list[float] = []
        self._con_names: list[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of variables added so far."""
        return len(self._var_names)

    @property
    def num_constraints(self) -> int:
        """Number of constraint rows added so far."""
        return len(self._rhs)

    @property
    def num_nonzeros(self) -> int:
        """Number of nonzero constraint coefficients."""
        return len(self._vals)

    def add_variable(
        self,
        name: str = "",
        lower: float = 0.0,
        upper: float = float("inf"),
        objective: float = 0.0,
    ) -> Variable:
        """Add one decision variable and return its handle.

        Args:
            name: Optional descriptive name (auto-generated if empty).
            lower: Lower bound (default 0).
            upper: Upper bound (default +inf).
            objective: Coefficient in the minimization objective.
        """
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        index = len(self._var_names)
        if not name:
            name = f"x{index}"
        self._var_names.append(name)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._objective.append(float(objective))
        return Variable(index, name, float(lower), float(upper))

    def add_variables(
        self,
        count: int,
        prefix: str = "x",
        lower: float = 0.0,
        upper: float = float("inf"),
        objective: float = 0.0,
    ) -> list[Variable]:
        """Add ``count`` variables sharing bounds and objective weight."""
        return [
            self.add_variable(f"{prefix}{i}", lower, upper, objective)
            for i in range(count)
        ]

    def add_variables_from_arrays(
        self,
        names: Sequence[str],
        lower: float | Sequence[float] = 0.0,
        upper: float | Sequence[float] = float("inf"),
        objective: float | Sequence[float] = 0.0,
    ) -> int:
        """Bulk-append variables; returns the index of the first one.

        The batch equivalent of calling :meth:`add_variable` once per
        name: the resulting program state is identical, but the
        appends happen as single ``list.extend`` calls instead of one
        Python call per variable.  Scalars broadcast over the batch.
        """
        count = len(names)
        base = len(self._var_names)
        lower_arr = np.broadcast_to(np.asarray(lower, dtype=float), (count,))
        upper_arr = np.broadcast_to(np.asarray(upper, dtype=float), (count,))
        objective_arr = np.broadcast_to(np.asarray(objective, dtype=float), (count,))
        bad = np.flatnonzero(lower_arr > upper_arr)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"variable {names[i]!r}: lower {lower_arr[i]} > upper {upper_arr[i]}"
            )
        self._var_names.extend(
            name if name else f"x{base + i}" for i, name in enumerate(names)
        )
        self._lower.extend(lower_arr.tolist())
        self._upper.extend(upper_arr.tolist())
        self._objective.extend(objective_arr.tolist())
        return base

    def add_constraints_from_arrays(
        self,
        rows: Sequence[int] | np.ndarray,
        cols: Sequence[int] | np.ndarray,
        vals: Sequence[float] | np.ndarray,
        senses: Sense | Sequence[Sense],
        rhs: Sequence[float] | np.ndarray,
        names: Sequence[str] | None = None,
    ) -> int:
        """Bulk-append constraint rows from COO triplets.

        The batch equivalent of one :meth:`add_constraint` call per
        row: the COO triplet arrays land in the same append-only
        storage in the same order, so the resulting program is
        byte-identical to the loop — but without a Python-level loop
        over ``len(vals)`` coefficients.

        Args:
            rows: Local 0-based row offset of each triplet (values in
                ``[0, len(rhs))``, ordered however the caller likes —
                triplet order is preserved verbatim).
            cols: Variable index of each triplet.
            vals: Coefficient of each triplet.
            senses: One :class:`Sense` shared by every row, or one per
                row.
            rhs: Right-hand side per row; its length is the number of
                rows appended.
            names: Optional name per row (empty strings auto-name).

        Returns:
            The global index of the first appended row.
        """
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        vals_arr = np.asarray(vals, dtype=float)
        rhs_arr = np.asarray(rhs, dtype=float)
        count = int(rhs_arr.shape[0])
        if not (rows_arr.shape == cols_arr.shape == vals_arr.shape):
            raise ValueError("rows, cols, and vals must have matching lengths")
        if rows_arr.size and not (
            0 <= int(rows_arr.min()) and int(rows_arr.max()) < count
        ):
            raise ValueError(f"row offsets must lie in [0, {count})")
        n = self.num_variables
        if cols_arr.size and not (
            0 <= int(cols_arr.min()) and int(cols_arr.max()) < n
        ):
            raise ValueError(f"constraint references an unknown variable (n={n})")
        base = len(self._rhs)
        if isinstance(senses, Sense):
            sense_list = [senses] * count
        else:
            sense_list = list(senses)
            if len(sense_list) != count:
                raise ValueError("senses must match the number of rows")
            if not all(isinstance(s, Sense) for s in sense_list):
                raise ValueError("senses must be Sense members")
        if names is None:
            name_list = [f"c{base + r}" for r in range(count)]
        else:
            if len(names) != count:
                raise ValueError("names must match the number of rows")
            name_list = [
                name if name else f"c{base + r}" for r, name in enumerate(names)
            ]
        self._rows.extend((rows_arr + base).tolist())
        self._cols.extend(cols_arr.tolist())
        self._vals.extend(vals_arr.tolist())
        self._senses.extend(sense_list)
        self._rhs.extend(rhs_arr.tolist())
        self._con_names.extend(name_list)
        return base

    def set_objective(self, var: Variable | int, coefficient: float) -> None:
        """Set (overwrite) the objective coefficient of one variable."""
        self._objective[int(var)] = float(coefficient)

    def add_constraint(
        self,
        terms: Iterable[tuple[Variable | int, float]],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Add the constraint ``sum(coef * var) <sense> rhs``.

        Args:
            terms: Iterable of ``(variable, coefficient)`` pairs.  A
                variable may appear more than once; coefficients add.
            sense: Constraint direction.
            rhs: Right-hand side.
            name: Optional descriptive name.
        """
        row = len(self._rhs)
        n = self.num_variables
        for var, coef in terms:
            col = int(var)
            if not 0 <= col < n:
                raise ValueError(f"constraint {name or row}: unknown variable {col}")
            self._rows.append(row)
            self._cols.append(col)
            self._vals.append(float(coef))
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._con_names.append(name or f"c{row}")
        return Constraint(row, self._con_names[-1], sense, float(rhs))

    # ------------------------------------------------------------------
    # Export / solve
    # ------------------------------------------------------------------
    def objective_vector(self) -> np.ndarray:
        """The objective coefficients as a dense vector."""
        return np.asarray(self._objective, dtype=float)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bound vectors."""
        return (
            np.asarray(self._lower, dtype=float),
            np.asarray(self._upper, dtype=float),
        )

    def constraint_matrix(self) -> sp.csr_matrix:
        """The full constraint matrix (all senses mixed) as CSR."""
        return sp.coo_matrix(
            (self._vals, (self._rows, self._cols)),
            shape=(self.num_constraints, self.num_variables),
        ).tocsr()

    def split_by_sense(
        self,
    ) -> tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix, np.ndarray]:
        """Return ``(A_ub, b_ub, A_eq, b_eq)`` with GE rows negated to LE.

        This is the form scipy's ``linprog`` expects.
        """
        matrix = self.constraint_matrix()
        senses = np.asarray([s.value for s in self._senses])
        rhs = np.asarray(self._rhs, dtype=float)

        le_mask = senses == Sense.LE.value
        ge_mask = senses == Sense.GE.value
        eq_mask = senses == Sense.EQ.value

        a_le = matrix[le_mask]
        b_le = rhs[le_mask]
        a_ge = -matrix[ge_mask]
        b_ge = -rhs[ge_mask]
        a_ub = sp.vstack([a_le, a_ge], format="csr") if (a_le.shape[0] or a_ge.shape[0]) else sp.csr_matrix((0, self.num_variables))
        b_ub = np.concatenate([b_le, b_ge])
        a_eq = matrix[eq_mask]
        b_eq = rhs[eq_mask]
        return a_ub, b_ub, a_eq, b_eq

    def variable_name(self, index: int) -> str:
        """Name of the variable at ``index``."""
        return self._var_names[index]

    def constraint_name(self, index: int) -> str:
        """Name of the constraint row at ``index``."""
        return self._con_names[index]

    def constraint_index(self, name: str) -> int:
        """Row index of the constraint named ``name``."""
        try:
            return self._con_names.index(name)
        except ValueError:
            raise KeyError(f"unknown constraint {name!r}") from None

    def sense_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Original row indices of the (ub, eq) blocks that
        :meth:`split_by_sense` produces, in block order.  GE rows are
        listed in the ub block (they are negated to <= there)."""
        senses = np.asarray([s.value for s in self._senses])
        le_idx = np.where(senses == Sense.LE.value)[0]
        ge_idx = np.where(senses == Sense.GE.value)[0]
        eq_idx = np.where(senses == Sense.EQ.value)[0]
        return np.concatenate([le_idx, ge_idx]), eq_idx

    # Above this many variables, "auto" switches from dual simplex to
    # interior point + crossover, which is far faster on the large
    # placement LPs while still returning a basic solution.
    AUTO_IPM_THRESHOLD = 50_000

    def solve(self, backend: str = "auto") -> LPResult:
        """Solve the program with HiGHS.

        Args:
            backend: ``"auto"`` (default: HiGHS dual simplex for small
                programs, interior point for large ones), ``"highs"``,
                or ``"highs-ipm"``.
        """
        # Imported lazily to keep model-building import-light.
        if backend == "auto":
            backend = (
                "highs-ipm"
                if self.num_variables > self.AUTO_IPM_THRESHOLD
                else "highs"
            )
        if backend in ("highs", "highs-ipm"):
            from repro.lpsolve.scipy_backend import solve_with_scipy

            return solve_with_scipy(self, method=backend)
        raise SolverError(f"unknown LP backend: {backend!r}")

    def __repr__(self) -> str:
        return (
            f"LinearProgram(name={self.name!r}, variables={self.num_variables}, "
            f"constraints={self.num_constraints}, nonzeros={self.num_nonzeros})"
        )


def lp_from_arrays(
    objective: Sequence[float],
    a_ub: np.ndarray | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: Sequence[float] | None = None,
    name: str = "lp",
) -> LinearProgram:
    """Build a :class:`LinearProgram` from dense arrays (test helper)."""
    lp = LinearProgram(name)
    variables = [lp.add_variable(objective=c) for c in objective]
    if a_ub is not None:
        if b_ub is None:
            raise ValueError("a_ub given without b_ub")
        for row, rhs in zip(np.atleast_2d(a_ub), b_ub):
            lp.add_constraint(
                [(v, c) for v, c in zip(variables, row) if c != 0.0], Sense.LE, rhs
            )
    if a_eq is not None:
        if b_eq is None:
            raise ValueError("a_eq given without b_eq")
        for row, rhs in zip(np.atleast_2d(a_eq), b_eq):
            lp.add_constraint(
                [(v, c) for v, c in zip(variables, row) if c != 0.0], Sense.EQ, rhs
            )
    return lp
