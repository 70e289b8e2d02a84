"""HiGHS backend: solve a :class:`LinearProgram` via ``scipy.optimize.linprog``."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import SolverError
from repro.lpsolve.result import LPResult, LPStatus

# scipy linprog status codes -> our status enum.
_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,  # iteration limit
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,
}


def solve_with_scipy(lp, method: str = "highs") -> LPResult:
    """Solve ``lp`` with scipy's HiGHS solver.

    Args:
        lp: A :class:`repro.lpsolve.model.LinearProgram`.
        method: scipy method name — ``"highs"`` (automatic, typically
            dual simplex) or ``"highs-ipm"`` (interior point with
            crossover; much faster on the large placement LPs).

    Returns:
        An :class:`LPResult`; ``status`` reflects the HiGHS outcome.

    Raises:
        SolverError: If scipy raises or returns an unknown status.
    """
    if lp.num_variables == 0:
        return LPResult(LPStatus.OPTIMAL, 0.0, np.empty(0), "empty program")

    a_ub, b_ub, a_eq, b_eq = lp.split_by_sense()
    lower, upper = lp.bounds_arrays()
    bounds = list(zip(lower, np.where(np.isinf(upper), None, upper)))
    try:
        res = linprog(
            c=lp.objective_vector(),
            A_ub=a_ub if a_ub.shape[0] else None,
            b_ub=b_ub if b_ub.size else None,
            A_eq=a_eq if a_eq.shape[0] else None,
            b_eq=b_eq if b_eq.size else None,
            bounds=bounds,
            method=method,
        )
    except ValueError as exc:  # malformed input surfaced by scipy
        raise SolverError(f"scipy linprog rejected the program: {exc}") from exc

    status = _STATUS_MAP.get(res.status)
    if status is None:
        raise SolverError(f"scipy linprog returned unknown status {res.status}")
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, message=res.message)

    duals = _reconstruct_duals(lp, res)
    return LPResult(
        LPStatus.OPTIMAL,
        objective=float(res.fun),
        x=np.asarray(res.x, dtype=float),
        message=res.message,
        iterations=int(getattr(res, "nit", 0) or 0),
        duals=duals,
    )


def _reconstruct_duals(lp, res) -> np.ndarray | None:
    """Map scipy's block-ordered marginals back to original rows.

    GE rows were negated into the <= block, so their duals flip sign
    back; the result uses the convention that a binding constraint of
    either sense has a dual whose sign reflects improving the optimum
    per unit of *relaxation*.
    """
    ineq = getattr(res, "ineqlin", None)
    eq = getattr(res, "eqlin", None)
    if ineq is None and eq is None:
        return None
    ub_rows, eq_rows = lp.sense_order()
    duals = np.zeros(lp.num_constraints)
    if ineq is not None and len(getattr(ineq, "marginals", [])) == len(ub_rows):
        marginals = np.asarray(ineq.marginals, dtype=float)
        from repro.lpsolve.model import Sense as _Sense

        for block_pos, original in enumerate(ub_rows):
            value = marginals[block_pos]
            # GE rows were negated; flip the sign back.
            if lp._senses[original] is _Sense.GE:
                value = -value
            duals[original] = value
    if eq is not None and len(getattr(eq, "marginals", [])) == len(eq_rows):
        duals[eq_rows] = np.asarray(eq.marginals, dtype=float)
    return duals
