"""A small linear-programming substrate: the test oracle's solver.

The paper solved its relaxed placement program with the standalone
LPsolve package.  Planning no longer needs a solver — the relaxation's
optimum has a closed form (:func:`repro.core.lp.pack_components`) — so
this subpackage is the oracle the tests check that closed form
against: a modelling layer (:class:`~repro.lpsolve.model.LinearProgram`)
over scipy's HiGHS solver.  It is never imported on the planning path.
The exact reference, :func:`repro.core.exact.solve_exact`, solves the
same program with its ``x`` block integral.
"""

from repro.lpsolve.model import Constraint, LinearProgram, Sense, Variable
from repro.lpsolve.result import LPResult, LPStatus
from repro.lpsolve.scipy_backend import solve_with_scipy

__all__ = [
    "Constraint",
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "Sense",
    "Variable",
    "solve_with_scipy",
]
