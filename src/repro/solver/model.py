"""The optimization model container.

A :class:`Model` owns variables and constraints, exports itself to matrix
form, and solves itself with HiGHS through SciPy
(:func:`~repro.solver.scipy_backend.solve_scipy`). The from-scratch
two-phase simplex (:func:`~repro.solver.simplex.solve_lp`) and
branch-and-bound (:func:`~repro.solver.branch_and_bound.solve_milp`) take
a :class:`Model` too; they are the independent references the tests
cross-check HiGHS against, called by name.
"""

from __future__ import annotations

import itertools
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.obs.tracing import span as _span
from repro.solver.expr import (
    Constraint,
    LinExpr,
    Relation,
    Variable,
    VarType,
)
from repro.solver.solution import Solution

_model_counter = itertools.count()

INF = float("inf")


def _first_import_span():
    """A ``solver.import`` span while the HiGHS backend (and with it
    ``scipy.optimize``) is not yet loaded in this process."""
    if "repro.solver.scipy_backend" in sys.modules:
        return nullcontext()
    return _span("solver.import")


@dataclass
class MatrixForm:
    """Dense matrix export of a model.

    Inequalities are normalized to ``A_ub @ x <= b_ub``. The objective is
    expressed for *minimization*: ``minimize c @ x + c0``; callers that want
    the model's own sense should use ``objective_sign``.
    """

    variables: list[Variable]
    c: np.ndarray
    c0: float
    objective_sign: float  # +1 when the model minimizes, -1 when it maximizes
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray  # 1 where the variable must be integral


class Model:
    """A linear (or mixed-integer linear) optimization model."""

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self._id = next(_model_counter)
        self._variables: list[Variable] = []
        self._constraints: list[Constraint] = []
        self._objective = LinExpr()
        self._names: set[str] = set()

    # -- construction -------------------------------------------------------
    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = INF,
        vartype: VarType | str = VarType.CONTINUOUS,
    ) -> Variable:
        """Create a new decision variable.

        The default domain is the non-negative reals, matching both LP
        convention and the non-negative flows of the DSL.
        """
        if isinstance(vartype, str):
            vartype = VarType(vartype)
        if vartype is VarType.BINARY:
            lb = max(lb, 0.0)
            ub = min(ub, 1.0)
        if not name:
            name = f"x{len(self._variables)}"
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        var = Variable(name, len(self._variables), lb, ub, vartype, self._id)
        self._variables.append(var)
        self._names.add(name)
        return var

    def add_vars(
        self,
        count: int,
        prefix: str,
        lb: float = 0.0,
        ub: float = INF,
        vartype: VarType | str = VarType.CONTINUOUS,
    ) -> list[Variable]:
        """Create ``count`` variables named ``{prefix}{i}``."""
        return [
            self.add_var(f"{prefix}{i}", lb=lb, ub=ub, vartype=vartype)
            for i in range(count)
        ]

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint (build one with <=, >=, ==); "
                f"got {constraint!r}"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self._constraints)}"
        self._constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint]) -> list[Constraint]:
        return [self.add_constraint(c) for c in constraints]

    def set_objective(self, expr: LinExpr | Variable | float, sense: str | None = None) -> None:
        """Set the objective expression (and optionally flip the sense)."""
        expr = LinExpr.coerce(expr)
        self._check_ownership(expr)
        if sense is not None:
            if sense not in ("min", "max"):
                raise ModelError(f"sense must be 'min' or 'max', got {sense!r}")
            self.sense = sense
        self._objective = expr

    def _check_ownership(self, expr: LinExpr) -> None:
        for var in expr.terms:
            if var._model_id != self._id:
                raise ModelError(
                    f"variable {var.name!r} belongs to a different model"
                )

    # -- introspection -------------------------------------------------------
    @property
    def variables(self) -> Sequence[Variable]:
        return tuple(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constraints)

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def is_mip(self) -> bool:
        """Whether any variable is integral."""
        return any(v.vartype.is_integral for v in self._variables)

    def variable_by_name(self, name: str) -> Variable:
        for var in self._variables:
            if var.name == name:
                return var
        raise KeyError(name)

    def is_feasible(self, values, tol: float = 1e-6) -> bool:
        """Check an assignment against all constraints and bounds."""
        for var in self._variables:
            val = values[var]
            if val < var.lb - tol or val > var.ub + tol:
                return False
            if var.vartype.is_integral and abs(val - round(val)) > tol:
                return False
        return all(c.is_satisfied(values, tol) for c in self._constraints)

    # -- export ----------------------------------------------------------------
    def to_matrix_form(self) -> MatrixForm:
        """Export to dense matrices with a minimization objective."""
        n = len(self._variables)
        sign = 1.0 if self.sense == "min" else -1.0
        c = np.zeros(n)
        for var, coeff in self._objective.terms.items():
            c[var.index] = sign * coeff
        c0 = sign * self._objective.constant

        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []
        for con in self._constraints:
            row = np.zeros(n)
            for var, coeff in con.expr.terms.items():
                row[var.index] = coeff
            rhs = con.rhs
            if con.relation is Relation.LE:
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif con.relation is Relation.GE:
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        lb = np.array([v.lb for v in self._variables])
        ub = np.array([v.ub for v in self._variables])
        integrality = np.array(
            [1 if v.vartype.is_integral else 0 for v in self._variables]
        )
        return MatrixForm(
            variables=list(self._variables),
            c=c,
            c0=c0,
            objective_sign=sign,
            a_ub=a_ub,
            b_ub=np.array(ub_rhs) if ub_rhs else np.zeros(0),
            a_eq=a_eq,
            b_eq=np.array(eq_rhs) if eq_rhs else np.zeros(0),
            lb=lb,
            ub=ub,
            integrality=integrality,
        )

    # -- solving ----------------------------------------------------------------
    def solve(self) -> Solution:
        """Solve the model with HiGHS and return a :class:`Solution`."""
        # Imported here so that loading the model container does not load
        # scipy: a campaign that never solves a model never pays for it.
        # The first solve in a process pays for the import, charged to
        # its own profile row.
        with _first_import_span():
            from repro.solver.scipy_backend import solve_scipy

        start = time.perf_counter()
        solution = solve_scipy(self)
        solution.stats.runtime_seconds = time.perf_counter() - start
        return solution

    # -- misc ----------------------------------------------------------------
    def clone(self) -> "Model":
        """Deep-copy the model (fresh variables with the same structure)."""
        copy = Model(self.name, self.sense)
        mapping: dict[Variable, Variable] = {}
        for var in self._variables:
            mapping[var] = copy.add_var(var.name, var.lb, var.ub, var.vartype)
        for con in self._constraints:
            terms = {mapping[v]: c for v, c in con.expr.terms.items()}
            expr = LinExpr(terms, con.expr.constant)
            copy.add_constraint(Constraint(expr, con.relation, con.name))
        obj_terms = {mapping[v]: c for v, c in self._objective.terms.items()}
        copy._objective = LinExpr(obj_terms, self._objective.constant)
        return copy

    def pretty(self) -> str:
        """Human-readable rendering of the whole model (debugging aid)."""
        lines = [f"{self.sense} {self._objective!r}", "subject to:"]
        for con in self._constraints:
            lines.append(f"  {con!r}")
        lines.append("bounds:")
        for var in self._variables:
            lb = "-inf" if var.lb == -INF else f"{var.lb:g}"
            ub = "+inf" if var.ub == INF else f"{var.ub:g}"
            kind = "" if var.vartype is VarType.CONTINUOUS else f" [{var.vartype.value}]"
            lines.append(f"  {lb} <= {var.name} <= {ub}{kind}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        kind = "MILP" if self.is_mip else "LP"
        return (
            f"Model({self.name!r}, {kind}, vars={self.num_variables}, "
            f"cons={self.num_constraints}, sense={self.sense})"
        )
