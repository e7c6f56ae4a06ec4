"""From-scratch LP/MILP solver substrate.

The paper's prototype drives Gurobi through MetaOpt; this package replaces
that proprietary layer with a complete, self-contained stack:

* :mod:`repro.solver.expr` — variables, linear expressions, constraints;
* :mod:`repro.solver.model` — the model container; ``Model.solve`` always
  solves with HiGHS;
* :mod:`repro.solver.scipy_backend` — HiGHS via SciPy, the one backend
  behind ``Model.solve``;
* :mod:`repro.solver.simplex` — two-phase primal simplex (dense tableau);
  its ``solve_lp`` is the LP reference tests cross-check HiGHS against;
* :mod:`repro.solver.branch_and_bound` — best-first MILP search, the MILP
  reference tests call as ``solve_milp``;
* :mod:`repro.solver.presolve` — redundancy elimination with recovery maps
  (the engine behind the paper's compiled-DSL speedup claim);
* :mod:`repro.solver.template` — parametric LP templates with basis
  warm-starting (the batched gap-oracle engine's solve substrate);
* :mod:`repro.solver.slab` — the dual-simplex slab that solves a template
  for a whole batch of right-hand sides, stacked (``"tensor"``) or, as
  the bit-identical test reference, one instance at a time
  (``"scalar"``; DESIGN.md §14).
"""

from repro.solver.expr import (
    Constraint,
    LinExpr,
    Relation,
    Variable,
    VarType,
    quicksum,
)
from repro.solver.model import INF, Model
from repro.solver.presolve import PresolveResult, presolve, solve_with_presolve
from repro.solver.slab import SlabResult, solve_slab
from repro.solver.solution import Solution, SolveStats, SolveStatus
from repro.solver.template import LpTemplate, TemplateSlabResult

__all__ = [
    "Constraint",
    "INF",
    "LinExpr",
    "LpTemplate",
    "Model",
    "PresolveResult",
    "Relation",
    "SlabResult",
    "Solution",
    "SolveStats",
    "SolveStatus",
    "TemplateSlabResult",
    "Variable",
    "VarType",
    "presolve",
    "quicksum",
    "solve_slab",
    "solve_with_presolve",
]
