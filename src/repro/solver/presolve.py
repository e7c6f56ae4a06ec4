"""Presolve: redundancy elimination on models.

This is the machinery behind the paper's §5.1 claim that the compiled DSL
"allows us to find redundant constraints and variables", shrinking the model
MetaOpt has to solve (4.3x on the DP example). The node behaviors of the DSL
generate exactly the patterns presolve exploits:

* ALL-EQUAL nodes emit ``x == y`` rows           -> affine alias merging
* MULTIPLY nodes emit ``y == C * x`` rows        -> affine alias merging
* constant-rate source edges emit ``x == d``     -> constant propagation
* COPY/SPLIT chains create duplicate rows        -> row deduplication

Unlike a solver's own presolve (the paper's footnote about Gurobi), the
reduction here keeps a full recovery map, so solutions are reported in terms
of the *original* variables — exactly why XPlain wants its own rewrite stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.solver.expr import Constraint, LinExpr, Relation, Variable, VarType
from repro.solver.model import INF, Model
from repro.solver.solution import Solution, SolveStatus

#: Tolerance for deciding that a bound pair / fixed value is contradictory.
FEAS_TOL = 1e-7


@dataclass
class PresolveStats:
    """Counts of what presolve removed."""

    fixed_variables: int = 0
    aliased_variables: int = 0
    dropped_constraints: int = 0
    deduplicated_constraints: int = 0

    @property
    def removed_variables(self) -> int:
        return self.fixed_variables + self.aliased_variables


@dataclass
class PresolveResult:
    """Outcome of presolving a model.

    ``reduced`` is a fresh, smaller model; ``recover`` maps one of its
    solutions back into original-variable space. When ``infeasible`` is set
    the reduction proved the model has no solution and ``reduced`` is None.
    """

    original: Model
    reduced: Model | None
    stats: PresolveStats
    infeasible: bool = False
    _resolution: dict[Variable, tuple[Variable | None, float, float]] = field(
        default_factory=dict, repr=False
    )
    _new_vars: dict[Variable, Variable] = field(default_factory=dict, repr=False)

    def recover(self, solution: Solution) -> Solution:
        """Translate a solution of the reduced model to the original model.

        A solution without values (no optimum, or a node limit reached
        before any incumbent) comes back unchanged.
        """
        incumbent = (
            solution.status is SolveStatus.NODE_LIMIT
            and solution.objective is not None
        )
        if not (solution.is_optimal or incumbent):
            return solution
        values: dict[Variable, float] = {}
        for var in self.original.variables:
            root, alpha, beta = self._resolution[var]
            if root is None:
                values[var] = beta
            else:
                values[var] = alpha * solution.values[self._new_vars[root]] + beta
        return Solution(
            status=solution.status,
            objective=solution.objective,
            values=values,
            stats=solution.stats,
        )

    def solve(self) -> Solution:
        """Solve the reduced model and recover the original solution.

        The solution's stats record how much presolve removed.
        """
        if self.infeasible:
            solution = Solution(status=SolveStatus.INFEASIBLE)
        else:
            assert self.reduced is not None
            solution = self.recover(self.reduced.solve())
        solution.stats.presolve_removed_vars = self.stats.removed_variables
        solution.stats.presolve_removed_constraints = (
            self.stats.dropped_constraints + self.stats.deduplicated_constraints
        )
        return solution


class _AffineUnionFind:
    """Union-find where each variable is an affine function of its root.

    ``resolve(v)`` returns ``(root, alpha, beta)`` with ``v = alpha*root +
    beta``; a fixed variable resolves to ``(None, 0, value)``.
    """

    def __init__(self, variables) -> None:
        self.parent: dict[Variable, Variable] = {v: v for v in variables}
        self.alpha: dict[Variable, float] = {v: 1.0 for v in variables}
        self.beta: dict[Variable, float] = {v: 0.0 for v in variables}
        self.fixed: dict[Variable, float] = {}  # root -> value
        self.lb: dict[Variable, float] = {v: v.lb for v in variables}
        self.ub: dict[Variable, float] = {v: v.ub for v in variables}
        self.infeasible = False

    def find(self, v: Variable) -> tuple[Variable, float, float]:
        """Root and affine coefficients of ``v`` (with path compression)."""
        if self.parent[v] is v:
            return v, self.alpha[v], self.beta[v]
        root, a_p, b_p = self.find(self.parent[v])
        # v = alpha * parent + beta, parent = a_p * root + b_p
        a = self.alpha[v] * a_p
        b = self.alpha[v] * b_p + self.beta[v]
        self.parent[v] = root
        self.alpha[v] = a
        self.beta[v] = b
        return root, a, b

    def resolve(self, v: Variable) -> tuple[Variable | None, float, float]:
        root, a, b = self.find(v)
        if root in self.fixed:
            return None, 0.0, a * self.fixed[root] + b
        return root, a, b

    def fix(self, v: Variable, value: float) -> None:
        """Record ``v == value``; propagates through the alias chain."""
        root, a, b = self.find(v)
        if abs(a) < 1e-12:
            if abs(b - value) > FEAS_TOL:
                self.infeasible = True
            return
        root_value = (value - b) / a
        if root in self.fixed:
            if abs(self.fixed[root] - root_value) > FEAS_TOL:
                self.infeasible = True
            return
        if (
            root_value < self.lb[root] - FEAS_TOL
            or root_value > self.ub[root] + FEAS_TOL
        ):
            self.infeasible = True
            return
        if root.vartype.is_integral and abs(root_value - round(root_value)) > FEAS_TOL:
            self.infeasible = True
            return
        self.fixed[root] = root_value

    def _tighten(self, root: Variable, lo: float, hi: float) -> None:
        self.lb[root] = max(self.lb[root], lo)
        self.ub[root] = min(self.ub[root], hi)
        if self.lb[root] > self.ub[root] + FEAS_TOL:
            self.infeasible = True

    def alias(self, y: Variable, a: float, x: Variable, c: float) -> bool:
        """Record ``a*x + coeff_y*y == c`` solved as ``y = (c - a*x)/coeff_y``.

        The caller passes the already-divided form: ``y = a*x + c`` here
        (``a`` and ``c`` are the slope and intercept). Returns True when the
        union succeeded (False when it would merge a variable with itself in
        an inconsistent or self-referential way that should instead fix it).
        """
        root_y, ay, by = self.find(y)
        root_x, ax, bx = self.find(x)
        if root_x in self.fixed:
            self.fix(y, a * self.fixed[root_x] + c)
            return True
        if root_y in self.fixed:
            # a*x + c == fixed value  ->  x is fixed too.
            if abs(a) < 1e-12:
                if abs(c - self.fixed[root_y]) > FEAS_TOL:
                    self.infeasible = True
                return True
            self.fix(x, (self.fixed[root_y] - c) / a)
            return True
        if root_y is root_x:
            # ay*r + by == a*(ax*r + bx) + c  ->  (ay - a*ax) r == a*bx + c - by
            coeff = ay - a * ax
            rhs = a * bx + c - by
            if abs(coeff) < 1e-12:
                if abs(rhs) > FEAS_TOL:
                    self.infeasible = True
                return True  # redundant
            self.fixed[root_x] = rhs / coeff
            return True
        # y = alpha*root_y + beta  and we want  y = a*x + c
        #   -> root_y = (a*(ax*root_x + bx) + c - by) / ay
        slope = a * ax / ay
        intercept = (a * bx + c - by) / ay
        # Translate root_y's bounds onto root_x before re-rooting.
        lo_y, hi_y = self.lb[root_y], self.ub[root_y]
        if abs(slope) > 1e-12 and (lo_y != -INF or hi_y != INF):
            lo = (lo_y - intercept) / slope
            hi = (hi_y - intercept) / slope
            if slope < 0:
                lo, hi = hi, lo
            self._tighten(root_x, lo, hi)
        self.parent[root_y] = root_x
        self.alpha[root_y] = slope
        self.beta[root_y] = intercept
        return True


def presolve(model: Model, max_rounds: int = 16) -> PresolveResult:
    """Shrink ``model`` by alias merging, constant propagation and dedup."""
    stats = PresolveStats()
    uf = _AffineUnionFind(model.variables)

    # Rewritten constraints as (terms over roots, constant, relation, name).
    live: list[tuple[dict[Variable, float], float, Relation, str]] = [
        (dict(con.expr.terms), con.expr.constant, con.relation, con.name)
        for con in model.constraints
    ]

    for _ in range(max_rounds):
        progress = False
        remaining: list[tuple[dict[Variable, float], float, Relation, str]] = []
        for terms, constant, relation, name in live:
            new_terms: dict[Variable, float] = {}
            new_constant = constant
            for var, coeff in terms.items():
                root, a, b = uf.resolve(var)
                new_constant += coeff * b
                if root is not None and abs(coeff * a) > 1e-12:
                    new_terms[root] = new_terms.get(root, 0.0) + coeff * a
            new_terms = {v: c for v, c in new_terms.items() if abs(c) > 1e-12}

            if not new_terms:
                # Constant row: either trivially true or infeasible.
                value = new_constant
                violated = (
                    (relation is Relation.LE and value > FEAS_TOL)
                    or (relation is Relation.GE and value < -FEAS_TOL)
                    or (relation is Relation.EQ and abs(value) > FEAS_TOL)
                )
                if violated:
                    uf.infeasible = True
                stats.dropped_constraints += 1
                progress = True
                continue

            if relation is Relation.EQ and len(new_terms) == 1:
                (var, coeff), = new_terms.items()
                uf.fix(var, -new_constant / coeff)
                stats.fixed_variables += 1
                stats.dropped_constraints += 1
                progress = True
                continue

            if relation is Relation.EQ and len(new_terms) == 2:
                (v1, c1), (v2, c2) = new_terms.items()
                # Prefer eliminating a continuous variable.
                if v1.vartype is not VarType.CONTINUOUS:
                    v1, c1, v2, c2 = v2, c2, v1, c1
                if v1.vartype is VarType.CONTINUOUS:
                    # c1*v1 + c2*v2 + constant == 0  ->  v1 = -(c2/c1) v2 - constant/c1
                    uf.alias(v1, -c2 / c1, v2, -new_constant / c1)
                    stats.aliased_variables += 1
                    stats.dropped_constraints += 1
                    progress = True
                    continue

            remaining.append((new_terms, new_constant, relation, name))
        live = remaining
        if uf.infeasible:
            return PresolveResult(model, None, stats, infeasible=True)
        if not progress:
            break

    # -- deduplicate structurally identical rows ---------------------------
    seen: dict[tuple, int] = {}
    deduped: list[tuple[dict[Variable, float], float, Relation, str]] = []
    for terms, constant, relation, name in live:
        key_terms = tuple(
            sorted(((v.index, round(c, 12)) for v, c in terms.items()))
        )
        rel_key = relation if relation is not Relation.GE else Relation.LE
        if relation is Relation.GE:
            key_terms = tuple((i, -c) for i, c in key_terms)
            constant_key = -constant
        else:
            constant_key = constant
        key = (key_terms, rel_key)
        if key in seen:
            idx = seen[key]
            old_terms, old_const, old_rel, old_name = deduped[idx]
            if rel_key is Relation.LE:
                # Keep the tighter of the two rows (larger constant means
                # tighter since rows are `terms + constant <= 0`).
                keep_new = constant_key > (
                    -old_const if old_rel is Relation.GE else old_const
                )
                if keep_new:
                    deduped[idx] = (terms, constant, relation, name)
                stats.deduplicated_constraints += 1
                continue
            if abs(constant_key - old_const) <= FEAS_TOL:
                stats.deduplicated_constraints += 1
                continue
            # Equal rows with different rhs: infeasible.
            return PresolveResult(model, None, stats, infeasible=True)
        seen[key] = len(deduped)
        deduped.append((terms, constant, relation, name))
    live = deduped

    # -- build the reduced model --------------------------------------------
    reduced = Model(f"{model.name}_presolved", model.sense)
    new_vars: dict[Variable, Variable] = {}
    used_roots: set[Variable] = set()
    for var in model.variables:
        root, _, _ = uf.resolve(var)
        if root is not None:
            used_roots.add(root)
    for var in model.variables:
        if var in used_roots and var not in new_vars:
            new_vars[var] = reduced.add_var(
                var.name, uf.lb[var], uf.ub[var], var.vartype
            )

    for terms, constant, relation, name in live:
        expr = LinExpr({new_vars[v]: c for v, c in terms.items()}, constant)
        reduced.add_constraint(Constraint(expr, relation, name))

    obj_terms: dict[Variable, float] = {}
    obj_constant = model.objective.constant
    for var, coeff in model.objective.terms.items():
        root, a, b = uf.resolve(var)
        obj_constant += coeff * b
        if root is not None and abs(coeff * a) > 1e-12:
            nv = new_vars[root]
            obj_terms[nv] = obj_terms.get(nv, 0.0) + coeff * a
    reduced.set_objective(LinExpr(obj_terms, obj_constant))

    resolution = {var: uf.resolve(var) for var in model.variables}
    return PresolveResult(
        original=model,
        reduced=reduced,
        stats=stats,
        infeasible=False,
        _resolution=resolution,
        _new_vars=new_vars,
    )


def solve_with_presolve(model: Model) -> Solution:
    """Presolve, solve the reduced model, and recover the original solution."""
    return presolve(model).solve()
