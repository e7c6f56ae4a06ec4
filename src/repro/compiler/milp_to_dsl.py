"""The Appendix-A encoder: any LP/MILP as a flow graph (Theorem A.1).

This module is the constructive proof of the paper's Theorem A.1 turned into
code. Given a :class:`~repro.solver.model.Model` it builds a flow graph
using only the six node behaviors such that maximizing the sink inflow
solves the original problem:

* **Transformation 1** — decompose ``A = A+ - A-`` and ``b = b+ - b-`` so
  every quantity is a non-negative flow;
* **Transformation 2** — one SPLIT node per row, with a slack edge for
  inequality rows and constant-rate edges for ``b+``/``b-`` (Fig. 8);
* **Transformation 3** — one MULTIPLY node per non-zero coefficient: column
  copies ``x+_ij``/``x-_ij`` flow through ``x a_ij`` or ``x 1/a_ij`` nodes
  (Fig. 9), and one ALL-EQUAL node per variable ties the copies together
  (Fig. 10);
* binary variables become PICK sources with unit supply (step S4);
* bounded general integers are binary-expanded before encoding;
* the objective is rewritten as an extra row defining a sink variable
  ``s = shift - c_min @ x`` with ``shift`` large enough to keep ``s >= 0``,
  and the sink maximizes ``s`` (Appendix A.2, "How to capture the
  optimization objective").

``encode_model`` returns an :class:`EncodedProblem` that can recover both
the original optimum and the original variable values from a solution of
the compiled graph; tests round-trip random MILPs through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.compiler.compile import solve_graph
from repro.dsl.graph import FlowGraph
from repro.dsl.nodes import NodeKind
from repro.exceptions import CompilerError
from repro.solver.expr import Variable
from repro.solver.model import INF, Model

#: Upper bound used for the objective shift when a column has no finite
#: upper bound but also a zero objective coefficient (it then never matters).
_UNBOUNDED = INF


@dataclass
class _Column:
    """One encoded column (an original variable or one of its binary bits)."""

    name: str
    ub: float
    is_binary: bool
    #: original variable index and multiplier (bit weight) for recovery
    origin: int
    weight: float


@dataclass
class EncodedProblem:
    """The flow-graph encoding of a model plus recovery bookkeeping."""

    graph: FlowGraph
    columns: list[_Column]
    #: objective recovery: original objective = sign * (shift - s*) + ... see
    #: :meth:`recover_objective`.
    shift: float
    c0: float
    objective_sign: float
    original: Model
    #: per-column edge (source -> all-equal) carrying the column's value
    value_edges: dict[str, tuple[str, str]] = field(default_factory=dict)

    def recover_objective(self, sink_value: float) -> float:
        """Map the optimal sink inflow back to the original optimum."""
        c_min_optimum = self.shift - sink_value
        return self.objective_sign * (c_min_optimum + self.c0)

    def recover_values(self, flows: dict[tuple[str, str], float]) -> dict[Variable, float]:
        """Map edge flows back onto the original model's variables."""
        totals = [0.0] * self.original.num_variables
        for column in self.columns:
            edge = self.value_edges[column.name]
            totals[column.origin] += column.weight * flows.get(edge, 0.0)
        return {
            var: totals[i] for i, var in enumerate(self.original.variables)
        }

    def solve(self) -> tuple[float, dict[Variable, float]]:
        """Compile, solve, and return (original optimum, variable values)."""
        solution, compiled = solve_graph(self.graph)
        if not solution.is_optimal:
            raise CompilerError(
                f"encoded graph is {solution.status.value}; the original "
                "model is likely infeasible or unbounded"
            )
        assert solution.objective is not None
        flows = compiled.varmap.flows(solution)
        return (
            self.recover_objective(solution.objective),
            self.recover_values(flows),
        )


def encode_model(model: Model, name: str | None = None) -> EncodedProblem:
    """Encode ``model`` as a flow graph per Theorem A.1.

    Requirements inherited from the theorem's normal form: continuous
    variables must have lower bound 0 (``x >= 0``), and integral variables
    must have finite bounds (they are binary-expanded). Violations raise
    :class:`CompilerError`.
    """
    mf = model.to_matrix_form()
    columns = _build_columns(mf)

    # Rows: (coeffs over columns, rhs, needs_slack). GE rows were already
    # normalized into LE form by to_matrix_form.
    rows: list[tuple[dict[int, float], float, bool]] = []
    for r in range(mf.a_ub.shape[0]):
        rows.append((_expand_row(mf.a_ub[r], columns), float(mf.b_ub[r]), True))
    for r in range(mf.a_eq.shape[0]):
        rows.append((_expand_row(mf.a_eq[r], columns), float(mf.b_eq[r]), False))
    # Binary expansions whose bit pattern can exceed the integer's true upper
    # bound get an explicit cap row (e.g. ub=5 -> 3 bits -> cap at 5).
    for coeffs, rhs in _integer_cap_rows(columns, mf):
        rows.append((coeffs, rhs, True))

    # Objective row: c_min @ x + s == shift, with shift >= max(c_min @ x).
    c_cols = _expand_row(mf.c, columns)
    shift = 0.0
    for col_idx, coeff in c_cols.items():
        if coeff > 0:
            ub = columns[col_idx].ub
            if not math.isfinite(ub):
                raise CompilerError(
                    f"column {columns[col_idx].name!r} needs a finite upper "
                    "bound to encode the objective shift"
                )
            shift += coeff * ub

    graph = FlowGraph(name or f"{model.name}_encoded")
    graph.default_big_m = 1.0

    # -- step S3/S4: one value node per column -------------------------------
    value_edges: dict[str, tuple[str, str]] = {}
    used_dump = False
    for col in columns:
        ae = f"eq[{col.name}]"
        graph.add_node(ae, NodeKind.ALL_EQUAL, metadata={"role": "variable"})
        if col.is_binary:
            pick = f"bin[{col.name}]"
            graph.add_node(
                pick,
                NodeKind.SOURCE,
                NodeKind.PICK,
                supply=1.0,
                metadata={"role": "binary"},
            )
            graph.add_edge(pick, ae, capacity=1.0, metadata={"role": "on"})
            # The 'off' branch absorbs the unit when the binary is 0.
            if not used_dump:
                graph.add_node("dump", NodeKind.SINK, metadata={"role": "dump"})
                used_dump = True
            graph.add_edge(pick, "dump", capacity=1.0, metadata={"role": "off"})
            value_edges[col.name] = (pick, ae)
        else:
            src = f"var[{col.name}]"
            graph.add_node(
                src, NodeKind.SOURCE, metadata={"role": "variable-source"}
            )
            capacity = col.ub if math.isfinite(col.ub) else None
            graph.add_edge(src, ae, capacity=capacity)
            value_edges[col.name] = (src, ae)

    # -- the sink variable s, routed into the objective sink ----------------
    # s = shift - c_min @ x is pinned by the objective row's conservation
    # equality, so the carrying edge needs no capacity; s >= 0 holds for
    # every feasible x because shift >= max(c_min @ x) by construction.
    s_col = _Column(name="s_obj", ub=INF, is_binary=False, origin=-1, weight=0.0)
    ae_s = "eq[s_obj]"
    graph.add_node(ae_s, NodeKind.ALL_EQUAL, metadata={"role": "objective-var"})
    graph.add_node("var[s_obj]", NodeKind.SOURCE, metadata={"role": "variable-source"})
    graph.add_edge("var[s_obj]", ae_s)
    graph.add_node("objective", NodeKind.SINK, metadata={"role": "objective"})
    graph.add_edge(ae_s, "objective")
    graph.set_objective("objective", sense="max")

    obj_row = dict(c_cols)
    rows.append((obj_row, shift, False))
    s_row_index = len(rows) - 1

    # -- steps S1/S2: one SPLIT node per row, MULTIPLY per coefficient ------
    used_bsink = False
    for i, (coeffs, rhs, needs_slack) in enumerate(rows):
        row_node = f"row[{i}]"
        graph.add_node(row_node, NodeKind.SPLIT, metadata={"role": "constraint"})

        if needs_slack:
            slack = f"slack[{i}]"
            graph.add_node(slack, NodeKind.SOURCE, metadata={"role": "slack"})
            graph.add_edge(slack, row_node)

        if rhs > 0:
            # b+ leaves the row node at a constant rate (Fig. 8).
            if not used_bsink:
                graph.add_node("bsink", NodeKind.SINK, metadata={"role": "b"})
                used_bsink = True
            graph.add_edge(row_node, "bsink", fixed_rate=rhs)
        elif rhs < 0:
            const = f"bsrc[{i}]"
            graph.add_node(
                const, NodeKind.SOURCE, supply=-rhs, metadata={"role": "b"}
            )
            graph.add_edge(const, row_node, fixed_rate=-rhs)

        for col_idx, coeff in coeffs.items():
            col = columns[col_idx] if col_idx >= 0 else s_col
            ae = f"eq[{col.name}]"
            mult = f"mul[{i}|{col.name}]"
            if coeff > 0:
                # Incoming side: ae -> (x coeff) -> row (Fig. 9 left).
                graph.add_node(
                    mult,
                    NodeKind.MULTIPLY,
                    multiplier=coeff,
                    metadata={"role": "coefficient"},
                )
                graph.add_edge(ae, mult)
                graph.add_edge(mult, row_node)
            else:
                # Outgoing side: row -> (x 1/|coeff|) -> ae (Fig. 9 right).
                graph.add_node(
                    mult,
                    NodeKind.MULTIPLY,
                    multiplier=1.0 / abs(coeff),
                    metadata={"role": "coefficient"},
                )
                graph.add_edge(row_node, mult)
                graph.add_edge(mult, ae)

    # The objective row needs s itself: add coefficient +1 for s (incoming).
    # (It was not part of obj_row above because s is not an original column.)
    mult_s = f"mul[{s_row_index}|s_obj]"
    graph.add_node(mult_s, NodeKind.MULTIPLY, multiplier=1.0)
    graph.add_edge(ae_s, mult_s)
    graph.add_edge(mult_s, f"row[{s_row_index}]")

    graph.validate()
    return EncodedProblem(
        graph=graph,
        columns=columns,
        shift=shift,
        c0=mf.c0,
        objective_sign=mf.objective_sign,
        original=model,
        value_edges=value_edges,
    )


def _build_columns(mf) -> list[_Column]:
    """Expand model variables into encoder columns (binary-expanding ints)."""
    columns: list[_Column] = []
    for i, var in enumerate(mf.variables):
        lb, ub = float(mf.lb[i]), float(mf.ub[i])
        if mf.integrality[i]:
            if lb != 0.0:
                raise CompilerError(
                    f"integral variable {var.name!r} must have lb == 0 for "
                    f"the Appendix-A encoding (got {lb})"
                )
            if not math.isfinite(ub):
                raise CompilerError(
                    f"integral variable {var.name!r} needs a finite upper "
                    "bound for binary expansion"
                )
            max_value = int(math.floor(ub + 1e-9))
            if max_value <= 1:
                columns.append(
                    _Column(var.name, 1.0, True, origin=i, weight=1.0)
                )
                continue
            bits = max(1, math.ceil(math.log2(max_value + 1)))
            for k in range(bits):
                columns.append(
                    _Column(
                        f"{var.name}#b{k}", 1.0, True, origin=i, weight=float(2**k)
                    )
                )
            # Note: the bit pattern can exceed max_value; the encoder relies
            # on the original rows to cut those off only when they do. To be
            # exact we add an explicit cap row later via the caller's rows —
            # instead we simply record the cap as a pseudo-row here.
        else:
            if lb != 0.0:
                raise CompilerError(
                    f"continuous variable {var.name!r} must have lb == 0 for "
                    f"the Appendix-A encoding (got {lb})"
                )
            columns.append(_Column(var.name, ub, False, origin=i, weight=1.0))
    return columns


def _expand_row(row: np.ndarray, columns: list[_Column]) -> dict[int, float]:
    """Rewrite a row over original variables into one over encoder columns."""
    coeffs: dict[int, float] = {}
    for col_idx, col in enumerate(columns):
        a = float(row[col.origin]) * col.weight
        if a != 0.0:
            coeffs[col_idx] = a
    return coeffs


def encode_and_solve(model: Model) -> tuple[float, dict[Variable, float]]:
    """Round-trip helper: encode, compile, solve, recover (tests use this)."""
    return encode_model(model).solve()


def _integer_cap_rows(columns: list[_Column], mf) -> list[tuple[dict[int, float], float]]:
    """LE rows capping binary expansions at the variable's true upper bound."""
    rows: list[tuple[dict[int, float], float]] = []
    by_origin: dict[int, list[int]] = {}
    for idx, col in enumerate(columns):
        if col.is_binary and "#b" in col.name:
            by_origin.setdefault(col.origin, []).append(idx)
    for origin, col_idxs in by_origin.items():
        ub = float(mf.ub[origin])
        max_pattern = sum(columns[i].weight for i in col_idxs)
        if max_pattern > ub + 1e-9:
            rows.append(
                ({i: columns[i].weight for i in col_idxs}, ub)
            )
    return rows
